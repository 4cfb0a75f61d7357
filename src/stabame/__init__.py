"""Qudit stabilizer toolkit for absolutely maximally entangled (AME) states.

Exact Weyl-Heisenberg group arithmetic over Z_D, stabilizer-group validation,
dense and symbolic AME verification, CRT decomposition of composite-dimension
stabilizer states into prime-power factors, exhaustive graph-state search,
and a no-go table generator.
"""

__version__ = "0.1.0"

from . import ame, nogo, pauli, ring, search, stabgroup, statevec  # noqa: F401
