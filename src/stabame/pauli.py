"""Phase-tracked arithmetic in the n-qudit Weyl-Heisenberg (generalized Pauli) group.

Conventions, fixed once for the whole package:

* omega = exp(2*pi*i/D), lam = exp(pi*i/D), so lam**2 = omega.
* Z|j> = omega**j |j>  and  X|j> = |j-1 mod D>  (i.e. X = sum_j |j><j+1|).
* A group element is lam**phase_exp * prod_k X_k**x_k Z_k**z_k with
  phase_exp mod 2D and x_k, z_k mod D, sites in normal order (X before Z).

With these conventions Z**z X**x = omega**(-z*x) X**x Z**z, so multiplying two
elements in normal form picks up the phase correction -2 * (z_a . x_b) mod 2D.
That sign is locked by a dense-matrix regression test; do not change it
without re-deriving against the explicit matrices.

All group arithmetic is exact integer arithmetic; the dense matrices it is
checked against live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class PauliProduct:
    """One Weyl-Heisenberg group element on ``parties`` qudits of dimension ``dimension``."""

    dimension: int
    parties: int
    phase_exp: int
    x_exp: tuple[int, ...]
    z_exp: tuple[int, ...]

    def __post_init__(self):
        d = self.dimension
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        if self.parties < 1:
            raise ValueError(f"parties must be >= 1, got {self.parties}")
        if len(self.x_exp) != self.parties or len(self.z_exp) != self.parties:
            raise ValueError("exponent vectors must have one entry per party")
        if not 0 <= self.phase_exp < 2 * d:
            raise ValueError(f"phase exponent {self.phase_exp} out of range [0, {2 * d})")
        for v in self.x_exp:
            if not 0 <= v < d:
                raise ValueError(f"x exponent {v} out of range [0, {d})")
        for v in self.z_exp:
            if not 0 <= v < d:
                raise ValueError(f"z exponent {v} out of range [0, {d})")

    @classmethod
    def identity(cls, dimension: int, parties: int) -> "PauliProduct":
        zero = (0,) * parties
        return cls(dimension, parties, 0, zero, zero)

    def is_identity(self) -> bool:
        return self.phase_exp == 0 and self.is_phase_only()

    def is_phase_only(self) -> bool:
        return not any(self.x_exp) and not any(self.z_exp)


def make_pauli(
    dimension: int,
    parties: int,
    phase_exp: int = 0,
    x_exp: Sequence[int] | None = None,
    z_exp: Sequence[int] | None = None,
) -> PauliProduct:
    """Build a PauliProduct, reducing exponents into their canonical ranges."""
    if dimension < 2:  # the reductions below would divide by it
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    x = tuple(int(v) % dimension for v in (x_exp if x_exp is not None else [0] * parties))
    z = tuple(int(v) % dimension for v in (z_exp if z_exp is not None else [0] * parties))
    return PauliProduct(dimension, parties, int(phase_exp) % (2 * dimension), x, z)


def _check_compatible(a: PauliProduct, b: PauliProduct):
    if a.dimension != b.dimension or a.parties != b.parties:
        raise ValueError(
            f"incompatible operands: ({a.dimension},{a.parties}) vs ({b.dimension},{b.parties})"
        )


def multiply(a: PauliProduct, b: PauliProduct) -> PauliProduct:
    """Group product a*b in normal form.

    Reordering Z_a past X_b contributes lam**(-2 * z_a . x_b); see the module
    docstring for the derivation of the sign.
    """
    _check_compatible(a, b)
    d = a.dimension
    corr = sum(za * xb for za, xb in zip(a.z_exp, b.x_exp))
    phase = (a.phase_exp + b.phase_exp - 2 * corr) % (2 * d)
    x = tuple((xa + xb) % d for xa, xb in zip(a.x_exp, b.x_exp))
    z = tuple((za + zb) % d for za, zb in zip(a.z_exp, b.z_exp))
    return PauliProduct(d, a.parties, phase, x, z)


def power(p: PauliProduct, k: int) -> PauliProduct:
    """p**k for any integer k, in closed form.

    (X**x Z**z)**k = omega**(-k(k-1)/2 * z.x) X**(kx) Z**(kz), from moving
    each Z past the later X's, so the phase exponent is
    k*gamma - k(k-1)(z.x) mod 2D. Every element satisfies p**(2D) = identity,
    so k is reduced mod 2D first.
    """
    d = p.dimension
    k %= 2 * d
    zx = sum(z * x for z, x in zip(p.z_exp, p.x_exp))
    phase = (k * p.phase_exp - k * (k - 1) * zx) % (2 * d)
    x = tuple(k * v % d for v in p.x_exp)
    z = tuple(k * v % d for v in p.z_exp)
    return PauliProduct(d, p.parties, phase, x, z)


def symplectic_inner(a: PauliProduct, b: PauliProduct) -> int:
    """(z_a . x_b - x_a . z_b) mod D; zero exactly when a and b commute."""
    _check_compatible(a, b)
    val = sum(za * xb - xa * zb for xa, za, xb, zb in zip(a.x_exp, a.z_exp, b.x_exp, b.z_exp))
    return val % a.dimension


def format_pauli(p: PauliProduct) -> str:
    """Serialize as ``gamma | x_1 ... x_n | z_1 ... z_n`` (decimal, pipe-separated)."""
    return "{} | {} | {}".format(
        p.phase_exp, " ".join(map(str, p.x_exp)), " ".join(map(str, p.z_exp))
    )


def parse_pauli(line: str, dimension: int, parties: int) -> PauliProduct:
    """Parse the text serialization produced by :func:`format_pauli`.

    Out-of-range integers are reduced into their canonical ranges.
    """
    blocks = [blk.strip() for blk in line.split("|")]
    if len(blocks) != 3:
        raise ValueError(f"expected 3 pipe-separated blocks, got {len(blocks)}: {line!r}")
    try:
        phase = int(blocks[0])
        x = [int(tok) for tok in blocks[1].split()]
        z = [int(tok) for tok in blocks[2].split()]
    except ValueError as exc:
        raise ValueError(f"bad integer in Pauli line {line!r}") from exc
    if len(x) != parties or len(z) != parties:
        raise ValueError(f"expected {parties} exponents per block in {line!r}")
    return make_pauli(dimension, parties, phase, x, z)
