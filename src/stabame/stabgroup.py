"""Stabilizer groups over Z_D: validation, CRT factor groups, the generator file format.

A generator list claims to stabilize a unique state when the generated group
is abelian, phase-consistent (no lam**g * identity with g != 0 in the group),
and has order exactly D**n. Each group brings its exponent matrix once into
unit-pivot echelon form mod D (``ring.unit_echelon_mod``), and both
validation and the symbolic AME scan read that one echelon. The order is
D**(number of pivots) times the span order of the rows left without one.
Only when that order is below D**r, for r generators, are the generators
dependent; then one more elimination (``ring.kernel_mod``) gives the
relations among them. Phase consistency is checked on the products over
those relations and on each gen**D, so no group is ever listed element by
element.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

from . import ring
from .errors import BudgetExceededError, decimal_digits
from .pauli import (
    PauliProduct,
    check_size,
    format_pauli,
    make_pauli,
    multiply,
    parse_pauli,
    power,
)


# Most exponents (a phase, n X and n Z per generator) a constructed group may
# hold: about 2 MB as a generator file, and GHZ up to n = 706.
MAX_GROUP_EXPONENTS = 10**6
# Most bits, n * bit_length(D), that the order D**n of a group may span:
# validate forms D**n and verify prints it, in well under a second at this size.
MAX_ORDER_BITS = 2**23


@dataclass(frozen=True)
class StabilizerGroup:
    """A generator list over Z_D on ``parties`` qudits (validity is not assumed)."""

    dimension: int
    parties: int
    generators: tuple[PauliProduct, ...]

    def __post_init__(self):
        check_size(self.dimension, self.parties)
        bits = self.parties * self.dimension.bit_length()
        if bits > MAX_ORDER_BITS:
            raise ValueError(
                f"the order D**n at n={self.parties} spans up to {bits} bits, over the "
                f"limit of {MAX_ORDER_BITS}"
            )
        for g in self.generators:
            if g.dimension != self.dimension or g.parties != self.parties:
                raise ValueError("generator dimension/parties mismatch")

    @cached_property
    def echelon(self) -> tuple[list[int | None], list[list[int]]]:
        """The unit-pivot echelon form of :func:`exponent_matrix` mod D
        (``ring.unit_echelon_mod``), computed once per (immutable) group and
        read by both :func:`validate` and the symbolic AME scan."""
        return ring.unit_echelon_mod(exponent_matrix(self), self.dimension)

    @cached_property
    def validity(self) -> "ValidityReport":
        """The checks of :func:`validate`, computed once per (immutable) group.

        A pivot row of :attr:`echelon` is the only row nonzero in its pivot
        column, where it holds 1, so it spans a cyclic factor of order D by
        itself, and the order is D**(pivots) times the span order of the rows
        without a pivot. A relation is an integer coefficient vector c with
        c @ M = 0 (mod D); its product prod_j gen_j**c_j has zero exponents,
        and its phase must vanish for the group to be phase-consistent. At
        order D**r, for r generators, c -> c @ M is injective mod D and every
        relation is zero mod D; only below it does ``ring.kernel_mod`` run.
        Its relations generate the lattice mod D only, so the vectors D * e_j,
        whose products are gen_j**D, complete it: an element of order 2D has
        gen**D = lam**D.
        """
        gens = self.generators
        d = self.dimension
        # a and b commute exactly when z_a . x_b - x_a . z_b = 0 (mod D)
        abelian = all(
            (_dot(a.z_exp, b.x_exp) - _dot(a.x_exp, b.z_exp)) % d == 0
            for i, a in enumerate(gens)
            for b in gens[i + 1 :]
        )
        pivots, rows = self.echelon
        rest = [row for row, pivot in zip(rows, pivots) if pivot is None]
        order = d ** (len(rows) - len(rest)) * ring.span_order_mod(rest, d)
        relations = ring.kernel_mod(exponent_matrix(self), d)[1] if order < d ** len(gens) else []
        # gen**D has phase exponent D * gamma - D(D-1)(z.x) (mod 2D), by the
        # closed form of pauli.power; it vanishes when gamma - (D-1)(z.x) is even
        phase_consistent = abelian and all(
            (gen.phase_exp - (d - 1) * _dot(gen.z_exp, gen.x_exp)) % 2 == 0 for gen in gens
        )
        for c in relations:
            if not phase_consistent:
                break
            elem = generator_product(self, c)
            if not elem.is_phase_only():
                raise AssertionError("relation product must have zero exponents")
            phase_consistent = elem.phase_exp == 0
        full = order == d**self.parties
        return ValidityReport(abelian, order, phase_consistent, phase_consistent and full)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


@dataclass(frozen=True)
class ValidityReport:
    abelian: bool
    order: int
    phase_consistent: bool
    stabilizes_unique_state: bool


def exponent_matrix(g: StabilizerGroup) -> list[list[int]]:
    """Integer matrix with one row (x_1..x_n, z_1..z_n) per generator."""
    return [list(gen.x_exp) + list(gen.z_exp) for gen in g.generators]


def generator_product(g: StabilizerGroup, coeffs: Sequence[int]) -> PauliProduct:
    """The group element prod_j gen_j**c_j, multiplied in generator order."""
    elem = PauliProduct.identity(g.dimension, g.parties)
    for gen, coeff in zip(g.generators, coeffs):
        if coeff:  # gen**0 is the identity, an exact no-op factor
            elem = multiply(elem, power(gen, coeff))
    return elem


def validate(g: StabilizerGroup) -> ValidityReport:
    """Check the stabilizer-state conditions; reports, never raises, on well-formed input.

    * abelian: all generator pairs have vanishing symplectic inner product
      z_a . x_b - x_a . z_b (mod D).
    * order: size of the exponent-vector subgroup of Z_D^(2n), read off the
      group's unit-pivot echelon form mod D.
    * phase_consistent: the list is abelian and every relation among the
      generators multiplies out to the exact identity (phase exponent 0),
      checked on a relation basis. A non-abelian list always generates some
      omega**s * I with s != 0, so it is never phase-consistent.

    The report is computed on the first call for a group object and cached on
    it, so every later check of the same group is free.
    """
    return g.validity


def require_unique_state(g: StabilizerGroup) -> None:
    """Raise ValueError, naming the flags of :func:`validate`, unless ``g``
    stabilizes a unique state."""
    report = validate(g)
    if not report.stabilizes_unique_state:
        raise ValueError(
            "group does not stabilize a unique state "
            f"(abelian={report.abelian}, order={decimal_digits(report.order)}, "
            f"phase_consistent={report.phase_consistent})"
        )


def ame_subsets(parties: int) -> Iterator[tuple[int, ...]]:
    """The floor(n/2)-party subsets an exact AME test must check, in ``combinations`` order.

    A pure state is AME exactly when its reduction to every floor(n/2)-subset
    S is maximally mixed. At even n, S^c has n/2 parties too, and the two
    reductions of a pure state share their spectrum, so S^c passes exactly
    when S does. Only the half of the subsets holding party 0 is yielded; it
    comes first in ``combinations`` order, so it holds the first failing
    subset.
    """
    subsets = combinations(range(parties), parties // 2)
    if parties % 2 == 0:
        return (sub for sub in subsets if 0 in sub)
    return subsets


def _crt_cofactor(q: int, d: int) -> tuple[int, int]:
    """(t, u) with t = d / q and u = t**-1 mod q, for a factor q of d prime to d / q."""
    if q < 2 or d % q or math.gcd(q, d // q) != 1:
        raise ValueError(f"{q} is not a factor of {d} coprime to its cofactor")
    t = d // q
    return t, pow(t, -1, q)


def factor_group(g: StabilizerGroup, q: int) -> StabilizerGroup:
    """The q-factor of a group over Z_D, as a generator list over Z_q.

    q is any factor of D prime to D / q: a prime power, or the product of
    a subset of them. With t = D / q, u = t**-1 mod q and the CRT idempotent
    m = t * u, gen**m is the q-part of gen, and its exponents and phase are
    all multiples of t. Dividing t out, lam**g X**x Z**z maps to
    lam_q**(u * (g - (m - 1) * z.x)) X**x Z**(u * z), exponents mod q and
    phase mod 2 q; under the CRT relabeling this is the q block of gen**m.
    For a stabilizer-state group the image has order q**n.
    """
    t, u = _crt_cofactor(q, g.dimension)
    m = t * u
    gens = []
    for gen in g.generators:
        zx = sum(z * x for z, x in zip(gen.z_exp, gen.x_exp))
        phase = u * (gen.phase_exp - (m - 1) * zx) % (2 * q)
        x = tuple(v % q for v in gen.x_exp)
        z = tuple(u * v % q for v in gen.z_exp)
        gens.append(PauliProduct(q, g.parties, phase, x, z))
    return StabilizerGroup(q, g.parties, tuple(gens))


def embed_pauli(p: PauliProduct, d: int) -> PauliProduct:
    """Lift an element over Z_q, q = ``p.dimension``, into the q-component of
    the Pauli group over Z_d: X exponents times the CRT idempotent m = t * u,
    Z exponents and the phase times t = d / q. Dividing t back out of the Z
    exponents and the phase, and reducing X mod q, recovers the element."""
    t, u = _crt_cofactor(p.dimension, d)
    x = tuple(t * u * v % d for v in p.x_exp)
    z = tuple(t * v for v in p.z_exp)
    return PauliProduct(d, p.parties, t * p.phase_exp, x, z)


# ---------------------------------------------------------------------------
# Generator file format
# ---------------------------------------------------------------------------
#
# Line-oriented text. First non-comment line: "D n k". Then k lines, each a
# PauliProduct as "gamma | x_1 ... x_n | z_1 ... z_n". Lines starting with
# '#' are comments.


def format_generator_file(g: StabilizerGroup, header_comment: str | None = None) -> str:
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append(f"{g.dimension} {g.parties} {len(g.generators)}")
    lines.extend(format_pauli(gen) for gen in g.generators)
    return "\n".join(lines) + "\n"


def parse_generator_file(text: str) -> StabilizerGroup:
    body = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in body if ln and not ln.startswith("#")]
    if not body:
        raise ValueError("empty generator file")
    head = body[0].split()
    if len(head) != 3:
        raise ValueError(f"bad header line {body[0]!r}; expected 'D n k'")
    try:
        dim, parties, count = map(int, head)
    except ValueError as exc:
        raise ValueError(f"bad header line {body[0]!r}") from exc
    check_size(dim, parties)
    if len(body) - 1 != count:
        raise ValueError(f"header promises {count} generators, file has {len(body) - 1}")
    gens = tuple(parse_pauli(ln, dim, parties) for ln in body[1:])
    return StabilizerGroup(dim, parties, gens)


# Convenient constructors for the standard test states ------------------------


def ghz_group(dimension: int, parties: int) -> StabilizerGroup:
    """Stabilizer group of the GHZ state (sum_j |j..j>)/sqrt(D).

    Generators: X on every site, and Z_k Z_{k+1}^{-1} for consecutive pairs.
    A group of more than MAX_GROUP_EXPONENTS exponents is refused before any
    generator is built.
    """
    exponents = parties * (2 * parties + 1)
    if exponents > MAX_GROUP_EXPONENTS:
        raise BudgetExceededError(
            f"GHZ at n={parties} holds {exponents} exponents, over the limit of "
            f"{MAX_GROUP_EXPONENTS}"
        )
    gens = [make_pauli(dimension, parties, 0, [1] * parties, None)]
    for k in range(parties - 1):
        z = [0] * parties
        z[k] = 1
        z[k + 1] = dimension - 1
        gens.append(make_pauli(dimension, parties, 0, None, z))
    return StabilizerGroup(dimension, parties, tuple(gens))


def bell_group(dimension: int) -> StabilizerGroup:
    """Stabilizer group of the maximally entangled pair over Z_D."""
    return ghz_group(dimension, 2)
