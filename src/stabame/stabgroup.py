"""Stabilizer groups over Z_D: validation, Sylow components, the generator file format.

A generator list claims to stabilize a unique state when the generated group
is abelian, phase-consistent (no lam**g * identity with g != 0 in the group),
and has order exactly D**n. The order comes from the Smith normal form of the
integer exponent matrix and phase consistency from products over a basis of
the relation lattice, so no group is ever listed element by element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import ring
from .errors import PhaseConventionError
from .pauli import (
    PauliProduct,
    format_pauli,
    make_pauli,
    multiply,
    parse_pauli,
    power,
    symplectic_inner,
)


@dataclass(frozen=True)
class StabilizerGroup:
    """A generator list over Z_D on ``parties`` qudits (validity is not assumed)."""

    dimension: int
    parties: int
    generators: tuple[PauliProduct, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.dimension != self.dimension or g.parties != self.parties:
                raise ValueError("generator dimension/parties mismatch")


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
        elem = multiply(elem, power(gen, coeff))
    return elem


def _relation_elements(g: StabilizerGroup, snf: ring.SmithNormalForm):
    """Products prod_j gen_j**c_j over a generating set of the relation lattice.

    A relation is an integer coefficient vector c with c @ M = 0 (mod D);
    each yields a group element with zero exponents whose phase must vanish
    for the group to be phase-consistent.
    """
    out = []
    for c in ring.kernel_basis_mod(snf, g.dimension, len(g.generators)):
        elem = generator_product(g, c)
        if not elem.is_phase_only():
            raise AssertionError("relation product must have zero exponents")
        out.append(elem)
    return out


def validate(g: StabilizerGroup) -> ValidityReport:
    """Check the stabilizer-state conditions; reports, never raises, on well-formed input.

    * abelian: all generator pairs have vanishing symplectic inner product.
    * order: size of the exponent-vector subgroup of Z_D^(2n), via SNF.
    * phase_consistent: every relation among the generators multiplies out to
      the exact identity (phase exponent 0), checked on a relation basis.
    """
    gens = g.generators
    abelian = all(
        symplectic_inner(gens[i], gens[j]) == 0
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )
    snf = ring.smith_normal_form(exponent_matrix(g))
    order = ring.subgroup_order_mod(
        list(snf.diagonal) + [0] * (len(gens) - len(snf.diagonal)), g.dimension
    )
    phase_consistent = all(e.phase_exp == 0 for e in _relation_elements(g, snf))
    full = order == g.dimension**g.parties
    return ValidityReport(abelian, order, phase_consistent, abelian and phase_consistent and full)


def sylow_component(
    g: StabilizerGroup, f: ring.PrimePowerFactorization, i: int
) -> StabilizerGroup:
    """Project a valid group onto its q_i-primary part by raising generators to m_i.

    m_i is the CRT idempotent, so gen**m_i keeps the q_i-part of each
    generator and kills the rest; the resulting exponents are all divisible
    by D / q_i, and for a stabilizer-state group the component has order q_i**n.
    """
    if f.dimension != g.dimension:
        raise ValueError("factorization dimension does not match the group")
    m = ring.sylow_exponent(f, i)
    return StabilizerGroup(g.dimension, g.parties, tuple(power(gen, m) for gen in g.generators))


def project_pauli(p: PauliProduct, f: ring.PrimePowerFactorization, i: int) -> PauliProduct:
    """Re-express a q_i-component element in the Pauli group over Z_{q_i}.

    Under the CRT relabeling the factor-i part of the conjugated operator has
    X exponent x mod q_i, Z exponent (z / t_i) mod q_i, and phase exponent
    phase / t_i, where t_i = D / q_i. The x and z exponents (and the phase)
    must be divisible by t_i; a phase that is not signals a convention bug.
    """
    if p.dimension != f.dimension:
        raise ValueError("factorization dimension does not match the element")
    q = f.prime_powers[i]
    t = ring.cofactor_modulus(f, i)
    for v in list(p.x_exp) + list(p.z_exp):
        if v % t != 0:
            raise ValueError(f"exponent {v} not divisible by {t}: not a q={q} component element")
    if p.phase_exp % t != 0:
        raise PhaseConventionError(
            f"phase exponent {p.phase_exp} not divisible by {t} when projecting to q={q}"
        )
    x = tuple(v % q for v in p.x_exp)
    z = tuple((v // t) % q for v in p.z_exp)
    return PauliProduct(q, p.parties, (p.phase_exp // t) % (2 * q), x, z)


def embed_pauli(p: PauliProduct, f: ring.PrimePowerFactorization, i: int) -> PauliProduct:
    """Inverse of :func:`project_pauli`: lift an element over Z_{q_i} into the
    q_i-component of the Pauli group over Z_D."""
    q = f.prime_powers[i]
    if p.dimension != q:
        raise ValueError(f"element dimension {p.dimension} is not factor {i} (q={q})")
    d = f.dimension
    t = ring.cofactor_modulus(f, i)
    m = ring.sylow_exponent(f, i)
    x = tuple((m * v) % d for v in p.x_exp)
    z = tuple(t * v for v in p.z_exp)
    return PauliProduct(d, p.parties, t * p.phase_exp, x, z)


def project_to_factor(
    g: StabilizerGroup, f: ring.PrimePowerFactorization, i: int
) -> StabilizerGroup:
    """Map a q_i-component group over Z_D to a stabilizer group over Z_{q_i}."""
    gens = tuple(project_pauli(gen, f, i) for gen in g.generators)
    return StabilizerGroup(f.prime_powers[i], g.parties, gens)


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
    if len(body) - 1 != count:
        raise ValueError(f"header promises {count} generators, file has {len(body) - 1}")
    gens = tuple(parse_pauli(ln, dim, parties) for ln in body[1:])
    return StabilizerGroup(dim, parties, gens)


# Convenient constructors for the standard test states ------------------------


def ghz_group(dimension: int, parties: int) -> StabilizerGroup:
    """Stabilizer group of the GHZ state (sum_j |j..j>)/sqrt(D).

    Generators: X on every site, and Z_k Z_{k+1}^{-1} for consecutive pairs.
    """
    if parties < 1:
        raise ValueError("parties must be >= 1")
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
