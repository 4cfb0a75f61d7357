"""AME verification and the prime-power decomposition of stabilizer states.

The pipeline: a stabilizer state over composite D splits, digit by digit
through the CRT, into independent stabilizer states over the prime-power
factors of D; the input state is their :func:`~stabame.statevec.crt_product`.
Each factor group is the Sylow component of the original group
re-expressed in the smaller Pauli group, mapped generator by generator in
closed form; if the original state is AME, every factor (and every product
of factors) is AME as well.

The symbolic AME criterion used here: a stabilizer state is AME exactly when
no nonidentity group element is supported entirely inside any floor(n/2)-party
subset. Every symbolic verdict counts those elements per subset, whatever the
group order, from the order of the span of the exponent columns outside the
subset (a transform-free diagonalization mod D); only the first failing
subset is eliminated again, carrying its left transform, for its witness.
The test suite checks the verdicts against element-by-element enumeration
and against the dense oracle rather than assuming them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from . import ring
# multiply and validate stay bound here: perfbench/selftest.py checks that
# the tracer patches ame.multiply and ame.validate.
from .pauli import multiply  # noqa: F401
from .stabgroup import (
    StabilizerGroup,
    ame_subsets,
    embed_pauli,
    exponent_matrix,
    factor_group,
    format_generator_file,
    generator_product,
    require_unique_state,
    validate,  # noqa: F401
)
from .statevec import (
    DEFAULT_DENSE_BUDGET,
    NORM_TOL,
    AmeVerdict,
    check_dense_budget,
    crt_product,
    fidelity,
    state_from_group,
    verify_ame_dense,
)


@dataclass
class FactorDecomposition:
    """Per-prime-power stabilizer groups of a composite-D group."""

    factorization: ring.PrimePowerFactorization
    factor_groups: tuple[StabilizerGroup, ...]


def verify_ame_symbolic(g: StabilizerGroup) -> AmeVerdict:
    """Exact AME check on the stabilizer group, no dense state needed.

    Validates the group (once per group object), then finds the first
    floor(n/2)-subset supporting a nonidentity element. As ``g`` is valid,
    its exponent vectors span a subgroup of order D**n with one element per
    vector. The elements supported inside S are the kernel of restricting
    the exponents to the columns outside S, so there are
    D**n / |span of M_outside| of them and S fails exactly when the outside
    columns span fewer than D**n vectors. A non-AME verdict names the first
    failing subset in ``combinations`` order; only that subset is eliminated
    again with its left transform (``ring.kernel_mod``): its relations mod D
    generate those elements up to gen**D, which is the identity in a valid
    group, so the first non-identity product over them is the witness.
    """
    require_unique_state(g)
    d = g.dimension
    n = g.parties
    full = d**n
    matrix = exponent_matrix(g)
    for sub in ame_subsets(n):
        outside_cols = [c for c in range(2 * n) if (c % n) not in sub]
        restricted = [[row[c] for c in outside_cols] for row in matrix]
        if ring.span_order_mod(restricted, d) < full:
            _, relations = ring.kernel_mod(restricted, d)
            witness = None
            for c in relations:
                elem = generator_product(g, c)
                if not elem.is_identity():
                    witness = elem
                    break
            if witness is None:  # pragma: no cover - generation argument forbids this
                raise AssertionError("subset supports elements but no witness in the relations")
            return AmeVerdict(False, "symbolic", witness=witness, worst_subset=sub)
    return AmeVerdict(True, "symbolic")


def verify_ame(
    g: StabilizerGroup,
    method: str = "symbolic",
    dense_budget: int = DEFAULT_DENSE_BUDGET,
) -> AmeVerdict:
    """Dispatch to the symbolic checker, the dense checker, or both.

    The dense verdict's threshold is fixed and separates AME from non-AME
    stabilizer states (:func:`~stabame.statevec.verify_ame_dense`), so with
    ``method="both"`` the two verdicts must agree; a mismatch is an
    implementation bug, not a property of the input, and raises.
    """
    if method not in ("symbolic", "dense", "both"):
        raise ValueError(f"unknown method {method!r}")
    check_dense_budget(dense_budget)
    sym = verify_ame_symbolic(g) if method != "dense" else None
    if method == "symbolic":
        return sym
    dense = verify_ame_dense(state_from_group(g, dense_budget=dense_budget))
    if method == "dense":
        return dense
    if sym.is_ame != dense.is_ame:
        raise RuntimeError(
            "symbolic and dense AME verdicts disagree "
            f"({sym.is_ame} vs {dense.is_ame}); this indicates a bug"
        )
    return replace(dense, method="both", witness=sym.witness)


def decompose(
    g: StabilizerGroup, dense_budget: int = DEFAULT_DENSE_BUDGET
) -> FactorDecomposition:
    """Split a stabilizer group over composite D into prime-power factor groups.

    Each factor group is the closed-form image of the generators
    (:func:`~stabame.stabgroup.factor_group`, once per prime power). Only
    when D**n fits ``dense_budget`` are the factor states synthesized, and
    their :func:`~stabame.statevec.crt_product` is checked against the input
    state with fidelity > 1 - 1e-9; a violation raises.
    """
    check_dense_budget(dense_budget)
    require_unique_state(g)
    f = ring.factorize(g.dimension)
    factor_groups = tuple(factor_group(g, q) for q in f.prime_powers)

    if g.dimension**g.parties <= dense_budget:
        original = state_from_group(g, dense_budget=dense_budget)
        combined = crt_product(
            [state_from_group(fg, dense_budget=dense_budget) for fg in factor_groups]
        )
        overlap = fidelity(combined, original)
        if overlap <= 1.0 - NORM_TOL:
            raise RuntimeError(
                f"factor states do not reassemble the input (fidelity {overlap:.12f}); "
                "this indicates a bug"
            )
    return FactorDecomposition(f, factor_groups)


def reduce_ame(g: StabilizerGroup, dec: FactorDecomposition) -> list[AmeVerdict]:
    """Report the symbolic AME verdict of every factor of ``dec = decompose(g)``.

    The input state is the CRT product of the factor states, so it is AME
    exactly when every factor is: an AME input with a non-AME factor, or AME
    factors with a non-AME input, contradicts the prime-power reduction
    property and raises as a fatal inconsistency.
    """
    input_verdict = verify_ame_symbolic(g)
    verdicts = [verify_ame_symbolic(fg) for fg in dec.factor_groups]
    if input_verdict.is_ame != all(v.is_ame for v in verdicts):
        if input_verdict.is_ame:
            bad = [q for q, v in zip(dec.factorization.prime_powers, verdicts) if not v.is_ame]
            problem = f"AME input produced non-AME factors {bad}"
        else:
            problem = "non-AME input produced only AME factors"
        raise RuntimeError(
            f"{problem}; this contradicts the prime-power reduction property "
            "and indicates an implementation bug"
        )
    return verdicts


def merge_factors(groups: Sequence[StabilizerGroup]) -> StabilizerGroup:
    """Merge groups on the same parties over pairwise coprime dimensions.

    Every generator is lifted into the Pauli group over D = the product of
    the dimensions (:func:`~stabame.stabgroup.embed_pauli`); the merged
    state is the :func:`~stabame.statevec.crt_product` of the inputs'
    states. The inputs may be the factors of one decomposition or witnesses
    found apart, say an AME(5,2) and an AME(5,3) group. If every input is AME
    the merge must be AME too (checked; a violation raises as an internal
    inconsistency).
    """
    if not groups:
        raise ValueError("need at least one group to merge")
    dims = [fg.dimension for fg in groups]
    if math.lcm(*dims) != math.prod(dims):
        raise ValueError(f"dimensions {dims} are not pairwise coprime")
    parties = groups[0].parties
    if any(fg.parties != parties for fg in groups):
        raise ValueError("groups to merge act on different numbers of parties")
    d = math.prod(dims)
    gens = tuple(embed_pauli(gen, d) for fg in groups for gen in fg.generators)
    merged = StabilizerGroup(d, parties, gens)
    if all(verify_ame_symbolic(fg).is_ame for fg in groups):
        if not verify_ame_symbolic(merged).is_ame:
            raise RuntimeError(
                "merge of AME factors is not AME; this contradicts the prime-power "
                "reduction property and indicates an implementation bug"
            )
    return merged


def format_decomposition_report(
    dec: FactorDecomposition, verdicts: Sequence[AmeVerdict]
) -> str:
    """Text report: factorization line, per-factor generator blocks, verdict lines."""
    f = dec.factorization
    factors_txt = ",".join(f"{p}^{e}" for p, e, _ in f.factors)
    parties = dec.factor_groups[0].parties
    lines = [f"factorization D={f.dimension} n={parties} factors={factors_txt}"]
    for (_, _, q), fg in zip(f.factors, dec.factor_groups):
        lines.append(f"# factor q={q}")
        lines.append(format_generator_file(fg).rstrip("\n"))
    for (_, _, q), verdict in zip(f.factors, verdicts):
        lines.append(f"factor q={q} ame={'yes' if verdict.is_ame else 'no'}")
    return "\n".join(lines) + "\n"
