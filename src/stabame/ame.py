"""AME verification and the prime-power decomposition of stabilizer states.

The pipeline: a stabilizer state over composite D splits, through the CRT
basis relabeling, into independent stabilizer states over the prime-power
factors of D. Each factor group is the Sylow component of the original group
re-expressed in the smaller Pauli group; if the original state is AME, every
factor (and every tensor product of factors) is AME as well.

The symbolic AME criterion used here: a stabilizer state is AME exactly when
no nonidentity group element is supported entirely inside any floor(n/2)-party
subset. Every symbolic verdict counts those elements per subset from Smith
normal forms of the exponent matrix, whatever the group order; the test suite
checks it against element-by-element enumeration and against the dense oracle
rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from . import ring
# multiply stays bound here: perfbench/selftest.py checks the tracer patches ame.multiply.
from .pauli import PauliProduct, multiply  # noqa: F401
from .stabgroup import (
    StabilizerGroup,
    embed_pauli,
    exponent_matrix,
    format_generator_file,
    generator_product,
    project_to_factor,
    sylow_component,
    validate,
)
from .statevec import (
    DEFAULT_DENSE_BUDGET,
    DenseState,
    permute_levels,
    state_from_group,
    tensor,
    verify_ame_dense,
)


@dataclass(frozen=True)
class AmeVerdict:
    """Outcome of an AME check.

    ``witness`` is a nonidentity group element supported inside some
    floor(n/2)-subset when a symbolic check fails; ``worst_deviation`` carries
    the dense deviation when a dense check ran.
    """

    is_ame: bool
    method: str  # "symbolic" | "dense" | "both"
    witness: PauliProduct | None = None
    worst_subset: tuple[int, ...] | None = None
    worst_deviation: float | None = None


@dataclass
class FactorDecomposition:
    """Per-prime-power stabilizer groups (and optionally states) of a composite-D group.

    ``crt_permutation`` is the single-qudit basis relabeling j -> composite
    index of (j mod q_1, ..., j mod q_m), factor digits in increasing-prime
    order, most significant first.
    """

    factorization: ring.PrimePowerFactorization
    factor_groups: tuple[StabilizerGroup, ...]
    factor_states: tuple[DenseState, ...] | None
    crt_permutation: tuple[int, ...]


def crt_unitary(f: ring.PrimePowerFactorization) -> tuple[int, ...]:
    """Basis permutation realizing Z_D = Z_{q_1} x ... x Z_{q_m}.

    Position j maps to sum_i (j mod q_i) * weight_i with weight_i the product
    of the later prime powers. Conjugating X_D by this permutation gives the
    tensor of the factor X operators exactly; conjugating Z_D gives the tensor
    of Z_{q_i} raised to the CRT coefficients (:func:`crt_coefficients`).
    """
    qs = f.prime_powers
    weights = [int(np.prod(qs[i + 1 :])) for i in range(len(qs))]
    perm = []
    for j in range(f.dimension):
        digits = ring.crt_split(j, f)
        perm.append(sum(dig * w for dig, w in zip(digits, weights)))
    return tuple(perm)


def crt_coefficients(f: ring.PrimePowerFactorization) -> tuple[int, ...]:
    """Exponents c_i with relabeled Z_D = Z_{q_1}^{c_1} x ... x Z_{q_m}^{c_m}.

    c_i is the inverse of D/q_i modulo q_i (the idempotent divided by the
    cofactor), so omega_D^(m_i) = omega_{q_i}^(c_i).
    """
    out = []
    for i, q in enumerate(f.prime_powers):
        t = ring.cofactor_modulus(f, i)
        out.append((ring.sylow_exponent(f, i) // t) % q)
    return tuple(out)


def _symbolic_by_counting(g: StabilizerGroup) -> AmeVerdict:
    """Count support-constrained group elements via SNF kernels, no enumeration.

    The number of group elements supported inside S equals the number of
    coefficient vectors solving c @ M_outside = 0 (mod D), divided by the
    number solving c @ M = 0 (mod D).
    """
    d = g.dimension
    n = g.parties
    k = len(g.generators)
    matrix = exponent_matrix(g)
    full_kernel = ring.kernel_solution_count(
        ring.smith_normal_form(matrix).diagonal, d, k
    )
    for sub in combinations(range(n), n // 2):
        outside_cols = [c for c in range(2 * n) if (c % n) not in sub]
        restricted = [[row[c] for c in outside_cols] for row in matrix]
        snf = ring.smith_normal_form(restricted)
        supported = ring.kernel_solution_count(snf.diagonal, d, k) // full_kernel
        if supported > 1:
            witness = None
            for c in ring.kernel_basis_mod(snf, d, k):
                elem = generator_product(g, c)
                if not elem.is_identity():
                    witness = elem
                    break
            if witness is None:  # pragma: no cover - generation argument forbids this
                raise AssertionError("support count > 1 but no witness in the basis")
            return AmeVerdict(False, "symbolic", witness=witness, worst_subset=sub)
    return AmeVerdict(True, "symbolic")


def verify_ame_symbolic(g: StabilizerGroup) -> AmeVerdict:
    """Exact AME check on the stabilizer group, no dense state needed.

    Validates the group, then counts the elements supported inside each
    floor(n/2)-subset through SNF kernels (:func:`_symbolic_by_counting`).
    A non-AME verdict names the first failing subset in ``combinations``
    order and, as witness, the first non-identity product over a kernel basis
    of that subset.
    """
    if not validate(g).stabilizes_unique_state:
        raise ValueError("group does not stabilize a unique state")
    return _symbolic_by_counting(g)


def verify_ame(
    g: StabilizerGroup,
    method: str = "symbolic",
    tol: float = 1e-9,
    dense_budget: int = DEFAULT_DENSE_BUDGET,
) -> AmeVerdict:
    """Dispatch to the symbolic checker, the dense checker, or both.

    With ``method="both"`` the two verdicts must agree; a mismatch is an
    implementation bug, not a property of the input, and raises.
    """
    if method not in ("symbolic", "dense", "both"):
        raise ValueError(f"unknown method {method!r}")
    sym = verify_ame_symbolic(g) if method != "dense" else None
    if method == "symbolic":
        return sym
    state = state_from_group(g, dense_budget=dense_budget)
    dense = verify_ame_dense(state, tol=tol)
    if method == "dense":
        return AmeVerdict(
            dense.is_ame,
            "dense",
            worst_subset=dense.worst_subset,
            worst_deviation=dense.worst_deviation,
        )
    if sym.is_ame != dense.is_ame:
        raise RuntimeError(
            "symbolic and dense AME verdicts disagree "
            f"({sym.is_ame} vs {dense.is_ame}); this indicates a bug"
        )
    return AmeVerdict(
        sym.is_ame,
        "both",
        witness=sym.witness,
        worst_subset=dense.worst_subset,
        worst_deviation=dense.worst_deviation,
    )


def decompose(
    g: StabilizerGroup,
    dense: str | bool = "auto",
    dense_budget: int = DEFAULT_DENSE_BUDGET,
) -> FactorDecomposition:
    """Split a stabilizer group over composite D into prime-power factor groups.

    For each factor: take the Sylow component, then re-express it over the
    factor dimension. With ``dense`` enabled (default: automatic, whenever the
    system fits the budget), the factor states are synthesized and the tensor
    of the factors is checked against the CRT-relabeled original state with
    fidelity > 1 - 1e-9; a violation raises.
    """
    report = validate(g)
    if not report.stabilizes_unique_state:
        raise ValueError("group does not stabilize a unique state")
    f = ring.factorize(g.dimension)
    factor_groups = tuple(
        project_to_factor(sylow_component(g, f, i), f, i) for i in range(f.num_factors)
    )
    perm = crt_unitary(f)

    want_dense = dense if isinstance(dense, bool) else g.dimension**g.parties <= dense_budget
    factor_states = None
    if want_dense:
        factor_states = tuple(
            state_from_group(fg, dense_budget=dense_budget) for fg in factor_groups
        )
        original = state_from_group(g, dense_budget=dense_budget)
        relabeled = permute_levels(original, perm)
        combined = tensor(list(factor_states))
        overlap = abs(np.vdot(combined.amplitudes, relabeled.amplitudes))
        if overlap <= 1.0 - 1e-9:
            raise RuntimeError(
                f"factor states do not reassemble the relabeled input (fidelity {overlap:.12f}); "
                "this indicates a bug"
            )
    return FactorDecomposition(f, factor_groups, factor_states, perm)


def reduce_ame(g: StabilizerGroup, dec: FactorDecomposition) -> list[AmeVerdict]:
    """Report the symbolic AME verdict of every factor of ``dec = decompose(g)``.

    When the input itself is AME, every factor must be AME; a factor that is
    not would contradict the prime-power reduction property and raises as a fatal
    inconsistency.
    """
    input_verdict = verify_ame_symbolic(g)
    verdicts = [verify_ame_symbolic(fg) for fg in dec.factor_groups]
    if input_verdict.is_ame and not all(v.is_ame for v in verdicts):
        bad = [dec.factorization.prime_powers[i] for i, v in enumerate(verdicts) if not v.is_ame]
        raise RuntimeError(
            f"AME input produced non-AME factors {bad}; this contradicts the "
            "prime-power reduction property and indicates an implementation bug"
        )
    return verdicts


@dataclass
class MergeResult:
    group: StabilizerGroup
    state: DenseState | None


def merge_factors(dec: FactorDecomposition, subset: Sequence[int]) -> MergeResult:
    """Recombine a nonempty subset of factors into a group over the product dimension.

    The merged group is the image of the chosen factor groups under the
    inverse CRT relabeling for d_M = prod of the chosen prime powers. If every
    chosen factor is AME the merge must be AME too (checked; a violation
    raises as an internal inconsistency).
    """
    chosen = tuple(sorted(set(int(i) for i in subset)))
    if not chosen:
        raise ValueError("subset of factors must be nonempty")
    m = dec.factorization.num_factors
    if any(i < 0 or i >= m for i in chosen):
        raise ValueError(f"factor indices out of range 0..{m - 1}")

    qs = [dec.factorization.prime_powers[i] for i in chosen]
    d_merged = int(np.prod(qs))
    f_merged = ring.factorize(d_merged)
    parties = dec.factor_groups[0].parties

    gens = []
    for pos, i in enumerate(chosen):
        for gen in dec.factor_groups[i].generators:
            gens.append(embed_pauli(gen, f_merged, pos))
    group = StabilizerGroup(d_merged, parties, tuple(gens))

    state = None
    if dec.factor_states is not None:
        combined = tensor([dec.factor_states[i] for i in chosen])
        perm = crt_unitary(f_merged)
        inverse = [0] * d_merged
        for j, target in enumerate(perm):
            inverse[target] = j
        state = permute_levels(combined, inverse)

    factor_verdicts = [verify_ame_symbolic(dec.factor_groups[i]) for i in chosen]
    if all(v.is_ame for v in factor_verdicts):
        merged_verdict = verify_ame_symbolic(group)
        if not merged_verdict.is_ame:
            raise RuntimeError(
                "merge of AME factors is not AME; this contradicts the prime-power "
                "reduction property and indicates an implementation bug"
            )
    return MergeResult(group, state)


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
