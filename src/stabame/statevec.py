"""Dense state vectors: synthesis from stabilizer groups, partial traces, AME checks.

Index convention: party-major, one base-D digit per party, so basis index
sum_k j_k * D**(n-1-k) holds |j_1 ... j_n>. Composite-dimension digits relate
to per-factor digits through the CRT split; :func:`tensor` composes factor
states in exactly that digit ordering so serialized states stay portable.

Equality of states is always up to global phase, via |<a|b>| > 1 - tol.

Everything runs as whole-array steps. :func:`state_from_group` applies each
generator's averaging projector by gathers (``cur = phases[source] *
cur[source]``, with the inverse index map and its phases computed once per
generator). :func:`reduced_density` builds its table by reshaping the
amplitudes to one axis per party and transposing the kept parties first.
:class:`ReducedDensity` tests positive semidefiniteness by a Cholesky
factorization of ``matrix + NORM_TOL * I``, i.e. lambda_min > -NORM_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError
from .pauli import order, vector_action
from .stabgroup import StabilizerGroup, validate

DEFAULT_DENSE_BUDGET = 100_000

NORM_TOL = 1e-9
ALGEBRA_TOL = 1e-12


@dataclass
class DenseState:
    """Normalized complex amplitude vector of length dimension**parties."""

    dimension: int
    parties: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        size = self.dimension**self.parties
        if self.amplitudes.shape != (size,):
            raise ValueError(f"expected {size} amplitudes, got shape {self.amplitudes.shape}")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")


@dataclass
class ReducedDensity:
    """Reduced density operator on a sorted subset of parties (0-based indices)."""

    subset: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        r = self.matrix.shape[0]
        if self.matrix.shape != (r, r):
            raise ValueError("density matrix must be square")
        if np.abs(self.matrix - self.matrix.conj().T).max() > ALGEBRA_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(self.matrix).real - 1.0) > NORM_TOL:
            raise ValueError("density matrix trace is not 1")
        try:
            np.linalg.cholesky(self.matrix + NORM_TOL * np.eye(r))
        except np.linalg.LinAlgError:
            raise ValueError("density matrix is not positive semidefinite") from None


@dataclass(frozen=True)
class MaxMixedReport:
    verdict: bool
    max_deviation: float


@dataclass(frozen=True)
class DenseAmeReport:
    is_ame: bool
    worst_subset: tuple[int, ...]
    worst_deviation: float


def fidelity(a: DenseState, b: DenseState) -> float:
    if (a.dimension, a.parties) != (b.dimension, b.parties):
        raise ValueError("states live on different systems")
    return abs(np.vdot(a.amplitudes, b.amplitudes))


def states_equal(a: DenseState, b: DenseState, tol: float = NORM_TOL) -> bool:
    """Equality up to global phase."""
    return fidelity(a, b) > 1.0 - tol


def basis_state(dimension: int, parties: int, index: int) -> DenseState:
    amps = np.zeros(dimension**parties, dtype=complex)
    amps[index] = 1.0
    return DenseState(dimension, parties, amps)


def state_from_group(
    g: StabilizerGroup, dense_budget: int = DEFAULT_DENSE_BUDGET
) -> DenseState:
    """Synthesize the unique state fixed by a valid stabilizer group.

    Applies the averaging projector (1/ord) sum_k gen**k of every generator to
    a computational basis seed, trying seeds until the projection survives
    (norm > 1e-6 before normalization). For a valid group the projectors
    commute and their product is the rank-one projector onto the state, so
    some seed always survives.
    """
    report = validate(g)
    if not report.stabilizes_unique_state:
        raise ValueError(
            "group does not stabilize a unique state "
            f"(abelian={report.abelian}, order={report.order}, "
            f"phase_consistent={report.phase_consistent})"
        )
    size = g.dimension**g.parties
    if size > dense_budget:
        raise BudgetExceededError(f"dense size {size} exceeds budget {dense_budget}")
    actions = []
    for gen in g.generators:
        target, phases = vector_action(gen)
        source = np.empty(size, dtype=np.int64)
        source[target] = np.arange(size)
        actions.append((source, phases[source], order(gen)))
    for seed in range(size):
        vec = np.zeros(size, dtype=complex)
        vec[seed] = 1.0
        for source, phases_src, m in actions:
            acc = vec.copy()
            cur = vec
            for _ in range(m - 1):
                cur = phases_src * cur[source]
                acc += cur
            vec = acc / m
        norm = np.linalg.norm(vec)
        if norm > 1e-6:
            return DenseState(g.dimension, g.parties, vec / norm)
    raise RuntimeError("no basis seed survived projection; this indicates a bug")


def reduced_density(state: DenseState, subset: Iterable[int]) -> ReducedDensity:
    """Partial trace over the complement of ``subset`` (0-based party indices)."""
    n = state.parties
    requested = [int(s) for s in subset]
    sub = tuple(sorted(set(requested)))
    if len(sub) != len(requested):
        raise ValueError("subset contains duplicate parties")
    if any(s < 0 or s >= n for s in sub):
        raise ValueError(f"subset {sub} not contained in 0..{n - 1}")
    comp = tuple(k for k in range(n) if k not in sub)
    d = state.dimension
    table = state.amplitudes.reshape((d,) * n).transpose(sub + comp).reshape(d ** len(sub), -1)
    return ReducedDensity(sub, table @ table.conj().T)


def is_maximally_mixed(rho: ReducedDensity, tol: float) -> MaxMixedReport:
    r = rho.matrix.shape[0]
    dev = float(np.abs(rho.matrix - np.eye(r) / r).max())
    return MaxMixedReport(dev <= tol, dev)


def verify_ame_dense(state: DenseState, tol: float = NORM_TOL) -> DenseAmeReport:
    """Check every floor(n/2)-party reduction for maximal mixedness.

    Subsets are visited in lexicographic order; the verdict is independent of
    that order. The reported deviation is the maximum, and the reported worst
    subset is the first one within ALGEBRA_TOL of it, so float roundoff cannot
    pick among subsets that tie exactly.
    """
    n = state.parties
    reports = [
        (sub, is_maximally_mixed(reduced_density(state, sub), tol))
        for sub in combinations(range(n), n // 2)
    ]
    worst = max(report.max_deviation for _, report in reports)
    worst_subset = next(
        sub for sub, report in reports if report.max_deviation >= worst - ALGEBRA_TOL
    )
    return DenseAmeReport(all(report.verdict for _, report in reports), worst_subset, worst)


def tensor(states: Sequence[DenseState]) -> DenseState:
    """Combine per-factor states into one state over D = prod(q_i).

    All inputs must share the party count. The composite digit of party k is
    built from the factor digits in list order, first factor most significant,
    matching the CRT relabeling convention used by the decomposition pipeline.
    """
    if not states:
        raise ValueError("need at least one state")
    n = states[0].parties
    if any(s.parties != n for s in states):
        raise ValueError("all factor states must share the party count")
    dims = [s.dimension for s in states]
    big_d = int(np.prod(dims))
    weights = [int(np.prod(dims[i + 1 :])) for i in range(len(dims))]

    total_idx = np.zeros(1, dtype=np.int64)
    amps = np.ones(1, dtype=complex)
    for s, w in zip(states, weights):
        q = s.dimension
        local = np.arange(q**n)
        contrib = np.zeros(q**n, dtype=np.int64)
        for k in range(n):
            digit = (local // q ** (n - 1 - k)) % q
            contrib += digit * (w * big_d ** (n - 1 - k))
        total_idx = (total_idx[:, None] + contrib[None, :]).ravel()
        amps = np.multiply.outer(amps, s.amplitudes).ravel()
    out = np.zeros(big_d**n, dtype=complex)
    out[total_idx] = amps
    return DenseState(big_d, n, out)


def permute_levels(state: DenseState, perm: Sequence[int]) -> DenseState:
    """Relabel every party's basis digit j -> perm[j]."""
    d = state.dimension
    perm = list(perm)
    if sorted(perm) != list(range(d)):
        raise ValueError(f"perm must be a permutation of 0..{d - 1}")
    n = state.parties
    size = d**n
    idx = np.arange(size)
    target = np.zeros(size, dtype=np.int64)
    lut = np.asarray(perm, dtype=np.int64)
    for k in range(n):
        w = d ** (n - 1 - k)
        digit = (idx // w) % d
        target += lut[digit] * w
    out = np.empty(size, dtype=complex)
    out[target] = state.amplitudes
    return DenseState(d, n, out)


def apply_local_unitary(state: DenseState, unitaries: Sequence[np.ndarray]) -> DenseState:
    """Apply one unitary per party (a product of local unitaries)."""
    d = state.dimension
    n = state.parties
    if len(unitaries) != n:
        raise ValueError(f"need {n} unitaries, got {len(unitaries)}")
    vec = state.amplitudes
    for k, u in enumerate(unitaries):
        u = np.asarray(u, dtype=complex)
        if u.shape != (d, d):
            raise ValueError(f"unitary {k} has shape {u.shape}, expected ({d}, {d})")
        view = vec.reshape(d**k, d, d ** (n - 1 - k))
        vec = np.einsum("ab,ibj->iaj", u, view).reshape(-1)
    norm = np.linalg.norm(vec)
    return DenseState(d, n, vec / norm)


def format_state_dump(state: DenseState) -> str:
    """Debug dump: line ``D n`` then D**n lines ``re im`` in index order."""
    lines = [f"{state.dimension} {state.parties}"]
    lines.extend(f"{float(a.real)!r} {float(a.imag)!r}" for a in state.amplitudes)
    return "\n".join(lines) + "\n"


def parse_state_dump(text: str) -> DenseState:
    body = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not body:
        raise ValueError("empty state dump")
    head = body[0].split()
    if len(head) != 2:
        raise ValueError(f"bad state dump header {body[0]!r}")
    d, n = map(int, head)
    if len(body) - 1 != d**n:
        raise ValueError(f"expected {d**n} amplitude lines, got {len(body) - 1}")
    amps = np.array([complex(float(a), float(b)) for a, b in (ln.split() for ln in body[1:])])
    return DenseState(d, n, amps)
