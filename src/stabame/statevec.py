"""Dense state vectors: synthesis from stabilizer groups, partial traces, AME checks.

Index convention: party-major, one base-D digit per party, so basis index
sum_k j_k * D**(n-1-k) holds |j_1 ... j_n>. Every state, the product of
factor states included, is written in this basis of its own D:
:func:`crt_product` maps the factor states over pairwise coprime q_i to
the state over D = prod(q_i) whose amplitude at (j_1..j_n) is
prod_i psi_i(j_1 mod q_i, ..., j_n mod q_i), the CRT split digit by digit.

Equality of states is always up to global phase, via |<a|b>| > 1 - NORM_TOL.

Everything runs as whole-array steps. :func:`state_from_group` writes the
amplitudes on the state's support in closed form: the seed is solved for by
one elimination mod 2D, the support grows from it, coset by coset, one
generator at a time, and each new amplitude is an exact power of lam, so no
pass over the D**n indices and no projection ever runs.
:func:`reduced_density` (kept parties transposed first) and
:func:`crt_product` work on the amplitudes reshaped to one axis per party.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from . import ring
from .errors import BudgetExceededError, decimal_digits
from .pauli import PauliProduct
from .stabgroup import StabilizerGroup, generator_product, require_unique_state

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
        # <psi|psi> is the trace of every reduced density matrix
        excess = abs(np.vdot(self.amplitudes, self.amplitudes).real - 1.0)
        if not excess <= NORM_TOL:
            raise ValueError(f"state is not normalized: |<psi|psi> - 1| = {excess:.3e}")


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


def fidelity(a: DenseState, b: DenseState) -> float:
    if (a.dimension, a.parties) != (b.dimension, b.parties):
        raise ValueError("states live on different systems")
    return abs(np.vdot(a.amplitudes, b.amplitudes))


def state_from_group(
    g: StabilizerGroup, dense_budget: int = DEFAULT_DENSE_BUDGET
) -> DenseState:
    """Synthesize the unique state fixed by a valid stabilizer group, on its support.

    The support of the state is a coset of the span X_G of the generators'
    X exponents (Hostens, Dehaene and De Moor, PRA 71, 042315, 2005). The
    relations among the X rows (one ``ring.kernel_mod`` call) multiply out to
    the group's diagonal elements lam**c Z**z, and such an element fixes |j>
    exactly when c + 2 z.j = 0 (mod 2D). Their z parts are the annihilator of
    X_G, so the basis states fixed by all of them are exactly the support.
    The seed is one solution j of that linear system mod 2D
    (``ring.solve_mod``, one more elimination), so no D**n index is ever
    tested.

    The support grows from the seed, generator by generator. For gen =
    lam**gamma X**x Z**z, a = |span(x_1..x_i)| / |span(x_1..x_(i-1))| (exact,
    by ``ring.span_order_mod`` on the prefix rows) is the order of x modulo
    the earlier span, so the cosets j - t x (t < a) of the support so far are
    disjoint and together cover the next one. Since gen**t fixes the state,
    the amplitude at j - t x is the one at j times
    lam**(t gamma - t(t-1)(z.x) + 2t(z.j)), the closed form of
    ``pauli.power``. Every amplitude of the fixed state is tied to the seed's
    this way, so the result is the state itself, exactly: the phases stay
    integer exponents of lam, every amplitude has modulus |X_G|**-1/2 and is
    written once. That is O(n |X_G|) array steps, with no D**n index map and
    no gather. The global phase is fixed by rebasing the exponents so that
    the first support index has exponent 0; the exponent differences are
    the state's own amplitude ratios, so whichever seed the elimination
    picks, the amplitudes come out the same, bit for bit.
    """
    require_unique_state(g)
    d = g.dimension
    n = g.parties
    size = d**n
    if size > dense_budget:
        raise BudgetExceededError(
            f"dense size {decimal_digits(size)} exceeds budget {dense_budget}"
        )
    x_rows = [list(gen.x_exp) for gen in g.generators]
    _, relations = ring.kernel_mod(x_rows, d)
    seed = [0] * n
    if relations:
        diagonals = [generator_product(g, c) for c in relations]
        # 2 z.j = -c (mod 2D): one row per party, one column per diagonal
        z_rows = [[2 * p.z_exp[k] for p in diagonals] for k in range(n)]
        seed = ring.solve_mod(z_rows, [-p.phase_exp for p in diagonals], 2 * d)
    # one row of digits per party, one column per support point
    support = np.array(seed)[:, None] % d
    exps = np.zeros(1, dtype=np.int64)
    span = 1
    for i, gen in enumerate(g.generators):
        grown = ring.span_order_mod(x_rows[: i + 1], d)
        a, span = grown // span, grown
        if a == 1:
            continue
        x = np.array(gen.x_exp)
        z = np.array(gen.z_exp)
        t = np.arange(a)
        # every term is reduced mod 2D before it is multiplied, so no
        # product leaves int64 (unreduced, t**2 (z.x) reaches D**4)
        zx = int(z @ x) % (2 * d)
        steps = t * ((gen.phase_exp - (t - 1) * zx) % (2 * d)) % (2 * d)
        zj = (z @ support) % (2 * d)
        exps = (exps + steps[:, None] + 2 * t[:, None] * zj).reshape(-1) % (2 * d)
        support = (support[:, None, :] + (np.outer(x, -t) % d)[:, :, None]).reshape(n, -1)
        support[support >= d] -= d
    index = d ** np.arange(n - 1, -1, -1) @ support
    exps -= exps[np.argmin(index)]
    roots = np.exp(1j * np.pi * np.arange(2 * d) / d) / math.sqrt(len(exps))
    vec = np.zeros(size, dtype=complex)
    vec[index] = roots[exps % (2 * d)]
    return DenseState(d, n, vec)


def reduced_density(state: DenseState, subset: Iterable[int]) -> np.ndarray:
    """Partial trace over the complement of ``subset`` (0-based party indices).

    The kept parties index the rows in increasing order. rho = T T^dagger is
    Hermitian and positive semidefinite with trace <psi|psi> by construction,
    so the state's norm check is its whole float contract.
    """
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
    return table @ table.conj().T


def check_dense_budget(dense_budget: int) -> None:
    """Refuse a negative dense budget; 0, which no state fits, is valid."""
    if dense_budget < 0:
        raise ValueError(f"dense budget must be non-negative, got {dense_budget}")


def verify_ame_dense(state: DenseState) -> AmeVerdict:
    """Check every floor(n/2)-party reduction for maximal mixedness.

    A subset S deviates from I/r by max|rho_S - I/r|, and the state passes
    when the largest deviation is within NORM_TOL. That fixed threshold
    separates the two cases: on a stabilizer state, or a local-unitary image
    of one, tr rho_S^2 = |G_S|/r with G_S the elements supported in S, so a
    reduction that is not maximally mixed (|G_S| >= 2) has an entry off by at
    least r**-1.5 >= (D**n)**-0.75, over NORM_TOL for every D**n < 10**12,
    while an I/r reduction is off by float roundoff, about 1e-16. Subsets are
    visited in lexicographic order; the verdict is independent of that order.
    The reported deviation is the maximum, and the reported worst subset is
    the first one within ALGEBRA_TOL of it, so float roundoff cannot pick
    among subsets that tie exactly. Both depend on every subset, so this
    scans them all, not only the half of :func:`~stabame.stabgroup.ame_subsets`.
    """
    n = state.parties
    subsets = list(combinations(range(n), n // 2))
    devs = []
    for sub in subsets:
        rho = reduced_density(state, sub)
        r = rho.shape[0]
        devs.append(float(np.abs(rho - np.eye(r) / r).max()))
    worst = max(devs)
    worst_subset = next(sub for sub, dev in zip(subsets, devs) if dev >= worst - ALGEBRA_TOL)
    return AmeVerdict(worst <= NORM_TOL, "dense", worst_subset=worst_subset, worst_deviation=worst)


def crt_product(states: Sequence[DenseState]) -> DenseState:
    """The product of factor states over pairwise coprime q_i, over D = prod(q_i).

    The amplitude at (j_1..j_n) is prod_i psi_i(j_1 mod q_i, ..., j_n mod q_i):
    by the CRT, j -> (j mod q_1, ..., j mod q_m) is a bijection of Z_D, so
    this is the product state written in D's own basis. All inputs must
    share the party count.
    """
    if not states:
        raise ValueError("need at least one state")
    n = states[0].parties
    if any(s.parties != n for s in states):
        raise ValueError("all factor states must share the party count")
    dims = [s.dimension for s in states]
    if math.lcm(*dims) != math.prod(dims):
        raise ValueError(f"dimensions {dims} are not pairwise coprime")
    # the outer product of the per-factor (q_i,)*n arrays, each broadcast
    # straight into axes k*m + i (party k, factor i): party-major, factor-minor
    m = len(states)
    amps = np.ones((1,) * (n * m), dtype=complex)
    for i, s in enumerate(states):
        shape = [1] * (n * m)
        shape[i::m] = [s.dimension] * n
        amps = amps * s.amplitudes.reshape(shape)
    # digit j of D sits at the mixed-radix position of its residues, first
    # factor most significant: sum_i (j mod q_i) * prod_{l > i} q_l
    d = math.prod(dims)
    j = np.arange(d)
    position = np.zeros(d, dtype=np.int64)
    for q in dims:
        position = position * q + j % q
    amps = amps.reshape((d,) * n)[np.ix_(*[position] * n)]
    return DenseState(d, n, amps.reshape(-1))
