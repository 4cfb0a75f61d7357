"""Shared test helpers: independent dense oracles and random instance builders.

The reference Pauli matrices here are built straight from the defining sums
(literal loops, numpy matrix powers, kron) and never touch :func:`dense_matrix`,
the column-by-column realization below, so the two check each other and the
group arithmetic. The helpers at the end (dense matrices, single-site
elements, basis states, local unitaries, the CRT split, idempotents and
cofactors with recombination and coefficients, the CRT relabeling
permutation with the factor-digit tensor and level relabeling it feeds, the
two-step Sylow-then-project factor map, the scalar candidate decoder) have
no caller in the package.
"""

import math
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from stabame.errors import BudgetExceededError
from stabame.pauli import PauliProduct, make_pauli, multiply, power
from stabame.ring import PrimePowerFactorization
from stabame.search import GraphState, graph_to_group, num_edge_slots
from stabame.stabgroup import StabilizerGroup, generator_product
from stabame.statevec import NORM_TOL, DenseState, fidelity


def ref_x_matrix(d: int) -> np.ndarray:
    """X = sum_j |j><j+1| with index addition mod d."""
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[j, (j + 1) % d] = 1.0
    return m


def ref_z_matrix(d: int) -> np.ndarray:
    """Z = sum_j omega^j |j><j|."""
    return np.diag([np.exp(2j * np.pi * j / d) for j in range(d)])


def ref_pauli_matrix(p: PauliProduct) -> np.ndarray:
    """lambda^phase * kron_k X^x_k Z^z_k via explicit matrix powers."""
    d = p.dimension
    x_mat = ref_x_matrix(d)
    z_mat = ref_z_matrix(d)
    full = None
    for x, z in zip(p.x_exp, p.z_exp):
        site = np.linalg.matrix_power(x_mat, x) @ np.linalg.matrix_power(z_mat, z)
        full = site if full is None else np.kron(full, site)
    lam = np.exp(1j * np.pi / d)
    return lam**p.phase_exp * full


def basis_dot(dimension: int, weights: Sequence[int]) -> np.ndarray:
    """w . j mod D for every basis index j (party-major), built party by party."""
    digits = np.arange(dimension)
    out = np.zeros(1, dtype=np.int64)
    for w in weights:
        out = np.add.outer(out, w * digits % dimension).ravel() % dimension
    return out


def vector_action(p: PauliProduct) -> tuple[np.ndarray, np.ndarray]:
    """Source map and phases of p on the D**n computational basis states: the
    gather that the synthesis oracle :func:`seed_projections` runs on.

    On basis states: p |j_1..j_n> = lam**phase * omega**(z . j) |j - x mod D>,
    so p @ vec is the gather ``phases * vec[source]`` with source i + x mod D
    and the phase read there, omega**(z . i + z . x). The source map is built
    party by party from length-D pieces, z . i by :func:`basis_dot`, and the
    phases come from a table of the D values lam**phase * omega**m.
    """
    d = p.dimension
    digits = np.arange(d)
    source = np.zeros(1, dtype=np.int64)
    for x in p.x_exp:
        source = np.add.outer(source * d, (digits + x) % d).ravel()
    zx = sum(z * x for z, x in zip(p.z_exp, p.x_exp))
    roots = np.exp(1j * np.pi * p.phase_exp / d) * np.exp(2j * np.pi * digits / d)
    return source, roots[(basis_dot(d, p.z_exp) + zx) % d]


def apply_pauli(p: PauliProduct, vec: np.ndarray) -> np.ndarray:
    """p @ vec through the source map and phases of :func:`vector_action`."""
    source, phases = vector_action(p)
    return phases * vec[source]


def order_by_multiplication(p: PauliProduct) -> int:
    """Smallest k >= 1 with p**k = identity, by repeated multiply (no power)."""
    acc, k = p, 1
    while not acc.is_identity():
        acc, k = multiply(acc, p), k + 1
    return k


def seed_projections(g: StabilizerGroup):
    """Synthesis by trial seeds: the oracle for ``state_from_group``.

    Every basis seed, in index order, goes through each generator's full
    averaging projector (1/ord) sum_k gen**k, by gathers; yields
    (seed, normalized vector) for every seed whose projection keeps a norm
    above 1e-6. For a valid group each one is the stabilized state.
    """
    size = g.dimension**g.parties
    actions = [(*vector_action(gen), order_by_multiplication(gen)) for gen in g.generators]
    for seed in range(size):
        vec = np.zeros(size, dtype=complex)
        vec[seed] = 1.0
        for source, phases, m in actions:
            acc = vec.copy()
            cur = vec
            for _ in range(m - 1):
                cur = phases * cur[source]
                acc += cur
            vec = acc / m
        norm = np.linalg.norm(vec)
        if norm > 1e-6:
            yield seed, vec / norm


def random_pauli(rng: np.random.Generator, d: int, n: int) -> PauliProduct:
    return make_pauli(
        d, n, int(rng.integers(0, 2 * d)), rng.integers(0, d, n), rng.integers(0, d, n)
    )


def random_graph(rng: np.random.Generator, d: int, n: int) -> GraphState:
    return GraphState(d, n, tuple(int(rng.integers(0, d)) for _ in range(num_edge_slots(n))))


def random_graph_group(rng: np.random.Generator, d: int, n: int) -> StabilizerGroup:
    return graph_to_group(random_graph(rng, d, n))


def unimodular_mix(rng: np.random.Generator, g: StabilizerGroup) -> StabilizerGroup:
    """The same group on generators changed by a random unimodular matrix."""
    d, k = g.dimension, len(g.generators)
    u = np.eye(k, dtype=np.int64)
    for _ in range(3 * k):
        i, j = rng.choice(k, size=2, replace=False)
        u[i] = (u[i] + int(rng.integers(1, d)) * u[j]) % d
    return StabilizerGroup(
        d,
        g.parties,
        tuple(generator_product(g, [int(c) for c in row]) for row in u[rng.permutation(k)]),
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def perm_det(matrix) -> int:
    """Leibniz-formula determinant; independent of the package's Bareiss code."""
    k = len(matrix)
    total = 0
    for perm in permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(k):
            term *= matrix[i][perm[i]]
        total += term
    return total


def snf_diagonal_oracle(matrix) -> list:
    """SNF diagonal d_k = g_k / g_{k-1} where g_k = gcd of all k x k minors."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    r = min(rows, cols)
    minors = [1]
    for k in range(1, r + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, abs(perm_det(sub)))
        minors.append(g)
    diag = []
    for k in range(1, r + 1):
        diag.append(0 if minors[k] == 0 else minors[k] // minors[k - 1])
    return diag


def single_site(
    dimension: int, parties: int, site: int, x: int = 0, z: int = 0, phase_exp: int = 0
) -> PauliProduct:
    """X**x Z**z on one site (0-based), identity elsewhere."""
    if not 0 <= site < parties:
        raise ValueError(f"site {site} out of range")
    xs = [0] * parties
    zs = [0] * parties
    xs[site] = x
    zs[site] = z
    return make_pauli(dimension, parties, phase_exp, xs, zs)


def dense_matrix(p: PauliProduct, max_dim: int = 2048) -> np.ndarray:
    """Exact dense realization lam**phase * kron_k(X**x_k Z**z_k); unitary.

    Refuses to materialize matrices larger than ``max_dim`` on a side.
    """
    d = p.dimension
    dim = d**p.parties
    if dim > max_dim:
        raise BudgetExceededError(f"dense matrix of size {dim} exceeds budget {max_dim}")
    mat = None
    for x, z in zip(p.x_exp, p.z_exp):
        site = np.zeros((d, d), dtype=complex)
        for j in range(d):
            site[(j - x) % d, j] = np.exp(2j * np.pi * ((z * j) % d) / d)
        mat = site if mat is None else np.kron(mat, site)
    return np.exp(1j * np.pi * p.phase_exp / d) * mat


def states_equal(a: DenseState, b: DenseState, tol: float = NORM_TOL) -> bool:
    """Equality up to global phase."""
    return fidelity(a, b) > 1.0 - tol


def basis_state(dimension: int, parties: int, index: int) -> DenseState:
    amps = np.zeros(dimension**parties, dtype=complex)
    amps[index] = 1.0
    return DenseState(dimension, parties, amps)


def apply_local_unitary(state: DenseState, unitaries: Sequence[np.ndarray]) -> DenseState:
    """Apply one unitary per party; each must have |u^dagger u - I| <= NORM_TOL."""
    d = state.dimension
    n = state.parties
    if len(unitaries) != n:
        raise ValueError(f"need {n} unitaries, got {len(unitaries)}")
    vec = state.amplitudes
    for k, u in enumerate(unitaries):
        u = np.asarray(u, dtype=complex)
        if u.shape != (d, d):
            raise ValueError(f"unitary {k} has shape {u.shape}, expected ({d}, {d})")
        if not np.abs(u.conj().T @ u - np.eye(d)).max() <= NORM_TOL:
            raise ValueError(f"matrix {k} is not unitary")
        view = vec.reshape(d**k, d, d ** (n - 1 - k))
        vec = np.einsum("ab,ibj->iaj", u, view).reshape(-1)
    return DenseState(d, n, vec)


def crt_split(residue: int, f: PrimePowerFactorization) -> tuple[int, ...]:
    """Map a residue mod D to its tuple of residues mod each prime power q_i."""
    if not 0 <= residue < f.dimension:
        raise ValueError(f"residue {residue} out of range [0, {f.dimension})")
    return tuple(residue % q for q in f.prime_powers)


def sylow_exponent(f: PrimePowerFactorization, i: int) -> int:
    """CRT idempotent m_i: m_i = 1 (mod q_i) and m_i = 0 (mod q_j) for j != i.

    Raising a group element of order dividing D to the power m_i projects it
    onto its q_i-primary (Sylow) part.
    """
    t = cofactor_modulus(f, i)
    return (t * pow(t, -1, f.prime_powers[i])) % f.dimension


def cofactor_modulus(f: PrimePowerFactorization, i: int) -> int:
    """t_i = D / q_i, the product of all other prime powers."""
    if not 0 <= i < f.num_factors:
        raise ValueError(f"factor index {i} out of range")
    return f.dimension // f.prime_powers[i]


def crt_combine(residues: Sequence[int], f: PrimePowerFactorization) -> int:
    """Inverse of :func:`crt_split`: reassemble a residue mod D from factor residues."""
    qs = f.prime_powers
    if len(residues) != len(qs):
        raise ValueError(f"expected {len(qs)} residues, got {len(residues)}")
    total = 0
    for i, (r, q) in enumerate(zip(residues, qs)):
        if not 0 <= r < q:
            raise ValueError(f"residue {r} out of range [0, {q}) at factor {i}")
        total += r * sylow_exponent(f, i)
    return total % f.dimension


def crt_coefficients(f: PrimePowerFactorization) -> tuple[int, ...]:
    """Exponents c_i with CRT-relabeled Z_D = Z_{q_1}^{c_1} x ... x Z_{q_m}^{c_m}.

    c_i is the inverse of D/q_i modulo q_i (the idempotent divided by the
    cofactor), so omega_D^(m_i) = omega_{q_i}^(c_i).
    """
    return tuple(
        (sylow_exponent(f, i) // cofactor_modulus(f, i)) % q for i, q in enumerate(f.prime_powers)
    )


def crt_unitary(f: PrimePowerFactorization) -> tuple[int, ...]:
    """Basis permutation realizing Z_D = Z_{q_1} x ... x Z_{q_m}.

    Position j maps to sum_i (j mod q_i) * weight_i with weight_i the product
    of the later prime powers. Conjugating X_D by this permutation gives the
    tensor of the factor X operators exactly; conjugating Z_D gives the tensor
    of Z_{q_i}**c_i, with c_i the inverse of D/q_i modulo q_i.
    """
    qs = f.prime_powers
    weights = [math.prod(qs[i + 1 :]) for i in range(len(qs))]
    return tuple(sum(j % q * w for q, w in zip(qs, weights)) for j in range(f.dimension))


def tensor(states: Sequence[DenseState]) -> DenseState:
    """Per-factor states combined over D = prod(q_i) in factor-digit order.

    The composite digit of party k is built from the factor digits in list
    order, first factor most significant, so the product is the state
    relabeled by :func:`crt_unitary`: the reference that
    :func:`stabame.statevec.crt_product` is checked against, through
    :func:`permute_levels`.
    """
    if not states:
        raise ValueError("need at least one state")
    n = states[0].parties
    if any(s.parties != n for s in states):
        raise ValueError("all factor states must share the party count")
    # the outer product of the per-factor (q_i,)*n arrays, each broadcast
    # straight into axes k*m + i (party k, factor i): party-major, factor-minor
    m = len(states)
    amps = np.ones((1,) * (n * m), dtype=complex)
    for i, s in enumerate(states):
        shape = [1] * (n * m)
        shape[i::m] = [s.dimension] * n
        amps = amps * s.amplitudes.reshape(shape)
    return DenseState(math.prod(s.dimension for s in states), n, amps.reshape(-1))


def permute_levels(state: DenseState, perm: Sequence[int]) -> DenseState:
    """Relabel every party's basis digit j -> perm[j]."""
    d = state.dimension
    perm = list(perm)
    if sorted(perm) != list(range(d)):
        raise ValueError(f"perm must be a permutation of 0..{d - 1}")
    inv = np.argsort(perm)
    amps = state.amplitudes.reshape((d,) * state.parties)[np.ix_(*[inv] * state.parties)]
    return DenseState(d, state.parties, amps.reshape(-1))


def sylow_component(
    g: StabilizerGroup, f: PrimePowerFactorization, i: int
) -> StabilizerGroup:
    """The q_i-primary part of a group over Z_D: every generator raised to the
    CRT idempotent m_i, which keeps its q_i-part and kills the rest."""
    m = sylow_exponent(f, i)
    return StabilizerGroup(g.dimension, g.parties, tuple(power(gen, m) for gen in g.generators))


def project_pauli(p: PauliProduct, f: PrimePowerFactorization, i: int) -> PauliProduct:
    """Re-express a q_i-component element over Z_{q_i}: X exponent x mod q_i,
    Z exponent and phase divided by t_i = D / q_i. Refuses an element whose
    exponents or phase are not multiples of t_i, so a wrong component never
    passes through a silent floor division."""
    q = f.prime_powers[i]
    t = cofactor_modulus(f, i)
    for v in list(p.x_exp) + list(p.z_exp) + [p.phase_exp]:
        if v % t != 0:
            raise ValueError(f"exponent {v} not divisible by {t}: not a q={q} component element")
    x = tuple(v % q for v in p.x_exp)
    z = tuple((v // t) % q for v in p.z_exp)
    return PauliProduct(q, p.parties, (p.phase_exp // t) % (2 * q), x, z)


def sylow_then_project(
    g: StabilizerGroup, f: PrimePowerFactorization, i: int
) -> StabilizerGroup:
    """Reference for :func:`stabame.stabgroup.factor_group`: the Sylow
    component of ``g``, then each of its generators projected over Z_{q_i}."""
    gens = tuple(project_pauli(gen, f, i) for gen in sylow_component(g, f, i).generators)
    return StabilizerGroup(f.prime_powers[i], g.parties, gens)


def graph_from_index(dimension: int, parties: int, index: int) -> GraphState:
    """Candidate number ``index`` in the lexicographic enumeration."""
    slots = num_edge_slots(parties)
    total = dimension**slots
    if not 0 <= index < total:
        raise ValueError(f"candidate index {index} out of range [0, {total})")
    entries = []
    for k in range(slots):
        entries.append((index // dimension ** (slots - 1 - k)) % dimension)
    return GraphState(dimension, parties, tuple(entries))
