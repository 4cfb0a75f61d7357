"""Independent oracle for the benchmark: expected answers computed without stabame.

The AME criterion for graph states (Helwig 2013, generalized from prime d to
Z_d): the group element prod_v g_v^{c_v} of a graph state with adjacency A has
x = c and z = cA (mod d), so a non-identity element is supported inside a set
S of floor(n/2) parties exactly when some nonzero c on S solves
c . A[S, S^c] = 0 (mod d). The state is AME iff c -> c . A[S, S^c] is injective
for every such S. Injectivity is checked here by brute force over all c.

Everything in this module is plain integer arithmetic written for the
benchmark; it never imports stabame.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd

import numpy as np

# Graphs are checked in batches of at most this many image entries, so
# oracle memory stays bounded.
BATCH_ENTRIES = 1 << 22


def factorize(d: int) -> list[tuple[int, int, int]]:
    """(prime, exponent, prime power) triples of d, increasing primes."""
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            out.append((p, e, p**e))
        p += 1
    if d > 1:
        out.append((d, 1, d))
    return out


def is_prime(d: int) -> bool:
    f = factorize(d)
    return len(f) == 1 and f[0][1] == 1


def slots(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def _nonzero_coefficients(d: int, s: int) -> np.ndarray:
    """All nonzero c in Z_d^s, one per row."""
    grid = np.array(list(product(range(d), repeat=s)), dtype=np.int64)
    return grid[1:]


def adjacency_batch(n: int, upper: np.ndarray) -> np.ndarray:
    """Symmetric zero-diagonal adjacencies from rows of upper-triangle entries."""
    upper = np.asarray(upper, dtype=np.int64)
    adj = np.zeros((len(upper), n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    adj[:, iu[0], iu[1]] = upper
    return adj + adj.transpose(0, 2, 1)


def upper_from_index(n: int, d: int, indices: np.ndarray) -> np.ndarray:
    """Upper-triangle entries of candidates in row-major lexicographic order,
    first entry most significant (one row per index)."""
    k = slots(n)
    idx = np.asarray(indices, dtype=np.int64)
    cols = []
    for pos in range(k):
        cols.append((idx // d ** (k - 1 - pos)) % d)
    return np.stack(cols, axis=-1).astype(np.int64)


def _batch(n: int, d: int) -> int:
    return max(1, BATCH_ENTRIES // ((d ** (n // 2)) * (n - n // 2)))


def ame_flags(n: int, d: int, adjacency: np.ndarray) -> np.ndarray:
    """AME verdict for a batch of graph adjacencies of shape (B, n, n)."""
    adjacency = np.asarray(adjacency, dtype=np.int64) % d
    coeffs = _nonzero_coefficients(d, n // 2)
    ok = np.ones(adjacency.shape[0], dtype=bool)
    step = _batch(n, d)
    for lo in range(0, len(ok), step):
        part = adjacency[lo : lo + step]
        for sub in combinations(range(n), n // 2):
            rest = [v for v in range(n) if v not in sub]
            block = part[:, list(sub)][:, :, rest]  # (B, s, n - s)
            images = np.einsum("ks,bst->bkt", coeffs, block) % d
            ok[lo : lo + step] &= ~(images == 0).all(axis=2).any(axis=1)
    return ok


def graph_is_ame(adjacency, d: int) -> bool:
    a = np.asarray(adjacency, dtype=np.int64)
    return bool(ame_flags(a.shape[0], d, a[None])[0])


def witness_indices(n: int, d: int, start: int, end: int) -> list[int]:
    """Candidate indices in [start, end) whose graph state is AME."""
    found = []
    step = _batch(n, d)
    for lo in range(start, end, step):
        upper = upper_from_index(n, d, np.arange(lo, min(end, lo + step), dtype=np.int64))
        flags = ame_flags(n, d, adjacency_batch(n, upper))
        found.extend(lo + int(i) for i in np.nonzero(flags)[0])
    return found


# ---------------------------------------------------------------------------
# Group elements of graph states
# ---------------------------------------------------------------------------


def graph_element(adjacency: np.ndarray, d: int, c) -> tuple[int, tuple, tuple]:
    """(phase exponent, x, z) of prod_v (X_v Z^{A_v})^{c_v}, factors in vertex order.

    Normal form lam^g X^x Z^z with lam^2 = omega and Z^z X^x = omega^{-z.x} X^x Z^z.
    Each g_v^{c_v} has phase 0 because A_vv = 0; moving the Z part of the
    earlier factors past X_w^{c_w} gives omega^{-c_u c_w A_uw} for u < w.
    """
    a = np.asarray(adjacency, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64) % d
    n = len(c)
    cross = sum(int(c[u]) * int(c[w]) * int(a[u, w]) for u in range(n) for w in range(u + 1, n))
    phase = (-2 * cross) % (2 * d)
    return phase, tuple(int(v) for v in c), tuple(int(v) for v in (c @ a) % d)


def is_graph_witness(adjacency, d: int, element: tuple[int, tuple, tuple]) -> bool:
    """Whether ``element`` is a non-identity member of the graph group supported
    on at most floor(n/2) parties."""
    phase, x, z = element
    n = len(x)
    if not any(x):
        return False
    if (phase, tuple(x), tuple(z)) != graph_element(adjacency, d, x):
        return False
    support = sum(1 for k in range(n) if x[k] or z[k])
    return support <= n // 2


def is_ghz_witness(n: int, d: int, element: tuple[int, tuple, tuple]) -> bool:
    """GHZ group elements are X^{a(1..1)} Z^z with sum(z) = 0 (mod d) and phase 0."""
    phase, x, z = element
    if phase != 0 or len(set(x)) != 1 or sum(z) % d != 0:
        return False
    if not any(x) and not any(z):
        return False
    support = sum(1 for k in range(n) if x[k] or z[k])
    return support <= n // 2


def ghz_is_ame(n: int) -> bool:
    """Every floor(n/2)-party marginal of GHZ is diagonal of rank d; it is
    maximally mixed only for a single party."""
    return n // 2 <= 1


def ghz_deviation(n: int, d: int) -> float:
    """Largest entry deviation of a floor(n/2)-party GHZ marginal from I/d^k."""
    k = n // 2
    return 1.0 / d - 1.0 / d**k


def symplectic(a, b, d: int) -> int:
    (_, xa, za), (_, xb, zb) = a, b
    return sum(p * q - r * s for p, q, r, s in zip(za, xb, xa, zb)) % d


def abelian(gens, d: int) -> bool:
    return all(symplectic(gens[i], gens[j], d) == 0 for i in range(len(gens)) for j in range(i))


def unit_multiple(block, reference, q: int) -> bool:
    """Whether ``block`` equals u * ``reference`` (mod q) for a single unit u."""
    block = np.asarray(block, dtype=np.int64) % q
    reference = np.asarray(reference, dtype=np.int64) % q
    return any(
        np.array_equal(block, (u * reference) % q) for u in range(1, q) if gcd(u, q) == 1
    )


# ---------------------------------------------------------------------------
# No-go table
# ---------------------------------------------------------------------------


def nogo_cells(facts, max_parties: int, max_dim: int) -> dict:
    """(n, D) -> (status, reasons) from (n, q, status, source) facts."""
    negative: dict = {}
    positive: dict = {}
    for n, q, status, source in facts:
        table = positive if status == "stabAMEExists" else negative
        table.setdefault((n, q), source or status)
    cells = {}
    for n in range(2, max_parties + 1):
        for d in range(2, max_dim + 1):
            reasons = [
                f"factor q={q} [{negative[(n, q)]}]"
                for _, _, q in factorize(d)
                if (n, q) in negative
            ]
            if reasons:
                cells[(n, d)] = ("excluded", reasons)
            elif (n, d) in positive:
                cells[(n, d)] = ("witness", [])
            else:
                cells[(n, d)] = ("unknown", [])
    return cells
