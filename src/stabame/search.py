"""Exhaustive graph-state search for stabilizer AME states at small (n, d).

Candidates are weighted graphs: symmetric adjacency matrices A over Z_d with
zero diagonal. The graph state of A is stabilized by the generators
X_v * prod_u Z_u^(A[v][u]); their product with exponents c has X part c and
Z part cA. So a non-identity element supported inside a k-set S, with
k = floor(n/2), exists exactly when c -> c A[S, S^c] (mod d) is not injective,
and the state is AME exactly when that map is injective for every k-set S.
By McCoy's theorem the map is injective exactly when d and all k x k minors
of A[S, S^c] have gcd 1. This is Helwig's qudit graph-state criterion
(2013), generalized from prime d to Z_d. Note that no single minor need be a
unit mod d, only their gcd with d must be 1.

The search decodes chunks of candidates into numpy arrays, the digits of the
chunk's first index plus a carried offset per row, and computes every
maximal minor exactly, by cofactor expansion with a reduction mod d after
every product. A witness is a :class:`GraphState` built straight from its
decoded row, since a graph is stored as its upper triangle. The
symbolic verifier in :mod:`stabame.ame` reaches the same verdicts on
:func:`graph_to_group` and serves as the test oracle.

Candidate order is row-major lexicographic on the upper-triangle entries,
with the first entry most significant, so runs are reproducible and the
space shards cleanly by index range. The search budget bounds the number of
candidates a run may visit, that is the size of its shard, in either mode,
and MAX_PLAN_ENTRIES the minor plan that every run builds first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, decimal_digits
from .pauli import make_pauli
from .ring import factorize
from .stabgroup import StabilizerGroup, ame_subsets

DEFAULT_SEARCH_BUDGET = 10**8

# Candidates tested together: at most MAX_CHUNK, and fewer when each one
# carries many minors, so that no array of a chunk holds more than about
# CHUNK_ELEMENTS entries and memory stays flat at large n.
MAX_CHUNK = 4096
CHUNK_ELEMENTS = 1 << 18
# Most block entries (tested k-sets x k x (n - k)) a minor plan may hold, so
# that the plan, built before the first candidate, stays small whatever the
# budget or mode. n = 16 needs 411 840 entries and is the largest n admitted;
# n = 17 needs 1 750 320.
MAX_PLAN_ENTRIES = 10**6
# Up to this d a product of two residues fits in int64; above it the minors
# are computed on Python ints (numpy object arrays).
INT64_DIMENSION_LIMIT = 1 << 31


def graph_search_is_complete(dimension: int) -> bool:
    """Whether graph-state exhaustion decides stabilizer-AME existence at this d.

    For prime d every stabilizer state is local-Clifford equivalent to a graph
    state and local unitaries preserve the AME property, so an empty graph
    search rules out all stabilizer AME states. For prime powers with e >= 2
    and composites graph states are not known to cover all stabilizer states
    in the Z_d convention used here, so only the graph-state claim is made.
    """
    f = factorize(dimension)
    return f.num_factors == 1 and f.factors[0][1] == 1


def num_edge_slots(parties: int) -> int:
    return parties * (parties - 1) // 2


@dataclass(frozen=True)
class GraphState:
    """A Z_d-weighted graph on ``parties`` vertices, stored as its upper triangle.

    ``upper`` holds A[i][j] for i < j, row-major: the form the candidate
    numbering, witness lines and ``construct graph --adjacency`` use. The
    adjacency matrix is symmetric with zero diagonal by construction.
    """

    dimension: int
    parties: int
    upper: tuple[int, ...]

    def __post_init__(self):
        if self.parties < 1:
            raise ValueError(f"parties must be >= 1, got {self.parties}")
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        slots = num_edge_slots(self.parties)
        if len(self.upper) != slots:
            raise ValueError(f"expected {slots} entries, got {len(self.upper)}")
        for a in self.upper:
            if not 0 <= a < self.dimension:
                raise ValueError(f"adjacency entry {a} out of range")

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        n = self.parties
        a = [[0] * n for _ in range(n)]
        for (i, j), v in zip(combinations(range(n), 2), self.upper):
            a[i][j] = a[j][i] = v
        return tuple(tuple(row) for row in a)


def graph_to_group(graph: GraphState) -> StabilizerGroup:
    """Stabilizer group with one generator X_v * prod_u Z_u^(A[v][u]) per vertex.

    Symmetry makes the generators commute and the zero diagonal makes every
    relation close with phase zero, so the output always stabilizes a unique
    state of the d**n-dimensional system.
    """
    d = graph.dimension
    n = graph.parties
    adjacency = graph.adjacency
    gens = []
    for v in range(n):
        x = [0] * n
        x[v] = 1
        gens.append(make_pauli(d, n, 0, x, adjacency[v]))
    return StabilizerGroup(d, n, tuple(gens))


@dataclass(frozen=True)
class SearchResult:
    found: tuple[GraphState, ...]
    searched: int
    exhausted: bool


@dataclass(frozen=True)
class _MinorPlan:
    """Where the maximal minors of every block A[S, S^c] come from.

    ``blocks[s, r, p]`` is the upper-triangle slot holding A[S[r], S^c[p]]
    for the s-th tested k-set S. Level j of the cofactor expansion (one
    entry of ``levels`` per row, j = 1..k) turns the minors on rows
    S[0..j-2] into those on rows S[0..j-1]: for the c-th j-column set,
    ``cols[c, t]`` is its t-th column, ``drop[c, t]`` the number of that set
    without its t-th column among the (j-1)-column sets, and ``sign[t]`` the
    cofactor sign (-1)^(j-1+t).
    """

    blocks: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    width: int  # entries per candidate in the largest array of the test


def _plan_entries(parties: int) -> int:
    """Block entries of ``_minor_plan(parties)``: ``ame_subsets`` k-sets x k x (n - k)."""
    k = parties // 2
    tested = math.comb(parties, k) // (2 if 2 * k == parties else 1)
    return tested * k * (parties - k)


@functools.cache
def _minor_plan(parties: int) -> _MinorPlan:
    k = parties // 2
    m = parties - k
    slot = {pair: s for s, pair in enumerate(combinations(range(parties), 2))}
    subsets = list(ame_subsets(parties))
    blocks = np.empty((len(subsets), k, m), dtype=np.intp)
    for i, rows in enumerate(subsets):
        rest = [v for v in range(parties) if v not in rows]
        for r, u in enumerate(rows):
            for p, v in enumerate(rest):
                blocks[i, r, p] = slot[min(u, v), max(u, v)]
    levels = []
    width = max(len(subsets), blocks.size)
    for j in range(1, k + 1):
        previous = {c: i for i, c in enumerate(combinations(range(m), j - 1))}
        cols = list(combinations(range(m), j))
        drop = [[previous[c[:t] + c[t + 1 :]] for t in range(j)] for c in cols]
        sign = [(-1) ** (j - 1 + t) for t in range(j)]
        levels.append(
            (
                np.array(cols, dtype=np.intp),
                np.array(drop, dtype=np.intp),
                np.array(sign, dtype=np.int64),
            )
        )
        width = max(width, len(subsets) * len(cols) * j)
    return _MinorPlan(blocks, tuple(levels), width)


def _candidate_digits(
    dimension: int, slots: int, first: int, count: int, dtype
) -> np.ndarray:
    """Upper-triangle entries of candidates ``first .. first+count-1``, one row each.

    Every row starts as the digits of ``first``, taken with Python ints so that
    indices past int64 decode exactly. The offsets 0..count-1 are then added
    from the last digit up with a carry, which stops at the first digit that
    no carry reaches.
    """
    digits = np.empty((count, slots), dtype=dtype)
    digits[:] = [first // dimension**p % dimension for p in range(slots - 1, -1, -1)]
    carry = np.arange(count)
    for s in range(slots - 1, -1, -1):
        if not carry.any():
            break
        carry = digits[:, s] + carry
        digits[:, s] = carry % dimension
        carry //= dimension
    return digits


def _ame_mask(digits: np.ndarray, dimension: int, plan: _MinorPlan) -> np.ndarray:
    """Per candidate row of ``digits``: do d and the maximal minors of each
    block A[S, S^c] have gcd 1? Exact: every product is reduced mod d."""
    blocks = digits[:, plan.blocks]  # (candidates, k-sets, k, n-k)
    minors = np.ones(blocks.shape[:2] + (1,), dtype=digits.dtype)  # the 0 x 0 minor
    for row, (cols, drop, sign) in enumerate(plan.levels):
        terms = blocks[:, :, row, cols] * minors[:, :, drop] % dimension
        minors = (terms * sign).sum(axis=-1) % dimension
    return (np.gcd(np.gcd.reduce(minors, axis=-1), dimension) == 1).all(axis=-1)


def search_ame(
    parties: int,
    dimension: int,
    mode: str = "exhaustive",
    shard: tuple[int, int] | None = None,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> SearchResult:
    """Scan graph states at (n, d) for AME witnesses.

    Both modes scan the candidates of the shard range (default: the whole
    space) in order; ``mode="first"`` stops at the first witness. Either mode
    refuses a range larger than ``search_budget``, a negative budget, and a
    party count whose minor plan would exceed MAX_PLAN_ENTRIES.
    ``searched`` counts the candidates up to and including the last one
    checked; ``exhausted`` is True only when the whole space was covered.
    """
    if parties < 1:
        raise ValueError(f"parties must be >= 1, got {parties}")
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    if mode not in ("exhaustive", "first"):
        raise ValueError(f"unknown mode {mode!r}")
    if search_budget < 0:
        raise ValueError(f"search budget must be non-negative, got {search_budget}")
    # The entries grow at least like 2**(n/2 - 1), so a larger n is refused
    # without computing its binomial.
    if (
        parties > 2 * MAX_PLAN_ENTRIES.bit_length() + 1
        or _plan_entries(parties) > MAX_PLAN_ENTRIES
    ):
        raise BudgetExceededError(
            f"the search plan for {parties} parties exceeds {MAX_PLAN_ENTRIES} block entries"
        )
    slots = num_edge_slots(parties)
    total = dimension**slots
    start, end = (0, total) if shard is None else shard
    if not 0 <= start <= end <= total:
        raise ValueError(f"bad shard range {start}:{end} for {decimal_digits(total)} candidates")
    if end - start > search_budget:
        raise BudgetExceededError(
            f"{decimal_digits(end - start)} candidates exceed the search budget of {search_budget}"
        )

    plan = _minor_plan(parties)
    chunk = max(1, min(MAX_CHUNK, CHUNK_ELEMENTS // plan.width))
    dtype = np.int64 if dimension <= INT64_DIMENSION_LIMIT else object
    found = []
    for first in range(start, end, chunk):
        digits = _candidate_digits(dimension, slots, first, min(chunk, end - first), dtype)
        mask = _ame_mask(digits, dimension, plan)
        if mode == "first" and mask.any():
            hit = int(np.argmax(mask))
            witness = GraphState(dimension, parties, tuple(digits[hit].tolist()))
            return SearchResult((witness,), first + hit - start + 1, False)
        found.extend(GraphState(dimension, parties, tuple(row)) for row in digits[mask].tolist())
    return SearchResult(tuple(found), end - start, (start, end) == (0, total))


def format_witness_line(graph: GraphState) -> str:
    """``n d : a_12 a_13 ... a_(n-1)n`` (upper triangle, row-major)."""
    upper = " ".join(map(str, graph.upper))
    return f"{graph.parties} {graph.dimension} : {upper}"


def parse_witness_line(line: str) -> GraphState:
    head, _, tail = line.partition(":")
    try:
        parties, dimension = map(int, head.split())
        entries = [int(tok) for tok in tail.split()]
    except ValueError as exc:
        raise ValueError(f"bad witness line {line!r}") from exc
    return GraphState(dimension, parties, tuple(entries))


def format_certificate(parties: int, dimension: int, searched: int, witnesses: int) -> str:
    return f"EXHAUSTED n={parties} d={dimension} searched={searched} witnesses={witnesses}"


def format_search_report(parties: int, dimension: int, result: SearchResult) -> str:
    """Witness lines followed by the certificate (or a partial-coverage note).

    An exhaustion with no witnesses adds a non-existence claim no stronger
    than the theorem behind it: NO-STABILIZER-AME when graph states are known
    to cover all stabilizer states at this d (:func:`graph_search_is_complete`),
    NO-GRAPH-STATE-AME otherwise.
    """
    lines = [format_witness_line(g) for g in result.found]
    if result.exhausted:
        lines.append(
            format_certificate(parties, dimension, result.searched, len(result.found))
        )
        if not result.found:
            complete = graph_search_is_complete(dimension)
            kind = "NO-STABILIZER-AME" if complete else "NO-GRAPH-STATE-AME"
            lines.append(f"{kind} n={parties} d={dimension}")
    else:
        lines.append(
            f"PARTIAL n={parties} d={dimension} searched={result.searched} "
            f"witnesses={len(result.found)}"
        )
    return "\n".join(lines) + "\n"
