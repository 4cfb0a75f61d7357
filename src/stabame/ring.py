"""Exact integer arithmetic: factorization, CRT, Smith normal form, span orders.

Everything here is pure and exact (Python big integers, no floats). These
primitives back the stabilizer-group order computation (Smith normal form
with transforms, whose left transform also yields relation and kernel
bases), the transform-free span order mod D that the symbolic AME verifier
evaluates per subset, the Chinese-remainder splitting of composite local
dimensions, and the Sylow idempotents used to pull prime-power components
out of abelian Pauli subgroups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class PrimePowerFactorization:
    """D = q_1 * ... * q_m with q_i = p_i^e_i and p_1 < p_2 < ... distinct primes.

    ``factors`` is an ordered tuple of (prime, exponent, prime_power) triples.
    """

    dimension: int
    factors: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        prod = 1
        prev_p = 0
        for p, e, q in self.factors:
            if p <= prev_p:
                raise ValueError("primes must be strictly increasing")
            if e < 1 or q != p**e:
                raise ValueError(f"inconsistent factor ({p}, {e}, {q})")
            prev_p = p
            prod *= q
        if prod != self.dimension:
            raise ValueError("factor product does not equal the dimension")

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @property
    def prime_powers(self) -> tuple[int, ...]:
        return tuple(q for _, _, q in self.factors)


def factorize(dimension: int) -> PrimePowerFactorization:
    """Prime-power factorization of ``dimension`` by trial division.

    Inputs are small (local dimensions of qudit systems), so trial division
    is ample; rejects dimension < 2.
    """
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    rest = dimension
    factors = []
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e, p**e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1, rest))
    return PrimePowerFactorization(dimension, tuple(factors))


def crt_split(residue: int, f: PrimePowerFactorization) -> tuple[int, ...]:
    """Map a residue mod D to its tuple of residues mod each prime power q_i."""
    if not 0 <= residue < f.dimension:
        raise ValueError(f"residue {residue} out of range [0, {f.dimension})")
    return tuple(residue % q for q in f.prime_powers)


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


def sylow_exponent(f: PrimePowerFactorization, i: int) -> int:
    """CRT idempotent m_i: m_i = 1 (mod q_i) and m_i = 0 (mod q_j) for j != i.

    Raising a group element of order dividing D to the power m_i projects it
    onto its q_i-primary (Sylow) part.
    """
    if not 0 <= i < f.num_factors:
        raise ValueError(f"factor index {i} out of range")
    q = f.prime_powers[i]
    t = f.dimension // q
    return (t * pow(t, -1, q)) % f.dimension


def cofactor_modulus(f: PrimePowerFactorization, i: int) -> int:
    """t_i = D / q_i, the product of all other prime powers."""
    if not 0 <= i < f.num_factors:
        raise ValueError(f"factor index {i} out of range")
    return f.dimension // f.prime_powers[i]


# ---------------------------------------------------------------------------
# Integer matrices and the Smith normal form
# ---------------------------------------------------------------------------

IntMatrix = list[list[int]]


def _copy_matrix(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    rows = [list(map(int, row)) for row in matrix]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
    return rows


def identity_matrix(k: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def matrix_multiply(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    cols = len(b[0])
    return [
        [sum(row[t] * b[t][j] for t in range(len(b))) for j in range(cols)]
        for row in a
    ]


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = _copy_matrix(matrix)
    k = len(a)
    if k == 0:
        return 1
    if any(len(row) != k for row in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for col in range(k - 1):
        if a[col][col] == 0:
            pivot_row = next((r for r in range(col + 1, k) if a[r][col] != 0), None)
            if pivot_row is None:
                return 0
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        for i in range(col + 1, k):
            for j in range(col + 1, k):
                a[i][j] = (a[i][j] * a[col][col] - a[i][col] * a[col][j]) // prev
            a[i][col] = 0
        prev = a[col][col]
    return sign * a[k - 1][k - 1]


@dataclass(frozen=True)
class SmithNormalForm:
    """left_transform @ original @ right_transform = diag(diagonal), zeros last.

    The diagonal entries are nonnegative and satisfy d_1 | d_2 | ...; both
    transforms are unimodular (determinant +-1).
    """

    diagonal: tuple[int, ...]
    left_transform: tuple[tuple[int, ...], ...]
    right_transform: tuple[tuple[int, ...], ...]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithNormalForm:
    """Smith normal form over the integers, with both unimodular transforms.

    Total function: accepts any rectangular integer matrix, including empty
    ones. Uses the classic pivot-and-reduce elimination; exact arithmetic
    throughout.
    """
    a = _copy_matrix(matrix)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    left = identity_matrix(rows)
    right = identity_matrix(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + mult * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, mult):
        for row in a:
            row[dst] += mult * row[src]
        for row in right:
            row[dst] += mult * row[src]

    limit = min(rows, cols)
    for t in range(limit):
        # Pick the smallest-magnitude nonzero entry of the working block as pivot.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # Clear column t with Euclidean row steps.
            dirty = False
            for i in range(t + 1, rows):
                while a[i][t] != 0:
                    quot = a[i][t] // a[t][t]
                    add_row(i, t, -quot)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            # Clear row t with Euclidean column steps.
            for j in range(t + 1, cols):
                while a[t][j] != 0:
                    quot = a[t][j] // a[t][t]
                    add_col(j, t, -quot)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, rows)):
                # The pivot must divide the whole remaining block for the
                # divisibility chain; if not, fold an offending row in and redo.
                offender = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(t, offender, 1)

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]

    diagonal = tuple(a[i][i] for i in range(limit))
    return SmithNormalForm(
        diagonal,
        tuple(tuple(row) for row in left),
        tuple(tuple(row) for row in right),
    )


def subgroup_order_mod(diagonal: Sequence[int], modulus: int) -> int:
    """Order of the subgroup of Z_modulus^c generated by rows with the given SNF diagonal.

    Each elementary divisor d contributes a cyclic factor of order
    modulus / gcd(d, modulus), with gcd(0, modulus) = modulus.
    """
    order = 1
    for d in diagonal:
        order *= modulus // math.gcd(d, modulus)
    return order


def _gcd_step(p: int, b: int) -> tuple[int, int, int, int]:
    """(s, t, u, v) with [[s, t], [-u, v]] unimodular, taking (p, b) to (gcd, 0).

    For p > 0, b >= 0. When p divides b this is (1, 0, b // p, 1), a plain
    subtraction that keeps p as pivot; extended-gcd output can be (0, 1)
    there, which would swap the pivot away.
    """
    if b % p == 0:
        return 1, 0, b // p, 1
    a0, b0 = p, b
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b0:
        q, r = divmod(a0, b0)
        a0, b0 = b0, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return s0, t0, b // a0, p // a0


def span_order_mod(rows: Sequence[Sequence[int]], modulus: int) -> int:
    """Order of the subgroup of Z_modulus^c spanned by ``rows``.

    Diagonalizes mod ``modulus`` with unimodular 2x2 extended-gcd row and
    column steps, keeping entries below the modulus and tracking no
    transforms; the modulus is never factored. Any diagonal form gives the
    order: a pivot p alone in its row and column spans a cyclic factor of
    order modulus / gcd(p, modulus), and no divisibility chain is needed.
    Every step either clears an entry that p divides or strictly lowers the
    pivot, so the elimination terminates.
    """
    m = modulus
    a = [[v % m for v in row] for row in rows]
    order = 1
    while a:
        pivot = None
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if v and (pivot is None or v < a[pivot[0]][pivot[1]]):
                    pivot = (i, j)
        if pivot is None:
            break
        r, c = pivot
        while True:
            # Clear column c with row steps.
            for i, row in enumerate(a):
                if i == r or not row[c]:
                    continue
                top = a[r]
                s, t, u, v = _gcd_step(top[c], row[c])
                if t:
                    a[r] = [(s * y + t * x) % m for x, y in zip(row, top)]
                a[i] = [(v * x - u * y) % m for x, y in zip(row, top)]
            # Clear row r with column steps; a gcd step can refill column c.
            refilled = False
            for j, b in enumerate(a[r]):
                if j == c or not b:
                    continue
                s, t, u, v = _gcd_step(a[r][c], b)
                for row in a:
                    y, x = row[c], row[j]
                    row[c] = (s * y + t * x) % m
                    row[j] = (v * x - u * y) % m
                refilled = refilled or t != 0
            if not refilled:
                break
        order *= m // math.gcd(a[r][c], m)
        del a[r]
        for row in a:
            del row[c]
    return order


def kernel_basis_mod(snf: SmithNormalForm, modulus: int, num_rows: int) -> list[list[int]]:
    """Generating set of {c in Z^num_rows : c @ M = 0 (mod modulus)} mod modulus.

    M is the matrix the SNF was computed from. Row i of the left transform,
    scaled by modulus / gcd(d_i, modulus), generates the solutions; together
    they generate the whole solution group mod ``modulus``.
    """
    padded = list(snf.diagonal) + [0] * (num_rows - len(snf.diagonal))
    basis = []
    for i in range(num_rows):
        coeff = modulus // math.gcd(padded[i], modulus)
        basis.append([coeff * v for v in snf.left_transform[i]])
    return basis
