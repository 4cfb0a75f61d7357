"""Integer Smith normal form with both unimodular transforms: a test reference.

The package eliminates mod D only (``ring.span_order_mod`` and
``ring.kernel_mod``). This classic pivot-and-reduce elimination over the
integers, with the determinant and product helpers that check its transforms,
is kept here so tests can compare span orders and kernels against it.
"""

import math
from dataclasses import dataclass
from typing import Sequence

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
