"""Exact integer arithmetic: factorization, CRT, span orders and kernels mod D.

Everything here is pure and exact (Python big integers, no floats). One
elimination mod D backs all the linear algebra. The span order that the
symbolic AME verifier evaluates per subset carries no transform: it first
retires every unit pivot (an entry prime to D) with plain row subtractions,
then diagonalizes what is left. The relations among generators that group
validation and witnesses need come from the one diagonalization carrying its
left transform, with no unit shortcut, since those relations choose the
printed witness; a linear system mod D is solved from those relations too.

Factorization is bounded: trial division runs only below
``TRIAL_DIVISION_BOUND`` (2**20), and a cofactor left past it is accepted
only as a prime, or a power of a prime, that a deterministic Miller-Rabin
test certifies (bases: the first 13 primes, exact below
``MILLER_RABIN_EXACT_BELOW``, about 3.3e24). Any other dimension is refused
with a ValueError rather than factored at unbounded cost.
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


TRIAL_DIVISION_BOUND = 1 << 20
# Miller-Rabin to these bases decides primality exactly below the bound
# (Sorenson and Webster, Math. Comp. 86 (2017) 985).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def factorize(dimension: int) -> PrimePowerFactorization:
    """Prime-power factorization of ``dimension``.

    Trial division stops at ``TRIAL_DIVISION_BOUND``; a cofactor left past it
    must be a certified prime or a power of one, else ValueError. A dimension
    below 2 has no factors, and :class:`PrimePowerFactorization` rejects it.
    """
    rest = dimension
    factors = []
    p = 2
    while p * p <= rest and p < TRIAL_DIVISION_BOUND:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e, p**e))
        p += 1 if p == 2 else 2
    if rest > 1:
        prime, e = (rest, 1) if p * p > rest else _certified_prime_power(rest, dimension)
        factors.append((prime, e, rest))
    return PrimePowerFactorization(dimension, tuple(factors))


def _certified_prime_power(rest: int, dimension: int) -> tuple[int, int]:
    """(r, k) with rest = r**k and r a certified prime. Every prime factor of
    ``rest`` is past ``TRIAL_DIVISION_BOUND`` = 2**20, so k <= bit_length / 20."""
    for k in range(1, rest.bit_length() // 20 + 1):
        r = _integer_root(rest, k)
        if r**k == rest and _is_certified_prime(r):
            return r, k
    raise ValueError(
        f"cannot factor dimension {dimension}: a factor past {TRIAL_DIVISION_BOUND} "
        "is neither a certified prime nor a power of one"
    )


def _integer_root(n: int, k: int) -> int:
    """The largest r with r**k <= n, for n >= 1, by integer Newton steps from
    above (floats overflow past 1e308)."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_certified_prime(n: int) -> bool:
    """Strong probable prime to every base, for odd n > 41 below the exact
    bound: a**d = 1 or a**(2**i * d) = -1 (mod n) for some i < s, where
    n - 1 = 2**s * d with d odd."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return n < MILLER_RABIN_EXACT_BELOW and all(
        pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
        for a in MILLER_RABIN_BASES
    )


# ---------------------------------------------------------------------------
# Elimination mod D: span orders and relation kernels
# ---------------------------------------------------------------------------


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


def _diagonalize_mod(rows: Sequence[Sequence[int]], modulus: int, width: int):
    """Diagonalize the first ``width`` columns of ``rows`` mod ``modulus``.

    Uses unimodular 2x2 extended-gcd row and column steps, keeping entries
    below the modulus; the modulus is never factored. Columns past ``width``
    follow the row steps only, so appended identity columns record the left
    transform. Every step either clears an entry that the pivot divides or
    strictly lowers the pivot, so the elimination terminates.

    Returns one (pivot, carried columns) pair per row. A pivot is alone in its
    row and column of the diagonalized block; a row that ends zero there gets
    pivot 0. No divisibility chain is formed: the span order and the kernel
    only need some diagonal form.
    """
    m = modulus
    a = [[v % m for v in row] for row in rows]
    out = []
    while True:
        # The pivot is the first smallest nonzero entry in row-major order.
        r, p = None, 0
        for i, row in enumerate(a):
            v = min(filter(None, row[:width]), default=0)
            if v and (r is None or v < p):
                r, p = i, v
                if p == 1:
                    break
        if r is None:
            break
        c = a[r].index(p, 0, width)
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
            top = a[r]
            for j in range(width):
                b = top[j]
                if j == c or not b:
                    continue
                s, t, u, v = _gcd_step(top[c], b)
                if t:
                    for row in a:
                        y, x = row[c], row[j]
                        row[c] = (s * y + t * x) % m
                        row[j] = (v * x - u * y) % m
                    refilled = True
                    continue
                # A plain subtraction (s = v = 1) leaves rows with row[c] = 0 alone.
                for row in a:
                    y = row[c]
                    if y:
                        row[j] = (row[j] - u * y) % m
            if not refilled:
                break
        top = a.pop(r)
        out.append((top[c], top[width:]))
        width -= 1
        for row in a:
            del row[c]
    out.extend((0, row[width:]) for row in a)
    return out


def span_order_mod(rows: Sequence[Sequence[int]], modulus: int) -> int:
    """Order of the subgroup of Z_modulus^c spanned by ``rows``.

    Unit pivots go first, in one sweep over the rows. A row holding an entry
    u with gcd(u, modulus) = 1 clears u's column from every other row by
    row_i -= (row_i[c] * u^-1) * row and is dropped: it spans a cyclic factor
    of order modulus, and column steps against a unit pivot would only touch
    its own row. What remains is diagonalized; a pivot p there spans a cyclic
    factor of order modulus / gcd(p, modulus), with gcd(0, modulus) = modulus.
    """
    m = modulus
    a = [[v % m for v in row] for row in rows]
    order = 1
    i = 0
    while i < len(a):
        top = a[i]
        for c, u in enumerate(top):
            if math.gcd(u, m) == 1:
                break
        else:
            i += 1
            continue
        del a[i]
        inverse = pow(u, -1, m)
        for k, row in enumerate(a):
            f = row[c] * inverse % m
            if f:
                a[k] = [(x - f * y) % m for x, y in zip(row, top)]
        order *= m
    # Retired columns are zero in every remaining row, so they stay in place.
    for pivot, _ in _diagonalize_mod(a, m, len(rows[0]) if rows else 0):
        order *= m // math.gcd(pivot, m)
    return order


def kernel_mod(rows: Sequence[Sequence[int]], modulus: int) -> tuple[int, list[list[int]]]:
    """Span order of ``rows`` and the relations {c : c @ rows = 0 (mod modulus)}.

    The relations are returned mod ``modulus`` and generate the solution group
    mod ``modulus``; together with modulus * e_j they generate the integer
    relation lattice. Row i of the left transform, scaled by
    modulus / gcd(p_i, modulus), is one relation; those of unit pivots vanish
    mod ``modulus`` and are left out.
    """
    k = len(rows)
    width = len(rows[0]) if rows else 0
    augmented = [[*row, *[0] * i, 1, *[0] * (k - 1 - i)] for i, row in enumerate(rows)]
    order = 1
    relations = []
    for pivot, left in _diagonalize_mod(augmented, modulus, width):
        scale = modulus // math.gcd(pivot, modulus)
        order *= scale
        relation = [scale * v % modulus for v in left]
        if any(relation):
            relations.append(relation)
    return order, relations


def solve_mod(rows: Sequence[Sequence[int]], target: Sequence[int], modulus: int) -> list[int]:
    """Some x with x @ rows = target (mod ``modulus``); ValueError if there is none.

    x solves the system exactly when (x, 1) is a relation of ``rows`` with
    -target appended as a last row (one :func:`kernel_mod` call). The last
    coefficients of the returned relations generate an ideal mod
    ``modulus``; extended-gcd steps combine the relations into one whose last
    coefficient is that ideal's generator, so a solution exists exactly when
    the generator is 1.
    """
    _, relations = kernel_mod([*rows, [-v for v in target]], modulus)
    # invariant: combined[-1] = g (mod modulus), starting from 0 = modulus
    combined, g = [0] * (len(rows) + 1), modulus
    for relation in relations:
        s, t, _, _ = _gcd_step(g, relation[-1])
        combined = [(s * a + t * b) % modulus for a, b in zip(combined, relation)]
        g = math.gcd(g, relation[-1])
    if g != 1:
        raise ValueError(f"x @ rows = target has no solution mod {modulus}")
    return combined[:-1]
