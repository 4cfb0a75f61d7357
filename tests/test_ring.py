from itertools import product

import numpy as np
import pytest

from conftest import crt_combine, crt_split, snf_diagonal_oracle, sylow_exponent
from snf import (
    identity_matrix,
    integer_determinant,
    matrix_multiply,
    smith_normal_form,
    subgroup_order_mod,
)
from stabame.ring import (
    PrimePowerFactorization,
    factorize,
    kernel_mod,
    solve_mod,
    span_order_mod,
)


def test_factorize_examples():
    assert factorize(6).factors == ((2, 1, 2), (3, 1, 3))
    assert factorize(4).factors == ((2, 2, 4),)
    assert factorize(12).factors == ((2, 2, 4), (3, 1, 3))
    assert factorize(2).factors == ((2, 1, 2),)
    assert factorize(30).factors == ((2, 1, 2), (3, 1, 3), (5, 1, 5))


def _trial_division(dim):
    factors, p = [], 2
    while p * p <= dim:
        e = 0
        while dim % p == 0:
            dim, e = dim // p, e + 1
        if e:
            factors.append((p, e, p**e))
        p += 1
    return tuple(factors) + (((dim, 1, dim),) if dim > 1 else ())


def test_factorize_matches_unbounded_trial_division():
    for dim in range(2, 20001):
        assert factorize(dim).factors == _trial_division(dim), dim


# 1048583 and 1048589 are the two smallest primes above 2**20
@pytest.mark.parametrize(
    "dim,factors",
    [
        (2**61 - 1, ((2**61 - 1, 1, 2**61 - 1),)),
        (2 * (2**61 - 1), ((2, 1, 2), (2**61 - 1, 1, 2**61 - 1))),
        (2**64 + 13, ((2**64 + 13, 1, 2**64 + 13),)),
        (1048583**2, ((1048583, 2, 1048583**2),)),
        (6 * 1048589**5, ((2, 1, 2), (3, 1, 3), (1048589, 5, 1048589**5))),
        (2**400 * 3**300, ((2, 400, 2**400), (3, 300, 3**300))),
    ],
)
def test_factorize_certifies_factors_past_the_trial_division_bound(dim, factors):
    assert factorize(dim).factors == factors


@pytest.mark.parametrize(
    "dim",
    [
        1048583 * 1048589,  # two primes past the bound
        1048583**2 * 1048589,  # no power of one prime
        2**89 - 1,  # prime, but past the exact Miller-Rabin bound
    ],
)
def test_factorize_refuses_what_it_cannot_certify(dim):
    with pytest.raises(ValueError, match=f"cannot factor dimension {dim}"):
        factorize(dim)


def test_factorize_rejects_small():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factorization_invariants_small_range():
    for dim in range(2, 61):
        f = factorize(dim)
        primes = [p for p, _, _ in f.factors]
        assert primes == sorted(set(primes))
        assert all(e >= 1 for _, e, _ in f.factors)
        prod = 1
        for _, _, q in f.factors:
            prod *= q
        assert prod == dim


def test_factorization_type_rejects_inconsistency():
    with pytest.raises(ValueError):
        PrimePowerFactorization(6, ((3, 1, 3), (2, 1, 2)))  # wrong prime order
    with pytest.raises(ValueError):
        PrimePowerFactorization(6, ((2, 1, 2),))  # product mismatch
    with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
        PrimePowerFactorization(1, ())
    with pytest.raises(ValueError, match=r"inconsistent factor \(2, 1, 4\)"):
        PrimePowerFactorization(4, ((2, 1, 4),))


def test_crt_split_examples():
    assert crt_split(5, factorize(6)) == (1, 2)
    assert crt_split(0, factorize(30)) == (0, 0, 0)
    assert crt_split(7, factorize(12)) == (3, 1)


def test_crt_combine_examples():
    assert crt_combine([1, 2], factorize(6)) == 5
    assert crt_combine([0, 0, 0], factorize(30)) == 0


def test_crt_errors():
    f = factorize(6)
    with pytest.raises(ValueError):
        crt_split(6, f)
    with pytest.raises(ValueError):
        crt_split(-1, f)
    with pytest.raises(ValueError):
        crt_combine([2, 0], f)  # 2 out of range for q=2
    with pytest.raises(ValueError):
        crt_combine([0], f)  # wrong length


@pytest.mark.parametrize("dim", [6, 12, 30])
def test_crt_bijection_exhaustive(dim):
    f = factorize(dim)
    seen = set()
    for j in range(dim):
        r = crt_split(j, f)
        assert crt_combine(r, f) == j
        seen.add(r)
    assert len(seen) == dim


def test_crt_roundtrip_range_2_to_60():
    for dim in range(2, 61):
        f = factorize(dim)
        for j in range(dim):
            assert crt_combine(crt_split(j, f), f) == j


def test_sylow_exponent_examples():
    f6 = factorize(6)
    assert sylow_exponent(f6, 0) == 3
    assert sylow_exponent(f6, 1) == 4
    assert sylow_exponent(factorize(12), 0) == 9


def test_sylow_exponent_rejects_bad_index():
    with pytest.raises(ValueError):
        sylow_exponent(factorize(6), 2)


def test_sylow_idempotent_identities_range_2_to_60():
    for dim in range(2, 61):
        f = factorize(dim)
        ms = [sylow_exponent(f, i) for i in range(f.num_factors)]
        assert sum(ms) % dim == 1 % dim
        for i in range(len(ms)):
            assert ms[i] * ms[i] % dim == ms[i]
            for j in range(i + 1, len(ms)):
                assert ms[i] * ms[j] % dim == 0
            q = f.prime_powers[i]
            assert ms[i] % q == 1
            assert ms[i] % (dim // q) == 0


# ---------------------------------------------------------------------------
# Smith normal form (the test reference) and the elimination mod D
# ---------------------------------------------------------------------------


def _check_snf(matrix):
    """The reconstruction and unimodularity contract, plus the divisor oracle."""
    snf = smith_normal_form(matrix)
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    product = matrix_multiply(matrix_multiply(snf.left_transform, matrix), snf.right_transform)
    expected = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(snf.diagonal):
        expected[i][i] = d
    assert product == expected
    assert integer_determinant(snf.left_transform) in (-1, 1)
    assert integer_determinant(snf.right_transform) in (-1, 1)
    # divisibility chain, zeros last, nonnegative
    diag = list(snf.diagonal)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert diag == snf_diagonal_oracle(matrix)
    return snf


def test_snf_identity():
    assert _check_snf(identity_matrix(2)).diagonal == (1, 1)


def test_snf_frozen_examples():
    # Expected diagonals derived from the determinantal-divisor oracle:
    # gcd of 1x1 minors, then gcd of 2x2 minors over the previous one.
    assert _check_snf([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert _check_snf([[2, 4], [4, 8]]).diagonal == (2, 0)


def test_snf_empty_and_degenerate():
    assert smith_normal_form([]).diagonal == ()
    assert _check_snf([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert _check_snf([[5]]).diagonal == (5,)
    assert _check_snf([[-4]]).diagonal == (4,)
    assert _check_snf([[3, 6, 9]]).diagonal == (3,)
    assert _check_snf([[2], [3]]).diagonal == (1,)


def test_snf_random_matrices_match_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        matrix = [[int(v) for v in rng.integers(-9, 10, cols)] for _ in range(rows)]
        _check_snf(matrix)


def test_subgroup_order_and_kernel_count():
    # rows (1,1),(0,2) over Z_4: subgroup of order 4 * 2 = 8
    snf = smith_normal_form([[1, 1], [0, 2]])
    assert subgroup_order_mod(snf.diagonal, 4) == 8
    # the elimination mod D agrees without an SNF; the kernel has 16 / 8 elements
    assert span_order_mod([[1, 1], [0, 2]], 4) == 8
    assert kernel_mod([[1, 1], [0, 2]], 4) == (8, [[0, 2]])


SPAN_MODULI = (2, 3, 4, 6, 8, 9, 12, 30, 35, 2**40 + 15, 2**64 + 13)


def _biased_entry(rng, d):
    """Mostly 0, D/2 or D/3 (so spans often degenerate), otherwise uniform."""
    pick = int(rng.integers(0, 5))
    if pick == 0:
        return 0
    if pick == 1:
        return d // 2
    if pick == 2:
        return d // 3
    return int(rng.integers(0, 2**62)) * int(rng.integers(0, 2**62)) % d


def test_span_order_matches_snf_diagonal_on_random_matrices():
    rng = np.random.default_rng(20261018)
    for case in range(3000):
        d = SPAN_MODULI[case % len(SPAN_MODULI)]
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 9))
        matrix = [[_biased_entry(rng, d) for _ in range(cols)] for _ in range(rows)]
        want = subgroup_order_mod(smith_normal_form(matrix).diagonal, d)
        assert span_order_mod(matrix, d) == want, (d, matrix)


def test_span_order_divisible_pivot_does_not_cycle():
    # Extended-gcd coefficients (0, 1), which a plain extended gcd returns
    # when the entry equals the pivot, swap the pivot back and forth forever
    # on this matrix; the step must keep the pivot (coefficients (1, 0)).
    matrix = [[1, 2, 2, 0, 1, 2], [2, 1, 1, 2, 1, 2], [1, 1, 2, 2, 1, 1],
              [2, 2, 1, 1, 2, 2], [2, 2, 2, 0, 2, 1]]
    assert span_order_mod(matrix, 3) == subgroup_order_mod(
        smith_normal_form(matrix).diagonal, 3
    )


def test_span_order_degenerate_shapes():
    assert span_order_mod([], 5) == 1
    assert span_order_mod([[], []], 5) == 1
    assert span_order_mod([[0, 0], [6, 12]], 6) == 1
    assert span_order_mod([[-1, 0], [0, 7]], 6) == 36
    assert span_order_mod([[2, 3]], 6) == 6
    assert span_order_mod([[4], [6]], 2**64 + 13) == 2**64 + 13


def _annihilates(relation, matrix, d):
    cols = len(matrix[0]) if matrix else 0
    return all(
        sum(c * row[j] for c, row in zip(relation, matrix)) % d == 0 for j in range(cols)
    )


def test_kernel_relations_annihilate_and_order_matches_span_order():
    rng = np.random.default_rng(20261019)
    for case in range(1100):
        d = SPAN_MODULI[case % len(SPAN_MODULI)]
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(0, 9))
        matrix = [[_biased_entry(rng, d) for _ in range(cols)] for _ in range(rows)]
        order, relations = kernel_mod(matrix, d)
        assert order == span_order_mod(matrix, d), (d, matrix)
        for c in relations:
            assert len(c) == rows and any(c) and all(0 <= v < d for v in c)
            assert _annihilates(c, matrix, d), (d, matrix, c)


def _span_mod(vectors, d, k):
    """Every Z_d-combination of ``vectors`` in Z_d^k, by closure under addition."""
    span = {(0,) * k}
    for v in vectors:
        frontier = set(span)
        while frontier:
            frontier = {tuple((a + b) % d for a, b in zip(u, v)) for u in frontier} - span
            span |= frontier
    return span


def test_kernel_relations_generate_the_brute_force_kernel():
    # with D * e_j (zero mod D) the relations generate {c : c @ M = 0 (mod D)}
    rng = np.random.default_rng(20261020)
    for case in range(300):
        d = (2, 3, 4, 6, 8, 9, 12)[case % 7]
        k = int(rng.integers(1, 6))
        while d**k > 4096:
            k -= 1
        cols = int(rng.integers(0, 6))
        matrix = [[_biased_entry(rng, d) for _ in range(cols)] for _ in range(k)]
        order, relations = kernel_mod(matrix, d)
        kernel = {c for c in product(range(d), repeat=k) if _annihilates(c, matrix, d)}
        assert len(kernel) * order == d**k, (d, matrix)
        assert _span_mod(relations, d, k) == kernel, (d, matrix, relations)


def test_solve_mod_agrees_with_brute_force():
    # half the targets are images x0 @ M, so solvable; the rest are random
    rng = np.random.default_rng(20261021)
    solved = unsolvable = 0
    for case in range(300):
        d = (2, 4, 6, 8, 12, 18, 20, 60)[case % 8]
        k = int(rng.integers(1, 5))
        while d**k > 4096:
            k -= 1
        cols = int(rng.integers(1, 5))
        matrix = [[_biased_entry(rng, d) for _ in range(cols)] for _ in range(k)]
        if case % 2:
            x0 = [int(v) for v in rng.integers(0, d, k)]
            target = [sum(a * row[j] for a, row in zip(x0, matrix)) for j in range(cols)]
        else:
            target = [int(v) for v in rng.integers(-d, d, cols)]
        images = {
            tuple(sum(a * row[j] for a, row in zip(x, matrix)) % d for j in range(cols))
            for x in product(range(d), repeat=k)
        }
        if tuple(t % d for t in target) in images:
            x = solve_mod(matrix, target, d)
            assert len(x) == k
            assert _annihilates([*x, 1], [*matrix, [-t for t in target]], d), (d, matrix, x)
            solved += 1
        else:
            with pytest.raises(ValueError, match="no solution"):
                solve_mod(matrix, target, d)
            unsolvable += 1
    assert solved >= 150 and unsolvable >= 30


def test_integer_determinant():
    assert integer_determinant([]) == 1
    assert integer_determinant([[7]]) == 7
    assert integer_determinant([[1, 2], [3, 4]]) == -2
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        matrix = [[int(v) for v in rng.integers(-6, 7, k)] for _ in range(k)]
        assert integer_determinant(matrix) == round(
            float(np.linalg.det(np.array(matrix, dtype=float)))
        )
