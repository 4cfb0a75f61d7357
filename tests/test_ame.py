import numpy as np
import pytest

from conftest import random_graph, random_graph_group, ref_x_matrix, ref_z_matrix
from enumeration import first_supported_subset
from stabame.ame import (
    crt_coefficients,
    crt_unitary,
    decompose,
    format_decomposition_report,
    merge_factors,
    reduce_ame,
    verify_ame,
    verify_ame_symbolic,
)
from stabame.pauli import make_pauli, single_site
from stabame.ring import factorize
from stabame.search import GraphState, graph_to_group, num_edge_slots, search_ame
from stabame.stabgroup import (
    StabilizerGroup,
    bell_group,
    generator_product,
    ghz_group,
    parse_generator_file,
    validate,
)
from stabame.statevec import (
    is_maximally_mixed,
    permute_levels,
    reduced_density,
    state_from_group,
    states_equal,
    tensor,
    verify_ame_dense,
)
from itertools import combinations


def _perm_matrix(perm):
    u = np.zeros((len(perm), len(perm)))
    for j, t in enumerate(perm):
        u[t, j] = 1.0
    return u


def test_crt_unitary_frozen_d6():
    # digits (j mod 2, j mod 3), first factor most significant
    assert crt_unitary(factorize(6)) == (0, 4, 2, 3, 1, 5)


def test_crt_unitary_prime_is_identity():
    assert crt_unitary(factorize(7)) == tuple(range(7))


@pytest.mark.parametrize("dim", list(range(2, 31)))
def test_crt_unitary_conjugation_identities(dim):
    f = factorize(dim)
    u = _perm_matrix(crt_unitary(f))
    coeffs = crt_coefficients(f)
    x_parts, z_parts = [], []
    for (_, _, q), c in zip(f.factors, coeffs):
        x_parts.append(ref_x_matrix(q))
        z_parts.append(np.linalg.matrix_power(ref_z_matrix(q), c))
    x_want = x_parts[0]
    z_want = z_parts[0]
    for xp, zp in zip(x_parts[1:], z_parts[1:]):
        x_want = np.kron(x_want, xp)
        z_want = np.kron(z_want, zp)
    assert np.abs(u @ ref_x_matrix(dim) @ u.T - x_want).max() < 1e-12
    assert np.abs(u @ ref_z_matrix(dim) @ u.T - z_want).max() < 1e-12


def test_crt_unitary_z12_coefficients():
    f = factorize(12)
    u = _perm_matrix(crt_unitary(f))
    c1, c2 = crt_coefficients(f)
    want = np.kron(
        np.linalg.matrix_power(ref_z_matrix(4), c1),
        np.linalg.matrix_power(ref_z_matrix(3), c2),
    )
    assert np.abs(u @ ref_z_matrix(12) @ u.T - want).max() < 1e-12


# ---------------------------------------------------------------------------
# symbolic verifier
# ---------------------------------------------------------------------------


def test_symbolic_bell_is_ame():
    assert verify_ame_symbolic(bell_group(2)).is_ame


def test_symbolic_product_group_witness():
    g = StabilizerGroup(
        2, 2, (single_site(2, 2, 0, z=1), single_site(2, 2, 1, z=1))
    )
    verdict = verify_ame_symbolic(g)
    assert not verdict.is_ame
    assert verdict.witness == single_site(2, 2, 0, z=1)  # Z on party 0
    assert verdict.worst_subset == (0,)


def test_symbolic_rejects_invalid_group():
    with pytest.raises(ValueError):
        verify_ame_symbolic(StabilizerGroup(2, 2, (make_pauli(2, 2, 0, [1, 1], None),)))


def test_symbolic_no_graph_state_ame_4_2():
    # all 64 qubit graph states on 4 parties fail
    from stabame.search import graph_from_index

    hits = 0
    for idx in range(64):
        g = graph_to_group(graph_from_index(2, 4, idx))
        if verify_ame_symbolic(g).is_ame:
            hits += 1
    assert hits == 0


def _assert_matches_enumeration(g):
    """verify_ame_symbolic against the enumeration oracle: the same verdict,
    the same first failing subset in combinations order, and a witness that
    is a non-identity group element supported inside that subset."""
    verdict = verify_ame_symbolic(g)
    subset, offenders = first_supported_subset(g)
    assert verdict.is_ame == (subset is None)
    assert verdict.worst_subset == subset
    if subset is None:
        assert verdict.witness is None
    else:
        assert verdict.witness in offenders


def test_symbolic_enumeration_and_counting_paths_agree():
    rng = np.random.default_rng(61)
    for d in (2, 3, 4, 6):
        for n in (2, 3, 4):
            for _ in range(4):
                _assert_matches_enumeration(random_graph_group(rng, d, n))


def _unimodular_mix(rng, g):
    """The same group on generators changed by a random unimodular matrix."""
    d, n = g.dimension, g.parties
    u = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        u[i] = (u[i] + int(rng.integers(1, d)) * u[j]) % d
    return StabilizerGroup(
        d, n, tuple(generator_product(g, [int(c) for c in row]) for row in u[rng.permutation(n)])
    )


def _ame_graph(rng, d, n):
    """CRT combination of random AME graphs at the prime-power factors of d,
    each drawn by rejection sampling with the block-minor search as judge."""
    total = np.zeros((n, n), dtype=np.int64)
    for _, _, q in factorize(d).factors:
        size = q ** num_edge_slots(n)
        found = ()
        while not found:
            index = int(rng.integers(0, size))
            found = search_ame(n, q, shard=(index, index + 1)).found
        t = d // q
        total += t * pow(t, -1, q) * np.array(found[0].adjacency, dtype=np.int64)
    return GraphState(d, n, tuple(tuple(int(v) for v in row) for row in total % d))


# (n, D, kind) with D^n <= 5 000: prime, prime-power and composite D. "ame"
# cells combine AME graphs at every prime-power factor (composite D only at
# n <= 3, where that stays under the size cap); "random" graphs are mostly
# not AME and fail at some subset.
MIXED_SWEEP = [
    (2, 6, "ame"), (2, 30, "ame"), (3, 2, "ame"), (3, 6, "ame"), (3, 9, "ame"),
    (3, 10, "ame"), (3, 12, "ame"), (3, 17, "ame"), (4, 3, "ame"), (4, 5, "ame"),
    (4, 7, "ame"), (5, 2, "ame"), (5, 3, "ame"), (6, 2, "ame"), (6, 3, "ame"),
    (3, 4, "random"), (3, 15, "random"), (4, 4, "random"), (4, 6, "random"),
    (4, 8, "random"), (5, 4, "random"), (5, 5, "random"), (6, 3, "random"),
    (6, 4, "random"), (7, 2, "random"), (7, 3, "random"), (8, 2, "random"),
    (10, 2, "random"), (12, 2, "random"),
]


@pytest.mark.parametrize("parties, dimension, kind", MIXED_SWEEP)
def test_symbolic_verifier_matches_enumeration_on_mixed_graph_groups(parties, dimension, kind):
    rng = np.random.default_rng(1000 * parties + dimension)
    for _ in range(2):
        graph = (_ame_graph if kind == "ame" else random_graph)(rng, dimension, parties)
        g = _unimodular_mix(rng, graph_to_group(graph))
        if kind == "ame":
            assert verify_ame_symbolic(g).is_ame
        _assert_matches_enumeration(g)


def test_symbolic_agrees_with_dense_random():
    rng = np.random.default_rng(67)
    for d in (2, 3, 5):
        for n in (2, 3):
            for _ in range(5):
                g = random_graph_group(rng, d, n)
                sym = verify_ame_symbolic(g)
                dense = verify_ame_dense(state_from_group(g))
                assert sym.is_ame == dense.is_ame


def test_verify_ame_both_method():
    verdict = verify_ame(bell_group(6), method="both")
    assert verdict.is_ame and verdict.method == "both"
    assert verdict.worst_deviation < 1e-9
    with pytest.raises(ValueError):
        verify_ame(bell_group(2), method="bogus")


# ---------------------------------------------------------------------------
# decompose / reduce / merge
# ---------------------------------------------------------------------------


def test_decompose_ghz6():
    dec = decompose(ghz_group(6, 3))
    assert dec.factorization.prime_powers == (2, 3)
    assert len(dec.factor_groups) == 2
    for q, fg, want_order in zip((2, 3), dec.factor_groups, (8, 27)):
        assert fg.dimension == q
        report = validate(fg)
        assert report.stabilizes_unique_state
        assert report.order == want_order
    # dense contract, re-checked here explicitly
    relabeled = permute_levels(state_from_group(ghz_group(6, 3)), dec.crt_permutation)
    combined = tensor(list(dec.factor_states))
    assert states_equal(relabeled, combined)


def test_decompose_prime_dimension_single_factor():
    g = ghz_group(5, 2)
    dec = decompose(g)
    assert len(dec.factor_groups) == 1
    assert dec.factor_groups[0] == g
    assert dec.crt_permutation == tuple(range(5))
    assert states_equal(dec.factor_states[0], state_from_group(g))


def test_decompose_bell6_factors_are_ame():
    dec = decompose(bell_group(6))
    verdicts = [verify_ame_symbolic(fg) for fg in dec.factor_groups]
    assert all(v.is_ame for v in verdicts)


def test_decompose_rejects_invalid():
    with pytest.raises(ValueError):
        decompose(StabilizerGroup(6, 2, (single_site(6, 2, 0, x=1),)))


def test_decompose_without_dense():
    dec = decompose(ghz_group(6, 3), dense=False)
    assert dec.factor_states is None


def test_reduce_ame_bell6():
    g = bell_group(6)
    verdicts = reduce_ame(g, decompose(g))
    assert [v.is_ame for v in verdicts] == [True, True]


def test_reduce_ame_ghz6():
    g = ghz_group(6, 3)
    verdicts = reduce_ame(g, decompose(g))
    assert [v.is_ame for v in verdicts] == [True, True]


def test_reduce_ame_non_ame_input_is_vacuous():
    g = StabilizerGroup(
        6, 2, (single_site(6, 2, 0, z=1), single_site(6, 2, 1, z=1))
    )
    verdicts = reduce_ame(g, decompose(g))  # must not raise
    assert len(verdicts) == 2


def test_merge_factors_all_recovers_original():
    g = bell_group(6)
    dec = decompose(g)
    merged = merge_factors(dec, [0, 1])
    report = validate(merged.group)
    assert report.stabilizes_unique_state and report.order == 36
    assert states_equal(merged.state, state_from_group(g))
    assert states_equal(state_from_group(merged.group), state_from_group(g))


def test_merge_factors_singleton_unchanged():
    dec = decompose(bell_group(6))
    merged = merge_factors(dec, [0])
    assert merged.group == dec.factor_groups[0]
    assert states_equal(merged.state, dec.factor_states[0])


def test_merge_factors_ghz6_all_subsets_ame():
    dec = decompose(ghz_group(6, 3))
    for subset in ([0], [1], [0, 1]):
        merged = merge_factors(dec, subset)
        assert verify_ame_symbolic(merged.group).is_ame


def test_merge_factors_rejects_empty_and_bad_indices():
    dec = decompose(bell_group(6))
    with pytest.raises(ValueError):
        merge_factors(dec, [])
    with pytest.raises(ValueError):
        merge_factors(dec, [5])


def test_prime_power_reduction_end_to_end():
    """Every constructed composite-dimension AME state: all factors and all
    2^m - 1 subset merges are AME, and the per-factor reductions are exactly
    maximally mixed."""
    cases = [bell_group(6), ghz_group(6, 3), bell_group(12), bell_group(30), ghz_group(12, 3)]
    for g in cases:
        assert verify_ame_symbolic(g).is_ame
        dec = decompose(g)
        m = dec.factorization.num_factors
        verdicts = reduce_ame(g, dec)
        assert all(v.is_ame for v in verdicts)
        for size in range(1, m + 1):
            for subset in combinations(range(m), size):
                assert verify_ame_symbolic(merge_factors(dec, subset).group).is_ame
        # per-factor reduced densities are I / q^{|S|}
        n = g.parties
        for fg, st in zip(dec.factor_groups, dec.factor_states):
            for subset in combinations(range(n), n // 2):
                rho = reduced_density(st, subset)
                assert is_maximally_mixed(rho, 1e-9).verdict


def test_decomposition_report_format():
    g = ghz_group(6, 3)
    dec = decompose(g)
    verdicts = reduce_ame(g, dec)
    text = format_decomposition_report(dec, verdicts)
    lines = text.splitlines()
    assert lines[0] == "factorization D=6 n=3 factors=2^1,3^1"
    assert "# factor q=2" in lines and "# factor q=3" in lines
    assert lines[-2] == "factor q=2 ame=yes"
    assert lines[-1] == "factor q=3 ame=yes"
    # the embedded generator blocks parse back as valid groups
    block = "\n".join(lines[lines.index("# factor q=2") + 1 : lines.index("# factor q=3")])
    assert validate(parse_generator_file(block)).stabilizes_unique_state


def test_decompose_of_graph_states_random():
    # decomposition pipeline on random composite-dimension graph states;
    # the internal dense contract must hold (decompose raises otherwise)
    rng = np.random.default_rng(71)
    for dim in (6, 12):
        for _ in range(4):
            g = graph_to_group(random_graph(rng, dim, 2))
            dec = decompose(g)
            assert len(dec.factor_groups) == 2
            for fg in dec.factor_groups:
                assert validate(fg).stabilizes_unique_state
