import math

import numpy as np
import pytest

from conftest import (
    crt_coefficients,
    crt_unitary,
    graph_from_index,
    permute_levels,
    random_graph,
    random_graph_group,
    ref_x_matrix,
    ref_z_matrix,
    single_site,
    states_equal,
    tensor,
    unimodular_mix,
)
from enumeration import first_supported_subset
from stabame import ame
from stabame.ame import (
    decompose,
    format_decomposition_report,
    merge_factors,
    reduce_ame,
    verify_ame,
    verify_ame_symbolic,
)
from stabame.pauli import make_pauli
from stabame.ring import factorize, span_order_mod
from stabame.search import GraphState, graph_to_group, num_edge_slots, search_ame
from stabame.stabgroup import (
    StabilizerGroup,
    bell_group,
    exponent_matrix,
    factor_group,
    ghz_group,
    parse_generator_file,
    validate,
)
from stabame.statevec import (
    ALGEBRA_TOL,
    AmeVerdict,
    crt_product,
    state_from_group,
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


def _ame_graph(rng, d, n):
    """CRT combination of random AME graphs at the prime-power factors of d,
    each drawn by rejection sampling with the block-minor search as judge."""
    total = np.zeros(num_edge_slots(n), dtype=np.int64)
    for _, _, q in factorize(d).factors:
        size = q ** num_edge_slots(n)
        found = ()
        while not found:
            index = int(rng.integers(0, size))
            found = search_ame(n, q, shard=(index, index + 1)).found
        t = d // q
        total += t * pow(t, -1, q) * np.array(found[0].upper, dtype=np.int64)
    return GraphState(d, n, tuple(int(v) for v in total % d))


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
        g = unimodular_mix(rng, graph_to_group(graph))
        if kind == "ame":
            assert verify_ame_symbolic(g).is_ame
        _assert_matches_enumeration(g)


@pytest.mark.parametrize("dimension", [2, 3])
def test_symbolic_even_n_scans_the_half_holding_party_0(monkeypatch, dimension):
    from stabame import ring

    g = graph_to_group(_ame_graph(np.random.default_rng(71), dimension, 6))
    validate(g)
    calls = []
    real = ring.span_order_mod

    def counted(rows, d):
        calls.append(rows)
        return real(rows, d)

    monkeypatch.setattr(ring, "span_order_mod", counted)
    assert verify_ame_symbolic(g).is_ame
    assert len(calls) == 10  # C(6, 3) / 2


def _first_failing_subset_of_a_full_scan(g):
    n, d = g.parties, g.dimension
    matrix = exponent_matrix(g)
    failing = {}
    for sub in combinations(range(n), n // 2):
        outside = [c for c in range(2 * n) if c % n not in sub]
        failing[sub] = span_order_mod([[row[c] for c in outside] for row in matrix], d) < d**n
    if n % 2 == 0:  # a subset and its complement fail together
        for sub, fails in failing.items():
            assert fails == failing[tuple(v for v in range(n) if v not in sub)]
    return next((sub for sub, fails in failing.items() if fails), None)


def _bell_pairs(rng, d, n):
    """Bell pairs over Z_d on a random pairing of the n parties: a subset
    fails exactly when it holds both parties of some pair."""
    perm = rng.permutation(n)
    gens = []
    for a, b in zip(perm[::2], perm[1::2]):
        x, z = [0] * n, [0] * n
        x[a] = x[b] = 1
        z[a], z[b] = 1, d - 1
        gens += [make_pauli(d, n, 0, x, None), make_pauli(d, n, 0, None, z)]
    return StabilizerGroup(d, n, tuple(gens))


@pytest.mark.parametrize("parties, dimension", [(4, 6), (6, 2), (6, 4), (6, 6), (8, 2), (8, 3)])
def test_symbolic_even_n_verdicts_match_a_full_scan(parties, dimension):
    rng = np.random.default_rng(2000 * parties + dimension)
    groups = []
    for _ in range(4):
        groups.append(unimodular_mix(rng, random_graph_group(rng, dimension, parties)))
        groups.append(unimodular_mix(rng, _bell_pairs(rng, dimension, parties)))
    if parties == 6 and dimension == 2:
        groups.append(unimodular_mix(rng, graph_to_group(_ame_graph(rng, dimension, parties))))
    for g in groups:
        verdict = verify_ame_symbolic(g)
        subset = _first_failing_subset_of_a_full_scan(g)
        assert verdict.worst_subset == subset
        assert verdict.is_ame == (subset is None)


def test_symbolic_agrees_with_dense_random():
    # The dense verdict's fixed threshold needs a margin on both sides: a
    # reduction that is not maximally mixed is off by at least r**-1.5 in some
    # entry, r = D**(n // 2), and a maximally mixed one only by float roundoff.
    rng = np.random.default_rng(67)
    cells = [(d, n) for d in (2, 3, 5) for n in (2, 3)]
    cells += [(4, 4), (2, 6), (3, 5), (6, 4), (4, 6), (12, 3)]  # D**n up to 4096
    graphs = [random_graph(rng, d, n) for d, n in cells for _ in range(5)]
    # AME graphs, which random ones past the small cells hardly ever are
    graphs += [
        GraphState(2, 5, (0, 0, 1, 1, 1, 0, 1, 1, 0, 0)),
        GraphState(2, 6, (0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1)),
        GraphState(3, 6, (0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1)),
        GraphState(7, 4, (0, 1, 1, 1, 2, 0)),
    ]
    for graph in graphs:
        r = graph.dimension ** (graph.parties // 2)
        group = graph_to_group(graph)
        for g in (group, unimodular_mix(rng, group)):
            sym = verify_ame_symbolic(g)
            dense = verify_ame_dense(state_from_group(g))
            assert sym.is_ame == dense.is_ame
            if dense.is_ame:
                assert dense.worst_deviation <= ALGEBRA_TOL
            else:
                assert dense.worst_deviation >= r**-1.5
    assert all(verify_ame_symbolic(graph_to_group(g)).is_ame for g in graphs[-4:])


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
    relabeled = permute_levels(state_from_group(ghz_group(6, 3)), crt_unitary(dec.factorization))
    combined = tensor([state_from_group(fg) for fg in dec.factor_groups])
    assert states_equal(relabeled, combined)


def test_decompose_prime_dimension_single_factor():
    g = ghz_group(5, 2)
    dec = decompose(g)
    assert len(dec.factor_groups) == 1
    assert dec.factor_groups[0] == g
    st = state_from_group(g)
    assert np.array_equal(crt_product([st]).amplitudes, st.amplitudes)


def test_decompose_bell6_factors_are_ame():
    dec = decompose(bell_group(6))
    verdicts = [verify_ame_symbolic(fg) for fg in dec.factor_groups]
    assert all(v.is_ame for v in verdicts)


def test_decompose_rejects_invalid():
    flags = r"unique state \(abelian=True, order=6, phase_consistent=True\)"
    with pytest.raises(ValueError, match=flags):
        decompose(StabilizerGroup(6, 2, (single_site(6, 2, 0, x=1),)))


def _count_calls(monkeypatch, name):
    """Count the calls ame makes to its binding ``name``, passing them through."""
    from stabame import ame

    calls = []
    real = getattr(ame, name)
    monkeypatch.setattr(ame, name, lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    return calls


def test_decompose_without_dense(monkeypatch):
    # GHZ(3, 6) has 6**3 = 216 amplitudes: the input and its m = 2 factor
    # states are synthesized exactly when they fit the budget
    calls = _count_calls(monkeypatch, "state_from_group")
    decompose(ghz_group(6, 3), dense_budget=215)
    assert calls == []
    decompose(ghz_group(6, 3), dense_budget=216)
    assert len(calls) == 2 + 1


def test_decompose_builds_the_crt_product_only_for_the_dense_check(monkeypatch):
    calls = _count_calls(monkeypatch, "crt_product")
    states = _count_calls(monkeypatch, "state_from_group")
    decompose(ghz_group(6, 3), dense_budget=215)
    assert calls == []
    decompose(ghz_group(6, 3), dense_budget=216)
    assert [[st.dimension for st in factors] for factors in calls] == [[2, 3]]
    # neither a product nor any state at D = 2 * 1000003 is built for a
    # Bell pair whose D**2 amplitudes are far over the budget
    calls.clear()
    states.clear()
    dec = decompose(bell_group(2 * 1000003))
    assert calls == [] and states == []
    assert [fg.dimension for fg in dec.factor_groups] == [2, 1000003]


def test_merge_factors_is_exact_past_int64():
    # 2**62 * 9 overflows int64; the merged group must be over exactly that D
    dim = 2**62 * 9
    g = bell_group(dim)
    dec = decompose(g)
    assert dec.factorization.prime_powers == (2**62, 9)
    merged = merge_factors(dec.factor_groups)
    assert merged.dimension == dim
    assert validate(merged).stabilizes_unique_state
    assert verify_ame_symbolic(merged).is_ame


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


def test_reduce_ame_raises_when_input_and_factors_disagree(monkeypatch):
    g = bell_group(6)
    dec = decompose(g)
    real = ame.verify_ame_symbolic

    def flipped(target):
        def verdict(h):
            v = real(h)
            return AmeVerdict(not v.is_ame, v.method) if h is target else v

        return verdict

    monkeypatch.setattr(ame, "verify_ame_symbolic", flipped(dec.factor_groups[0]))
    with pytest.raises(RuntimeError, match=r"^AME input produced non-AME factors \[2\];"):
        reduce_ame(g, dec)
    monkeypatch.setattr(ame, "verify_ame_symbolic", flipped(g))
    with pytest.raises(RuntimeError, match="^non-AME input produced only AME factors;"):
        reduce_ame(g, dec)


def test_merge_factors_all_recovers_original():
    g = bell_group(6)
    dec = decompose(g)
    merged = merge_factors(dec.factor_groups)
    report = validate(merged)
    assert report.stabilizes_unique_state and report.order == 36
    assert states_equal(state_from_group(merged), state_from_group(g))


def test_merge_factors_singleton_unchanged():
    dec = decompose(bell_group(6))
    assert merge_factors(dec.factor_groups[:1]) == dec.factor_groups[0]


def test_merge_factors_ghz6_all_subsets_ame():
    dec = decompose(ghz_group(6, 3))
    for subset in ([0], [1], [0, 1]):
        merged = merge_factors([dec.factor_groups[i] for i in subset])
        assert verify_ame_symbolic(merged).is_ame


def test_merge_factors_rejects_empty_noncoprime_and_mismatched_groups():
    for groups, message in (
        ([], "at least one"),
        ([bell_group(2), bell_group(4)], "not pairwise coprime"),
        ([bell_group(6), bell_group(3)], "not pairwise coprime"),
        ([bell_group(2), ghz_group(3, 3)], "different numbers of parties"),
    ):
        with pytest.raises(ValueError, match=message):
            merge_factors(groups)


@pytest.mark.parametrize("parties,dims", [(5, (2, 3)), (4, (3, 5))])
def test_merge_factors_of_independent_search_witnesses_is_ame(parties, dims):
    # AME(5,2) and AME(5,3), found by two separate searches, give AME(5,6);
    # AME(4,3) and AME(4,5) give AME(4,15)
    witnesses = [graph_to_group(search_ame(parties, d, mode="first").found[0]) for d in dims]
    merged = merge_factors(witnesses)
    assert merged.dimension == dims[0] * dims[1] and merged.parties == parties
    assert validate(merged).stabilizes_unique_state
    assert verify_ame_symbolic(merged).is_ame


def test_factor_group_of_merge_recovers_each_factor():
    # independent groups over the prime powers of D, generators mixed so that
    # phases and z.x are nontrivial; the image of the merge at q is the q
    # group's own generators, plus one identity per generator of the others
    rng = np.random.default_rng(137)
    cases = 0
    for dim in (6, 10, 12, 15, 30):
        for n in (2, 3):
            factors = [
                unimodular_mix(rng, random_graph_group(rng, q, n))
                for q in factorize(dim).prime_powers
            ]
            merged = merge_factors(factors)
            assert merged.dimension == dim
            for fg in factors:
                image = factor_group(merged, fg.dimension).generators
                assert tuple(p for p in image if not p.is_identity()) == fg.generators
                cases += 1
    assert cases == 22


def test_factor_group_at_a_product_of_prime_powers_matches_the_merge():
    # the paper's subset statement in one call: the q_M-factor of g, with
    # q_M the product of the prime powers in M, is the merge of those factors
    rng = np.random.default_rng(139)
    for dim in (30, 42, 60):
        for n in (2, 3):
            g = unimodular_mix(rng, random_graph_group(rng, dim, n))
            dec = decompose(g, dense_budget=0)
            qs = dec.factorization.prime_powers
            for size in range(1, len(qs) + 1):
                for subset in combinations(range(len(qs)), size):
                    q_m = math.prod(qs[i] for i in subset)
                    direct = factor_group(g, q_m)
                    merged = merge_factors([dec.factor_groups[i] for i in subset])
                    # two stabilizer groups of order q_m**n are equal exactly
                    # when their joint generator list still is one
                    both = StabilizerGroup(q_m, n, direct.generators + merged.generators)
                    assert validate(both).stabilizes_unique_state
                    assert verify_ame_symbolic(direct).is_ame == verify_ame_symbolic(merged).is_ame
                    if q_m**n <= 10**5:
                        assert states_equal(state_from_group(direct), state_from_group(merged))


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
        states = [state_from_group(fg) for fg in dec.factor_groups]
        for size in range(1, m + 1):
            for subset in combinations(range(m), size):
                merged = merge_factors([dec.factor_groups[i] for i in subset])
                assert verify_ame_symbolic(merged).is_ame
                # the merged state is the CRT product of the chosen factor states
                want = crt_product([states[i] for i in subset])
                assert states_equal(state_from_group(merged), want)
        # per-factor reduced densities are I / q^{|S|}
        for st in states:
            report = verify_ame_dense(st)
            assert report.is_ame and report.worst_deviation <= 1e-9


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
