from itertools import combinations

import numpy as np
import pytest

from conftest import (
    apply_local_unitary,
    apply_pauli,
    basis_state,
    crt_unitary,
    haar_unitary,
    permute_levels,
    random_graph_group,
    random_pauli,
    seed_projections,
    single_site,
    states_equal,
    tensor,
    unimodular_mix,
)
from enumeration import enumerate_elements
from stabame import statevec
from stabame.errors import BudgetExceededError
from stabame.pauli import make_pauli, multiply, power
from stabame.search import GraphState, graph_to_group
from stabame.ring import factorize, span_order_mod
from stabame.stabgroup import (
    StabilizerGroup,
    bell_group,
    generator_product,
    ghz_group,
    validate,
)
from stabame.statevec import (
    DenseState,
    crt_product,
    fidelity,
    reduced_density,
    state_from_group,
    verify_ame_dense,
)


def test_dense_state_requires_normalization():
    with pytest.raises(ValueError):
        DenseState(2, 1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="expected 2 amplitudes"):
        DenseState(2, 1, np.array([1.0, 0.0, 0.0]))
    DenseState(2, 1, np.array([1.0, 1.0]) / np.sqrt(2))


@pytest.mark.parametrize("scale", [1 - 0.9e-9, 1 + 0.9e-9, 1 - 0.45e-9, 1 + 0.45e-9])
def test_a_dense_state_that_constructs_also_verifies(scale):
    # once: |norm - 1| = 9e-10 passed DenseState, yet every reduced trace,
    # norm^2, was 1.8e-9 from 1 and verify_ame_dense raised
    amplitudes = scale * state_from_group(bell_group(2)).amplitudes
    if abs(scale - 1) > 0.5e-9:
        with pytest.raises(ValueError, match="not normalized"):
            DenseState(2, 2, amplitudes)
    else:
        assert verify_ame_dense(DenseState(2, 2, amplitudes)).is_ame


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_dense_contracts_reject_non_finite_values(bad):
    for amps in ([bad, bad], [1.0, bad], [bad, 0.0]):
        with pytest.raises(ValueError, match="not normalized"):
            DenseState(2, 1, np.array(amps))


def test_state_from_group_bell():
    st = state_from_group(bell_group(2))
    want = np.zeros(4, complex)
    want[0] = want[3] = 1 / np.sqrt(2)
    assert abs(np.vdot(st.amplitudes, want)) > 1 - 1e-9


def test_state_from_group_ghz3_qutrits():
    gens = (
        make_pauli(3, 3, 0, [1, 1, 1], None),
        make_pauli(3, 3, 0, None, [1, 2, 0]),
        make_pauli(3, 3, 0, None, [0, 1, 2]),
    )
    g = StabilizerGroup(3, 3, gens)
    st = state_from_group(g)
    # every generator fixes the state
    for gen in gens:
        assert np.abs(apply_pauli(gen, st.amplitudes) - st.amplitudes).max() < 1e-9
    want = np.zeros(27, complex)
    want[0] = want[13] = want[26] = 1 / np.sqrt(3)  # |000>, |111>, |222>
    assert abs(np.vdot(st.amplitudes, want)) > 1 - 1e-9


def test_state_from_group_single_qudit_z():
    st = state_from_group(StabilizerGroup(6, 1, (single_site(6, 1, 0, z=1),)))
    assert abs(st.amplitudes[0]) > 1 - 1e-9


def test_state_from_group_rejects_invalid():
    with pytest.raises(ValueError):
        state_from_group(StabilizerGroup(2, 2, (make_pauli(2, 2, 0, [1, 1], None),)))


def test_state_from_group_budget():
    with pytest.raises(BudgetExceededError):
        state_from_group(ghz_group(6, 3), dense_budget=100)


def test_stabilization_of_every_group_element():
    rng = np.random.default_rng(51)
    for d, n in ((2, 3), (3, 2), (6, 2)):
        g = random_graph_group(rng, d, n)
        st = state_from_group(g)
        for elem in enumerate_elements(g).elements:
            assert np.abs(apply_pauli(elem, st.amplitudes) - st.amplitudes).max() < 1e-9


def _assert_same_up_to_phase(got, want):
    k = int(np.argmax(np.abs(want)))
    phase = got[k] / want[k]
    assert abs(abs(phase) - 1) < 1e-12
    assert np.abs(got - phase * want).max() < 1e-12


def _assert_matches_oracle(g):
    _, want = next(seed_projections(g))
    _assert_same_up_to_phase(state_from_group(g).amplitudes, want)
    return want


def _fourier(g, parties):
    """The group of the state with the Fourier transform F applied on ``parties``.

    F X F^-1 = Z**-1 and F Z F^-1 = X, so X**x Z**z on such a party becomes
    Z**-x X**z = omega**(x z) X**z Z**-x.
    """
    d, gens = g.dimension, []
    for gen in g.generators:
        phase, x, z = gen.phase_exp, list(gen.x_exp), list(gen.z_exp)
        for k in parties:
            phase += 2 * x[k] * z[k]
            x[k], z[k] = z[k], -x[k]
        gens.append(make_pauli(d, g.parties, phase, x, z))
    return StabilizerGroup(d, g.parties, tuple(gens))


def _conjugate(g, p):
    """The group of p|psi>: every generator conjugated by the Pauli element p."""
    inverse = power(p, -1)
    gens = tuple(multiply(multiply(p, gen), inverse) for gen in g.generators)
    return StabilizerGroup(g.dimension, g.parties, gens)


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3), (4, 3), (5, 2), (6, 2), (6, 3), (10, 2)])
def test_state_from_group_matches_oracle_on_mixed_graph_groups(d, n):
    rng = np.random.default_rng(100 * n + d)
    for _ in range(4):
        _assert_matches_oracle(unimodular_mix(rng, random_graph_group(rng, d, n)))


def _off_zero_groups(rng, d, n, count):
    """Groups whose support mostly avoids index 0: local Fourier transforms
    shrink the support to a coset of a proper subgroup, and a random Pauli
    then shifts it."""
    for _ in range(count):
        parties = [k for k in range(n) if rng.integers(0, 2)]
        g = _fourier(random_graph_group(rng, d, n), parties)
        yield _conjugate(g, random_pauli(rng, d, n))


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3), (4, 3), (6, 2), (6, 3), (8, 2), (12, 2)])
def test_state_from_group_matches_oracle_off_index_zero(d, n):
    rng = np.random.default_rng(200 * n + d)
    off_zero = 0
    for g in _off_zero_groups(rng, d, n, 6):
        g = unimodular_mix(rng, g)
        assert validate(g).stabilizes_unique_state
        off_zero += _assert_matches_oracle(g)[0] == 0
    assert off_zero >= 2


def _divisor_group(d, a, b=None):
    """<X**a, Z**(d/a)> on one qudit, times <X**b, Z**(d/b)> on a second one."""
    sizes = [a] if b is None else [a, b]
    gens = []
    for site, step in enumerate(sizes):
        gens.append(single_site(d, len(sizes), site, x=step))
        gens.append(single_site(d, len(sizes), site, z=d // step))
    return StabilizerGroup(d, len(sizes), tuple(gens))


def test_state_from_group_non_unit_x_parts():
    st = state_from_group(_divisor_group(4, 2))  # <X^2, Z^2>: (|0> + |2>) / sqrt(2)
    _assert_same_up_to_phase(st.amplitudes, np.array([1, 0, 1, 0]) / np.sqrt(2))
    rng = np.random.default_rng(211)
    for d in (4, 6, 8, 9, 12):
        steps = [a for a in range(2, d) if d % a == 0]
        for a in steps:
            _assert_matches_oracle(_divisor_group(d, a))
            g = _conjugate(_divisor_group(d, a), random_pauli(rng, d, 1))
            _assert_matches_oracle(unimodular_mix(rng, g))
            b = steps[int(rng.integers(0, len(steps)))]
            g = _conjugate(_divisor_group(d, a, b), random_pauli(rng, d, 2))
            _assert_matches_oracle(unimodular_mix(rng, g))


def test_state_from_group_far_support_is_one_seed():
    # omega * Z_v fixes |5> at D = 6, so the state is |5...5>, the last index
    gens = tuple(single_site(6, 5, v, z=1, phase_exp=2) for v in range(5))
    st = state_from_group(StabilizerGroup(6, 5, gens))
    assert st.amplitudes[7775] == 1.0
    assert np.count_nonzero(st.amplitudes) == 1


def _powers_first(rng, g):
    """``g`` with gen**k put in front of some generators: gen's X part then
    lies partly in the earlier span when 1 < gcd(k, D) < D."""
    gens = []
    for gen in g.generators:
        if rng.integers(0, 2):
            gens.append(power(gen, int(rng.integers(2, 2 * g.dimension))))
        gens.append(gen)
    return StabilizerGroup(g.dimension, g.parties, tuple(gens))


def _with_redundant(rng, g):
    """``g`` with products of its generators inserted after them (a = 1)."""
    gens = list(g.generators)
    for _ in range(2):
        at = int(rng.integers(1, len(gens) + 1))
        earlier = StabilizerGroup(g.dimension, g.parties, tuple(gens[:at]))
        coeffs = [int(c) for c in rng.integers(0, g.dimension, at)]
        gens.insert(at, generator_product(earlier, coeffs))
    return StabilizerGroup(g.dimension, g.parties, tuple(gens))


@pytest.mark.parametrize("d", [4, 8, 12])
def test_state_from_group_x_parts_partly_in_the_earlier_span(d):
    # (X X)**2 before X X: x = (1, 1) has order 2 modulo span((2, 2))
    rng = np.random.default_rng(300 + d)
    for n in (2, 3):
        ghz = ghz_group(d, n)
        g = StabilizerGroup(d, n, (power(ghz.generators[0], 2), *ghz.generators))
        _assert_matches_oracle(g)
        _assert_matches_oracle(_conjugate(g, random_pauli(rng, d, n)))
    for g in _off_zero_groups(rng, d, 2, 4):
        _assert_matches_oracle(_powers_first(rng, g))


@pytest.mark.parametrize("d, n", [(2, 3), (4, 2), (6, 2), (6, 3), (9, 2), (12, 2)])
def test_state_from_group_with_redundant_generators(d, n):
    rng = np.random.default_rng(400 + 10 * n + d)
    for g in _off_zero_groups(rng, d, n, 4):
        _assert_matches_oracle(_with_redundant(rng, g))
        _assert_matches_oracle(_with_redundant(rng, _powers_first(rng, g)))


def test_state_from_group_is_flat_on_a_support_of_the_x_span_order():
    rng = np.random.default_rng(227)
    groups = [ghz_group(6, 3), _divisor_group(12, 4, 6)]
    for d, n in ((2, 5), (4, 3), (6, 3), (30, 2)):
        groups += _off_zero_groups(rng, d, n, 3)
        groups.append(unimodular_mix(rng, random_graph_group(rng, d, n)))
    for g in groups:
        amps = state_from_group(g).amplitudes
        support = np.flatnonzero(amps)
        size = span_order_mod([list(gen.x_exp) for gen in g.generators], g.dimension)
        assert len(support) == size
        assert np.abs(np.abs(amps[support]) - size**-0.5).max() <= 1e-15
        # global phase: the first support index carries lam**0
        assert amps[support[0]].imag == 0 < amps[support[0]].real


def test_state_from_group_budget_comes_before_any_allocation(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used before the budget check")

    monkeypatch.setattr(statevec, "np", NoNumpy())
    with pytest.raises(BudgetExceededError):
        state_from_group(ghz_group(30, 8))  # 30**8 amplitudes


def test_seed_independence():
    # every seed the oracle's projector keeps gives the synthesized state
    rng = np.random.default_rng(223)
    groups = [bell_group(3), ghz_group(4, 2), _divisor_group(6, 2, 3)]
    groups.append(_conjugate(_fourier(ghz_group(3, 3), [1]), random_pauli(rng, 3, 3)))
    for g in groups:
        st = state_from_group(g)
        seeds = 0
        for _, vec in seed_projections(g):
            _assert_same_up_to_phase(vec, st.amplitudes)
            seeds += 1
        assert seeds > 1


def test_reduced_density_bell():
    st = state_from_group(bell_group(2))
    rho = reduced_density(st, [0])
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-12


def test_reduced_density_product_state():
    rho = reduced_density(basis_state(2, 2, 0), [0])
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12


def test_reduced_density_ghz_pair():
    # two parties of the qubit GHZ_3: diag(1/2, 0, 0, 1/2)
    st = state_from_group(ghz_group(2, 3))
    rho = reduced_density(st, [0, 1])
    assert np.abs(rho - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-12


def test_reduced_density_validates_subset():
    st = state_from_group(bell_group(2))
    with pytest.raises(ValueError):
        reduced_density(st, [0, 0])
    with pytest.raises(ValueError):
        reduced_density(st, [2])


def _einsum_partial_trace(state, subset):
    """rho on sorted(subset) by one einsum over the state tensor."""
    d, n = state.dimension, state.parties
    kept = sorted(subset)
    ket = list(range(n))
    bra = [n + k if k in kept else k for k in range(n)]
    out = kept + [n + k for k in kept]
    psi = state.amplitudes.reshape((d,) * n)
    rho = np.einsum(psi, ket, psi.conj(), bra, out)
    return rho.reshape(d ** len(kept), d ** len(kept))


def test_reduced_density_matches_einsum_partial_trace():
    rng = np.random.default_rng(61)
    for d, n in ((2, 5), (3, 4), (6, 3), (4, 3)):
        amps = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        st = DenseState(d, n, amps / np.linalg.norm(amps))
        for m in range(n + 1):
            for sub in combinations(range(n), m):
                rho = reduced_density(st, sub)
                assert np.abs(rho - _einsum_partial_trace(st, sub)).max() < 1e-12
        for _ in range(4):
            sub = [int(k) for k in rng.permutation(n)[: int(rng.integers(1, n))]]
            rho = reduced_density(st, sub)
            assert np.abs(rho - _einsum_partial_trace(st, sub)).max() < 1e-12


def test_reduced_density_is_a_density_matrix_by_construction():
    # rho = T T^dagger is checked nowhere at run time: for every state that
    # DenseState accepts, sparse ones and ones at the edge of its norm bound
    # included, it is finite, Hermitian, of trace <psi|psi> and PSD
    rng = np.random.default_rng(67)
    shapes = [(d, n) for d in range(2, 7) for n in range(1, 6) if d**n <= 1500]
    for i in range(200):
        d, n = shapes[rng.integers(len(shapes))]
        size = d**n
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        if i % 3 == 0:
            amps[rng.permutation(size)[rng.integers(1, min(size, 4) + 1) :]] = 0
        amps *= np.sqrt(1 + rng.uniform(-0.49e-9, 0.49e-9)) / np.linalg.norm(amps)
        st = DenseState(d, n, amps)
        norm = np.vdot(st.amplitudes, st.amplitudes).real
        for sub in combinations(range(n), n // 2):
            rho = reduced_density(st, sub)
            assert np.isfinite(rho).all()
            assert np.abs(rho - rho.conj().T).max() <= statevec.ALGEBRA_TOL
            assert abs(np.trace(rho) - norm) <= statevec.ALGEBRA_TOL
            assert np.linalg.eigvalsh(rho).min() >= -statevec.ALGEBRA_TOL


def test_verify_ame_dense_worst_subset_ignores_roundoff():
    # every 2-party reduction of the complete-graph state K4 over Z_6 deviates
    # from I/36 by exactly 1/36, each one computed from different amplitudes
    st = state_from_group(graph_to_group(GraphState(6, 4, (1,) * 6)))
    report = verify_ame_dense(st)
    assert report.worst_subset == (0, 1)
    assert abs(report.worst_deviation - 1 / 36) < 1e-12
    rng = np.random.default_rng(73)
    for _ in range(20):
        noise = 1e-15 * (rng.normal(size=6**4) + 1j * rng.normal(size=6**4))
        amps = st.amplitudes + noise
        shaken = verify_ame_dense(DenseState(6, 4, amps / np.linalg.norm(amps)))
        assert shaken.worst_subset == (0, 1)
        assert abs(shaken.worst_deviation - report.worst_deviation) < 1e-12


def test_verify_ame_dense_deviation_from_maximally_mixed():
    st = state_from_group(bell_group(2))
    report = verify_ame_dense(tensor([st, st]))  # rho on party 0 is I_4 / 4 over D=4
    assert report.is_ame and report.worst_deviation < 1e-12

    report = verify_ame_dense(basis_state(3, 2, 0))  # rho on party 0 is |0><0|
    assert not report.is_ame
    assert abs(report.worst_deviation - (1 - 1 / 3)) < 1e-12

    report = verify_ame_dense(st)
    assert report.is_ame and report.worst_deviation < 1e-12


def test_verify_ame_dense_examples():
    assert verify_ame_dense(state_from_group(bell_group(2))).is_ame
    assert verify_ame_dense(state_from_group(ghz_group(2, 3))).is_ame
    report = verify_ame_dense(basis_state(2, 4, 0))
    assert not report.is_ame
    # rho on any 2-subset is |00><00|; max |rho - I/4| = 1 - 1/4
    assert abs(report.worst_deviation - 0.75) < 1e-12


def test_tensor_product_states():
    st = crt_product([basis_state(2, 1, 0), basis_state(3, 1, 0)])
    assert st.dimension == 6
    assert abs(st.amplitudes[0] - 1) < 1e-12
    # |1> over Z_2 and |2> over Z_3 meet at j = 5 of Z_6 (5 mod 2 = 1, 5 mod 3 = 2)
    st = crt_product([basis_state(2, 1, 1), basis_state(3, 1, 2)])
    assert abs(st.amplitudes[5] - 1) < 1e-12


def test_tensor_of_bell_pairs_is_ame_2_6():
    st = crt_product([state_from_group(bell_group(2)), state_from_group(bell_group(3))])
    report = verify_ame_dense(st)
    assert report.is_ame
    assert report.worst_deviation < 1e-12


def _regroup_kron(rho_a, rho_b, qa, qb, parties):
    """Reorder kron(rho_a, rho_b) from factor-major to party-major indexing.

    rho_a/rho_b live on `parties` sites of dimension qa/qb; the party-major
    layout interleaves one qa-digit and one qb-digit per site.
    """
    size = (qa * qb) ** parties
    perm = np.zeros(size, dtype=int)
    for ia in range(qa**parties):
        for ib in range(qb**parties):
            kron_idx = ia * qb**parties + ib
            party_idx = 0
            for k in range(parties):
                da = (ia // qa ** (parties - 1 - k)) % qa
                db = (ib // qb ** (parties - 1 - k)) % qb
                party_idx += (da * qb + db) * (qa * qb) ** (parties - 1 - k)
            perm[kron_idx] = party_idx
    big = np.kron(rho_a, rho_b)
    out = np.zeros_like(big)
    out[np.ix_(perm, perm)] = big
    return out


def test_tensor_reduction_consistency():
    # reduced density of the tensor equals the (regrouped) tensor of the
    # per-factor reductions
    rng = np.random.default_rng(53)
    for _ in range(5):
        g2 = random_graph_group(rng, 2, 3)
        g3 = random_graph_group(rng, 3, 3)
        s2 = state_from_group(g2)
        s3 = state_from_group(g3)
        combined = tensor([s2, s3])
        for subset in ([0], [1], [1, 2], [0, 2]):
            got = reduced_density(combined, subset)
            want = _regroup_kron(
                reduced_density(s2, subset),
                reduced_density(s3, subset),
                2,
                3,
                len(subset),
            )
            assert np.abs(got - want).max() < 1e-10


def test_tensor_rejects_party_mismatch():
    with pytest.raises(ValueError):
        tensor([basis_state(2, 1, 0), basis_state(3, 2, 0)])


def test_tensor_is_ame_iff_every_factor_is():
    # both directions of the factor-wise AME characterization, n = 2 and 3
    for n in (2, 3):
        ame_2 = state_from_group(ghz_group(2, n))
        ame_3 = state_from_group(ghz_group(3, n))
        not_ame_3 = basis_state(3, n, 0)
        assert verify_ame_dense(ame_2).is_ame
        assert verify_ame_dense(ame_3).is_ame
        assert not verify_ame_dense(not_ame_3).is_ame
        assert verify_ame_dense(crt_product([ame_2, ame_3])).is_ame
        assert not verify_ame_dense(crt_product([ame_2, not_ame_3])).is_ame
        assert not verify_ame_dense(crt_product([basis_state(2, n, 0), not_ame_3])).is_ame


def test_local_unitary_invariance_of_ame_verdict():
    rng = np.random.default_rng(57)
    st = crt_product([state_from_group(bell_group(2)), state_from_group(bell_group(3))])
    for _ in range(5):
        units = [haar_unitary(6, rng) for _ in range(2)]
        rotated = apply_local_unitary(st, units)
        report = verify_ame_dense(rotated)
        assert report.is_ame
        assert report.worst_deviation < 1e-9
    # and a non-AME state stays non-AME
    prod = basis_state(2, 2, 0)
    rotated = apply_local_unitary(prod, [haar_unitary(2, rng) for _ in range(2)])
    assert not verify_ame_dense(rotated).is_ame


@pytest.mark.parametrize("scale", [2.0, 0.0, float("nan")])
def test_apply_local_unitary_rejects_non_unitaries(scale):
    # 2*I used to be renormalized away and the zero matrix divided by a zero norm
    st = state_from_group(bell_group(3))
    units = [np.eye(3), scale * np.eye(3)]
    with pytest.raises(ValueError, match="matrix 1 is not unitary"):
        apply_local_unitary(st, units)


def test_permute_levels_roundtrip():
    rng = np.random.default_rng(59)
    st = state_from_group(ghz_group(6, 2))
    perm = list(rng.permutation(6))
    inverse = [0] * 6
    for j, t in enumerate(perm):
        inverse[t] = j
    back = permute_levels(permute_levels(st, perm), inverse)
    assert np.abs(back.amplitudes - st.amplitudes).max() < 1e-12


def _random_state(rng: np.random.Generator, d: int, n: int) -> DenseState:
    amps = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return DenseState(d, n, amps / np.linalg.norm(amps))


def test_crt_product_is_the_relabeled_tensor_bit_for_bit():
    # amplitude at (j_1..j_n) is prod_i psi_i(j_1 mod q_i, ..., j_n mod q_i):
    # the factor-digit tensor with every party's digit relabeled by the CRT
    rng = np.random.default_rng(151)
    cases = 0
    for dim in (6, 10, 12, 15, 30, 60, 210):
        f = factorize(dim)
        relabel = np.argsort(crt_unitary(f))
        for n in (1, 2, 3):
            if dim**n > 10**5:
                continue
            for _ in range(5):
                states = [_random_state(rng, q, n) for q in f.prime_powers]
                got = crt_product(states)
                want = permute_levels(tensor(states), relabel)
                assert (got.dimension, got.parties) == (dim, n)
                assert np.array_equal(got.amplitudes, want.amplitudes)
                cases += 1
    assert cases == 95


def test_crt_product_rejects_bad_factor_lists():
    with pytest.raises(ValueError, match="at least one state"):
        crt_product([])
    with pytest.raises(ValueError, match="party count"):
        crt_product([basis_state(2, 2, 0), basis_state(3, 3, 0)])
    with pytest.raises(ValueError, match="not pairwise coprime"):
        crt_product([basis_state(2, 2, 0), basis_state(4, 2, 0)])
    with pytest.raises(ValueError, match="not pairwise coprime"):
        crt_product([basis_state(6, 1, 0), basis_state(10, 1, 0)])


@pytest.mark.parametrize("dim", [65536, 99991, 100000])
def test_state_from_group_phases_stay_exact_near_the_budget(dim):
    # lam**gamma X**(D-1) Z**(D-1) on one party, gamma = 1 - D mod 2 for a
    # consistent phase: unreduced, the phase exponent t (gamma - (t-1) z.x)
    # grows to about D**4, past int64 for D near 10**5
    gen = make_pauli(dim, 1, 1 - dim % 2, [dim - 1], [dim - 1])
    g = StabilizerGroup(dim, 1, (gen,))
    assert validate(g).stabilizes_unique_state
    vec = state_from_group(g).amplitudes
    assert np.abs(apply_pauli(gen, vec) - vec).max() < 1e-9


def test_fidelity_global_phase():
    st = state_from_group(bell_group(2))
    shifted = DenseState(2, 2, np.exp(0.7j) * st.amplitudes)
    assert states_equal(st, shifted)
    assert abs(fidelity(st, shifted) - 1) < 1e-12
    with pytest.raises(ValueError, match="different systems"):
        fidelity(st, state_from_group(bell_group(3)))
