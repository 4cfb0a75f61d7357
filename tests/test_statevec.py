from itertools import combinations

import numpy as np
import pytest

from conftest import apply_pauli, haar_unitary, random_graph_group
from enumeration import enumerate_elements
from stabame.errors import BudgetExceededError
from stabame.pauli import make_pauli, single_site
from stabame.search import GraphState, graph_to_group
from stabame.stabgroup import StabilizerGroup, bell_group, ghz_group
from stabame.statevec import (
    DenseState,
    ReducedDensity,
    apply_local_unitary,
    basis_state,
    fidelity,
    format_state_dump,
    is_maximally_mixed,
    parse_state_dump,
    permute_levels,
    reduced_density,
    state_from_group,
    states_equal,
    tensor,
    verify_ame_dense,
)


def test_dense_state_requires_normalization():
    with pytest.raises(ValueError):
        DenseState(2, 1, np.array([1.0, 1.0]))
    DenseState(2, 1, np.array([1.0, 1.0]) / np.sqrt(2))


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


def test_seed_independence():
    # project every surviving basis seed by hand; all must give the same state
    g = bell_group(3)
    st = state_from_group(g)
    size = 9
    from stabame.pauli import order as pauli_order

    for seed in range(size):
        vec = np.zeros(size, complex)
        vec[seed] = 1.0
        for gen in g.generators:
            acc = vec.copy()
            cur = vec
            for _ in range(pauli_order(gen) - 1):
                cur = apply_pauli(gen, cur)
                acc += cur
            vec = acc / pauli_order(gen)
        norm = np.linalg.norm(vec)
        if norm > 1e-6:
            candidate = DenseState(3, 2, vec / norm)
            assert states_equal(candidate, st)


def test_reduced_density_bell():
    st = state_from_group(bell_group(2))
    rho = reduced_density(st, [0])
    assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-12


def test_reduced_density_product_state():
    rho = reduced_density(basis_state(2, 2, 0), [0])
    assert np.abs(rho.matrix - np.diag([1.0, 0.0])).max() < 1e-12


def test_reduced_density_ghz_pair():
    # two parties of the qubit GHZ_3: diag(1/2, 0, 0, 1/2)
    st = state_from_group(ghz_group(2, 3))
    rho = reduced_density(st, [0, 1])
    assert np.abs(rho.matrix - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-12


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
                assert rho.subset == sub
                assert np.abs(rho.matrix - _einsum_partial_trace(st, sub)).max() < 1e-12
        for _ in range(4):
            sub = [int(k) for k in rng.permutation(n)[: int(rng.integers(1, n))]]
            rho = reduced_density(st, sub)
            assert rho.subset == tuple(sorted(sub))
            assert np.abs(rho.matrix - _einsum_partial_trace(st, sub)).max() < 1e-12


def _density_with_spectrum(eigenvalues, rng):
    u = haar_unitary(len(eigenvalues), rng)
    m = u @ np.diag(eigenvalues) @ u.conj().T
    return (m + m.conj().T) / 2


def test_reduced_density_contract_rejects():
    rng = np.random.default_rng(67)
    with pytest.raises(ValueError, match="square"):
        ReducedDensity((0,), np.full((2, 3), 0.5))
    skew = np.eye(2) / 2
    skew[0, 1] = 1e-10
    with pytest.raises(ValueError, match="Hermitian"):
        ReducedDensity((0,), skew)
    with pytest.raises(ValueError, match="trace"):
        ReducedDensity((0,), np.diag([0.5 + 1e-8, 0.5]))
    negative = _density_with_spectrum([0.5, 0.3, 0.2 + 2e-9, 0.0, 0.0, -2e-9], rng)
    with pytest.raises(ValueError, match="positive semidefinite"):
        ReducedDensity((0,), negative)


def test_reduced_density_contract_accepts():
    rng = np.random.default_rng(71)
    nearly = _density_with_spectrum([0.5, 0.3, 0.2 + 5e-10, 0.0, 0.0, -5e-10], rng)
    ReducedDensity((0,), nearly)
    v = rng.normal(size=(144, 12)) + 1j * rng.normal(size=(144, 12))
    low_rank = v @ v.conj().T
    low_rank = (low_rank + low_rank.conj().T) / (2 * np.trace(low_rank).real)
    assert np.linalg.matrix_rank(low_rank) == 12
    ReducedDensity((0, 1), low_rank)


def test_verify_ame_dense_worst_subset_ignores_roundoff():
    # every 2-party reduction of the complete-graph state K4 over Z_6 deviates
    # from I/36 by exactly 1/36, each one computed from different amplitudes
    k4 = tuple(tuple(int(i != j) for j in range(4)) for i in range(4))
    st = state_from_group(graph_to_group(GraphState(6, 4, k4)))
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


def test_is_maximally_mixed():
    st = state_from_group(bell_group(2))
    eye4 = reduced_density(tensor([st, st]), [0])  # I_4 / 4 over D=4
    report = is_maximally_mixed(eye4, 1e-9)
    assert report.verdict and report.max_deviation < 1e-12

    pure = reduced_density(basis_state(3, 1, 0), [0])
    report = is_maximally_mixed(pure, 1e-9)
    assert not report.verdict
    assert abs(report.max_deviation - (1 - 1 / 3)) < 1e-12

    bell_red = reduced_density(st, [1])
    assert is_maximally_mixed(bell_red, 1e-9).verdict


def test_verify_ame_dense_examples():
    assert verify_ame_dense(state_from_group(bell_group(2))).is_ame
    assert verify_ame_dense(state_from_group(ghz_group(2, 3))).is_ame
    report = verify_ame_dense(basis_state(2, 4, 0))
    assert not report.is_ame
    # rho on any 2-subset is |00><00|; max |rho - I/4| = 1 - 1/4
    assert abs(report.worst_deviation - 0.75) < 1e-12


def test_tensor_product_states():
    st = tensor([basis_state(2, 1, 0), basis_state(3, 1, 0)])
    assert st.dimension == 6
    assert abs(st.amplitudes[0] - 1) < 1e-12


def test_tensor_of_bell_pairs_is_ame_2_6():
    st = tensor([state_from_group(bell_group(2)), state_from_group(bell_group(3))])
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
            got = reduced_density(combined, subset).matrix
            want = _regroup_kron(
                reduced_density(s2, subset).matrix,
                reduced_density(s3, subset).matrix,
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
        assert verify_ame_dense(tensor([ame_2, ame_3])).is_ame
        assert not verify_ame_dense(tensor([ame_2, not_ame_3])).is_ame
        assert not verify_ame_dense(tensor([basis_state(2, n, 0), not_ame_3])).is_ame


def test_local_unitary_invariance_of_ame_verdict():
    rng = np.random.default_rng(57)
    st = tensor([state_from_group(bell_group(2)), state_from_group(bell_group(3))])
    for _ in range(5):
        units = [haar_unitary(6, rng) for _ in range(2)]
        rotated = apply_local_unitary(st, units)
        report = verify_ame_dense(rotated, tol=1e-8)
        assert report.is_ame
        assert report.worst_deviation < 1e-8
    # and a non-AME state stays non-AME
    prod = basis_state(2, 2, 0)
    rotated = apply_local_unitary(prod, [haar_unitary(2, rng) for _ in range(2)])
    assert not verify_ame_dense(rotated).is_ame


def test_permute_levels_roundtrip():
    rng = np.random.default_rng(59)
    st = state_from_group(ghz_group(6, 2))
    perm = list(rng.permutation(6))
    inverse = [0] * 6
    for j, t in enumerate(perm):
        inverse[t] = j
    back = permute_levels(permute_levels(st, perm), inverse)
    assert np.abs(back.amplitudes - st.amplitudes).max() < 1e-12


def test_state_dump_roundtrip():
    st = state_from_group(ghz_group(3, 2))
    again = parse_state_dump(format_state_dump(st))
    assert again.dimension == 3 and again.parties == 2
    assert np.abs(again.amplitudes - st.amplitudes).max() == 0.0


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", "# comment only\n", "3 2\n", "# dump\n2 1\n", "2\n1.0 0.0\n0.0 0.0\n"],
)
def test_state_dump_rejects_empty_and_truncated(text):
    with pytest.raises(ValueError):
        parse_state_dump(text)


def test_fidelity_global_phase():
    st = state_from_group(bell_group(2))
    shifted = DenseState(2, 2, np.exp(0.7j) * st.amplitudes)
    assert states_equal(st, shifted)
    assert abs(fidelity(st, shifted) - 1) < 1e-12
