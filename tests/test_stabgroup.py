import numpy as np
import pytest

from conftest import (
    crt_unitary,
    dense_matrix,
    project_pauli,
    random_graph_group,
    random_pauli,
    single_site,
    sylow_component,
    sylow_exponent,
    sylow_then_project,
    unimodular_mix,
)
from enumeration import enumerate_elements
from stabame import stabgroup
from stabame.pauli import PauliProduct, make_pauli, multiply, power, symplectic_inner
from stabame.ring import factorize
from stabame.stabgroup import (
    StabilizerGroup,
    bell_group,
    embed_pauli,
    factor_group,
    format_generator_file,
    generator_product,
    ghz_group,
    parse_generator_file,
    validate,
)


def xx_zz_group():
    return bell_group(2)


def test_validate_bell_group():
    report = validate(xx_zz_group())
    assert report.abelian and report.phase_consistent
    assert report.order == 4
    assert report.stabilizes_unique_state


def test_validate_non_abelian():
    g = StabilizerGroup(
        2, 2, (make_pauli(2, 2, 0, [1, 1], None), make_pauli(2, 2, 0, [0, 1], [1, 0]))
    )
    report = validate(g)
    assert not report.abelian
    assert not report.stabilizes_unique_state


def test_validate_phase_inconsistent():
    xx = make_pauli(2, 2, 0, [1, 1], None)
    minus_xx = make_pauli(2, 2, 2, [1, 1], None)
    report = validate(StabilizerGroup(2, 2, (xx, minus_xx)))
    assert report.abelian
    assert not report.phase_consistent
    assert not report.stabilizes_unique_state


def test_validate_redundant_generators():
    xx = make_pauli(2, 2, 0, [1, 1], None)
    report = validate(StabilizerGroup(2, 2, (xx, xx)))
    assert report.abelian and report.phase_consistent
    assert report.order == 2
    assert not report.stabilizes_unique_state


def test_validate_empty_generator_list():
    report = validate(StabilizerGroup(2, 2, ()))
    assert report.abelian and report.phase_consistent and report.order == 1


def test_group_constructor_rejects_mismatched_generators():
    with pytest.raises(ValueError):
        StabilizerGroup(2, 2, (PauliProduct.identity(3, 2),))


def test_group_constructor_rejects_bad_sizes():
    for dim, parties in ((1, 2), (0, 1), (-3, 1), (2, 0), (2, -1)):
        with pytest.raises(ValueError):
            StabilizerGroup(dim, parties, ())
    with pytest.raises(ValueError, match="parties must be >= 1, got 0"):
        ghz_group(2, 0)


def test_validity_is_computed_once_per_group(monkeypatch):
    from stabame import ring

    calls = []
    real = ring.kernel_mod
    monkeypatch.setattr(ring, "kernel_mod", lambda m, d: calls.append(1) or real(m, d))
    g = ghz_group(6, 3)
    first = validate(g)
    assert validate(g) is first and g.validity is first
    assert len(calls) == 1
    # an equal but distinct group object computes its own report
    assert validate(ghz_group(6, 3)) == first and len(calls) == 2


def test_validate_order_matches_enumeration_random():
    rng = np.random.default_rng(101)
    for d in (2, 3, 4, 6):
        for n in (2, 3):
            for _ in range(4):
                base = random_graph_group(rng, d, n)
                # random subgroup: a few random products of the generators
                elements = enumerate_elements(base).elements
                picks = rng.choice(len(elements), size=min(3, len(elements)), replace=False)
                g = StabilizerGroup(d, n, tuple(elements[i] for i in picks))
                report = validate(g)
                assert report.abelian
                assert report.phase_consistent
                assert report.order == len(enumerate_elements(g).elements)


def test_phase_consistency_agrees_with_enumeration():
    rng = np.random.default_rng(103)
    for d in (2, 3, 6):
        base = random_graph_group(rng, d, 2)
        # poison one generator with a nontrivial phase: group now contains
        # lam^2 * identity, which enumeration must expose
        poisoned = StabilizerGroup(
            d, 2, base.generators + (multiply(make_pauli(d, 2, 2), base.generators[0]),)
        )
        report = validate(poisoned)
        elements = enumerate_elements(poisoned).elements
        phase_only = [e for e in elements if e.is_phase_only() and e.phase_exp != 0]
        assert not report.phase_consistent
        assert phase_only
        good = validate(base)
        good_elements = enumerate_elements(base).elements
        assert good.phase_consistent
        assert not [e for e in good_elements if e.is_phase_only() and e.phase_exp != 0]


def _random_generator_list(rng, d, n, abelian=True):
    gens = []
    while len(gens) < int(rng.integers(1, 4)):
        cand = random_pauli(rng, d, n)
        if not abelian or all(symplectic_inner(cand, gen) == 0 for gen in gens):
            gens.append(cand)
    return StabilizerGroup(d, n, tuple(gens))


def _assert_validate_matches_enumeration(g):
    elements = enumerate_elements(g).elements
    consistent = not any(e.is_phase_only() and e.phase_exp for e in elements)
    report = validate(g)
    assert report.phase_consistent == consistent, g
    assert report.order == len({(e.x_exp, e.z_exp) for e in elements}), g
    return consistent


def test_phase_consistency_and_order_match_enumeration_with_random_phases():
    # Random phases make many generators of order 2D (lam * X at D = 2 squares
    # to lam**2 * I): the relations mod D alone miss those, gen**D catches them.
    rng = np.random.default_rng(107)
    verdicts = []
    for d in (2, 3, 4, 6):
        for n in (1, 2):
            for _ in range(150):
                g = _random_generator_list(rng, d, n)
                verdicts.append(_assert_validate_matches_enumeration(g))
    assert min(verdicts.count(True), verdicts.count(False)) > 200
    # a non-abelian list contains a commutator omega**s * I with s != 0;
    # two qudits only at small D keep the enumerated groups small
    non_abelian = 0
    for d, n in ((2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (3, 2)):
        for _ in range(60):
            g = _random_generator_list(rng, d, n, abelian=False)
            consistent = _assert_validate_matches_enumeration(g)
            if not validate(g).abelian:
                assert not consistent
                non_abelian += 1
    assert non_abelian > 150
    for d in (2, 3, 4, 6):
        x, z = single_site(d, 1, 0, x=1), single_site(d, 1, 0, z=1)
        report = validate(StabilizerGroup(d, 1, (x, z)))
        assert not report.abelian and not report.phase_consistent


# ---------------------------------------------------------------------------
# Sylow components and factor projection
# ---------------------------------------------------------------------------


def test_sylow_component_ghz6():
    g = ghz_group(6, 3)
    f = factorize(6)
    comp2 = sylow_component(g, f, 0)
    for gen in comp2.generators:
        assert all(v % 3 == 0 for v in gen.x_exp + gen.z_exp)
    assert validate(comp2).order == 8
    comp3 = sylow_component(g, f, 1)
    for gen in comp3.generators:
        assert all(v % 2 == 0 for v in gen.x_exp + gen.z_exp)
    assert validate(comp3).order == 27


def test_sylow_component_prime_dimension_is_identity_map():
    g = ghz_group(5, 2)
    comp = sylow_component(g, factorize(5), 0)
    assert comp.generators == g.generators


def test_sylow_components_commute_and_intersect_trivially():
    g = ghz_group(6, 3)
    f = factorize(6)
    elems = [set(enumerate_elements(sylow_component(g, f, i)).elements) for i in range(2)]
    for a in elems[0]:
        for b in elems[1]:
            assert symplectic_inner(a, b) == 0
    overlap = elems[0] & elems[1]
    assert overlap == {PauliProduct.identity(6, 3)}


def test_sylow_components_generate_original():
    rng = np.random.default_rng(109)
    cases = [ghz_group(6, 3), random_graph_group(rng, 6, 2), random_graph_group(rng, 12, 2)]
    for g in cases:
        f = factorize(g.dimension)
        gens = tuple(
            gen for i in range(f.num_factors) for gen in sylow_component(g, f, i).generators
        )
        regenerated = enumerate_elements(StabilizerGroup(g.dimension, g.parties, gens)).elements
        assert set(regenerated) == set(enumerate_elements(g).elements)


def test_project_pauli_identity_and_x_cubed():
    f = factorize(6)
    ident = PauliProduct.identity(6, 1)
    assert project_pauli(ident, f, 0) == PauliProduct.identity(2, 1)
    x_cubed = make_pauli(6, 1, 0, [3], None)
    assert project_pauli(x_cubed, f, 0) == single_site(2, 1, 0, x=1)


def test_project_pauli_divisibility_and_phase_errors():
    # the reference refuses what is not a component element rather than
    # floor-dividing it
    f = factorize(6)
    with pytest.raises(ValueError):
        project_pauli(make_pauli(6, 1, 0, [2], None), f, 0)  # x=2 not divisible by 3
    with pytest.raises(ValueError):
        project_pauli(make_pauli(6, 1, 1, [3], None), f, 0)  # phase 1 not divisible by 3


def _embedded_sector_matrix(p6, f, i):
    """Conjugate by the CRT relabeling and read off the factor-i block.

    With the most-significant-first digit convention the conjugated matrix of
    a factor-i component element is kron(I_before, op, I_after); dividing out
    the identity factors recovers op.
    """
    perm = crt_unitary(f)
    d = f.dimension
    u = np.zeros((d, d))
    for j, target in enumerate(perm):
        u[target, j] = 1.0
    conj = u @ dense_matrix(p6) @ u.T
    qs = f.prime_powers
    before = int(np.prod(qs[:i])) if i > 0 else 1
    q = qs[i]
    after = d // (before * q)
    # entry pattern: conj = kron(I_before, block, I_after)
    block = conj[: q * after : after, : q * after : after][:q, :q].copy()
    return block


@pytest.mark.parametrize("dim,site_x,site_z,phase", [(6, 3, 0, 0), (6, 3, 3, 0), (12, 3, 0, 0), (12, 9, 3, 18)])
def test_project_pauli_embedding_contract(dim, site_x, site_z, phase):
    # the factor-0 block of the relabeled operator must equal the dense matrix
    # of the projected element exactly (D=12 exercises t mod q != 1)
    f = factorize(dim)
    p = make_pauli(dim, 1, phase, [site_x], [site_z])
    projected = project_pauli(p, f, 0)
    block = _embedded_sector_matrix(p, f, 0)
    assert np.abs(block - dense_matrix(projected)).max() < 1e-12


@pytest.mark.parametrize("dim", [6, 10, 12, 30])
def test_factor_group_is_the_factor_block_of_the_relabeled_sylow_part(dim):
    # for any element over Z_D (not only component elements, arbitrary phase),
    # the factor-i block of the CRT-relabeled gen**m_i is factor_group's image
    rng = np.random.default_rng(113 + dim)
    f = factorize(dim)
    for i, q in enumerate(f.prime_powers):
        for _ in range(5):
            p = random_pauli(rng, dim, 1)
            image = factor_group(StabilizerGroup(dim, 1, (p,)), q).generators[0]
            block = _embedded_sector_matrix(power(p, sylow_exponent(f, i)), f, i)
            assert np.abs(block - dense_matrix(image)).max() < 1e-12


def test_project_to_factor_ghz6_q3():
    # q = 3, t = 2, u = 2**-1 mod 3 = 2: X exponents mod 3, Z exponents times 2
    g = ghz_group(6, 3)
    f = factorize(6)
    factor = factor_group(g, 3)
    assert factor.generators == (
        make_pauli(3, 3, 0, [1, 1, 1], None),
        make_pauli(3, 3, 0, None, [2, 1, 0]),
        make_pauli(3, 3, 0, None, [0, 2, 1]),
    )
    assert factor == sylow_then_project(g, f, 1)
    report = validate(factor)
    assert report.stabilizes_unique_state
    assert report.order == 27


def test_factor_group_matches_the_two_step_reference_sweep():
    # every factor of D = 2..60, on valid groups (graph and GHZ groups on
    # two or three qudits, generators mixed by a unimodular matrix, so phases
    # and z.x are nontrivial) and on arbitrary lists of one to three
    # generators with arbitrary phases on one or two qudits
    rng = np.random.default_rng(127)
    valid = invalid = 0
    for dim in range(2, 61):
        f = factorize(dim)
        groups = []
        for _ in range(3):
            n = int(rng.integers(2, 4))
            groups.append(unimodular_mix(rng, random_graph_group(rng, dim, n)))
            groups.append(_random_generator_list(rng, dim, n - 1, abelian=False))
        groups.append(unimodular_mix(rng, ghz_group(dim, int(rng.integers(2, 4)))))
        for g in groups:
            is_valid = validate(g).stabilizes_unique_state
            valid += is_valid
            invalid += not is_valid
            for i, q in enumerate(f.prime_powers):
                image = factor_group(g, q)
                assert image == sylow_then_project(g, f, i), (g, i)
                if is_valid:
                    report = validate(image)
                    assert report.stabilizes_unique_state and report.order == q**g.parties
    assert valid > 200 and invalid > 100


def test_factor_group_and_embed_pauli_reject_a_q_that_does_not_split_off():
    # q must divide D and be prime to D / q: 2 leaves the cofactor 6 at D = 12
    for g, q in ((ghz_group(12, 2), 2), (ghz_group(6, 2), 4), (ghz_group(6, 2), 1)):
        with pytest.raises(ValueError, match=f"{q} is not a factor of {g.dimension} coprime"):
            factor_group(g, q)
    p = single_site(2, 2, 0, x=1)
    for d in (12, 4, 9):
        with pytest.raises(ValueError, match=f"2 is not a factor of {d} coprime"):
            embed_pauli(p, d)


def test_generator_product_skips_zero_coefficients(monkeypatch):
    rng = np.random.default_rng(131)
    calls = []
    real = stabgroup.power
    monkeypatch.setattr(stabgroup, "power", lambda p, k: calls.append(k) or real(p, k))
    for dim, n in ((2, 16), (6, 3), (12, 4)):
        g = unimodular_mix(rng, ghz_group(dim, n))
        for _ in range(20):
            coeffs = [int(c) * int(rng.random() < 0.4) for c in rng.integers(0, 2 * dim, n)]
            calls.clear()
            product = generator_product(g, coeffs)
            assert len(calls) == sum(1 for c in coeffs if c) and 0 not in calls
            full = PauliProduct.identity(dim, n)
            for gen, c in zip(g.generators, coeffs):
                full = multiply(full, real(gen, c))
            assert product == full


def test_embed_pauli_roundtrip():
    rng = np.random.default_rng(107)
    for dim in (6, 12, 30):
        f = factorize(dim)
        for i, q in enumerate(f.prime_powers):
            for _ in range(6):
                p = random_pauli(rng, q, 2)
                assert project_pauli(embed_pauli(p, dim), f, i) == p


def test_generator_file_roundtrip():
    g = ghz_group(6, 3)
    text = format_generator_file(g, header_comment="test header")
    assert text.startswith("# test header\n6 3 3\n")
    assert parse_generator_file(text) == g


def test_generator_file_rejects_malformed():
    with pytest.raises(ValueError):
        parse_generator_file("")
    with pytest.raises(ValueError):
        parse_generator_file("# comment only\n\n")
    with pytest.raises(ValueError):
        parse_generator_file("2 2\n")
    with pytest.raises(ValueError):
        parse_generator_file("2 2 2\n0 | 1 1 | 0 0\n")  # promises 2, has 1
    with pytest.raises(ValueError):
        parse_generator_file("2 2 1\n0 | 1 | 0\n")  # wrong party count
    with pytest.raises(ValueError):
        parse_generator_file("2 0 0\n")  # no parties
    with pytest.raises(ValueError):
        parse_generator_file("2 -1 0\n")
    with pytest.raises(ValueError):
        parse_generator_file("0 1 0\n")  # dimension below 2
    with pytest.raises(ValueError):
        parse_generator_file("0 1 1\n0 | 1 | 0\n")  # checked before any mod 0
    with pytest.raises(ValueError, match="bad header line"):
        parse_generator_file("2 x 1\n0 | 1 | 0\n")
