import numpy as np
import pytest

from conftest import random_graph_group, random_pauli
from enumeration import enumerate_elements
from stabame.errors import PhaseConventionError
from stabame.pauli import PauliProduct, dense_matrix, make_pauli, multiply, single_site, symplectic_inner
from stabame.ring import factorize
from stabame.stabgroup import (
    StabilizerGroup,
    bell_group,
    embed_pauli,
    format_generator_file,
    ghz_group,
    parse_generator_file,
    project_pauli,
    project_to_factor,
    sylow_component,
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
    f = factorize(6)
    with pytest.raises(ValueError):
        project_pauli(make_pauli(6, 1, 0, [2], None), f, 0)  # x=2 not divisible by 3
    with pytest.raises(PhaseConventionError):
        project_pauli(make_pauli(6, 1, 1, [3], None), f, 0)  # phase 1 not divisible by 3


def _embedded_sector_matrix(p6, f, i):
    """Conjugate by the CRT relabeling and read off the factor-i block.

    With the most-significant-first digit convention the conjugated matrix of
    a factor-i component element is kron(I_before, op, I_after); dividing out
    the identity factors recovers op.
    """
    from stabame.ame import crt_unitary

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


def test_project_to_factor_ghz6_q3():
    g = ghz_group(6, 3)
    f = factorize(6)
    factor = project_to_factor(sylow_component(g, f, 1), f, 1)
    assert factor.dimension == 3
    report = validate(factor)
    assert report.stabilizes_unique_state
    assert report.order == 27


def test_embed_pauli_roundtrip():
    rng = np.random.default_rng(107)
    for dim in (6, 12, 30):
        f = factorize(dim)
        for i in range(f.num_factors):
            q = f.prime_powers[i]
            for _ in range(6):
                p = random_pauli(rng, q, 2)
                assert project_pauli(embed_pauli(p, f, i), f, i) == p


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
