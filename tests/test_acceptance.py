"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and runtime bounds are pinned here, not configurable.
"""

import time
from itertools import product

import numpy as np
import pytest

from conftest import haar_unitary, random_graph_group, random_pauli
from stabame.ame import decompose, merge_factors, reduce_ame, verify_ame_symbolic
from stabame.cli import main as cli_main
from stabame.errors import FactsError
from stabame.nogo import default_facts, load_facts, propagate
from stabame.pauli import dense_matrix, multiply, symplectic_inner
from stabame.ring import (
    crt_combine,
    crt_split,
    factorize,
    integer_determinant,
    matrix_multiply,
    smith_normal_form,
    sylow_exponent,
)
from stabame.search import graph_to_group, search_ame
from stabame.stabgroup import (
    bell_group,
    ghz_group,
    parse_generator_file,
    validate,
)
from stabame.statevec import (
    apply_local_unitary,
    permute_levels,
    state_from_group,
    tensor,
    verify_ame_dense,
)



def _ok(num: int, name: str):
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_ghz6_decomposition_pipeline(tmp_path):
    started = time.perf_counter()
    gens = tmp_path / "ghz6.gens"
    report = tmp_path / "dec.txt"
    assert cli_main(["construct", "ghz", "--dim", "6", "--parties", "3", "--out", str(gens)]) == 0
    assert cli_main(["decompose", str(gens), "--out", str(report)]) == 0

    group = parse_generator_file(gens.read_text())
    dec = decompose(group)
    assert len(dec.factor_groups) == 2
    assert dec.factorization.prime_powers == (2, 3)
    for fg, want_order in zip(dec.factor_groups, (8, 27)):
        rep = validate(fg)
        assert rep.stabilizes_unique_state
        assert rep.order == want_order
    relabeled = permute_levels(state_from_group(group), dec.crt_permutation)
    combined = tensor(list(dec.factor_states))
    overlap = abs(np.vdot(combined.amplitudes, relabeled.amplitudes))
    assert overlap > 1 - 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"
    _ok(1, "GHZ6 decomposition pipeline")


def test_criterion_2_ame_preservation_under_reduction():
    started = time.perf_counter()
    group = bell_group(6)
    assert verify_ame_symbolic(group).is_ame
    dec = decompose(group)
    verdicts = reduce_ame(group, dec)
    assert [v.is_ame for v in verdicts] == [True, True]
    for subset in ([0], [1], [0, 1]):
        merged = merge_factors(dec, subset)
        assert verify_ame_symbolic(merged.group).is_ame
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"reduction took {elapsed:.2f}s"
    _ok(2, "AME(2,6) factors and all subset merges are AME")


def test_criterion_3_no_graph_state_ame_4_2():
    started = time.perf_counter()
    result = search_ame(4, 2, mode="exhaustive")
    assert result.searched == 64
    assert result.exhausted
    assert result.found == ()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"search took {elapsed:.2f}s"
    _ok(3, "exhaustive (4,2) search: 64 candidates, 0 witnesses")


def test_criterion_4_positive_witness_4_3():
    started = time.perf_counter()
    result = search_ame(4, 3, mode="first")
    assert len(result.found) >= 1
    witness_group = graph_to_group(result.found[0])
    assert verify_ame_symbolic(witness_group).is_ame
    state = state_from_group(witness_group)
    dense = verify_ame_dense(state, tol=1e-9)
    assert dense.is_ame
    assert dense.worst_deviation < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"search took {elapsed:.2f}s"
    _ok(4, "AME(4,3) witness found and doubly verified")


def test_criterion_5_nogo_row_and_determinism(tmp_path):
    table = propagate(default_facts(), max_parties=8, max_dim=36)
    excluded = sorted(
        d for (n, d), cell in table.cells.items() if n == 4 and cell.status == "excluded"
    )
    assert excluded == [2, 6, 10, 14, 18, 22, 26, 30, 34]
    for (n, d), cell in table.cells.items():
        if n == 4 and d % 4 != 2:
            assert cell.status != "excluded"

    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        assert cli_main(["nogo", "--out", str(csv_path)]) == 0
        assert cli_main(["nogo", "--format", "svg", "--out", str(svg_path)]) == 0
        outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0] == outputs[1]
    _ok(5, "no-go row n=4 excluded exactly at D = 2 (mod 4); byte-deterministic output")


def test_criterion_6_oracle_agreement_suite():
    groups = []
    for d in (2, 3, 4, 5, 6):
        for n in (2, 3, 4):
            groups.append(ghz_group(d, n))
        groups.append(bell_group(d))
    rng = np.random.default_rng(2024)
    for d, n in product((2, 3, 4, 5, 6), (2, 3, 4)):
        for _ in range(13):
            groups.append(random_graph_group(rng, d, n))
    assert len(groups) >= 200

    disagreements = 0
    for g in groups:
        symbolic = verify_ame_symbolic(g).is_ame
        dense = verify_ame_dense(state_from_group(g)).is_ame
        if symbolic != dense:
            disagreements += 1
    assert disagreements == 0
    _ok(6, f"symbolic/dense verdicts agree on {len(groups)} groups")


def test_criterion_7_algebraic_property_suite():
    rng = np.random.default_rng(4096)

    # Pauli multiply homomorphism and commutation oracle
    for d in (2, 3, 4, 6):
        for _ in range(10):
            a = random_pauli(rng, d, 2)
            b = random_pauli(rng, d, 2)
            assert np.abs(
                dense_matrix(multiply(a, b)) - dense_matrix(a) @ dense_matrix(b)
            ).max() <= 1e-12
            ad, bd = dense_matrix(a), dense_matrix(b)
            commutes = np.abs(ad @ bd - bd @ ad).max() < 1e-12
            assert (symplectic_inner(a, b) == 0) == commutes

    # SNF reconstruction with unimodular transforms
    for _ in range(20):
        rows, cols = rng.integers(1, 5, 2)
        matrix = [[int(v) for v in rng.integers(-9, 10, cols)] for _ in range(rows)]
        snf = smith_normal_form(matrix)
        rebuilt = matrix_multiply(matrix_multiply(snf.left_transform, matrix), snf.right_transform)
        expected = [[0] * int(cols) for _ in range(int(rows))]
        for i, dd in enumerate(snf.diagonal):
            expected[i][i] = dd
        assert rebuilt == expected
        assert integer_determinant(snf.left_transform) in (-1, 1)
        assert integer_determinant(snf.right_transform) in (-1, 1)

    # CRT round trips and Sylow idempotent identities on 2..60
    for dim in range(2, 61):
        f = factorize(dim)
        for j in range(dim):
            assert crt_combine(crt_split(j, f), f) == j
        ms = [sylow_exponent(f, i) for i in range(f.num_factors)]
        assert sum(ms) % dim == 1 % dim
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                assert (ms[i] * ms[j]) % dim == 0
    _ok(7, "algebraic property suite (Pauli/SNF/CRT/Sylow)")


def test_criterion_8_local_unitary_invariance():
    base = state_from_group(bell_group(6))
    assert verify_ame_dense(base).is_ame
    rng = np.random.default_rng(226)
    for _ in range(20):
        units = [haar_unitary(6, rng) for _ in range(2)]
        rotated = apply_local_unitary(base, units)
        report = verify_ame_dense(rotated, tol=1e-8)
        assert report.is_ame
        assert report.worst_deviation < 1e-8
    _ok(8, "AME verdict invariant under 20 random local-unitary products")


def test_criterion_9_soundness_guard(tmp_path, capsys):
    bogus = "2 2 stabAMEExists bell\n2 2 noAME bogus\n"
    with pytest.raises(FactsError, match="conflicting"):
        load_facts(bogus)
    facts_path = tmp_path / "facts.txt"
    facts_path.write_text(bogus)
    assert cli_main(["nogo", "--facts", str(facts_path)]) == 1
    err = capsys.readouterr().err
    assert "conflicting" in err
    _ok(9, "fabricated conflicting fact aborts with a diagnostic")
