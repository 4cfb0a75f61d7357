import decimal
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import stabame
from conftest import crt_combine, random_graph, random_graph_group, random_pauli, unimodular_mix
from stabame.ame import verify_ame_symbolic
from stabame import cli
from stabame.cli import main
from stabame.pauli import multiply, power
from stabame.ring import factorize
from stabame.search import GraphState, graph_to_group
from stabame.stabgroup import (
    StabilizerGroup,
    bell_group,
    format_generator_file,
    generator_product,
    ghz_group,
    parse_generator_file,
    validate,
)
from stabame.statevec import state_from_group


def run(args):
    return main(list(args))


def run_module(args, cwd, timeout=None):
    """``python -m stabame.cli ARGS`` in a fresh interpreter, on this checkout."""
    src = str(Path(stabame.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "stabame.cli", *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), cwd=cwd, timeout=timeout,
    )


def long_str(n):
    """``str(n)`` with Python's 4300-digit limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_construct_ghz_and_verify(tmp_path):
    gens = tmp_path / "ghz.gens"
    assert run(["construct", "ghz", "--dim", "6", "--parties", "3", "--out", str(gens)]) == 0
    group = parse_generator_file(gens.read_text())
    assert group.dimension == 6 and group.parties == 3
    assert validate(group).stabilizes_unique_state
    st = state_from_group(group)
    want = np.zeros(216, complex)
    for j in range(6):
        want[j * 36 + j * 6 + j] = 1 / np.sqrt(6)
    assert abs(np.vdot(st.amplitudes, want)) > 1 - 1e-9
    assert run(["verify", str(gens)]) == 0


def test_construct_bell_is_ame(tmp_path):
    gens = tmp_path / "bell.gens"
    assert run(["construct", "bell", "--dim", "5", "--out", str(gens)]) == 0
    assert run(["verify", str(gens), "--method", "both"]) == 0


def test_python_m_cli_runs_silently(tmp_path):
    gens = tmp_path / "bell.gens"
    gens.write_text("6 2 2\n0 | 1 1 | 0 0\n0 | 0 0 | 1 5\n")
    done = run_module(["verify", str(gens)], tmp_path)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "ame=yes" in done.stdout


def test_construct_bell_rejects_other_party_counts(capsys):
    assert run(["construct", "bell", "--dim", "5", "--parties", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_construct_graph_from_search_witness(tmp_path, capsys):
    from stabame.search import format_witness_line, search_ame

    witness = search_ame(4, 3, mode="first").found[0]
    upper = " ".join(map(str, witness.upper))
    gens = tmp_path / "graph.gens"
    assert run(
        ["construct", "graph", "--dim", "3", "--parties", "4", "--adjacency", upper,
         "--out", str(gens)]
    ) == 0
    assert run(["verify", str(gens), "--method", "both", "--out", str(tmp_path / "rep.txt")]) == 0
    assert format_witness_line(witness).endswith(upper)
    assert run(["construct", "graph", "--dim", "3", "--parties", "4"]) == 1
    assert "error: graph requires --adjacency" in capsys.readouterr().err


def test_construct_graph_names_a_bad_adjacency_entry(tmp_path, capsys):
    # once: "error: invalid literal for int() with base 10: 'x'"
    gens = tmp_path / "graph.gens"
    argv = ["construct", "graph", "--dim", "3", "--parties", "3", "--adjacency", "1 2 x"]
    assert run([*argv, "--out", str(gens)]) == 1
    assert capsys.readouterr() == ("", "error: bad --adjacency entry 'x'; expected integers\n")
    assert not gens.exists()


def test_verify_exit_codes(tmp_path):
    not_ame = tmp_path / "prod.gens"
    not_ame.write_text("2 2 2\n0 | 0 0 | 1 0\n0 | 0 0 | 0 1\n")
    assert run(["verify", str(not_ame)]) == 1

    invalid = tmp_path / "bad.gens"
    invalid.write_text("2 2 2\n0 | 1 1 | 0 0\n0 | 0 1 | 1 0\n")
    assert run(["verify", str(invalid)]) == 2

    missing = tmp_path / "nope.gens"
    assert run(["verify", str(missing)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "GENS", "--tol", "abc"],
        ["verify", "GENS", "--method", "bogus"],
        ["verify"],
        ["nogo", "--format", "bogus"],
        ["search", "--parties", "4"],
        ["bogus"],
        [],
    ],
)
def test_usage_errors_exit_1_not_the_verify_verdict_2(tmp_path, capsys, argv):
    gens = tmp_path / "bell.gens"
    gens.write_text("3 2 2\n0 | 1 1 | 0 0\n0 | 0 0 | 1 2\n")
    assert run([str(gens) if a == "GENS" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert "usage:" in captured.err and captured.out == ""


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert run(["verify", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_the_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # every `stabame ...` line of the README's CLI block runs as shown, in
    # order (later lines read the files earlier ones write), so the README
    # cannot keep a flag the parser no longer takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("\n## CLI\n"):]
    block = section[section.index("```sh\n"):].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("stabame ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert (run(shlex.split(line)[1:]), capsys.readouterr().err) == (0, ""), line


@pytest.mark.parametrize("bound", ["--max-parties", "--max-dim"])
def test_nogo_rejects_grid_bounds_below_2(tmp_path, capsys, bound):
    table = tmp_path / "table.csv"
    assert run(["nogo", bound, "1", "--out", str(table)]) == 1
    assert "error: grid bounds must be >= 2" in capsys.readouterr().err
    assert not table.exists()


def test_nogo_refuses_a_grid_past_its_cell_budget_at_once(tmp_path, capsys):
    table = tmp_path / "table.csv"
    start = time.perf_counter()
    assert run(["nogo", "--max-dim", "100000000", "--out", str(table)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: 699999993 grid cells exceed the budget of 1000000\n"
    )
    assert not table.exists()


def test_search_refuses_an_oversized_plan_at_once(tmp_path, capsys):
    # once: the plan over all C(2000, 1000) k-sets was built before the first
    # candidate, whatever the mode, shard or budget, and never finished
    report = tmp_path / "report.txt"
    for mode in ("first", "exhaustive"):
        start = time.perf_counter()
        argv = ["search", "--parties", "2000", "--dim", "2", "--mode", mode, "--shard", "0:1"]
        assert run([*argv, "--out", str(report)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: the search admits at most 16 parties, got 2000\n"
        )
        assert not report.exists()


def test_search_refuses_a_first_mode_range_past_the_budget(tmp_path):
    # once: --mode first was exempt from the budget and walked toward its
    # first witness at candidate d + 1, about 2**40 here, and never finished;
    # a fresh interpreter with a timeout fails such a hang instead of waiting
    argv = ["search", "--parties", "3", "--dim", str(2**40), "--mode", "first", "--out", "r.txt"]
    done = run_module(argv, tmp_path, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        "error: 1329227995784915872903807060280344576 candidates exceed the search budget"
        " of 100000000\n"
    )
    assert not (tmp_path / "r.txt").exists()


# Counts printed past Python's 4300-digit int-to-str limit: each failed once
# with "error: Exceeds the limit (4300 digits) for integer string conversion".
@pytest.mark.parametrize("parties", [100000, 3000000])
def test_verify_reports_an_expected_order_past_the_str_digit_limit(tmp_path, capsys, parties):
    # 2**3000000 has 903 090 digits, which a direct int-to-decimal conversion,
    # quadratic in the digit count, takes many seconds to print; the expected
    # digits come from an exact Decimal power
    gens = tmp_path / "wide.gens"
    gens.write_text(f"2 {parties} 0\n")
    start = time.perf_counter()
    assert run(["verify", str(gens)]) == 2
    assert time.perf_counter() - start < 1.0
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        expected = str(decimal.Decimal(2) ** parties)
    assert capsys.readouterr() == (
        f"input D=2 n={parties} generators=0\nvalidate: abelian=yes phase-consistent=yes "
        f"order=1 expected={expected} stabilizer-state=no\n",
        "",
    )


def test_verify_refuses_a_group_order_past_its_bit_bound(tmp_path):
    # once: validate formed 2**(10**12) before anything printed and never
    # finished; a fresh interpreter with a timeout fails such a hang instead
    # of waiting, then the in-process refusal is timed
    (tmp_path / "huge.gens").write_text("2 1000000000000 0\n")
    argv = ["verify", "huge.gens", "--out", "r.txt"]
    done = run_module(argv, tmp_path, timeout=60)
    message = (
        "error: the order D**n at n=1000000000000 spans up to 2000000000000 bits, over the "
        "limit of 8388608\n"
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    assert not (tmp_path / "r.txt").exists()
    start = time.perf_counter()
    assert run(["verify", str(tmp_path / "huge.gens")]) == 1
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("shard, message", [
    (["--shard", "5:1"], "bad shard range 5:1 for {} candidates"),
    ([], "{} candidates exceed the search budget of 100000000"),
], ids=["bad-shard", "whole-space"])
def test_search_refusals_print_counts_past_the_str_digit_limit(capsys, shard, message):
    # (16, 10**39) has 10**(39 * 120) candidates, 4681 digits
    start = time.perf_counter()
    assert run(["search", "--parties", "16", "--dim", str(10**39), *shard]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message.format(long_str(10**4680))}\n"
    # the widest --dim that int() reads, 10**4299, gives 10**515880 candidates,
    # which a quadratic int-to-decimal conversion takes seconds to print
    start = time.perf_counter()
    assert run(["search", "--parties", "16", "--dim", str(10**4299), *shard]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message.format('1' + '0' * 515880)}\n"


@pytest.mark.parametrize("method", ["symbolic", "dense", "both"])
def test_verify_at_a_dimension_whose_square_passes_the_str_digit_limit(tmp_path, capsys, method):
    # a Bell pair at D = 10**2200 + 1: D (2201 digits) is read within the limit,
    # while D**2 (4401 digits) is past it
    dimension = 10**2200 + 1
    gens = tmp_path / "bell.gens"
    gens.write_text(format_generator_file(bell_group(dimension)))
    start = time.perf_counter()
    code = run(["verify", str(gens), "--method", method])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    if method == "symbolic":
        assert code == 0 and err == ""
        assert out == (
            f"input D={dimension} n=2 generators=2\nvalidate: abelian=yes phase-consistent=yes "
            f"order={long_str(dimension**2)} expected={long_str(dimension**2)} "
            "stabilizer-state=yes\nmethod=symbolic ame=yes\n"
        )
    else:
        assert code == 1 and out == ""
        assert err == f"error: dense size {long_str(dimension**2)} exceeds budget 100000\n"


# sha256 of `construct ghz --dim D --parties n` before GHZ files were bounded;
# n = 706 is the largest GHZ that fits the exponent budget.
GHZ_DIGESTS = {
    (2, 2): "b072436227d85434c9b5a4b47786089ea216152b84e371340f0a4300ab47e250",
    (3, 3): "9ce71c21221999dde4cbb190f8ff110abe3236f90a49843f249a4869f247e16f",
    (6, 5): "4883e8e6e71ef5953a4442947cd4e59d100514cd92be49301305cc9c2a82634f",
    (2, 16): "97276900350e3562204f4bfafc9369fb35ade54624beb81ff5763030918a7bd5",
    (3, 706): "33cc2fb2ebeaa8a3932bc1268032994860f9bfb4516262382982ddf818ac2648",
}


@pytest.mark.parametrize("dimension, parties", sorted(GHZ_DIGESTS))
def test_ghz_files_within_the_exponent_budget_are_byte_identical(tmp_path, dimension, parties):
    gens = tmp_path / "ghz.gens"
    argv = ["construct", "ghz", "--dim", str(dimension), "--parties", str(parties)]
    assert run([*argv, "--out", str(gens)]) == 0
    digest = hashlib.sha256(gens.read_bytes()).hexdigest()
    assert digest == GHZ_DIGESTS[dimension, parties]


@pytest.mark.parametrize("parties, exponents", [(707, 1000405), (100000, 20000100000)])
def test_construct_ghz_refuses_a_file_past_its_exponent_budget_at_once(
    tmp_path, capsys, parties, exponents
):
    # once: --dim 3 --parties 2000 took 2.9 s and wrote 16 MB, and
    # --parties 100000 never finished
    gens = tmp_path / "ghz.gens"
    start = time.perf_counter()
    argv = ["construct", "ghz", "--dim", "3", "--parties", str(parties), "--out", str(gens)]
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: GHZ at n={parties} holds {exponents} exponents, over the limit of 1000000\n"
    )
    assert not gens.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "--parties", "3", "--dim", "2", "--search-budget", "-1"],
         "search budget must be non-negative, got -1"),
        (["search", "--parties", "3", "--dim", "2", "--mode", "first", "--search-budget=-5"],
         "search budget must be non-negative, got -5"),
        (["decompose", "GENS", "--dense-budget", "-1"],
         "dense budget must be non-negative, got -1"),
        (["verify", "GENS", "--dense-budget", "-1"], "dense budget must be non-negative, got -1"),
        (["verify", "INVALID", "--method", "dense", "--dense-budget", "-1"],
         "dense budget must be non-negative, got -1"),
    ],
)
def test_negative_budgets_are_refused(tmp_path, capsys, argv, message):
    # once: decompose --dense-budget -1 skipped its fidelity check, and
    # search --search-budget -1 reported "8 candidates exceed the search budget of -1"
    (tmp_path / "bell6.gens").write_text("6 2 2\n0 | 1 1 | 0 0\n0 | 0 0 | 1 5\n")
    (tmp_path / "bad.gens").write_text("2 2 2\n0 | 1 1 | 0 0\n0 | 0 1 | 1 0\n")
    paths = {"GENS": str(tmp_path / "bell6.gens"), "INVALID": str(tmp_path / "bad.gens")}
    report = tmp_path / "report.txt"
    assert run([*(paths.get(a, a) for a in argv), "--out", str(report)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def test_verify_rejects_groups_without_parties_or_dimension(tmp_path, capsys):
    # Once accepted: "2 0 0" verified as an AME stabilizer state (exit 0) and
    # "2 -1 0" / "0 1 0" reported invalid groups (exit 2); exit 2 is a verdict.
    for text in ("2 0 0\n", "2 -1 0\n", "0 1 0\n"):
        gens = tmp_path / "bad.gens"
        gens.write_text(text)
        report = tmp_path / "report.txt"
        assert run(["verify", str(gens), "--out", str(report)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not report.exists()


def test_verify_validates_and_factors_each_group_once(tmp_path, monkeypatch):
    from stabame import ame, ring

    calls = []
    echelons = []
    synthesized = []
    real_kernel = ring.kernel_mod
    real_echelon = ring.unit_echelon_mod
    real_synthesis = ame.state_from_group

    def counted_kernel(rows, d):
        calls.append((rows, d))
        return real_kernel(rows, d)

    def counted_synthesis(g, **kwargs):
        before = len(calls)
        state = real_synthesis(g, **kwargs)
        # one elimination of the X rows mod D and, only when they have
        # relations, one of the seed system 2 z.j = -c (mod 2D) built from
        # the diagonal relation products lam**c Z**z
        d, x_rows = g.dimension, [list(gen.x_exp) for gen in g.generators]
        expected = [(x_rows, d)]
        _, relations = real_kernel(x_rows, d)
        if relations:
            diagonals = [generator_product(g, c) for c in relations]
            rows = [[2 * p.z_exp[k] for p in diagonals] for k in range(g.parties)]
            expected.append(([*rows, [p.phase_exp for p in diagonals]], 2 * d))
        assert calls[before:] == expected
        del calls[before:]
        synthesized.append(len(expected))
        return state

    monkeypatch.setattr(ring, "kernel_mod", counted_kernel)
    monkeypatch.setattr(
        ring, "unit_echelon_mod", lambda m, d: echelons.append(1) or real_echelon(m, d)
    )
    monkeypatch.setattr(ame, "state_from_group", counted_synthesis)
    ame_file = tmp_path / "bell.gens"
    run(["construct", "bell", "--dim", "6", "--out", str(ame_file)])
    assert run(["verify", str(ame_file), "--method", "both", "--out", str(tmp_path / "a")]) == 0
    # one echelon serves validation and the scan; independent generators
    # have no relations to find, so no transform is computed
    assert len(echelons) == 1 and len(calls) == 0
    assert len(synthesized) == 1
    not_ame = tmp_path / "prod.gens"
    not_ame.write_text("6 2 2\n0 | 0 0 | 1 0\n0 | 0 0 | 0 1\n")
    assert run(["verify", str(not_ame), "--method", "both", "--out", str(tmp_path / "b")]) == 1
    assert len(echelons) == 2
    assert calls == [([[0, 0], [0, 1]], 6)]  # the witness of the first failing subset {0}
    assert len(synthesized) == 2
    graph = tmp_path / "graph.gens"
    run(["construct", "graph", "--dim", "6", "--adjacency", "1", "--out", str(graph)])
    assert run(["verify", str(graph), "--method", "both", "--out", str(tmp_path / "c")]) == 0
    assert len(echelons) == 3 and len(calls) == 1
    redundant = tmp_path / "redundant.gens"
    redundant.write_text(graph.read_text().replace("6 2 2", "6 2 3") + "0 | 2 0 | 0 2\n")
    assert run(["verify", str(redundant), "--method", "both", "--out", str(tmp_path / "d")]) == 0
    # dependent generators: one elimination with the transform finds the relation
    assert len(echelons) == 4 and len(calls) == 2
    # the Bell and product X rows have relations, the graph's identity rows none
    assert synthesized == [2, 2, 1, 2]


def test_main_dispatches_through_the_module_names(monkeypatch):
    # the parser tree is built and cached before cmd_search is replaced
    assert run(["search", "--parties", "3", "--dim", "2", "--out", os.devnull]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_nogo", lambda args: seen.append(args.command) or 0)
    monkeypatch.setattr(cli, "cmd_search", lambda args: seen.append(args.command) or 7)
    assert run(["nogo"]) == 0
    assert run(["search", "--parties", "3", "--dim", "2"]) == 7
    assert seen == ["nogo", "search"]


# Argument lists for the narrowed-parser checks: each subcommand as the README
# and the benchmark call it, help, and usage errors. GENS, FACTS and OUT stand
# for files made in tmp_path.
PARSER_CASES = [
    ["construct", "ghz", "--dim", "6", "--parties", "3", "--out", "OUT"],
    ["construct", "bell", "--dim", "3"],
    ["construct", "graph", "--dim", "3", "--parties", "3", "--adjacency", "1 1 1"],
    ["verify", "GENS"],
    ["verify", "GENS", "--method", "dense", "--out", "OUT"],
    ["verify", "GENS", "--method", "both", "--tol", "1e-6", "--dense-budget", "100"],
    ["decompose", "GENS", "--out", "OUT"],
    ["decompose", "GENS", "--no-verify", "--dense-budget", "10"],
    ["search", "--parties", "3", "--dim", "2"],
    ["search", "--parties", "4", "--dim", "3", "--mode", "first", "--shard", "0:40",
     "--out", "OUT"],
    ["search", "--parties", "4", "--dim", "2", "--mode", "exhaustive", "--search-budget", "9"],
    ["nogo", "--format", "csv", "--out", "OUT"],
    ["nogo", "--facts", "FACTS", "--format", "svg", "--max-parties", "5", "--max-dim", "9"],
    ["--help"],
    ["-h"],
    ["construct", "--help"],
    ["verify", "--help"],
    ["decompose", "-h"],
    ["search", "--help"],
    ["nogo", "--help"],
    ["search", "--parties", "3", "--dim", "2", "junk"],
    ["verify", "GENS", "--bogus"],
    ["search", "--parties", "4"],
    ["verify"],
    ["nogo", "--format", "pdf"],
    ["search", "--parties", "x", "--dim", "2"],
    ["bogus"],
    ["bogus", "--help"],
    ["--bogus"],
    [],
    ["search", "--", "--parties", "3"],
    ["search", "--par", "3", "--dim", "2"],
    ["verify", "GENS", "junk", "more"],
    ["search", "-h", "junk"],
    ["nogo", "junk", "--format", "pdf"],
    ["verify", "GENS", "--bogus=1"],
    ["decompose", "GENS", "--verify"],
    ["verify", "GENS", "--tol", "1e-9"],
]

VERIFY_USAGE = """\
usage: stabame verify [-h] [--method {symbolic,dense,both}] [--dense-budget DENSE_BUDGET]
                      [--out OUT]
                      gens
"""

# Arguments left over by the named subcommand's parser, which reports them
# under its own usage line: (argv, that usage at COLUMNS=100, the leftovers).
LEFTOVER_CASES = [
    (["search", "--parties", "3", "--dim", "2", "junk"],
     "usage: stabame search [-h] --parties PARTIES --dim DIM [--mode {first,exhaustive}]"
     " [--shard SHARD]\n                      [--search-budget SEARCH_BUDGET] [--out OUT]\n",
     "junk"),
    (["verify", "GENS", "--bogus"], VERIFY_USAGE, "--bogus"),
    (["verify", "GENS", "junk", "more"], VERIFY_USAGE, "junk more"),
    (["verify", "GENS", "--bogus=1"], VERIFY_USAGE, "--bogus=1"),
    # --verify only restated its default; --no-verify is the one switch
    (["decompose", "GENS", "--verify"],
     "usage: stabame decompose [-h] [--no-verify] [--dense-budget DENSE_BUDGET] [--out OUT]"
     " gens\n",
     "--verify"),
    # the dense verdict has one fixed threshold, so --tol is not an option
    (["verify", "GENS", "--tol", "1e-9"], VERIFY_USAGE, "--tol 1e-9"),
]


def _case_argv(argv, tmp_path):
    gens = tmp_path / "bell6.gens"
    gens.write_text("6 2 2\n0 | 1 1 | 0 0\n0 | 0 0 | 1 5\n")
    facts = tmp_path / "facts.txt"
    facts.write_text("4 2 noStabAME shadow\n3 3 stabAMEExists witness\n")
    paths = {"GENS": str(gens), "FACTS": str(facts), "OUT": str(tmp_path / "out.txt")}
    return [paths.get(a, a) for a in argv]


def _full_parse(argv):
    """Parse ``argv`` from the root of a fresh parser tree; arguments left over
    after a named subcommand are reported by that subcommand's parser within it."""
    root, commands = cli._parsers.__wrapped__()
    args, extras = root.parse_known_args(argv)
    if not extras:
        return args
    if argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:])
    return root.parse_args(argv)


def _parse_outcome(parse, argv, capsys):
    try:
        namespace = vars(parse(argv))
        code = None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize("columns", ["100", "40"])
@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_the_narrowed_parser_parses_like_the_full_one(tmp_path, capsys, monkeypatch, argv,
                                                      columns):
    monkeypatch.setenv("COLUMNS", columns)
    argv = _case_argv(argv, tmp_path)
    narrowed = _parse_outcome(cli.parse_args, argv, capsys)
    assert narrowed == _parse_outcome(_full_parse, argv, capsys)
    assert narrowed[1] or narrowed[2] or narrowed[3]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_the_console_script_runs_like_the_full_parser(tmp_path, capsys, monkeypatch, argv):
    argv = _case_argv(argv, tmp_path)
    out = tmp_path / "out.txt"
    monkeypatch.setattr(sys, "argv", ["stabame", *argv])
    outcomes = []
    # the reference parses every argv with the full parser, then main dispatches
    for parse in (cli.parse_args, _full_parse):
        monkeypatch.setattr(cli, "parse_args", parse)
        code = cli.main()
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err, out.exists() and out.read_text()))
        out.unlink(missing_ok=True)
    assert outcomes[0] == outcomes[1]


# SHA-256 over main's (exit code, stdout, stderr, report) for every
# PARSER_CASES argv at COLUMNS=40 and 100, taken while the named subcommands
# still had standalone parsers and the full tree was built on each other call.
# The parity tests compare the parser with a reference built by the same code,
# so this digest is what pins the command line's bytes across a parser change.
PARSE_OUTCOMES_DIGEST = "9459c0aeea48b213e1d19705012efcc481370993ff71964ffed0308d7d64194b"


def test_main_outcomes_on_the_parser_cases_are_byte_identical(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out.txt"
    outcomes = []
    for columns in ("40", "100"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in PARSER_CASES:
            code = run(_case_argv(argv, tmp_path))
            captured = capsys.readouterr()
            report = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            outcomes.append([code, captured.out, captured.err, report])
    text = json.dumps(outcomes).replace(str(tmp_path), "TMP")
    assert hashlib.sha256(text.encode()).hexdigest() == PARSE_OUTCOMES_DIGEST


@pytest.mark.parametrize(("argv", "usage", "extras"), LEFTOVER_CASES,
                         ids=[" ".join(case[0]) for case in LEFTOVER_CASES])
def test_leftover_arguments_get_the_subcommand_usage(tmp_path, capsys, monkeypatch, argv, usage,
                                                     extras):
    monkeypatch.setenv("COLUMNS", "100")
    assert run(_case_argv(argv, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{usage}stabame {argv[0]}: error: unrecognized arguments: {extras}\n"
    assert not (tmp_path / "out.txt").exists()


def test_top_level_usage_errors_name_the_command_argument(capsys):
    assert run(["bogus"]) == 1
    assert "stabame: error: argument command: invalid choice: 'bogus'" in capsys.readouterr().err
    assert run([]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: stabame [-h] {construct,verify,decompose,search,nogo} ...\n")
    assert err.endswith("stabame: error: the following arguments are required: command\n")


def test_main_builds_the_parser_tree_once(monkeypatch):
    import argparse
    import functools

    names = ["construct", "verify", "decompose", "search", "nogo"]
    added, seen = [], []
    add_parser = argparse._SubParsersAction.add_parser

    def counted_add(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted_add)
    for name in names:
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(args.command) or 0)
    calls = [["construct", "ghz", "--dim", "2"], ["verify", "GENS"], ["decompose", "GENS"],
             ["search", "--parties", "3", "--dim", "2"], ["nogo"],
             ["search", "--parties", "3", "--dim", "2", "junk"], ["--help"], ["bogus"], []]
    # the first call of any kind builds the whole tree; the process-wide cache
    # comes back after the test
    for first in calls:
        monkeypatch.setattr(cli, "_parsers", functools.cache(cli._parsers.__wrapped__))
        added.clear()
        run(first)
        assert added == names
        added.clear()
        for argv in calls:
            run(argv)
        assert added == []
    assert seen[-len(names):] == names


def test_a_usage_error_leaves_nothing_for_the_next_request(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    out = tmp_path / "out.txt"
    # the first request sets --mode and --shard before --parties fails
    requests = (["search", "--mode", "first", "--shard", "0:9", "--parties", "x", "--dim", "2"],
                ["search", "--parties", "4", "--dim", "2", "--out", str(out)])

    def outcomes():
        results = []
        for argv in requests:
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err, out.exists() and out.read_text()))
            out.unlink(missing_ok=True)
        return results

    assert run(["search", "--parties", "3", "--dim", "2", "--out", os.devnull]) == 0
    cached = outcomes()
    monkeypatch.setattr(cli, "parse_args",
                        lambda argv: cli._parsers.__wrapped__()[1][argv[0]].parse_args(argv[1:]))
    assert cached == outcomes()
    assert cached[0][0] == 1 and "argument --parties: invalid int value: 'x'" in cached[0][2]
    assert cached[1] == (0, "", "", "EXHAUSTED n=4 d=2 searched=64 witnesses=0\n"
                                    "NO-STABILIZER-AME n=4 d=2\n")


def test_cached_help_follows_the_terminal_width(capsys, monkeypatch):
    run(["verify", "--help"])
    capsys.readouterr()
    for argv in (["verify", "--help"], ["--help"]):
        helps = []
        for columns in ("40", "100"):
            monkeypatch.setenv("COLUMNS", columns)
            assert run(argv) == 0
            helps.append(capsys.readouterr().out)
            root, commands = cli._parsers.__wrapped__()
            assert helps[-1] == commands.get(argv[0], root).format_help()
        assert helps[0] != helps[1]


def test_verify_report_contents(tmp_path, capsys):
    gens = tmp_path / "bell.gens"
    run(["construct", "bell", "--dim", "2", "--out", str(gens)])
    assert run(["verify", str(gens), "--method", "dense"]) == 0
    out = capsys.readouterr().out
    assert "method=dense ame=yes" in out
    assert "worst-deviation" in out


def test_decompose_report(tmp_path):
    gens = tmp_path / "ghz6.gens"
    report = tmp_path / "dec.txt"
    run(["construct", "ghz", "--dim", "6", "--parties", "3", "--out", str(gens)])
    assert run(["decompose", str(gens), "--out", str(report)]) == 0
    text = report.read_text()
    assert text.splitlines()[0] == "factorization D=6 n=3 factors=2^1,3^1"
    assert "factor q=2 ame=yes" in text
    assert "factor q=3 ame=yes" in text


def test_decompose_no_verify_skips_verdicts(tmp_path):
    gens = tmp_path / "ghz6.gens"
    report = tmp_path / "dec.txt"
    run(["construct", "ghz", "--dim", "6", "--parties", "3", "--out", str(gens)])
    assert run(["decompose", str(gens), "--no-verify", "--out", str(report)]) == 0
    assert "ame=" not in report.read_text()


def test_decompose_prime_dimension(tmp_path):
    gens = tmp_path / "bell5.gens"
    report = tmp_path / "dec.txt"
    run(["construct", "bell", "--dim", "5", "--out", str(gens)])
    assert run(["decompose", str(gens), "--out", str(report)]) == 0
    assert "factorization D=5 n=2 factors=5^1" in report.read_text()


def test_decompose_near_the_dense_budget_keeps_phases_exact(tmp_path, capsys):
    # D**n = 100000 fits the default budget, so the dense contract runs; the
    # phase exponents of lam X**(D-1) Z**(D-1) overflowed int64 unreduced
    gens = tmp_path / "big.gens"
    gens.write_text("100000 1 1\n1 | 99999 | 99999\n")
    assert run(["verify", str(gens), "--method", "both"]) == 0
    assert run(["decompose", str(gens)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "factorization D=100000 n=1 factors=2^5,5^5" in out


def test_large_prime_dimensions_are_decided_at_once(tmp_path, capsys):
    # trial division stops at 2**20; 2**61 - 1 past it is certified prime by
    # Miller-Rabin instead of trial-divided up to its square root
    prime = 2**61 - 1
    gens = tmp_path / "bell.gens"
    facts = tmp_path / "facts.txt"
    assert run(["construct", "bell", "--dim", str(prime), "--out", str(gens)]) == 0
    facts.write_text(f"4 {prime} noStabAME big\n")
    for argv in (["decompose", str(gens)], ["nogo", "--facts", str(facts)]):
        started = time.perf_counter()
        assert run(argv) == 0
        assert time.perf_counter() - started < 1.0, argv
    assert f"factorization D={prime} n=2 factors={prime}^1" in capsys.readouterr().out


def test_a_dimension_past_the_factorization_bound_is_an_error(tmp_path, capsys):
    dim = 1048583 * 1048589  # two primes past 2**20
    gens = tmp_path / "bell.gens"
    facts = tmp_path / "facts.txt"
    assert run(["construct", "bell", "--dim", str(dim), "--out", str(gens)]) == 0
    facts.write_text(f"4 {dim} noStabAME big\n")
    assert run(["decompose", str(gens)]) == 1
    assert f"error: cannot factor dimension {dim}" in capsys.readouterr().err
    assert run(["nogo", "--facts", str(facts)]) == 1
    assert f"error: line 1: cannot factor dimension {dim}" in capsys.readouterr().err


def test_search_cli_exhaustive_and_shard(tmp_path, capsys):
    out = tmp_path / "s42.txt"
    assert run(["search", "--parties", "4", "--dim", "2", "--out", str(out)]) == 0
    assert out.read_text() == (
        "EXHAUSTED n=4 d=2 searched=64 witnesses=0\nNO-STABILIZER-AME n=4 d=2\n"
    )

    shard = tmp_path / "shard.txt"
    assert run(
        ["search", "--parties", "2", "--dim", "3", "--shard", "0:2", "--out", str(shard)]
    ) == 0
    assert "PARTIAL n=2 d=3 searched=2" in shard.read_text()
    # "" was once read as no shard: the whole (4,2) space was scanned and
    # reported EXHAUSTED with a NO-STABILIZER-AME claim
    refused = tmp_path / "refused.txt"
    for spec in ("", "5", "a:b", "1:2:3"):
        argv = ["search", "--parties", "4", "--dim", "2", "--shard", spec, "--out", str(refused)]
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: bad shard spec {spec!r}; expected start:end\n")
        assert not refused.exists()


def test_search_cli_first_witness(tmp_path):
    out = tmp_path / "s43.txt"
    assert run(
        ["search", "--parties", "4", "--dim", "3", "--mode", "first", "--out", str(out)]
    ) == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("4 3 : ")


def test_nogo_cli_csv_and_svg(tmp_path):
    csv_path = tmp_path / "table.csv"
    assert run(["nogo", "--out", str(csv_path)]) == 0
    text = csv_path.read_text()
    assert text.splitlines()[0].startswith("n\\D,2,3")

    svg_path = tmp_path / "table.svg"
    assert run(["nogo", "--format", "svg", "--out", str(svg_path)]) == 0
    import xml.etree.ElementTree as ET

    ET.fromstring(svg_path.read_text())


def test_nogo_cli_custom_facts_conflict(tmp_path, capsys):
    facts = tmp_path / "facts.txt"
    facts.write_text("2 2 stabAMEExists bell\n2 2 noAME bogus\n")
    assert run(["nogo", "--facts", str(facts)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "conflicting" in err


def test_cli_outputs_are_deterministic(tmp_path):
    # All five subcommands in one process, the second round in reverse order,
    # so nothing one call leaves behind (the parser is shared) reaches the next.
    gens = tmp_path / "ghz.gens"
    runs = [
        ("nogo.csv", ["nogo"]),
        ("nogo.svg", ["nogo", "--format", "svg"]),
        ("ghz.gens", ["construct", "ghz", "--dim", "6", "--parties", "3"]),
        ("verify.txt", ["verify", str(gens), "--method", "both"]),
        ("decompose.txt", ["decompose", str(gens)]),
        ("search.txt", ["search", "--parties", "3", "--dim", "2"]),
    ]
    rounds = []
    for tag, order in (("a", runs), ("b", runs[:3] + runs[:2:-1])):
        outputs = {}
        for name, argv in order:
            out = gens if name == "ghz.gens" else tmp_path / f"{tag}.{name}"
            assert run(argv + ["--out", str(out)]) == 0
            outputs[name] = out.read_bytes()
        rounds.append(outputs)
    assert rounds[0] == rounds[1]


def test_cli_quiet_stderr_on_success(tmp_path, capsys):
    gens = tmp_path / "bell.gens"
    run(["construct", "bell", "--dim", "3", "--out", str(gens)])
    run(["verify", str(gens), "--out", str(tmp_path / "rep.txt")])
    run(["decompose", str(gens), "--out", str(tmp_path / "dec.txt")])
    run(["nogo", "--out", str(tmp_path / "t.csv")])
    assert capsys.readouterr().err == ""


def _ame_graph(rng, dimension, parties):
    """An AME graph over Z_d: per prime power q of d, the first seeded random
    graph over Z_q that is AME, joined entry by entry by CRT. The minors of
    the joined graph reduce to those of each factor graph mod q, so it
    passes the block-minor test at d exactly because every factor does."""
    f = factorize(dimension)
    factors = []
    for q in f.prime_powers:
        graph = random_graph(rng, q, parties)
        while not verify_ame_symbolic(graph_to_group(graph)).is_ame:
            graph = random_graph(rng, q, parties)
        factors.append(graph.upper)
    return GraphState(dimension, parties, tuple(crt_combine(r, f) for r in zip(*factors)))


def verify_reports(tmp_path, dimension):
    """Exit codes and ``verify --method symbolic`` reports, n = 4..7, of four
    random and one AME graph group per n, each on generators mixed by a
    seeded unimodular change of basis. No AME state of 4 or 7 qubits exists
    (Higuchi and Sudbery 2000; Huber, Guhne and Siewert 2017), so at even d
    those n get no AME input."""
    rng = np.random.default_rng(4000 + dimension)
    gens, report = tmp_path / "mixed.gens", tmp_path / "report.txt"
    out = []
    for parties in range(4, 8):
        graphs = [random_graph(rng, dimension, parties) for _ in range(4)]
        if dimension % 2 or parties not in (4, 7):
            graphs.append(_ame_graph(rng, dimension, parties))
        for graph in graphs:
            gens.write_text(format_generator_file(unimodular_mix(rng, graph_to_group(graph))))
            code = run(["verify", str(gens), "--method", "symbolic", "--out", str(report)])
            out.append((code, report.read_text()))
    return out


# SHA-256 over the exit codes and reports of verify_reports, taken while span
# orders ran the extended-gcd diagonalization alone. kernel_mod's relations
# choose each witness line, so a change to its transform shows here.
VERIFY_DIGESTS = {
    4: "ce21c659c4e2f2594e0f14b148abeba928a240912447502e07f2250cbd88ccdf",
    6: "6823fb94c909246435cd4ee243b09d263a2d2f905afcd31886cd11894e39047b",
    8: "1510e2dfac30a93733233c6ea76697a58e3d3aaddf59a7a033bd7fbb3c58b90e",
    12: "9a2348b1d7f3ef0c2eff3e640d2299c193bae4aa8613f0c41011f63d4e825bc1",
    35: "ea29985cae68e0e0eec544b784cb4932cc5d2b73ce7ec516fd2770c6fcf6ed59",
}


@pytest.mark.parametrize("dimension", sorted(VERIFY_DIGESTS))
def test_verify_reports_are_byte_identical(tmp_path, dimension):
    reports = verify_reports(tmp_path, dimension)
    assert {code for code, _ in reports} == {0, 1}
    assert sum("witness: " in text for _, text in reports) >= 10
    digest = hashlib.sha256("".join(f"{code}\n{text}" for code, text in reports).encode())
    assert digest.hexdigest() == VERIFY_DIGESTS[dimension]


def dense_groups(rng, dimension, max_parties):
    """Seeded GHZ, random graph and (for n <= 3) AME graph groups over
    ``dimension`` for n = 2..max_parties, each on generators mixed by a
    unimodular change of basis; each once more with two redundant generators
    (products over random coefficients) appended, so that graph groups get
    relations among their X rows too; and that group once more conjugated by
    a random Pauli element, which moves the support off index 0 and puts
    nonzero phases on the diagonal elements."""
    groups = []
    for parties in range(2, max_parties + 1):
        bases = [ghz_group(dimension, parties), random_graph_group(rng, dimension, parties)]
        if parties <= 3:
            bases.append(graph_to_group(_ame_graph(rng, dimension, parties)))
        for base in bases:
            mixed = unimodular_mix(rng, base)
            extra = tuple(
                generator_product(mixed, [int(c) for c in rng.integers(0, dimension, parties)])
                for _ in range(2)
            )
            redundant = StabilizerGroup(dimension, parties, mixed.generators + extra)
            p = random_pauli(rng, dimension, parties)
            shifted = tuple(multiply(multiply(p, gen), power(p, -1)) for gen in redundant.generators)
            groups += [mixed, redundant, StabilizerGroup(dimension, parties, shifted)]
    return groups


def dense_reports(tmp_path, groups):
    """Exit codes and reports of ``verify --method dense``, ``--method both``
    and ``decompose`` on every group."""
    gens, report = tmp_path / "dense.gens", tmp_path / "report.txt"
    out = []
    for group in groups:
        gens.write_text(format_generator_file(group))
        for argv in (["verify", "--method", "dense"], ["verify", "--method", "both"],
                     ["decompose"]):
            code = run([*argv, str(gens), "--out", str(report)])
            out.append((code, report.read_text()))
    return out


# (max parties, SHA-256 of the dense_reports exit codes and reports, SHA-256
# of the state_from_group amplitude bytes) per dimension, taken while the
# synthesis seed was the first basis index passing a test over all D**n
# indices.
DENSE_DIGESTS = {
    4: (5, "d68104bd35f900b16fc1e6e8831195e4a8ec2f974ee1a60b43d67f48671d6906",
        "2f11adcfd16316b80d486c5eaf062d50af52cfedea765755e4b744f64839f692"),
    6: (5, "8a6d5aa9362f9b816299952d26d8651b4ae9f750a3ee7c869b905b7d46a5f72a",
        "435a9d6415fb68bce071cd1a3ea9806a443552ecf2610c590891de05114a420d"),
    10: (4, "86e47441436d77460a8a577a0323e02c168be321b73461be620405dc406c2889",
         "58511f8d8b61bb92ef6eef032c16377fd1808abed82f211932c49cdf25e2cf0c"),
    12: (4, "96cbe567d69aa3015e06b4ffd45166cf88ecb666e3d45b38041778e4a99bb8bb",
         "826aa614e7bb247367bfbda181eaad8661fb02004016d7cdc52e329ffe827045"),
    30: (3, "9794403d428447edfde5e06115d54409170418d06bc14d09fd91fdbec6cb651c",
         "ee4e100903f3e40de16123eadb0dda6a2c005d593ccc70b1e310509d47483af4"),
}


@pytest.mark.parametrize("dimension", sorted(DENSE_DIGESTS))
def test_dense_reports_and_amplitudes_are_byte_identical(tmp_path, dimension):
    max_parties, report_digest, amplitude_digest = DENSE_DIGESTS[dimension]
    groups = dense_groups(np.random.default_rng(5000 + dimension), dimension, max_parties)
    reports = dense_reports(tmp_path, groups)
    assert {code for code, _ in reports} == {0, 1}
    digest = hashlib.sha256("".join(f"{code}\n{text}" for code, text in reports).encode())
    assert digest.hexdigest() == report_digest
    amplitudes = b"".join(state_from_group(g).amplitudes.tobytes() for g in groups)
    assert hashlib.sha256(amplitudes).hexdigest() == amplitude_digest
