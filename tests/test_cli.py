import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import stabame
from stabame.cli import main
from stabame.stabgroup import parse_generator_file, validate
from stabame.statevec import state_from_group


def run(args):
    return main(list(args))


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
    src = str(Path(stabame.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "stabame.cli", "verify", str(gens)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert "ame=yes" in done.stdout


def test_construct_bell_rejects_other_party_counts(capsys):
    assert run(["construct", "bell", "--dim", "5", "--parties", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_construct_graph_from_search_witness(tmp_path):
    from stabame.search import format_witness_line, search_ame

    witness = search_ame(4, 3, mode="first").found[0]
    upper = " ".join(map(str, witness.upper_triangle()))
    gens = tmp_path / "graph.gens"
    assert run(
        ["construct", "graph", "--dim", "3", "--parties", "4", "--adjacency", upper,
         "--out", str(gens)]
    ) == 0
    assert run(["verify", str(gens), "--method", "both", "--out", str(tmp_path / "rep.txt")]) == 0
    assert format_witness_line(witness).endswith(upper)


def test_verify_exit_codes(tmp_path):
    not_ame = tmp_path / "prod.gens"
    not_ame.write_text("2 2 2\n0 | 0 0 | 1 0\n0 | 0 0 | 0 1\n")
    assert run(["verify", str(not_ame)]) == 1

    invalid = tmp_path / "bad.gens"
    invalid.write_text("2 2 2\n0 | 1 1 | 0 0\n0 | 0 1 | 1 0\n")
    assert run(["verify", str(invalid)]) == 2

    missing = tmp_path / "nope.gens"
    assert run(["verify", str(missing)]) == 1


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
    from stabame import ring

    calls = []
    real = ring.smith_normal_form
    monkeypatch.setattr(ring, "smith_normal_form", lambda m: calls.append(1) or real(m))
    ame = tmp_path / "bell.gens"
    run(["construct", "bell", "--dim", "6", "--out", str(ame)])
    assert run(["verify", str(ame), "--method", "both", "--out", str(tmp_path / "a")]) == 0
    assert len(calls) == 1  # validation only: no SNF per subset
    not_ame = tmp_path / "prod.gens"
    not_ame.write_text("6 2 2\n0 | 0 0 | 1 0\n0 | 0 0 | 0 1\n")
    assert run(["verify", str(not_ame), "--method", "both", "--out", str(tmp_path / "b")]) == 1
    assert len(calls) == 3  # validation and the witness of the first failing subset


def test_main_dispatches_through_the_module_names(monkeypatch):
    import stabame.cli as cli

    seen = []
    monkeypatch.setattr(cli, "cmd_nogo", lambda args: seen.append(args.command) or 0)
    assert run(["nogo"]) == 0
    assert seen == ["nogo"]


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


def test_search_cli_exhaustive_and_shard(tmp_path):
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

    forced = tmp_path / "forced.txt"
    assert run(
        ["search", "--parties", "4", "--dim", "2", "--completeness", "off",
         "--out", str(forced)]
    ) == 0
    assert "NO-GRAPH-STATE-AME n=4 d=2" in forced.read_text()


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
