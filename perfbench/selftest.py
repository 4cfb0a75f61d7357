"""Tests of the benchmark itself: the oracle, the request lists and the tracer.

Not collected by the repository's test suite (the file name does not match
``test_*.py``). Run from the repository root:

    python -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n,d,count", [(4, 2, 0), (4, 3, 120), (5, 2, 132), (4, 4, 0)])
def test_oracle_reproduces_exhaustive_counts(n, d, count):
    assert len(oracle.witness_indices(n, d, 0, d ** oracle.slots(n))) == count


def test_graph_element_multiplies_out_to_a_witness():
    # Path graph 0-1-2-3 over Z_3: c = (1, 0, 2, 0) gives x on {0, 2} and
    # z = cA = (0, 1+2, 0, 2) = (0, 0, 0, 2), so the element is supported on {0, 2, 3}.
    a = oracle.adjacency_batch(4, [[1, 0, 0, 1, 0, 1]])[0]
    phase, x, z = oracle.graph_element(a, 3, [1, 0, 2, 0])
    assert (x, z) == ((1, 0, 2, 0), (0, 0, 0, 2))
    assert phase == 0  # no edge between the two vertices with c != 0
    assert not oracle.is_graph_witness(a, 3, (phase, x, z))  # support 3 > 4 // 2


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_request_lists_are_seeded_and_large_enough(workload, tmp_path):
    def listing(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        reqs = workloads.WORKLOADS[workload](np.random.default_rng(seed), str(work))
        argvs = [[arg.replace(str(work), "") for arg in r.argv] for r in reqs]
        files = {p.name: p.read_text() for p in sorted(work.iterdir())}
        return argvs, files

    first, second, other = listing(7, "a"), listing(7, "b"), listing(8, "c")
    assert len(first[0]) >= run.MIN_SAMPLES
    assert first == second
    assert first != other


def test_oracle_rejects_tampered_reports(tmp_path):
    _, loop = run.set_up("search", 3, tmp_path)
    req = next(r for r in loop.requests if r.label.startswith("search 3,3 exhaustive 0:"))
    loop.cli.main(list(req.argv))
    report = Path(req.out).read_text()
    req.check(0, report)
    lines = report.splitlines()
    with pytest.raises(workloads.Rejected):
        req.check(0, "\n".join(lines[1:]) + "\n")  # a witness dropped
    with pytest.raises(workloads.Rejected):
        req.check(0, report.replace("witnesses=20", "witnesses=19"))

    _, loop = run.set_up("verify", 3, tmp_path)
    req = next(r for r in loop.requests if "symbolic graph n=5 D=8" in r.label)
    rc = loop.cli.main(list(req.argv))
    report = Path(req.out).read_text()
    req.check(rc, report)
    with pytest.raises(workloads.Rejected):
        req.check(1 - rc, report)


def test_only_the_known_refusal_may_fail(tmp_path):
    _, loop = run.set_up("search", 4, tmp_path)
    refused = next(r for r in loop.requests if r.refusal is not None)
    assert refused.label.startswith("search 6,4 ")
    other = next(r for r in loop.requests if r.label.startswith("search 3,3 exhaustive 0:"))
    broken = dataclasses.replace(other, argv=other.argv + ["--shard", "5:1"])
    wrong_message = dataclasses.replace(refused, refusal=re.compile("error: other\n"))
    for req, counts_as_incorrect in ((refused, False), (broken, True), (wrong_message, True)):
        probe = run.Loop(loop.cli, [req])
        _, outcome = probe.execute(0)
        assert outcome is None and len(probe.failures) == 1
        assert probe.incorrect == counts_as_incorrect, probe.failures


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    run.set_up("verify", 1, tmp_path)
    import stabame.ame
    import stabame.pauli

    original = stabame.pauli.multiply
    tr = tracer.Tracer()
    tr.install()
    try:
        assert stabame.ame.multiply is stabame.pauli.multiply is not original
        assert stabame.ame.validate is stabame.stabgroup.validate
    finally:
        tr.uninstall()
    assert stabame.ame.multiply is original is stabame.pauli.multiply


def _traced_subset(workload, seed, tmp_path, pick):
    _, loop = run.set_up(workload, seed, tmp_path)
    subset = run.Loop(loop.cli, [r for r in loop.requests if pick(r)])
    ((wall, stats, outcomes, _),) = run.traced_passes(subset, 0)
    assert all(out is not None for out in outcomes), subset.failures
    return wall, stats


# A few cheap requests of each workload that still reach the layers the
# tests look at: graph_from_index, SNF, dense state synthesis.
SMALL = {
    "search": lambda r: ("4,3 exhaustive" in r.label or "6,2 exhaustive" in r.label)
    and " 0:" not in r.label,
    "verify": lambda r: "D=30" in r.label or r.kind == "nogo",
    "dense": lambda r: "n=3 D=6" in r.label or "n=3 D=10" in r.label,
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_call_counts_repeat_with_the_same_seed(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, first = _traced_subset(workload, 5, tmp_path / "a", SMALL[workload])
    _, second = _traced_subset(workload, 5, tmp_path / "b", SMALL[workload])
    counts = {key: calls for key, (calls, _) in first.items()}
    assert counts == {key: calls for key, (calls, _) in second.items()}
    assert counts["pauli.multiply"] > 0
    key = {"search": "search.graph_from_index", "verify": "ring.smith_normal_form",
           "dense": "statevec.state_from_group"}[workload]
    assert counts[key] > 0


def test_self_times_add_up_to_the_traced_wall_time(tmp_path):
    wall, stats = _traced_subset("verify", 2, tmp_path, SMALL["verify"])
    total = sum(self_s for _, self_s in stats.values())
    assert total == pytest.approx(wall, rel=0.02)


def test_times_do_not_move_with_the_machine_speed():
    # The same two passes and one set-up, then on a machine half as fast:
    # every call and every reference takes twice as long.
    outcomes = [workloads.Outcome(candidates=1), workloads.Outcome()]
    fast = [([0.010, 0.030], outcomes, [0.0010, 0.0010, 0.0011]),
            ([0.012, 0.028], outcomes, [0.0012, 0.0010, 0.0010])]
    slow = [([2 * t for t in lats], outs, [2 * r for r in refs]) for lats, outs, refs in fast]
    at_full_speed = run.end_to_end(fast, [(0.05, 0.001, 0.0012)], 1e-3)
    at_half_speed = run.end_to_end(slow, [(0.10, 0.002, 0.0024)], 1e-3)
    for key in ("setup_s", "wall_s", "req_per_s", "req_p50_ms", "req_p90_ms", "candidates_per_s"):
        assert at_half_speed[key] == pytest.approx(at_full_speed[key]), key
