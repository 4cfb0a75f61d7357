#!/usr/bin/env python3
"""Benchmark of the stabame CLI: one client, closed loop, in-process requests.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search|verify|dense --seed N \\
        --seconds S --trace 0|1

A run generates the workload's inputs from the seed, then sends its request
list to ``stabame.cli.main(argv)`` pass after pass, each request after the
previous one returns, until ``--seconds`` have passed and at least
``MIN_SAMPLES`` latencies are in. Only whole passes are measured. Every
output is checked against the independent oracle in ``oracle.py``. Times are
reported at a fixed machine speed, measured by a reference computation timed
around every request (see ``end_to_end``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes untraced
passes, then traced passes (see ``tracer.py``), and prints per-layer calls
and self time per pass of the request list. The last line of standard output
is the JSON result; the run record, with the environment, is also written to
``.perfbench-results/`` in the checkout.
"""

from __future__ import annotations

import os

# One process and no extra threads: the load generator and the program share
# a 2-core machine, and BLAS threads would make dense timings noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # every run compiles stabame the same way

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench-results"

SETUP_REPS = 7
MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "candidates_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer functions reported with --trace 1 ("module.function").
TRACED_FUNCTIONS = (
    "pauli.multiply", "pauli.power", "stabgroup.enumerate_elements",
    "ring.smith_normal_form", "ring.kernel_basis_mod", "stabgroup.validate",
    "ame.verify_ame_symbolic", "statevec.state_from_group", "pauli.apply_to_vector",
    "pauli.order", "statevec.reduced_density", "statevec.verify_ame_dense",
    "statevec.tensor", "statevec.permute_levels", "ame.decompose", "ame.reduce_ame",
    "cli.cmd_search", "cli.cmd_verify", "cli.cmd_decompose", "cli.cmd_nogo",
    "nogo.load_facts", "nogo.propagate", "nogo.emit_table", "search.search_ame",
    "search.graph_from_index",
)


def python_work(steps: int = 5_000) -> None:
    """Pure-Python work like stabame's symbolic code: small tuples as dict
    keys, integer arithmetic."""
    total, seen = 0, {}
    for i in range(steps):
        key = (i % 7, i % 11)
        total += (key[0] * key[1]) % 13
        seen[key] = total


_RNG = np.random.default_rng(0)
_SQUARE = _RNG.standard_normal((27, 27))
_HERMITIAN = _SQUARE + _SQUARE.T
_STATE = (_RNG.standard_normal(15**3) + 1j * _RNG.standard_normal(15**3)).reshape(15, 15, 15)


def dense_work() -> None:
    """Work like the dense workload's requests, which mix both kinds: half of
    ``python_work``, then array work like stabame's dense code (reduced
    density matrices of a 15^3 state vector, a small Hermitian eigensolve)."""
    python_work(2_500)
    for _ in range(3):
        np.tensordot(_STATE, _STATE.conj(), axes=([1, 2], [1, 2]))
        flat = _STATE.reshape(15, 225)
        flat @ flat.conj().T
        np.linalg.eigvalsh(_HERMITIAN)


# Per workload: the reference work timed around each request, and its
# fastest time on the 2-core host (Python 3.11, numpy 2.4) the bounds were
# set on. Times are reported at the machine speed at which the work takes
# that long; on that host, a reported time is the request's time while the
# host runs at full speed. See end_to_end().
REFERENCES = {
    "search": (python_work, 0.74e-3),
    "verify": (python_work, 0.74e-3),
    "dense": (dense_work, 0.61e-3),
}


def time_reference(work) -> float:
    """Seconds that ``work()`` takes. The garbage collector is off meanwhile,
    so what stabame leaves in memory does not change the time; the machine's
    speed at that moment does."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    work()
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


class Loop:
    """Runs requests one at a time and classifies each result.

    A request succeeds when it returns the exit code the oracle expects,
    writes nothing to stderr, writes its report file and the oracle accepts
    the report. Exit 1 is both "not AME" and every error in ``cli.main``, so
    it counts only with an empty stderr and a written report. Every failed
    request makes the run incorrect, except a known refusal: exit 1 with
    exactly the stderr its request names (``Request.refusal``).
    """

    def __init__(self, cli, requests, reference=python_work):
        self.cli = cli
        self.requests = requests
        self.reference = reference  # work timed around every request
        self.verified: dict[int, tuple] = {}  # index -> (exit code, report, outcome)
        self.failures: dict[str, str] = {}  # label -> first reason
        self.incorrect = 0

    def execute(self, index: int):
        """Run one request; returns (latency seconds, outcome or None on failure)."""
        req = self.requests[index]
        with contextlib.suppress(FileNotFoundError):
            os.remove(req.out)
        err, out = io.StringIO(), io.StringIO()
        raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(req.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # any escape from cli.main is a failed request
                rc, raised = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
        return latency, self._classify(index, rc, raised, err.getvalue() + out.getvalue())

    def _classify(self, index, rc, raised, stray):
        req = self.requests[index]
        if raised is not None:
            return self._fail(req, f"raised: {raised.strip().splitlines()[-1]}")
        if stray:
            known = rc == 1 and req.refusal is not None and req.refusal.fullmatch(stray)
            return self._fail(req, f"exit {rc}, stderr/stdout: {stray.strip()[:200]}", known)
        try:
            with open(req.out) as handle:
                report = handle.read()
        except FileNotFoundError:
            return self._fail(req, f"exit {rc}, no report written")
        known = self.verified.get(index)
        if known is not None and known[:2] == (rc, report):
            return known[2]
        try:
            outcome = req.check(rc, report)
        except (workloads.Rejected, ValueError, KeyError, IndexError) as exc:
            return self._fail(req, f"oracle rejects output: {exc!r}")
        self.verified[index] = (rc, report, outcome)
        return outcome

    def _fail(self, req, reason, known_refusal=False):
        if not known_refusal:
            self.incorrect += 1
        self.failures.setdefault(req.label, reason)
        return None

    def run_pass(self):
        """One pass over the requests. The reference work is timed before the
        first request and after each one, so request i runs between
        ``refs[i]`` and ``refs[i + 1]``."""
        latencies, outcomes, refs = [], [], [time_reference(self.reference)]
        for index in range(len(self.requests)):
            latency, outcome = self.execute(index)
            latencies.append(latency)
            outcomes.append(outcome)
            refs.append(time_reference(self.reference))
        return latencies, outcomes, refs


def in_reference_units(latencies, refs) -> list[float]:
    """Each request's time over the mean reference time around it."""
    return [lat / ((refs[i] + refs[i + 1]) / 2) for i, lat in enumerate(latencies)]


def purge_stabame() -> None:
    for name in [m for m in sys.modules if m == "stabame" or m.startswith("stabame.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, work: Path):
    """Import stabame afresh, generate the inputs and make one warm-up request."""
    purge_stabame()
    gc.collect()  # free the previous set-up's module tree before timing
    start = time.perf_counter()
    cli = importlib.import_module("stabame.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's stabame")
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=work))
    rng = np.random.default_rng(seed)
    requests = workloads.WORKLOADS[workload](rng, str(inputs))
    loop = Loop(cli, requests, REFERENCES[workload][0])
    loop.execute(0)
    return time.perf_counter() - start, loop


def measure(loop: Loop, seconds: float, min_passes: int = MIN_PASSES):
    """Whole passes until ``seconds`` have passed, ``min_passes`` are done and
    at least MIN_SAMPLES latencies are in."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(loop.run_pass())
        samples = len(passes) * len(loop.requests)
        if (
            time.perf_counter() - start >= seconds
            and len(passes) >= min_passes
            and samples >= MIN_SAMPLES
        ):
            return passes


def end_to_end(passes, setups, reference_s) -> dict[str, float]:
    """Times at a fixed machine speed.

    The machine is shared, and its speed changes from one second to the next
    and between runs (by up to 1.6x), so a time is first expressed in
    reference units: the timed call over the mean time of the reference work
    just before and just after it. A request's latency is the median of its
    reference units over the run's passes, times ``reference_s``, the
    workload's entry in REFERENCES. ``wall_s`` is the sum of these
    latencies, and the percentiles are taken over requests (at least
    MIN_SAMPLES of them). ``setup_s`` is the median set-up, scaled the same
    way; ``setups`` holds (seconds, reference before, reference after) per
    set-up."""
    outcomes = [out for _, outs, _ in passes for out in outs]
    ok = [out for out in outcomes if out is not None]
    units = [in_reference_units(lats, refs) for lats, _, refs in passes]
    per_request = [reference_s * statistics.median(req) for req in zip(*units)]
    wall = sum(per_request)
    candidates = sum(out.candidates for out in passes[0][1] if out is not None)
    setup_units = [seconds / ((before + after) / 2) for seconds, before, after in setups]
    return {
        "setup_s": reference_s * statistics.median(setup_units),
        "wall_s": wall,
        "req_per_s": len(per_request) / wall,
        "req_p50_ms": 1e3 * float(np.percentile(per_request, 50)),
        "req_p90_ms": 1e3 * float(np.percentile(per_request, 90)),
        "candidates_per_s": candidates / wall,
        "ok_ratio": len(ok) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_passes(loop: Loop, seconds: float):
    """Traced whole passes; returns per-pass (wall, per-function deltas,
    outcomes, pass time in reference units)."""
    tr = tracer.Tracer()
    tr.install()
    try:
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            before = tr.snapshot()
            lats, outcomes, refs = loop.run_pass()
            out.append((sum(lats), tracer.delta(tr.snapshot(), before), outcomes,
                        sum(in_reference_units(lats, refs))))
        return out
    finally:
        tr.uninstall()


def per_layer(requests, untraced_passes, traced) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    first = traced[0][1]
    for key in TRACED_FUNCTIONS:
        metrics[f"{key}.calls"] = (first.get(key, (0, 0.0))[0], "count")
        metrics[f"{key}.self_s"] = (
            statistics.median(stats.get(key, (0, 0.0))[1] for _, stats, _, _ in traced), "s")

    def calls(key):
        return first.get(key, (0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    searches = [out for req, out in zip(requests, traced[0][2])
                if out is not None and req.kind == "search"]
    metrics["search.witness_ratio"] = (
        ratio(sum(o.witnesses for o in searches), sum(o.candidates for o in searches)), "ratio")
    metrics["ame.enum_path_ratio"] = (
        ratio(calls("stabgroup.enumerate_elements"), calls("ame.verify_ame_symbolic")), "ratio")
    metrics["statevec.seeds_per_state"] = (
        ratio(calls("pauli.apply_to_vector"), calls("statevec.state_from_group")), "ratio")
    # Both in reference units, so a change of the machine's speed between the
    # untraced and the traced passes does not show as overhead.
    untraced = statistics.median(sum(in_reference_units(lats, refs))
                                 for lats, _, refs in untraced_passes)
    metrics["trace_overhead_ratio"] = (
        statistics.median(units for _, _, _, units in traced) / untraced, "ratio")
    return metrics


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "stabame").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a work tree, or the checkout sits inside another one
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stabame" / "__init__.py").is_file():
        print(f"error: no stabame sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        work_ref, reference_s = REFERENCES[args.workload]
        for _ in range(3):
            time_reference(work_ref)  # warm
        setups, loop = [], None
        for _ in range(SETUP_REPS):
            loop = None  # keep only the last set-up alive
            before = time_reference(work_ref)
            seconds, loop = set_up(args.workload, args.seed, work)
            setups.append((seconds, before, time_reference(work_ref)))
        for req in loop.requests:  # the oracle's answers, before any measured pass
            req.prepare()
        maxrss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            untraced = measure(loop, args.seconds / 3, min_passes=1)
            traced = traced_passes(loop, args.seconds - args.seconds / 3)
            metrics = per_layer(loop.requests, untraced, traced)
            attempted = len(traced) * len(loop.requests)
            failed = sum(out is None for _, _, outs, _ in traced for out in outs)
            samples = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                       "traced_wall_s": [wall for wall, _, _, _ in traced],
                       "traced_self_s_sum": [sum(s for _, s in stats.values())
                                             for _, stats, _, _ in traced]}
        else:
            passes = measure(loop, args.seconds)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(passes, setups, reference_s).items()}
            attempted = len(passes) * len(loop.requests)
            failed = sum(out is None for _, outs, _ in passes for out in outs)
            refs = sorted(ref for _, _, pass_refs in passes for ref in pass_refs)
            samples = {"passes": len(passes), "requests_per_pass": len(loop.requests),
                       "pass_s": [sum(lats) for lats, _, _ in passes],
                       "reference_ms": {"fastest": 1e3 * refs[0],
                                        "median": 1e3 * statistics.median(refs)},
                       "setups": setups, "peak_rss_mb_before_passes": maxrss_before}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": loop.incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"env": environment(args), "samples": samples, "failures": loop.failures, **result}
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": record["env"], "samples": samples}))
    for label, reason in loop.failures.items():
        print(f"failed: {label}: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
