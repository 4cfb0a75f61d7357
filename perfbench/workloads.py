"""Seeded request lists for the three workloads, with oracle checks.

Each request is one ``stabame.cli.main(argv)`` call whose report goes to its
own file. A request's ``check`` reads the exit code and the report text and
returns an :class:`Outcome`; it raises :class:`Rejected` when the oracle in
``oracle.py`` disagrees with the output. Input files are written here, from
the benchmark's own formulas, so stabame receives only generated files and
flags.

Why these inputs:

* ``search`` runs the graph-state search (symbolic AME on every candidate,
  the enumeration path) over shards with seeded start positions. Shard sizes
  are fixed so the work per run does not depend on the seed. The (6,4) shards
  stay in even though the search budget is applied to the whole space
  rather than the shard and refuses them today: they are counted as failures.
* ``verify`` runs ``verify --method symbolic`` on graph groups whose
  generators are mixed by a unimodular change of basis, over prime,
  prime-power and composite D with D^n on both sides of the enumeration
  limit, plus invalid groups (exit 2) and ``nogo`` tables over wide grids.
* ``dense`` runs ``decompose`` and ``verify --method dense|both`` on GHZ and
  graph groups over composite D up to the default dense budget.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

DENSE_TOL = 1e-9  # stabame's default --tol


class Rejected(Exception):
    """The oracle rejects a request's output or exit code."""


@dataclass(frozen=True)
class Outcome:
    candidates: int = 0  # graph candidates whose AME verdict the output reports
    witnesses: int = 0  # AME witness lines in a search report


@dataclass
class Request:
    label: str
    argv: list[str]
    out: str
    check: Callable[[int, str], Outcome]
    kind: str  # search, verify, decompose or nogo
    # Computes (and caches) the oracle's expectations, so they can be made
    # before the measured passes instead of on the first check.
    prepare: Callable[[], object] = lambda: None
    # stderr of a known refusal; a request with one may fail with exactly
    # this message, every other failure makes the run incorrect.
    refusal: re.Pattern | None = None


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------


def _pauli_line(element) -> str:
    phase, x, z = element
    return f"{phase} | {' '.join(map(str, x))} | {' '.join(map(str, z))}"


def _write_gens(path: str, d: int, n: int, gens, comment: str) -> None:
    lines = [f"# {comment}", f"{d} {n} {len(gens)}"] + [_pauli_line(g) for g in gens]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _random_adjacency(rng, n: int, d: int) -> np.ndarray:
    upper = rng.integers(0, d, size=(1, oracle.slots(n)))
    return oracle.adjacency_batch(n, upper)[0]


def _ame_adjacency_prime_power(rng, n: int, q: int) -> np.ndarray:
    """A random AME graph over Z_q, found by seeded rejection sampling."""
    for _ in range(1000):
        upper = rng.integers(0, q, size=(64, oracle.slots(n)))
        adj = oracle.adjacency_batch(n, upper)
        hits = np.nonzero(oracle.ame_flags(n, q, adj))[0]
        if len(hits):
            return adj[hits[0]]
    raise ValueError(f"no AME graph found at n={n} q={q}")


def _ame_adjacency(rng, n: int, d: int) -> np.ndarray:
    """CRT-combine AME graphs found at the prime-power factors of d."""
    total = np.zeros((n, n), dtype=np.int64)
    for _, _, q in oracle.factorize(d):
        t = d // q
        idempotent = t * pow(t, -1, q)
        total += idempotent * _ame_adjacency_prime_power(rng, n, q)
    return total % d


def _unimodular(rng, n: int, d: int) -> np.ndarray:
    """A random integer matrix of determinant +-1, reduced mod d."""
    u = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        u[i] += int(rng.integers(1, d)) * u[j]
        u %= d
    return u[rng.permutation(n)]


def _ghz_gens(n: int, d: int):
    gens = [(0, (1,) * n, (0,) * n)]
    for k in range(n - 1):
        z = [0] * n
        z[k], z[k + 1] = 1, d - 1
        gens.append((0, (0,) * n, tuple(z)))
    return gens


# ---------------------------------------------------------------------------
# Report parsing
# ---------------------------------------------------------------------------

_WITNESS = re.compile(r"^(\d+) (\d+) :((?: \d+)*)$")


def _fields(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Rejected(message)


def _parse_element(text: str, n: int):
    blocks = [b.split() for b in text.split("|")]
    _expect(len(blocks) == 3 and len(blocks[1]) == n == len(blocks[2]), f"bad element {text!r}")
    return int(blocks[0][0]), tuple(map(int, blocks[1])), tuple(map(int, blocks[2]))


def _line_starting(lines, prefix: str) -> str:
    found = [ln for ln in lines if ln.startswith(prefix)]
    _expect(len(found) == 1, f"expected one line starting with {prefix!r}, got {len(found)}")
    return found[0]


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _search_request(n, d, mode, shard, out, refusal=None) -> Request:
    total = d ** oracle.slots(n)
    start, end = shard if shard is not None else (0, total)
    argv = ["search", "--parties", str(n), "--dim", str(d), "--mode", mode, "--out", out]
    if shard is not None:
        argv += ["--shard", f"{start}:{end}"]
    expected = functools.cache(lambda: _expected_search(n, d, mode, start, end, total))

    def check(rc: int, text: str) -> Outcome:
        _expect(rc == 0, f"exit {rc}, expected 0")
        wit_lines, want_cert, want_claim = expected()
        lines = text.splitlines()
        got = [ln for ln in lines if _WITNESS.match(ln)]
        _expect(got == wit_lines, f"witness lines differ ({len(got)} vs {len(wit_lines)})")
        kind, fields = want_cert
        cert = _fields(_line_starting(lines, kind + " "))
        for key, value in fields.items():
            _expect(cert.get(key) == str(value), f"certificate {key}={cert.get(key)}, want {value}")
        claims = [ln for ln in lines if ln.startswith(("NO-STABILIZER-AME", "NO-GRAPH-STATE-AME"))]
        _expect(claims == want_claim, f"claim lines {claims}, want {want_claim}")
        return Outcome(candidates=fields["searched"], witnesses=len(got))

    label = f"search {n},{d} {mode} {start}:{end}"
    return Request(label, argv, out, check, "search", expected, refusal)


def _expected_search(n, d, mode, start, end, total):
    hits = oracle.witness_indices(n, d, start, end)
    if mode == "first" and hits:
        hits = hits[:1]
        searched, exhausted = hits[0] - start + 1, False
    else:
        searched, exhausted = end - start, (start, end) == (0, total)
    upper = oracle.upper_from_index(n, d, np.array(hits, dtype=np.int64)) if hits else []
    wit_lines = [f"{n} {d} : " + " ".join(map(str, row)) for row in upper]
    fields = {"n": n, "d": d, "searched": searched, "witnesses": len(hits)}
    claim = []
    if exhausted and not hits:
        kind = "NO-STABILIZER-AME" if oracle.is_prime(d) else "NO-GRAPH-STATE-AME"
        claim = [f"{kind} n={n} d={d}"]
    return wit_lines, ("EXHAUSTED" if exhausted else "PARTIAL", fields), claim


# A pass of each workload holds at least 100 requests, so the 90th latency
# percentile of a run has ten requests beyond it. Every request is short (at
# full speed most take 2-40 ms with the current stabame, none more than about
# 150 ms) and a pass takes one to two seconds, so a run of 30 seconds times
# each request 10 to 20 times. The machine is shared and its speed changes
# from one moment to the next; run.py divides each call by a reference
# computation timed around it, which corrects a short call well, while one
# call that lasts a second averages over whatever the machine did meanwhile
# (perfbench/README.md, "Steadiness"). Each list puts a block of requests of
# one kind and cost around the 50th and around the 90th percentile, so the
# seed does not move the percentiles from one kind of request to another.
#
# (n, d): (number of shards, shard size). Shards are small, so the seed moves
# little work between requests; the cost of a candidate is mostly the
# enumeration of its d^n-element group, the same for every candidate.
SEARCH_SHARDS = {
    (5, 2): (11, 4),
    (4, 3): (11, 3),
    (4, 4): (10, 1),
    (6, 2): (30, 4),  # around the 50th percentile
    (5, 3): (10, 2),
    (5, 4): (4, 2),
    # Refused today (see SEARCH_REFUSED): size 1 keeps the work a fix would
    # add small.
    (6, 4): (3, 1),
}
# Known refusals: the search budget is checked against all 4^15 candidates of
# (6,4), not against the shard, so these shards fail with this message. They
# count in ``failed``; any other failure makes the run incorrect.
SEARCH_REFUSED = {
    (6, 4): re.compile(r"error: \d+ candidates exceed the search budget of \d+\n"),
}
# (n, d): (number of shards, shard size) for --mode first. (4,6) has no
# witness and (5,4) almost none, so those requests scan their whole shard
# ((4,6) around the 90th percentile); the others stop at their first witness.
SEARCH_FIRST_SHARDS = {(4, 3): (1, 60), (5, 2): (1, 60), (5, 3): (1, 60), (5, 4): (1, 2),
                       (4, 6): (14, 1)}
# Where witnesses are common, a --mode first shard starts exactly this many
# candidates before its first witness, so its work does not depend on the seed.
FIRST_WITNESS_LEAD = {(4, 3): 3, (5, 2): 3, (5, 3): 3}
# Whole cells, each a single short request: EXHAUSTED certificates with
# witnesses, and the NO-STABILIZER-AME claim of (4,2). The larger cells
# (4,3) and (5,2) take over a second each, too long to time steadily.
SEARCH_FULL = [(3, 2), (3, 3), (4, 2)]


def search_requests(rng, work: str) -> list[Request]:
    reqs = []

    def out():
        return os.path.join(work, f"search-{len(reqs)}.txt")

    def shard(n, d, size, lead=None):
        while True:
            start = int(rng.integers(0, d ** oracle.slots(n) - size))
            if lead is None:
                return start, start + size
            if oracle.witness_indices(n, d, start, start + lead + 1) == [start + lead]:
                return start, start + size

    for n, d in SEARCH_FULL:
        reqs.append(_search_request(n, d, "exhaustive", None, out()))
    for mode, shards in (("first", SEARCH_FIRST_SHARDS), ("exhaustive", SEARCH_SHARDS)):
        for (n, d), (count, size) in shards.items():
            lead = FIRST_WITNESS_LEAD.get((n, d)) if mode == "first" else None
            refusal = SEARCH_REFUSED.get((n, d)) if mode == "exhaustive" else None
            for _ in range(count):
                reqs.append(_search_request(n, d, mode, shard(n, d, size, lead), out(), refusal))
    return reqs


# ---------------------------------------------------------------------------
# verify (symbolic) and nogo
# ---------------------------------------------------------------------------


def _verify_request(path, out, d, n, adjacency, gens, kind, method="symbolic") -> Request:
    """``kind``: "graph" (valid, AME decided by the oracle) or "ghz", or one of
    the invalid variants "drop", "phase" and "noncommuting"."""
    argv = ["verify", path, "--method", method, "--out", out]
    invalid = kind in ("drop", "phase", "noncommuting")

    @functools.cache
    def expected():
        """(AME verdict, dense deviation of a non-AME GHZ state or None)."""
        if invalid:
            return None, None
        want = oracle.graph_is_ame(adjacency, d) if kind == "graph" else oracle.ghz_is_ame(n)
        dense_ghz = kind == "ghz" and method != "symbolic" and not want
        return want, oracle.ghz_deviation(n, d) if dense_ghz else None

    def check(rc: int, text: str) -> Outcome:
        lines = text.splitlines()
        head = _fields(_line_starting(lines, "input "))
        _expect(head == {"D": str(d), "n": str(n), "generators": str(len(gens))}, f"input line {head}")
        val = _fields(_line_starting(lines, "validate:"))
        _expect(val.get("expected") == str(d**n), "validate expected order")
        if invalid:
            _expect(rc == 2, f"exit {rc} for an invalid group, expected 2")
            _expect(val.get("stabilizer-state") == "no", "invalid group accepted")
            _expect(val.get("abelian") == ("no" if kind == "noncommuting" else "yes"), "abelian flag")
            if kind == "drop":
                _expect(val.get("order") == str(d ** (n - 1)), "order of a dropped generator")
                _expect(val.get("phase-consistent") == "yes", "phase flag")
            if kind == "phase":
                _expect(val.get("order") == str(d**n), "order")
                _expect(val.get("phase-consistent") == "no", "phase flag")
            _expect(not any(ln.startswith("method=") for ln in lines), "verdict on an invalid group")
            return Outcome()
        want, ghz_dev = expected()
        _expect(val == {"abelian": "yes", "phase-consistent": "yes", "order": str(d**n),
                        "expected": str(d**n), "stabilizer-state": "yes"}, f"validate {val}")
        _expect(rc == (0 if want else 1), f"exit {rc}, oracle says ame={want}")
        verdict = _fields(_line_starting(lines, "method="))
        _expect(verdict.get("method") == method, "method")
        _expect(verdict.get("ame") == ("yes" if want else "no"), "ame verdict")
        if method != "symbolic":
            dev = float(verdict["worst-deviation"])
            subset = [int(v) for v in verdict["worst-subset"].split(",")]
            _expect(len(set(subset)) == n // 2 and all(0 <= v < n for v in subset), "worst subset")
            _expect((dev <= DENSE_TOL) == want, f"worst deviation {dev}")
            if ghz_dev is not None:
                _expect(abs(dev - ghz_dev) <= 1e-3 * ghz_dev,
                        f"GHZ deviation {dev}, want {ghz_dev:.3e}")
        witness = [ln for ln in lines if ln.startswith("witness:")]
        if method == "dense" or want:
            _expect(not witness, "unexpected witness line")
        else:
            _expect(len(witness) == 1, "missing witness line")
            elem = _parse_element(witness[0].split(":", 1)[1], n)
            ok = (oracle.is_graph_witness(adjacency, d, elem) if kind == "graph"
                  else oracle.is_ghz_witness(n, d, elem))
            _expect(ok, f"witness {witness[0]!r} is not a group element inside floor(n/2) parties")
        return Outcome(candidates=1 if kind == "graph" else 0)

    return Request(f"verify {method} {kind} n={n} D={d}", argv, out, check, "verify", expected)


def _graph_verify_files(rng, work, idx, n, d, kind):
    """Write a mixed-basis graph group (or an invalid variant of it)."""
    adjacency = _ame_adjacency(rng, n, d) if kind == "ame" else _random_adjacency(rng, n, d)
    u = _unimodular(rng, n, d)
    gens = [oracle.graph_element(adjacency, d, row) for row in u]
    variant = "graph" if kind in ("ame", "random") else kind
    if kind == "drop":
        gens = gens[:-1]
    elif kind == "phase":
        phase, x, z = gens[0]
        gens[0] = ((phase + 1) % (2 * d), x, z)
    elif kind == "noncommuting":
        phase, x, z = gens[0]
        for site in range(n):
            bumped = list(z)
            bumped[site] = (bumped[site] + 1) % d
            trial = [(phase, x, tuple(bumped))] + gens[1:]
            if not oracle.abelian(trial, d):
                gens = trial
                break
    path = os.path.join(work, f"verify-{idx}.gens")
    _write_gens(path, d, n, gens, f"{kind} graph n={n} D={d}")
    return path, adjacency, gens, variant


# (n, D, kind, count). The enumeration-path AME inputs scan every subset, so
# they cost the same for every seed; the random ones, which stop at the first
# bad subset, are small or on the counting path. Enumerations stay at D^n of
# about 2 000 or less: one near stabame's enumeration limit of 20 000 takes
# 250-500 ms, too long to time steadily. (6,6) AME inputs sit around the 50th
# percentile and (6,3) AME inputs around the 90th.
VERIFY_GROUPS = [
    (4, 15, "ame", 4),  # first: the warm-up request of the set-up
    # counting path (D^n above 20 000)
    (3, 30, "ame", 4), (4, 35, "ame", 4), (5, 10, "ame", 4), (5, 12, "ame", 2),
    (6, 10, "ame", 2), (6, 6, "ame", 20),
    (4, 12, "random", 4), (5, 8, "random", 4), (6, 7, "random", 2), (7, 6, "random", 2),
    (8, 4, "random", 2), (8, 6, "random", 2), (7, 5, "random", 2), (6, 12, "random", 2),
    # enumeration path
    (3, 5, "ame", 1), (3, 9, "ame", 2), (4, 5, "ame", 2), (6, 3, "ame", 14),
    (3, 5, "random", 1), (3, 12, "random", 2), (6, 3, "random", 2), (7, 2, "random", 2),
    (8, 2, "random", 2), (4, 6, "random", 2), (5, 4, "random", 2), (4, 4, "random", 2),
    (5, 3, "random", 2),
    # invalid groups (exit 2)
    (4, 6, "drop", 2), (5, 6, "phase", 2), (6, 6, "noncommuting", 2), (5, 9, "drop", 2),
    (4, 15, "phase", 2), (7, 3, "noncommuting", 2),
]
# (format, --max-parties, --max-dim)
NOGO_REQUESTS = [("csv", 24, 120), ("svg", 16, 64), ("csv", 40, 200), ("svg", 30, 90),
                 ("csv", 12, 300), ("csv", 30, 60), ("svg", 10, 40), ("csv", 20, 100)]


def _nogo_request(rng, work, idx, fmt, max_parties, max_dim) -> Request:
    prime_powers = [q for q in range(2, max_dim + 1) if len(oracle.factorize(q)) == 1]
    facts, polarity = [], {}
    for k in range(int(rng.integers(8, 24))):
        n = int(rng.integers(2, max_parties + 1))
        q = int(rng.choice(prime_powers))
        status = str(rng.choice(["noAME", "noStabAME", "stabAMEExists"]))
        negative = status != "stabAMEExists"
        if polarity.setdefault((n, q), negative) != negative:
            continue  # a contradictory pair would abort the table
        facts.append((n, q, status, f"ref{k}"))
    path = os.path.join(work, f"facts-{idx}.txt")
    with open(path, "w") as handle:
        handle.write("# seeded facts\n" + "".join(f"{n} {q} {s} {src}\n" for n, q, s, src in facts))
    out = os.path.join(work, f"nogo-{idx}.{fmt}")
    argv = ["nogo", "--facts", path, "--format", fmt, "--max-parties", str(max_parties),
            "--max-dim", str(max_dim), "--out", out]
    expected = functools.cache(lambda: oracle.nogo_cells(facts, max_parties, max_dim))

    def check(rc: int, text: str) -> Outcome:
        cells = expected()
        _expect(rc == 0, f"exit {rc}")
        if fmt == "csv":
            _check_csv(text, cells, max_parties, max_dim)
        else:
            _check_svg(text, cells, max_parties, max_dim)
        return Outcome()

    label = f"nogo {fmt} {max_parties}x{max_dim}"
    return Request(label, argv, out, check, "nogo", expected)


def _check_csv(text, cells, max_parties, max_dim):
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    _expect(rows[0] == "n\\D," + ",".join(map(str, range(2, max_dim + 1))), "csv header")
    _expect(len(rows) == max_parties, "csv row count")
    for n, row in zip(range(2, max_parties + 1), rows[1:]):
        cols = row.split(",")
        want = [str(n)] + [cells[(n, d)][0] for d in range(2, max_dim + 1)]
        _expect(cols == want, f"csv row n={n}")
    reasons = [ln for ln in text.splitlines() if ln.startswith("# reason ")]
    want = [
        f"# reason n={n} D={d}: " + "; ".join(cells[(n, d)][1])
        for n in range(2, max_parties + 1)
        for d in range(2, max_dim + 1)
        if cells[(n, d)][0] == "excluded"
    ]
    _expect(reasons == want, "csv reason lines")


def _check_svg(text, cells, max_parties, max_dim):
    import xml.etree.ElementTree as ET

    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    _expect(root.tag == ns + "svg", "svg root")
    rects = root.findall(ns + "rect")
    texts = [t.text or "" for t in root.findall(ns + "text")]
    ncells = (max_parties - 1) * (max_dim - 1)
    _expect(len(rects) == ncells + 3, f"svg has {len(rects)} rects, want {ncells + 3}")
    legend = {}
    for rect, label in zip(rects[ncells:], texts[-3:]):
        legend[rect.get("fill")] = label.split(":")[0]
    got = [legend.get(r.get("fill")) for r in rects[:ncells]]
    want = [cells[(n, d)][0] for n in range(2, max_parties + 1) for d in range(2, max_dim + 1)]
    _expect(got == want, "svg cell colours")


def verify_requests(rng, work: str) -> list[Request]:
    reqs = []
    for n, d, kind, count in VERIFY_GROUPS:
        for _ in range(count):
            idx = len(reqs)
            path, adjacency, gens, variant = _graph_verify_files(rng, work, idx, n, d, kind)
            out = os.path.join(work, f"verify-{idx}.txt")
            reqs.append(_verify_request(path, out, d, n, adjacency, gens, variant))
    for fmt, max_parties, max_dim in NOGO_REQUESTS:
        reqs.append(_nogo_request(rng, work, len(reqs), fmt, max_parties, max_dim))
    return reqs


# ---------------------------------------------------------------------------
# dense: decompose and verify --method dense|both
# ---------------------------------------------------------------------------


def _decompose_request(path, out, d, n, adjacency) -> Request:
    """``adjacency`` None means the GHZ group."""
    argv = ["decompose", path, "--out", out]
    factors = oracle.factorize(d)

    @functools.cache
    def expected():
        """The oracle's AME verdict of each Sylow factor, by prime power."""
        return {q: oracle.ghz_is_ame(n) if adjacency is None
                else oracle.graph_is_ame(adjacency % q, q) for _, _, q in factors}

    def check(rc: int, text: str) -> Outcome:
        _expect(rc == 0, f"exit {rc}")
        lines = text.splitlines()
        head = _fields(_line_starting(lines, "factorization "))
        want_factors = ",".join(f"{p}^{e}" for p, e, _ in factors)
        _expect(head == {"D": str(d), "n": str(n), "factors": want_factors}, f"header {head}")
        for _, _, q in factors:
            _check_factor_block(lines, q, n, adjacency)
            verdict = _fields(_line_starting(lines, f"factor q={q} "))
            want = expected()[q]
            _expect(verdict.get("ame") == ("yes" if want else "no"), f"factor q={q} verdict")
        return Outcome(candidates=0 if adjacency is None else 1)

    kind = "ghz" if adjacency is None else "graph"
    return Request(f"decompose {kind} n={n} D={d}", argv, out, check, "decompose", expected)


def _check_factor_block(lines, q, n, adjacency):
    """The block after ``# factor q=Q`` is the Sylow factor group over Z_q: for a
    graph input, X_v Z^{u A_v} for one unit u; for GHZ, X^{(1..1)} and
    Z^{u (e_k - e_{k+1})}."""
    start = lines.index(f"# factor q={q}")
    _expect(lines[start + 1].split() == [str(q), str(n), str(n)], f"factor q={q} header")
    gens = [_parse_element(ln, n) for ln in lines[start + 2 : start + 2 + n]]
    _expect(all(g[0] == 0 for g in gens), f"factor q={q} phases")
    xs = np.array([g[1] for g in gens])
    zs = np.array([g[2] for g in gens])
    if adjacency is None:
        ref_x, ref_z = _ghz_reference(n, q)
    else:
        ref_x, ref_z = np.eye(n, dtype=np.int64), adjacency % q
    _expect(np.array_equal(xs, ref_x), f"factor q={q} X exponents")
    _expect(oracle.unit_multiple(zs, ref_z, q), f"factor q={q} Z exponents")


def _ghz_reference(n, q):
    gens = _ghz_gens(n, q)
    return np.array([g[1] for g in gens]), np.array([g[2] for g in gens])


# (op, n, D, kind, count): op "decompose", or the verify method "dense" or
# "both"; kind "ghz", "ame" (CRT of AME factor graphs) or "random". A few
# larger systems, D^n from 20 000 to 27 000, whose symbolic checks take the
# cheap counting path, and many small ones. Systems nearer the default dense
# budget, such as (6,6) and (4,15), take 250-450 ms a request, too long to
# time steadily.
# Dense GHZ(3,15) sits around the 50th percentile and "both" on GHZ(3,12)
# around the 90th; GHZ requests are the same for every seed.
DENSE_REQUESTS = [
    ("dense", 5, 6, "ghz", 1),  # first: the warm-up request of the set-up
    ("decompose", 3, 30, "ghz", 1), ("dense", 4, 12, "random", 1), ("both", 4, 12, "ghz", 1),
    ("both", 3, 12, "ghz", 14),
    ("dense", 3, 20, "ame", 3), ("dense", 4, 10, "random", 3), ("both", 3, 10, "random", 4),
    ("decompose", 3, 10, "ame", 4),
    ("dense", 3, 15, "ghz", 24),
    ("dense", 3, 6, "ame", 8), ("dense", 3, 6, "random", 8), ("dense", 4, 6, "random", 6),
    ("dense", 4, 6, "ghz", 6), ("dense", 3, 10, "ghz", 6), ("dense", 3, 10, "ame", 5),
    ("decompose", 3, 6, "ghz", 5), ("decompose", 4, 6, "random", 2),
]


def dense_requests(rng, work: str) -> list[Request]:
    reqs = []
    for op, n, d, kind, count in DENSE_REQUESTS:
        for _ in range(count):
            idx = len(reqs)
            path = os.path.join(work, f"dense-{idx}.gens")
            out = os.path.join(work, f"dense-{idx}.txt")
            if kind == "ghz":
                adjacency, gens = None, _ghz_gens(n, d)
            elif kind == "ame":
                adjacency = _ame_adjacency(rng, n, d)
            else:
                adjacency = _random_adjacency(rng, n, d)
            if adjacency is not None:
                gens = [oracle.graph_element(adjacency, d, row) for row in np.eye(n, dtype=np.int64)]
            _write_gens(path, d, n, gens, f"{kind} n={n} D={d}")
            if op == "decompose":
                reqs.append(_decompose_request(path, out, d, n, adjacency))
            else:
                variant = "ghz" if kind == "ghz" else "graph"
                reqs.append(_verify_request(path, out, d, n, adjacency, gens, variant, method=op))
    return reqs


WORKLOADS = {"search": search_requests, "verify": verify_requests, "dense": dense_requests}
