"""Command-line front end: construct, verify, decompose, search, nogo.

Batch-oriented: every subcommand reads files/flags, writes a file (or stdout),
and communicates through its exit code. All outputs are deterministic given
the inputs; nothing is written to stderr on success.

verify exit codes: 0 = AME, 1 = not AME, 2 = input is not a stabilizer-state
group. Other subcommands: 0 on success. Every error, usage errors too, exits 1.

One parser tree, the root and its five subcommand parsers, is built once per
process and shared by every call: nothing is rebuilt for ``--help``, an
unknown name or an empty command line. When the first argument names a
subcommand, the rest is parsed by that subcommand's parser, which reports its
usage errors under its own usage line; anything else goes to the root. The
parsers hold no handler: ``main`` calls the module's ``cmd_<name>`` for the
parsed command.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import ame, nogo, search, statevec
from .errors import decimal_digits
from .pauli import format_pauli
from .stabgroup import (
    StabilizerGroup,
    bell_group,
    format_generator_file,
    ghz_group,
    parse_generator_file,
    validate,
)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _read_group(path: str) -> StabilizerGroup:
    with open(path) as handle:
        return parse_generator_file(handle.read())


def _parse_shard(spec: str) -> tuple[int, int]:
    try:
        start, end = spec.split(":")
        return int(start), int(end)
    except ValueError as exc:
        raise ValueError(f"bad shard spec {spec!r}; expected start:end") from exc


def _parse_adjacency(spec: str) -> tuple[int, ...]:
    entries = []
    for token in spec.split():
        try:
            entries.append(int(token))
        except ValueError as exc:
            raise ValueError(f"bad --adjacency entry {token!r}; expected integers") from exc
    return tuple(entries)


def cmd_construct(args) -> int:
    if args.kind == "ghz":
        group = ghz_group(args.dim, args.parties)
        comment = f"ghz D={args.dim} n={args.parties}"
    elif args.kind == "bell":
        if args.parties != 2:
            raise ValueError("bell requires --parties 2")
        group = bell_group(args.dim)
        comment = f"bell D={args.dim}"
    else:  # graph
        if args.adjacency is None:
            raise ValueError("graph requires --adjacency with the upper-triangle entries")
        entries = _parse_adjacency(args.adjacency)
        group = search.graph_to_group(search.GraphState(args.dim, args.parties, entries))
        comment = f"graph D={args.dim} n={args.parties} upper={' '.join(map(str, entries))}"
    _write_output(format_generator_file(group, header_comment=comment), args.out)
    return 0


def cmd_verify(args) -> int:
    statevec.check_dense_budget(args.dense_budget)
    group = _read_group(args.gens)
    report = validate(group)
    lines = [
        f"input D={group.dimension} n={group.parties} generators={len(group.generators)}",
        "validate: abelian={} phase-consistent={} order={} expected={} stabilizer-state={}".format(
            _yn(report.abelian),
            _yn(report.phase_consistent),
            decimal_digits(report.order),
            decimal_digits(group.dimension**group.parties),
            _yn(report.stabilizes_unique_state),
        ),
    ]
    if not report.stabilizes_unique_state:
        _write_output("\n".join(lines) + "\n", args.out)
        return 2
    verdict = ame.verify_ame(group, method=args.method, dense_budget=args.dense_budget)
    line = f"method={verdict.method} ame={_yn(verdict.is_ame)}"
    if verdict.worst_deviation is not None:
        subset = ",".join(map(str, verdict.worst_subset or ()))
        line += f" worst-subset={subset} worst-deviation={verdict.worst_deviation:.3e}"
    lines.append(line)
    if verdict.witness is not None:
        lines.append(f"witness: {format_pauli(verdict.witness)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0 if verdict.is_ame else 1


def cmd_decompose(args) -> int:
    group = _read_group(args.gens)
    dec = ame.decompose(group, dense_budget=args.dense_budget)
    verdicts = ame.reduce_ame(group, dec) if args.verify else []
    text = ame.format_decomposition_report(dec, verdicts)
    _write_output(text, args.out)
    return 0


def cmd_search(args) -> int:
    shard = _parse_shard(args.shard) if args.shard is not None else None
    result = search.search_ame(
        args.parties,
        args.dim,
        mode=args.mode,
        shard=shard,
        search_budget=args.search_budget,
    )
    _write_output(search.format_search_report(args.parties, args.dim, result), args.out)
    return 0


def cmd_nogo(args) -> int:
    if args.facts is None:
        facts = nogo.default_facts()
    else:
        with open(args.facts) as handle:
            facts = nogo.load_facts(handle.read())
    table = nogo.propagate(facts, max_parties=args.max_parties, max_dim=args.max_dim)
    _write_output(nogo.emit_table(table, fmt=args.format), args.out)
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The stabame parser and its subcommands' parsers by name, built once per process.

    Shared by every call: parse with them, never change them.
    """
    root = argparse.ArgumentParser(
        prog="stabame",
        description="Qudit stabilizer toolkit: AME verification, prime-power "
        "decomposition, graph-state search, and no-go tables.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a generator file for a standard state")
    p.add_argument("kind", choices=["ghz", "bell", "graph"])
    p.add_argument("--dim", type=int, required=True, help="local dimension D")
    p.add_argument("--parties", type=int, default=2, help="number of parties n")
    p.add_argument("--adjacency", help="upper-triangle entries, space separated (graph)")
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("verify", help="check whether a generator file is AME")
    p.add_argument("gens", help="generator file")
    p.add_argument("--method", choices=["symbolic", "dense", "both"], default="symbolic")
    p.add_argument("--dense-budget", type=int, default=statevec.DEFAULT_DENSE_BUDGET)
    p.add_argument("--out", help="report file (default: stdout)")

    p = sub.add_parser("decompose", help="split a composite-D group into prime-power factors")
    p.add_argument("gens", help="generator file")
    p.add_argument("--no-verify", dest="verify", action="store_false",
                   help="skip the per-factor AME verdict lines")
    p.add_argument("--dense-budget", type=int, default=statevec.DEFAULT_DENSE_BUDGET)
    p.add_argument("--out", help="report file (default: stdout)")

    p = sub.add_parser("search", help="exhaustive graph-state AME search at (n, d)")
    p.add_argument("--parties", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mode", choices=["first", "exhaustive"], default="exhaustive")
    p.add_argument("--shard", help="candidate index range start:end")
    p.add_argument("--search-budget", type=int, default=search.DEFAULT_SEARCH_BUDGET)
    p.add_argument("--out", help="witness/certificate file (default: stdout)")

    p = sub.add_parser("nogo", help="emit the (n, D) stabilizer-AME exclusion table")
    p.add_argument("--facts", help="facts file (default: the shipped base fact)")
    p.add_argument("--max-parties", type=int, default=nogo.DEFAULT_MAX_PARTIES)
    p.add_argument("--max-dim", type=int, default=nogo.DEFAULT_MAX_DIM)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out", help="table file (default: stdout)")

    for name, parser in sub.choices.items():
        parser.set_defaults(command=name)
    return root, sub.choices


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the parser of the subcommand ``argv[0]`` names, or the root one."""
    root, commands = _parsers()
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:])
    return root.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse printed --help (0) or a usage error
        return 0 if exc.code == 0 else 1
    # the handlers are looked up on each call, so a replaced or traced cmd_* runs
    handler = {
        "construct": cmd_construct,
        "verify": cmd_verify,
        "decompose": cmd_decompose,
        "search": cmd_search,
        "nogo": cmd_nogo,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
