"""No-go propagation: turn prime-power non-existence facts into an (n, D) table.

A stabilizer AME state in composite dimension D forces stabilizer AME states
at every prime-power factor of D, so a single non-existence fact at (n, q)
excludes every (n, D) whose factorization contains q. Only prime-power facts
are accepted as input; composite exclusions are always derived, never
asserted, which keeps the dataset minimal and the propagation rule visibly
load-bearing.

The grid is filled from the facts, not cell by cell: every cell starts as one
shared unknown cell, each non-existence fact (n, q) marks the multiples of q
whose q-part is exactly q, and each positive fact marks its own cell.

Facts file format (line oriented, '#' comments):
    n q status source...
with status one of noAME, noStabAME, stabAMEExists. A noAME fact implies
noStabAME.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from . import ring
from .errors import FactsError

STATUS_NO_AME = "noAME"
STATUS_NO_STAB_AME = "noStabAME"
STATUS_STAB_EXISTS = "stabAMEExists"
_STATUSES = (STATUS_NO_AME, STATUS_NO_STAB_AME, STATUS_STAB_EXISTS)

CELL_EXCLUDED = "excluded"
CELL_WITNESS = "witness"
CELL_UNKNOWN = "unknown"

DEFAULT_MAX_PARTIES = 8
DEFAULT_MAX_DIM = 36


@dataclass(frozen=True)
class KnownFact:
    parties: int
    local_dim: int
    status: str
    source: str
    # the prime p of local_dim = p**e, kept from the one factorization
    prime: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise FactsError(f"unknown status {self.status!r}")
        if self.parties < 2:
            raise FactsError(f"parties must be >= 2, got {self.parties}")
        factors = ring.factorize(self.local_dim).factors if self.local_dim >= 2 else ()
        if len(factors) != 1:
            raise FactsError(f"{self.local_dim} is not a prime power")
        object.__setattr__(self, "prime", factors[0][0])

    @property
    def negative(self) -> bool:
        return self.status in (STATUS_NO_AME, STATUS_NO_STAB_AME)


def load_facts(text: str) -> list[KnownFact]:
    """Parse a facts file; duplicate (n, q) entries with conflicting status abort."""
    facts = []
    seen: dict[tuple[int, int], KnownFact] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 3)
        if len(parts) < 3:
            raise FactsError(f"line {lineno}: expected 'n q status source...', got {line!r}")
        try:
            parties, local_dim = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FactsError(f"line {lineno}: bad integers in {line!r}") from exc
        status = parts[2]
        source = parts[3] if len(parts) > 3 else ""
        try:
            fact = KnownFact(parties, local_dim, status, source)
        except ValueError as exc:  # a FactsError, or a dimension factorize refuses
            raise FactsError(f"line {lineno}: {exc}") from exc
        key = (parties, local_dim)
        if key in seen and seen[key].negative != fact.negative:
            raise FactsError(
                f"line {lineno}: conflicting facts for (n={parties}, q={local_dim}): "
                f"{seen[key].status} [{seen[key].source}] vs {fact.status} [{fact.source}]"
            )
        seen.setdefault(key, fact)
        facts.append(fact)
    return facts


def default_facts() -> list[KnownFact]:
    """The single shipped base fact: no AME state of four qubits exists."""
    text = resources.files(__package__).joinpath("data/default_facts.txt").read_text()
    return load_facts(text)


@dataclass(frozen=True)
class Cell:
    status: str
    detail: tuple[str, ...] = ()


@dataclass(frozen=True)
class NoGoTable:
    max_parties: int
    max_dim: int
    cells: dict[tuple[int, int], Cell]


def propagate(
    facts: list[KnownFact],
    max_parties: int = DEFAULT_MAX_PARTIES,
    max_dim: int = DEFAULT_MAX_DIM,
) -> NoGoTable:
    """Fill the (n, D) grid: excluded when some prime-power factor of D carries
    a non-existence fact at (n, q); witness when a positive fact sits at (n, D)
    itself; unknown otherwise. An excluded cell lists one reason per such
    factor, in increasing-prime order.

    A pair of facts at the same (n, q), one negative and one positive, aborts
    with a diagnostic. No other list of facts can make a cell both excluded
    and witnessed: a positive fact sits at a prime power q = p**e, and the
    only non-existence fact that marks (n, q) is one at (n, q') whose q' is
    the full p-part of q, that is q' = q, the conflicting pair itself. The
    grid starts at n = 2 and D = 2, so a bound below 2 is refused.
    """
    if max_parties < 2 or max_dim < 2:
        raise ValueError(
            f"grid bounds must be >= 2, got max_parties={max_parties}, max_dim={max_dim}"
        )
    negative: dict[tuple[int, int], KnownFact] = {}
    positive: dict[tuple[int, int], KnownFact] = {}
    for fact in facts:
        key = (fact.parties, fact.local_dim)
        same, other = (negative, positive) if fact.negative else (positive, negative)
        if key in other:
            raise FactsError(
                f"conflicting facts for (n={key[0]}, q={key[1]}): "
                f"{fact.status} [{fact.source}] vs {other[key].status} [{other[key].source}]"
            )
        same.setdefault(key, fact)

    unknown = Cell(CELL_UNKNOWN)
    cells = {
        (n, dim): unknown for n in range(2, max_parties + 1) for dim in range(2, max_dim + 1)
    }
    # Facts in increasing-prime order, so each cell gets its reasons in the
    # order of its factors. D // q % p != 0 says the q-part of D is q itself.
    for fact in sorted(negative.values(), key=lambda f: f.prime):
        n, q = fact.parties, fact.local_dim
        if n > max_parties:
            continue
        reason = f"factor q={q} [{fact.source or fact.status}]"
        for dim in range(q, max_dim + 1, q):
            if (dim // q) % fact.prime:
                cells[n, dim] = Cell(CELL_EXCLUDED, cells[n, dim].detail + (reason,))
    for key, pos in positive.items():
        if key in cells:
            cells[key] = Cell(CELL_WITNESS, (pos.source or pos.status,))
    return NoGoTable(max_parties, max_dim, cells)


def emit_table(table: NoGoTable, fmt: str = "csv") -> str:
    if fmt == "csv":
        return _emit_csv(table)
    if fmt == "svg":
        return _emit_svg(table)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_csv(table: NoGoTable) -> str:
    dims = list(range(2, table.max_dim + 1))
    lines = ["n\\D," + ",".join(map(str, dims))]
    for n in range(2, table.max_parties + 1):
        row = [str(n)] + [table.cells[(n, d)].status for d in dims]
        lines.append(",".join(row))
    for n in range(2, table.max_parties + 1):
        for d in dims:
            cell = table.cells[(n, d)]
            if cell.status == CELL_EXCLUDED:
                lines.append(f"# reason n={n} D={d}: " + "; ".join(cell.detail))
    return "\n".join(lines) + "\n"


def parse_table_csv(text: str) -> dict[tuple[int, int], str]:
    """Read back the grid emitted by the CSV writer (reason comments ignored)."""
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty CSV table")
    header = rows[0].split(",")
    if header[0] != "n\\D":
        raise ValueError(f"bad CSV header {rows[0]!r}")
    dims = [int(tok) for tok in header[1:]]
    statuses: dict[tuple[int, int], str] = {}
    for row in rows[1:]:
        cols = row.split(",")
        if len(cols) != len(header):
            raise ValueError(f"CSV row {row!r} has {len(cols)} cells, header has {len(header)}")
        n = int(cols[0])
        for d, status in zip(dims, cols[1:]):
            if status not in (CELL_EXCLUDED, CELL_WITNESS, CELL_UNKNOWN):
                raise ValueError(f"unknown cell status {status!r} in CSV row {row!r}")
            statuses[(n, d)] = status
    return statuses


_SVG_COLORS = {
    CELL_EXCLUDED: "#c0392b",
    CELL_WITNESS: "#27ae60",
    CELL_UNKNOWN: "#c8c8c8",
}

_SVG_LEGEND = (
    (CELL_EXCLUDED, "excluded: no stabilizer AME(n,D) state exists"),
    (CELL_WITNESS, "witness: a stabilizer AME(n,D) state is known"),
    (CELL_UNKNOWN, "unknown"),
)


def _emit_svg(table: NoGoTable) -> str:
    cell = 18
    left, top = 46, 34
    dims = list(range(2, table.max_dim + 1))
    parties = list(range(2, table.max_parties + 1))
    width = left + len(dims) * cell + 12
    height = top + len(parties) * cell + 24 + 16 * len(_SVG_LEGEND) + 12

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        "<style>text{font-family:monospace;font-size:10px;}</style>",
        f'<text x="{left}" y="14">stabilizer AME existence by parties n and local dimension D</text>',
    ]
    for col, d in enumerate(dims):
        x = left + col * cell + cell // 2 - 3
        out.append(f'<text x="{x}" y="{top - 4}">{d}</text>')
    for row, n in enumerate(parties):
        y = top + row * cell + cell // 2 + 4
        out.append(f'<text x="{left - 18}" y="{y}">{n}</text>')
        for col, d in enumerate(dims):
            color = _SVG_COLORS[table.cells[(n, d)].status]
            x = left + col * cell
            yy = top + row * cell
            out.append(
                f'<rect x="{x}" y="{yy}" width="{cell - 1}" height="{cell - 1}" fill="{color}"/>'
            )
    legend_y = top + len(parties) * cell + 18
    for k, (status, text) in enumerate(_SVG_LEGEND):
        y = legend_y + 16 * k
        out.append(
            f'<rect x="{left}" y="{y - 9}" width="10" height="10" fill="{_SVG_COLORS[status]}"/>'
        )
        out.append(f'<text x="{left + 16}" y="{y}">{text}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
