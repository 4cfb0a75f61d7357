"""Fuzz and round-trip properties of the text parsers.

Every bad input must raise ValueError (FactsError is one); anything else is a
crash. The examples are derandomized and bounded, so each run checks the same
inputs in a few seconds.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stabame.nogo import emit_table, load_facts, parse_table_csv, propagate
from stabame.pauli import format_pauli, make_pauli, parse_pauli
from stabame.search import GraphState, format_witness_line, num_edge_slots, parse_witness_line
from stabame.stabgroup import StabilizerGroup, format_generator_file, parse_generator_file

# On a failure, hypothesis imports libcst to suggest a patch, and that import
# warns; the failure, not this warning, is what the report should show.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
ROUND_TRIP = settings(FUZZ, max_examples=60)

# Characters the formats use, characters int() and str.split() read in
# unexpected ways (underscores, non-ASCII digits and whitespace, line
# separators) and plain junk.
ALPHABET = "0123456789 -+|:#,\\\n\t._eExnD\x0b\x1c\x85  ٣"
TOKENS = st.one_of(
    st.integers(-4, 40).map(str),
    st.integers(2**62, 2**70).map(str),
    st.sampled_from(
        ["|", ":", "#", ",", "", "n\\D", "noAME", "noStabAME", "stabAMEExists",
         "excluded", "witness", "unknown", "x", "1_0", "٣", "1e3", "-0", "+2"]
    ),
)
# Lines of tokens joined by spaces, commas or pipes, so that inputs often get
# past the first checks of each format.
LINES = st.lists(
    st.tuples(st.lists(TOKENS, max_size=8), st.sampled_from([" ", ",", " | "])).map(
        lambda pair: pair[1].join(pair[0])
    ),
    max_size=6,
).map("\n".join)
TEXTS = st.one_of(st.text(ALPHABET, max_size=60), LINES)


def parses_or_refuses(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@FUZZ
@given(TEXTS)
def test_parse_generator_file_returns_or_raises_value_error(text):
    parses_or_refuses(parse_generator_file, text)


@FUZZ
@given(st.tuples(st.integers(-1, 12), st.integers(-1, 4), st.integers(0, 4)), LINES)
def test_parse_generator_file_with_a_well_formed_header(header, body):
    d, n, k = header
    lines = body.splitlines() + ["0 | 1 | 0"] * k
    parses_or_refuses(parse_generator_file, "\n".join([f"{d} {n} {k}", *lines[:k]]))


@FUZZ
@given(TEXTS)
def test_parse_witness_line_returns_or_raises_value_error(text):
    parses_or_refuses(parse_witness_line, text)


@FUZZ
@given(TEXTS)
def test_load_facts_returns_or_raises_value_error(text):
    parses_or_refuses(load_facts, text)


@st.composite
def csv_tables(draw):
    """A header and rows that are mostly well formed, some a cell too long."""
    width = draw(st.integers(0, 4))
    integers = st.one_of(st.integers(-3, 40).map(str), TOKENS)
    statuses = st.one_of(st.sampled_from(["excluded", "witness", "unknown"]), TOKENS)
    header = ["n\\D", *draw(st.lists(integers, min_size=width, max_size=width))]
    row = st.tuples(integers, st.lists(statuses, min_size=width, max_size=width + 1))
    rows = [[n, *cells] for n, cells in draw(st.lists(row, max_size=4))]
    return "\n".join(map(",".join, [header, *rows]))


@FUZZ
@given(st.one_of(TEXTS, csv_tables()))
def test_parse_table_csv_returns_or_raises_value_error(text):
    parses_or_refuses(parse_table_csv, text)


@st.composite
def paulis(draw, dimension, parties):
    exponents = st.lists(st.integers(-3 * dimension, 3 * dimension), min_size=parties,
                         max_size=parties)
    return make_pauli(dimension, parties, draw(st.integers(-50, 50)), draw(exponents),
                      draw(exponents))


@st.composite
def groups(draw):
    d, n = draw(st.integers(2, 30)), draw(st.integers(1, 5))
    gens = draw(st.lists(paulis(d, n), max_size=5))
    return StabilizerGroup(d, n, tuple(gens))


@ROUND_TRIP
@given(groups())
def test_generator_files_round_trip(group):
    assert parse_generator_file(format_generator_file(group, header_comment="c")) == group
    for p in group.generators:
        assert parse_pauli(format_pauli(p), group.dimension, group.parties) == p


@st.composite
def graphs(draw):
    d, n = draw(st.integers(2, 2**70)), draw(st.integers(1, 7))
    entries = st.integers(0, d - 1)
    upper = draw(st.lists(entries, min_size=num_edge_slots(n), max_size=num_edge_slots(n)))
    return GraphState(d, n, tuple(upper))


@ROUND_TRIP
@given(graphs())
def test_witness_lines_round_trip(graph):
    assert parse_witness_line(format_witness_line(graph)) == graph


FACT_LINES = st.tuples(
    st.integers(2, 9),
    st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 49]),
    st.sampled_from(["noAME", "noStabAME", "stabAMEExists"]),
    st.sampled_from(["", "ref", "two words"]),
)


@ROUND_TRIP
@given(st.lists(FACT_LINES, max_size=6, unique_by=lambda f: f[:2]))
def test_facts_files_round_trip_and_tables_read_back(rows):
    text = "# facts\n" + "".join(f"{n} {q} {status} {source}\n" for n, q, status, source in rows)
    facts = load_facts(text)
    assert [(f.parties, f.local_dim, f.status, f.source) for f in facts] == rows
    table = propagate(facts, 6, 30)
    statuses = parse_table_csv(emit_table(table, "csv"))
    assert statuses == {key: cell.status for key, cell in table.cells.items()}
