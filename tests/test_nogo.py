import xml.etree.ElementTree as ET

import pytest

from stabame.errors import FactsError
from stabame.nogo import (
    CELL_EXCLUDED,
    CELL_UNKNOWN,
    CELL_WITNESS,
    KnownFact,
    default_facts,
    emit_table,
    load_facts,
    parse_table_csv,
    propagate,
)


def test_load_facts_examples():
    facts = load_facts("4 2 noAME higuchi2000\n2 2 stabAMEExists bell\n")
    assert facts[0] == KnownFact(4, 2, "noAME", "higuchi2000")
    assert facts[1] == KnownFact(2, 2, "stabAMEExists", "bell")
    assert facts[0].negative and not facts[1].negative


def test_load_facts_comments_and_blank_lines():
    facts = load_facts("# header\n\n4 2 noAME src with spaces\n")
    assert facts == [KnownFact(4, 2, "noAME", "src with spaces")]


def test_load_facts_rejects_non_prime_power():
    with pytest.raises(FactsError, match="line 1"):
        load_facts("4 6 noAME x\n")


def test_load_facts_rejects_malformed():
    with pytest.raises(FactsError, match="line 2"):
        load_facts("4 2 noAME ok\n4 2\n")
    with pytest.raises(FactsError):
        load_facts("4 two noAME x\n")
    with pytest.raises(FactsError):
        load_facts("4 2 maybe x\n")


def test_load_facts_rejects_status_conflict():
    with pytest.raises(FactsError, match="conflicting"):
        load_facts("2 2 noAME bogus\n2 2 stabAMEExists bell\n")
    # a repeated consistent fact is fine
    load_facts("4 2 noAME a\n4 2 noStabAME b\n")


def test_default_facts_is_single_base_fact():
    facts = default_facts()
    assert len(facts) == 1
    assert (facts[0].parties, facts[0].local_dim, facts[0].status) == (4, 2, "noAME")


def test_propagate_row_n4_mod4():
    table = propagate(default_facts(), max_parties=8, max_dim=36)
    excluded = sorted(d for (n, d), c in table.cells.items() if n == 4 and c.status == CELL_EXCLUDED)
    assert excluded == [2, 6, 10, 14, 18, 22, 26, 30, 34]
    assert excluded == [d for d in range(2, 37) if d % 4 == 2]
    # nothing excluded in other rows
    for (n, d), cell in table.cells.items():
        if n != 4:
            assert cell.status == CELL_UNKNOWN


def test_propagate_no_facts_all_unknown():
    table = propagate([], max_parties=4, max_dim=10)
    assert all(c.status == CELL_UNKNOWN for c in table.cells.values())


def test_propagate_added_row_7():
    facts = default_facts() + [KnownFact(7, 2, "noAME", "table")]
    table = propagate(facts, max_parties=8, max_dim=36)
    excluded7 = sorted(d for (n, d), c in table.cells.items() if n == 7 and c.status == CELL_EXCLUDED)
    assert excluded7 == [d for d in range(2, 37) if d % 4 == 2]


def test_propagate_witness_cells():
    facts = [KnownFact(2, 2, "stabAMEExists", "bell")]
    table = propagate(facts, max_parties=4, max_dim=6)
    assert table.cells[(2, 2)].status == CELL_WITNESS
    assert table.cells[(2, 4)].status == CELL_UNKNOWN  # no propagation of existence


def test_propagate_monotonicity():
    base = propagate(default_facts(), max_parties=8, max_dim=36)
    more = propagate(
        default_facts() + [KnownFact(4, 3, "noStabAME", "x"), KnownFact(6, 5, "noAME", "y")],
        max_parties=8,
        max_dim=36,
    )
    for key, cell in base.cells.items():
        if cell.status == CELL_EXCLUDED:
            assert more.cells[key].status == CELL_EXCLUDED


def test_propagate_divisor_coherence():
    # if (n, D) is excluded via factor q, every in-range multiple of D that
    # keeps q as one of its prime-power factors is excluded too
    from stabame.ring import factorize

    table = propagate(default_facts(), max_parties=8, max_dim=36)
    for (n, d), cell in table.cells.items():
        if cell.status != CELL_EXCLUDED:
            continue
        triggering = [
            q for q in factorize(d).prime_powers if any(f"q={q} " in r or r.startswith(f"factor q={q}") for r in cell.detail)
        ]
        assert triggering
        for mult in range(2 * d, table.max_dim + 1, d):
            if any(q in factorize(mult).prime_powers for q in triggering):
                assert table.cells[(n, mult)].status == CELL_EXCLUDED


def test_propagate_soundness_conflict_aborts():
    facts = [KnownFact(2, 2, "noAME", "bogus"), KnownFact(2, 2, "stabAMEExists", "bell")]
    with pytest.raises(FactsError, match="conflicting|inconsistent"):
        propagate(facts, max_parties=4, max_dim=6)


def test_excluded_cells_carry_reasons():
    table = propagate(default_facts(), max_parties=6, max_dim=36)
    cell = table.cells[(4, 6)]
    assert cell.status == CELL_EXCLUDED
    assert any("q=2" in r for r in cell.detail)
    assert any("higuchi2000" in r for r in cell.detail)


def test_csv_roundtrip_and_shape():
    table = propagate(default_facts(), max_parties=5, max_dim=12)
    text = emit_table(table, "csv")
    statuses = parse_table_csv(text)
    assert statuses == {key: cell.status for key, cell in table.cells.items()}
    header = text.splitlines()[0]
    assert header.startswith("n\\D,2,3,4")
    # reason comments present for audit
    assert any(line.startswith("# reason n=4 D=2") for line in text.splitlines())


def test_csv_single_unknown_cell():
    table = propagate([], max_parties=2, max_dim=2)
    text = emit_table(table, "csv")
    assert text == "n\\D,2\n2,unknown\n"


@pytest.mark.parametrize("max_parties", [2, 3, 5])
@pytest.mark.parametrize("max_dim", [2, 3, 4, 7])
def test_csv_roundtrips_on_small_grids(max_parties, max_dim):
    facts = load_facts("2 2 stabAMEExists bell\n3 2 noStabAME x\n4 4 noAME y\n")
    table = propagate(facts, max_parties=max_parties, max_dim=max_dim)
    statuses = parse_table_csv(emit_table(table, "csv"))
    assert statuses == {key: cell.status for key, cell in table.cells.items()}
    assert len(statuses) == (max_parties - 1) * (max_dim - 1)


@pytest.mark.parametrize("max_parties, max_dim", [(1, 36), (8, 1), (0, 0), (-3, 5)])
def test_propagate_rejects_grid_bounds_below_2(max_parties, max_dim):
    # once: --max-dim 1 wrote the header "n\D," and empty rows, which the
    # CSV reader could not read back
    with pytest.raises(ValueError, match="grid bounds must be >= 2"):
        propagate(default_facts(), max_parties=max_parties, max_dim=max_dim)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "# reason only\n",
        "n\\D,2,3\n4,unknown\n",
        "n\\D,2\n4,unknown,witness\n",
        "n\\D,2\n4,maybe\n",
        "n\\D,2\n4,\n",
        "n,2\n4,unknown\n",
    ],
)
def test_parse_table_csv_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_table_csv(text)


def test_svg_is_valid_xml_and_deterministic():
    table = propagate(default_facts(), max_parties=8, max_dim=36)
    svg1 = emit_table(table, "svg")
    svg2 = emit_table(propagate(default_facts(), max_parties=8, max_dim=36), "svg")
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    # one rect per cell plus three legend swatches
    assert len(rects) == 7 * 35 + 3
    # row n=4 is red exactly at D = 2 mod 4
    reds = 0
    for el in rects:
        if el.get("fill") == "#c0392b":
            reds += 1
    assert reds == 9 + 1  # nine excluded cells plus the legend swatch


def test_emit_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_table(propagate([], 2, 2), "pdf")
