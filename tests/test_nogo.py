import hashlib
import random
import xml.etree.ElementTree as ET

import pytest

from stabame import nogo
from stabame.errors import BudgetExceededError, FactsError
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
from stabame.ring import factorize


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


def test_load_facts_names_the_line_of_a_dimension_it_cannot_factor():
    # 1048583 * 1048589: two primes past the trial-division bound
    with pytest.raises(FactsError, match="line 2: cannot factor dimension 1099532599387"):
        load_facts("4 2 noAME ok\n4 1099532599387 noStabAME big\n")


def test_each_fact_is_factorized_once(monkeypatch):
    # 2**61 - 1 takes a Miller-Rabin certificate; propagate reads the prime
    # off the fact instead of factorizing q again
    from stabame import ring

    calls = []
    real = ring.factorize
    monkeypatch.setattr(ring, "factorize", lambda q: calls.append(q) or real(q))
    table = propagate(load_facts(f"4 {2**61 - 1} noStabAME big\n"))
    assert calls == [2**61 - 1]
    assert load_facts("4 8 noAME x\n")[0].prime == 2
    assert all(cell.status == CELL_UNKNOWN for cell in table.cells.values())


def test_load_facts_rejects_malformed():
    with pytest.raises(FactsError, match="line 2"):
        load_facts("4 2 noAME ok\n4 2\n")
    with pytest.raises(FactsError):
        load_facts("4 two noAME x\n")
    with pytest.raises(FactsError):
        load_facts("4 2 maybe x\n")
    with pytest.raises(FactsError, match="line 1: parties must be >= 2, got 1"):
        load_facts("1 2 noAME x\n")


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


def test_propagate_refuses_a_grid_past_its_cell_budget_before_building_a_cell(monkeypatch):
    # once: propagate(default_facts(), 8, 50_000) built 349 993 cells (0.2 s,
    # about 90 MB), so nogo --max-dim 100000000 asked for over 100 GB
    built = []
    monkeypatch.setattr(nogo, "Cell", lambda *a, **k: built.append(a))
    with pytest.raises(BudgetExceededError, match="699999993 grid cells exceed the budget"):
        propagate(default_facts(), 8, 100_000_000)
    assert built == []
    monkeypatch.setattr(nogo, "MAX_GRID_CELLS", 6)
    assert len(propagate([], 3, 4).cells) == len(propagate([], 4, 3).cells) == 6
    with pytest.raises(BudgetExceededError, match="8 grid cells exceed the budget of 6"):
        propagate([], 3, 5)


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


def seeded_facts(seed, max_parties, max_dim):
    """8 to 40 facts of all three statuses, some outside the grid, repeats
    included; a fact contradicting an earlier one at its (n, q) is skipped."""
    rng = random.Random(seed)
    prime_powers = [q for q in range(2, max_dim + 8) if factorize(q).num_factors == 1]
    facts, polarity = [], {}
    for k in range(rng.randint(8, 40)):
        n = rng.randint(2, max_parties + 2)
        q = rng.choice(prime_powers)
        status = rng.choice(["noAME", "noStabAME", "stabAMEExists"])
        negative = status != "stabAMEExists"
        if polarity.setdefault((n, q), negative) == negative:
            facts.append(KnownFact(n, q, status, f"ref{k}" if k % 5 else ""))
    return facts


# SHA-256 of the CSV and SVG tables of seeded_facts(seed, n, D), taken while
# every cell was built by looking up each prime-power factor of its D.
TABLE_DIGESTS = {
    (1, 40, 200): (
        "8953a54caba5c074b4a60fbc02b812f0e85a4445b1e758cb81c1b95925188f21",
        "fd6bfa5422ec755acf9e1c4367fb01e0956f05c2d1b137d654bb07d3758e0b62",
    ),
    (2, 24, 120): (
        "2277b6fb12c7c4039edc33db6a93b2ab54b714655c913fbf50b120a21f7d199c",
        "3c124efb70af81bfc543a9b2519285fdbd58f156330066b5128b6e01e951a73f",
    ),
    (3, 30, 90): (
        "b5323b783c7f52412680927a81b1e12400cc7587ae03555a5dc2b19b04f41cda",
        "815ee7c6eb190d03759b4c1ebe38c8ac4701314bfe64c1dc15320d754f6b112e",
    ),
    (4, 12, 36): (
        "acb1454173164804b5d8879826694f00f32ef69124516615c2571b0b5eb73874",
        "45e44c91ff97af0528084536dbd5afe56d0741c31034439a1f676c8e8adfe7db",
    ),
    (5, 5, 9): (
        "91b37329f237f81280435feecd5f7d917041fbe5a977ff77abf65ae2aa4264ce",
        "da2b12c29c257e1cc86ad0e79f34c69dc1fec0c97c23c89738fcccf73094dd1b",
    ),
    (6, 2, 2): (
        "8db86d3c87c32b3ff4eae375c9e0ade10537217d6a43506e65055d84bd92fd49",
        "e90976f1621338071081d57246657fa9e0ac9b31e89e7b7ed74a75ea4d26db82",
    ),
}


@pytest.mark.parametrize("seed, max_parties, max_dim", sorted(TABLE_DIGESTS))
def test_tables_are_byte_identical(seed, max_parties, max_dim):
    table = propagate(seeded_facts(seed, max_parties, max_dim), max_parties, max_dim)
    digests = tuple(
        hashlib.sha256(emit_table(table, fmt).encode()).hexdigest() for fmt in ("csv", "svg")
    )
    assert digests == TABLE_DIGESTS[seed, max_parties, max_dim]


def test_reasons_follow_prime_order():
    facts = [KnownFact(2, 3, "noAME", "three"), KnownFact(2, 8, "noStabAME", "")]
    cells = propagate(facts, 2, 48).cells
    assert cells[(2, 24)].detail == ("factor q=8 [noStabAME]", "factor q=3 [three]")
    assert cells[(2, 48)].detail == ("factor q=3 [three]",)  # its 2-part is 16


def test_conflicting_fact_pairs_keep_their_message():
    negative = KnownFact(3, 4, "noStabAME", "x")
    positive = KnownFact(3, 4, "stabAMEExists", "")
    with pytest.raises(FactsError) as first:
        propagate([negative, KnownFact(5, 2, "noAME", "y"), positive], 6, 20)
    assert str(first.value) == (
        "conflicting facts for (n=3, q=4): stabAMEExists [] vs noStabAME [x]"
    )
    with pytest.raises(FactsError) as second:
        propagate([positive, negative], 2, 2)
    assert str(second.value) == (
        "conflicting facts for (n=3, q=4): noStabAME [x] vs stabAMEExists []"
    )


def test_witness_cells_are_the_positive_facts_and_never_excluded():
    # Seeded fact lists with no conflicting pair: the excluded cells are
    # exactly those with a negative fact at one of their prime-power factors
    # (checked here by factorizing every D), the witness cells exactly the
    # positive facts inside the grid, and no cell is both. Near misses, a
    # positive fact at q = p**e beside a negative one at a proper power of p,
    # are the cells a divisibility rule instead of the q-part rule would get
    # wrong; the sweep must hold some.
    near_misses = 0
    for seed in range(60):
        rng = random.Random(seed)
        max_parties, max_dim = rng.randint(2, 10), rng.randint(2, 70)
        facts = seeded_facts(1000 + seed, max_parties, max_dim)
        cells = propagate(facts, max_parties, max_dim).cells
        negative = {(f.parties, f.local_dim) for f in facts if f.negative}
        excluded = {
            (n, d) for n, d in cells if any((n, q) in negative for q in factorize(d).prime_powers)
        }
        witnessed = {
            (f.parties, f.local_dim)
            for f in facts
            if not f.negative and (f.parties, f.local_dim) in cells
        }
        assert not excluded & witnessed
        assert {key for key, cell in cells.items() if cell.status == CELL_WITNESS} == witnessed
        assert {key for key, cell in cells.items() if cell.status == CELL_EXCLUDED} == excluded
        near_misses += sum(
            (n, q) in negative for n, d in witnessed for q in range(2, d) if d % q == 0
        )
    assert near_misses >= 3
