import hashlib
import random

import numpy as np
import pytest

from conftest import graph_from_index
from stabame import search
from stabame.ame import verify_ame_symbolic
from stabame.errors import BudgetExceededError
from stabame.search import (
    GraphState,
    format_certificate,
    format_search_report,
    format_witness_line,
    graph_to_group,
    num_edge_slots,
    parse_witness_line,
    search_ame,
)
from stabame.stabgroup import ame_subsets, validate
from stabame.statevec import state_from_group, verify_ame_dense


def test_graph_state_validation():
    # a graph is its upper triangle, so asymmetric or looped graphs cannot be written
    for n, upper in ((2, ()), (2, (0, 1)), (3, (1, 1)), (1, (0,))):
        with pytest.raises(ValueError, match=f"expected {n * (n - 1) // 2} entries"):
            GraphState(2, n, upper)
    for upper in ((-1, 0, 0), (0, 2, 0), (0, 0, 3)):
        with pytest.raises(ValueError, match="out of range"):
            GraphState(2, 3, upper)
    graph = GraphState(3, 3, (1, 2, 0))
    assert graph.adjacency == ((0, 1, 2), (1, 0, 0), (2, 0, 0))


def test_witness_lines_need_a_graph():
    # once parsed: a 0-party graph, a graph over Z_1 and one of -1 parties
    for line, message in (
        ("0 2 :", "parties must be >= 1, got 0"),
        ("3 1 : 0 0 0", "dimension must be >= 2, got 1"),
        ("-1 2 : 0", "parties must be >= 1, got -1"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_witness_line(line)


def test_graph_to_group_empty_graph_stabilizes_plus_states():
    g = graph_to_group(GraphState(2, 2, (0,)))
    assert validate(g).stabilizes_unique_state
    st = state_from_group(g)
    assert np.abs(st.amplitudes - 0.5).max() < 1e-9  # |+>|+>


def test_graph_single_edge_is_ame_2_2():
    g = graph_to_group(GraphState(2, 2, (1,)))
    assert verify_ame_symbolic(g).is_ame
    assert verify_ame_dense(state_from_group(g)).is_ame


def test_graph_complete_qutrit_triangle_is_ame_3_3():
    g = graph_to_group(GraphState(3, 3, (1, 1, 1)))
    assert verify_ame_symbolic(g).is_ame


def test_graph_groups_always_valid_random():
    rng = np.random.default_rng(79)
    for d in (2, 3, 4, 6, 12):
        for n in (2, 3, 4):
            for _ in range(3):
                entries = [int(v) for v in rng.integers(0, d, num_edge_slots(n))]
                g = graph_to_group(GraphState(d, n, tuple(entries)))
                report = validate(g)
                assert report.stabilizes_unique_state
                assert report.order == d**n


def test_candidate_indexing_is_lexicographic():
    assert graph_from_index(2, 3, 0).upper == (0, 0, 0)
    assert graph_from_index(2, 3, 1).upper == (0, 0, 1)
    assert graph_from_index(2, 3, 4).upper == (1, 0, 0)
    assert graph_from_index(3, 3, 26).upper == (2, 2, 2)
    with pytest.raises(ValueError):
        graph_from_index(2, 3, 8)


def test_search_4_2_exhaustive_empty():
    result = search_ame(4, 2, mode="exhaustive")
    assert result.found == ()
    assert result.searched == 64
    assert result.exhausted


def test_search_4_3_first_witness():
    result = search_ame(4, 3, mode="first")
    assert len(result.found) == 1
    assert not result.exhausted
    group = graph_to_group(result.found[0])
    assert verify_ame_symbolic(group).is_ame
    dense = verify_ame_dense(state_from_group(group))
    assert dense.is_ame and dense.worst_deviation < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_search_pairs_have_witnesses(d):
    result = search_ame(2, d, mode="exhaustive")
    assert result.exhausted and result.searched == d
    assert len(result.found) >= 1
    for graph in result.found:
        g = graph_to_group(graph)
        assert verify_ame_symbolic(g).is_ame
        assert verify_ame_dense(state_from_group(g)).is_ame


def test_search_determinism():
    a = search_ame(3, 3, mode="exhaustive")
    b = search_ame(3, 3, mode="exhaustive")
    assert a == b
    assert a.searched == 27


def test_search_sharding_composes():
    full = search_ame(3, 3, mode="exhaustive")
    parts = [search_ame(3, 3, shard=(0, 10)), search_ame(3, 3, shard=(10, 27))]
    merged = tuple(g for part in parts for g in part.found)
    assert merged == full.found
    assert sum(p.searched for p in parts) == full.searched
    assert not parts[0].exhausted
    with pytest.raises(ValueError):
        search_ame(3, 3, shard=(5, 100))


def test_search_budget():
    # one rule in both modes: the range scanned must fit the budget
    for mode in ("exhaustive", "first"):
        with pytest.raises(BudgetExceededError, match="^729 candidates exceed .* of 100$"):
            search_ame(4, 3, mode=mode, search_budget=100)
    # a first-mode shard within the budget still finds the first witness,
    # the 124th candidate of the whole space, and stops there
    first = search_ame(4, 3, mode="first", shard=(100, 200), search_budget=100)
    assert first.searched == 24 and first.found == search_ame(4, 3, mode="first").found
    partial = search_ame(4, 3, mode="first", shard=(0, 100))
    assert format_search_report(4, 3, partial) == "PARTIAL n=4 d=3 searched=100 witnesses=0\n"
    # the budget bounds the shard, not the 4^15 candidates of the whole space
    shard = search_ame(6, 4, shard=(0, 10))
    assert format_search_report(6, 4, shard) == "PARTIAL n=6 d=4 searched=10 witnesses=0\n"
    with pytest.raises(BudgetExceededError):
        search_ame(6, 4, shard=(0, 11), search_budget=10)


def test_plan_entries_count_the_ame_subsets_the_plan_is_built_from():
    for n in range(1, 17):
        k = n // 2
        assert search._minor_plan(n).blocks.size == sum(1 for _ in ame_subsets(n)) * k * (n - k)


def test_the_plan_bound_admits_16_parties_and_refuses_more_before_any_plan(monkeypatch):
    assert search_ame(16, 2, shard=(0, 1)).searched == 1
    assert search._minor_plan(16).blocks.size == 411840

    def no_plan(parties):
        raise AssertionError("a refused search must not build its plan")

    monkeypatch.setattr(search, "_minor_plan", no_plan)
    for parties in (17, 41, 42, 2000, 10**9):
        for mode in ("first", "exhaustive"):
            with pytest.raises(
                BudgetExceededError, match=f"^the search admits at most 16 parties, got {parties}$"
            ):
                search_ame(parties, 2, mode=mode, shard=(0, 1))


def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError, match="parties must be >= 1, got 0"):
        search_ame(0, 2)
    with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
        search_ame(2, 1)


def test_search_rejects_unknown_mode():
    with pytest.raises(ValueError):
        search_ame(2, 2, mode="everything")


def test_witness_line_roundtrip():
    graph = GraphState(3, 4, (0, 1, 1, 1, 2, 0))
    line = format_witness_line(graph)
    assert line == "4 3 : 0 1 1 1 2 0"
    assert parse_witness_line(line) == graph
    with pytest.raises(ValueError):
        parse_witness_line("nonsense")
    with pytest.raises(ValueError, match="expected 6 entries, got 2"):
        parse_witness_line("4 3 : 0 1")
    with pytest.raises(ValueError, match="adjacency entry 3 out of range"):
        parse_witness_line("4 3 : 0 1 1 1 2 3")


def test_a_one_party_witness_line_ends_at_the_colon():
    # once "1 2 : ", which the grammar ``n d : a_12 ...`` does not admit
    report = format_search_report(1, 2, search_ame(1, 2))
    assert report == "1 2 :\nEXHAUSTED n=1 d=2 searched=1 witnesses=1\n"
    for line in ("1 2 :", "1 2 : "):
        assert parse_witness_line(line) == GraphState(2, 1, ())


def test_certificate_and_report_format():
    assert (
        format_certificate(4, 2, 64, 0) == "EXHAUSTED n=4 d=2 searched=64 witnesses=0"
    )
    result = search_ame(4, 2, mode="exhaustive")
    report = format_search_report(4, 2, result)
    assert report == (
        "EXHAUSTED n=4 d=2 searched=64 witnesses=0\nNO-STABILIZER-AME n=4 d=2\n"
    )
    partial = search_ame(3, 2, shard=(0, 4))
    text = format_search_report(3, 2, partial)
    assert text.splitlines()[-1].startswith("PARTIAL n=3 d=2 searched=4")


def test_claim_strength_follows_graph_search_completeness():
    from stabame.search import graph_search_is_complete

    # prime d: graph states cover all stabilizer states (up to local Clifford)
    assert graph_search_is_complete(2) and graph_search_is_complete(5)
    # prime powers with e >= 2 and composites: not established, stay cautious
    assert not graph_search_is_complete(4)
    assert not graph_search_is_complete(6)

    result = search_ame(4, 2, mode="exhaustive")
    assert format_search_report(4, 2, result).endswith("\nNO-STABILIZER-AME n=4 d=2\n")
    result = search_ame(4, 4, mode="exhaustive")
    assert not result.found
    assert format_search_report(4, 4, result).endswith("\nNO-GRAPH-STATE-AME n=4 d=4\n")
    # a non-empty exhaustion never carries a claim line
    pair = search_ame(2, 2, mode="exhaustive")
    assert "NO-" not in format_search_report(2, 2, pair)


def _symbolic_witnesses(parties, dimension, start, end):
    """The graphs in [start, end) that verify_ame_symbolic calls AME.

    test_ame checks verify_ame_symbolic against group enumeration.
    """
    graphs = (graph_from_index(dimension, parties, i) for i in range(start, end))
    return tuple(g for g in graphs if verify_ame_symbolic(graph_to_group(g)).is_ame)


@pytest.mark.parametrize(
    "parties, dimension", [(3, d) for d in range(2, 13)] + [(4, 3), (5, 2)]
)
def test_block_minor_search_agrees_with_symbolic_verifier_on_full_cells(parties, dimension):
    result = search_ame(parties, dimension)
    total = dimension ** num_edge_slots(parties)
    assert result.exhausted and result.searched == total
    assert result.found == _symbolic_witnesses(parties, dimension, 0, total)


@pytest.mark.parametrize("parties", range(2, 8))
def test_block_minor_search_agrees_with_symbolic_verifier_on_random_shards(parties):
    rng = random.Random(1000 + parties)  # exact draws past int64, e.g. 12^21 at n=7
    for dimension in (4, 6, 8, 9, 12):
        total = dimension ** num_edge_slots(parties)
        size = min(20, total)
        start = rng.randrange(total - size + 1)
        result = search_ame(parties, dimension, shard=(start, start + size))
        assert result.searched == size
        assert result.found == _symbolic_witnesses(parties, dimension, start, start + size)


def test_witness_whose_minors_are_not_units():
    # AME over Z_6, yet for S = {2, 4} the 2x2 minors of A[S, S^c] are
    # 3, 2, 0 mod 6: only their gcd with 6 is a unit, no single minor is.
    graph = GraphState(6, 5, (2, 3, 1, 2, 0, 5, 3, 2, 5, 4))
    a = graph.adjacency
    top, bottom = a[2][:2] + a[2][3:4], a[4][:2] + a[4][3:4]  # columns 0, 1, 3
    minors = {
        (top[i] * bottom[j] - top[j] * bottom[i]) % 6 for i, j in ((0, 1), (0, 2), (1, 2))
    }
    assert minors == {3, 2, 0}
    assert verify_ame_symbolic(graph_to_group(graph)).is_ame
    assert graph_from_index(6, 5, 25574722) == graph
    assert search_ame(5, 6, shard=(25574722, 25574723)).found == (graph,)


@pytest.mark.parametrize(
    "parties, dimension, start, end",
    [
        (8, 5, 5**28 - 2, 5**28),  # the top of a space past int64
        (8, 5, 5**26 - 3, 5**26 + 3),  # a carry through every low digit
        (2, 2**64 + 13, 0, 3),  # no digit fits int64
    ],
)
def test_search_is_exact_past_int64(parties, dimension, start, end):
    result = search_ame(parties, dimension, shard=(start, end))
    assert result.searched == end - start
    assert result.found == _symbolic_witnesses(parties, dimension, start, end)


@pytest.mark.parametrize(
    "parties, dimension",
    [(3, 2), (5, 6), (8, 5), (10, 3), (4, 2**31 - 1), (4, 2**40 + 15), (2, 2**64 + 13)],
)
def test_candidate_digits_match_the_scalar_decoder(parties, dimension):
    # a range that starts just below d^k - 1 carries through its k low digits
    rng = random.Random(parties)
    slots = num_edge_slots(parties)
    dtype = np.int64 if dimension <= search.INT64_DIMENSION_LIMIT else object
    for k in range(1, slots + 1):
        first = dimension**k - 1 - rng.randrange(min(dimension**k, 5))
        count = min(rng.randrange(1, 40), dimension**slots - first)
        digits = search._candidate_digits(dimension, slots, first, count, dtype)
        assert digits.dtype == dtype
        graphs = (graph_from_index(dimension, parties, i) for i in range(first, first + count))
        assert digits.tolist() == [list(g.upper) for g in graphs]


@pytest.mark.parametrize("dimension", [2**31 - 1, 2**40 + 15])
def test_minors_of_large_residues_are_exact(dimension):
    # For S = {0, 1} the block [[d-1, 1], [1, d-1]] has determinant
    # (d-1)^2 - 1 = 0 mod d, and (d-1)^2 fits in int64 only for the first d.
    upper = [1, dimension - 1, 1, 1, dimension - 1, 2]
    index = sum(e * dimension ** (5 - p) for p, e in enumerate(upper))
    assert graph_from_index(dimension, 4, index).upper == tuple(upper)
    assert search_ame(4, dimension, shard=(index, index + 1)).found == ()
    start, end = index - 2, index + 3
    found = search_ame(4, dimension, shard=(start, end)).found
    assert found == _symbolic_witnesses(4, dimension, start, end)


def test_search_results_do_not_depend_on_the_chunk_size(monkeypatch):
    full = search_ame(4, 3)
    first = search_ame(4, 3, mode="first", shard=(50, 729))
    monkeypatch.setattr(search, "MAX_CHUNK", 7)
    assert search_ame(4, 3) == full
    assert search_ame(4, 3, mode="first", shard=(50, 729)) == first
    # the reported witness is the last candidate scanned and the only one
    assert first.found == (graph_from_index(3, 4, 49 + first.searched),)
    assert search_ame(4, 3, shard=(50, 50 + first.searched)).found == first.found


# SHA-256 of format_search_report(n, d, search_ame(n, d)), taken when every
# witness was still built by decoding its index again (graph_from_index) and
# expanded into a full adjacency matrix.
REPORT_DIGESTS = {
    (4, 3): "410c957962c41fcbdf28ab264774cc114154c7bebc657e4700dfdeb82c577c87",
    (5, 3): "2ffbb7723e538bf8ed7818c67b94f992b2828a5b68423e28f48d8e7afa5bd9bf",
    (6, 2): "3f3d757aa0c1cddcbd5c25c59128d1762b80ed12f088c08b4e1b405d06249251",
    (4, 6): "283b001ec82362411c3d912aabb2ca923e233bfe4493f7191434c50758d6cc7b",
}


@pytest.mark.parametrize("parties, dimension", sorted(REPORT_DIGESTS))
def test_search_reports_are_byte_identical_to_the_index_decoder(parties, dimension):
    report = format_search_report(parties, dimension, search_ame(parties, dimension))
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == REPORT_DIGESTS[parties, dimension]


def test_search_builds_witnesses_from_the_decoded_rows(monkeypatch):
    # Every candidate index is decoded once, in chunks that tile the range, and
    # each witness is built from its decoded row: it is the scalar decoder's
    # graph at its index, with plain int entries.
    decoded = []
    real = search._candidate_digits

    def counted(dimension, slots, first, count, dtype):
        decoded.append((first, first + count))
        return real(dimension, slots, first, count, dtype)

    monkeypatch.setattr(search, "_candidate_digits", counted)
    monkeypatch.setattr(search, "MAX_CHUNK", 7)
    full = search_ame(4, 3)
    assert [a for a, _ in decoded] == [0] + [b for _, b in decoded[:-1]]
    assert decoded[-1][1] == 729 and len(full.found) > 0
    assert full.found == _symbolic_witnesses(4, 3, 0, 729)
    assert all(type(v) is int for w in full.found for v in w.upper)

    decoded.clear()
    first = search_ame(4, 3, mode="first", shard=(50, 729))
    assert [a for a, _ in decoded] == [50] + [b for _, b in decoded[:-1]]
    assert first.found == (graph_from_index(3, 4, 49 + first.searched),)
    assert all(type(v) is int for v in first.found[0].upper)
