import hashlib
import inspect
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexnim import (
    MoveRule,
    bipartite_table,
    census,
    from_edge_mask,
    grundy_tables,
    grundy_value,
    to_graph6,
)
from vertexnim.exhaustive import _SEGMENT, _degree_parities, _level_tables, _xor_doubled
from vertexnim.graph import edge_slots

# derived by the sweep itself and double-checked against the per-graph
# engine below (n <= 4 exhaustively, larger n sampled)
VALUE_HISTOGRAMS = {
    0: {0: 1},
    1: {0: 1},
    2: {0: 1, 1: 1},
    3: {0: 5, 1: 3},
    4: {0: 23, 1: 29, 2: 12},
    5: {0: 529, 1: 375, 2: 120},
    6: {0: 9349, 1: 14689, 2: 8010, 3: 720},
    7: {0: 1015085, 1: 726327, 2: 304500, 3: 51240},
}

BIPARTITE_COUNTS = [1, 1, 2, 7, 41, 376, 5177, 103237]


class TestGrundyTables:
    @pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
    def test_matches_engine_exhaustively_small(self, rule, odd_tables, even_tables):
        tables = odd_tables if rule is MoveRule.ODD else even_tables
        for n in range(5):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = from_edge_mask(n, mask)
                assert tables[n][mask] == grundy_value(g, rule), (n, mask)

    @pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
    def test_matches_engine_sampled_large(self, rule, odd_tables, even_tables):
        tables = odd_tables if rule is MoveRule.ODD else even_tables
        for n in (5, 6, 7):
            size = 1 << (n * (n - 1) // 2)
            for mask in range(0, size, 4999):
                g = from_edge_mask(n, mask)
                assert tables[n][mask] == grundy_value(g, rule), (n, mask)

    def test_value_histograms(self, odd_tables):
        for n, expected in VALUE_HISTOGRAMS.items():
            histogram = {}
            for value in odd_tables[n]:
                histogram[value] = histogram.get(value, 0) + 1
            assert histogram == expected, n
            assert sum(expected.values()) == 1 << (n * (n - 1) // 2)

    def test_even_rule_is_vertex_parity(self, even_tables):
        for n, table in enumerate(even_tables):
            assert set(table) == {n % 2}

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            grundy_tables(8)

    def test_negative_size(self):
        with pytest.raises(ValueError, match="from 0 to at most 7, got -3"):
            grundy_tables(-3)

    @pytest.mark.parametrize("rule", ["odd", "even", 1, 0, None])
    def test_refuses_a_rule_that_is_not_a_move_rule(self, rule):
        with pytest.raises(ValueError, match="rule must be a MoveRule"):
            grundy_tables(3, rule)


class TestBipartiteTable:
    def test_matches_coloring_exhaustively(self):
        for n in range(7):
            flags = bipartite_table(n)
            for mask, flag in enumerate(flags):
                assert bool(flag) == from_edge_mask(n, mask).is_bipartite(), (n, mask)

    def test_counts(self):
        for n, expected in enumerate(BIPARTITE_COUNTS):
            assert sum(bipartite_table(n)) == expected, n

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            bipartite_table(8)

    def test_negative_size(self):
        with pytest.raises(ValueError, match="from 0 to at most 7, got -2"):
            bipartite_table(-2)


class TestCensus:
    def test_minimal_examples(self):
        report = census(5)
        examples = {v: to_graph6(g) for v, g in report.minimal_examples.items()}
        assert examples == {0: "?", 1: "A_", 2: "C{"}

    def test_minimal_grundy_3_needs_six_vertices(self):
        report = census(6)
        g = report.minimal_examples[3]
        assert (g.n, g.edge_count()) == (6, 5)
        assert to_graph6(g) == "ETQ?"
        assert grundy_value(g) == 3

    def test_rows_for_n_4(self):
        rows = [
            (r.grundy, r.edge_count, r.count) for r in census(4).rows if r.n == 4
        ]
        assert rows == [
            (0, 0, 1),
            (0, 2, 15),
            (0, 3, 4),
            (0, 4, 3),
            (1, 1, 6),
            (1, 3, 16),
            (1, 5, 6),
            (1, 6, 1),
            (2, 4, 12),
        ]

    def test_row_counts_match_engine_exhaustively(self):
        report = census(4)
        recount = {}
        for n in range(5):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = from_edge_mask(n, mask)
                key = (grundy_value(g), n, g.edge_count())
                recount[key] = recount.get(key, 0) + 1
        assert {(r.grundy, r.n, r.edge_count): r.count for r in report.rows} == recount

    def test_counts_cover_all_graphs(self):
        report = census(5)
        assert sum(r.count for r in report.rows) == report.graphs_evaluated
        assert report.graphs_evaluated == 1 + 1 + 2 + 8 + 64 + 1024

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            census(8)

    def test_largest_value_by_order(self):
        largest = [0] * 8
        for row in census(7).rows:
            largest[row.n] = max(largest[row.n], row.grundy)
        # a move removes one vertex, so past n = 7 the largest value grows by
        # at most one per vertex: value 4 needs 8 vertices, 5 needs 9, 6 needs 10
        assert largest == [0, 0, 1, 1, 2, 2, 3, 3]


@st.composite
def value_tables(draw):
    """Made-up sweep tables for levels 0 to at most 5: one byte per edge
    mask, each value drawn from a palette within 0-7, so some values may
    be missing."""
    palette = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8))
    spread = bytes(palette[x % len(palette)] for x in range(256))
    return [
        bytearray(draw(st.binary(min_size=size, max_size=size)).translate(spread))
        for size in (2 ** math.comb(k, 2) for k in range(draw(st.integers(0, 5)) + 1))
    ]


def counter_census(tables):
    """Rows and minimal examples tallied as a key byte per edge mask,
    ``value << 5 | edge count``, with ``Counter``."""
    counts = {}
    minima = {}
    for k, table in enumerate(tables):
        keys = bytes(v << 5 | bin(m).count("1") for m, v in enumerate(table))
        level = Counter(keys)
        for key, c in level.items():
            counts[key >> 5, k, key & 31] = c
        for key in sorted(level):
            if key >> 5 not in minima:
                minima[key >> 5] = from_edge_mask(k, keys.find(key))
    return sorted(counts.items()), dict(sorted(minima.items()))


@settings(max_examples=60, deadline=None)
@given(value_tables())
def test_tally_matches_a_counter_over_key_bytes(tables):
    def stub(max_n, rule=MoveRule.ODD):
        assert rule is MoveRule.ODD
        return tables[: max_n + 1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("vertexnim.exhaustive.grundy_tables", stub)
        report = census(len(tables) - 1)
    rows = [((r.grundy, r.n, r.edge_count), r.count) for r in report.rows]
    assert (rows, report.minimal_examples) == counter_census(tables)


def test_sweeps_take_no_budget():
    # the range check bounds a sweep, so it counts no graphs against a budget
    assert list(inspect.signature(grundy_tables).parameters) == ["max_n", "rule"]
    assert list(inspect.signature(census).parameters) == ["max_n"]


def test_paw_value_across_engines(odd_tables):
    paw = from_edge_mask(4, 15)
    assert grundy_value(paw) == 2
    assert odd_tables[4][15] == 2


# SHA-256 of each level's table, as computed by the per-mask sweep that the
# row sweep replaced
TABLE_DIGESTS = {
    MoveRule.ODD: [
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
        "50cedcd8875dcfa5e3b044358ab956d80cc558f5d42f47a42f141f1420dc72bf",
        "033d930c89283945a98f6f6445ba86a6e6e2773a508d99096bda9b40464a99f7",
        "f1f46503e368acf723426d961ad7a56ed353d85020ae96ad72b9c96ed3353e41",
        "9d94a4d65869941530fc4ce0d7f9e4383dfc33e16d0b0899013b88759f1ee85f",
        "ec44b4daeb108e8cf90a8960ad11651d29c7e5a005b5aa6d7475ec1c78abbf81",
    ],
    MoveRule.EVEN: [
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
        "04abc8821a06e5a30937967d11ad10221cb5ac3b5273e434f1284ee87129a061",
        "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
        "5a648d8015900d89664e00e125df179636301a2d8fa191c1aa2bd9358ea53a69",
        "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479",
        "6d75695d93deb1bf5805617cfba166466cf60dc0a99a8014fa58893f358f33b8",
    ],
}

# the same for bipartite_table(0..7), as computed by enumerating the
# submasks of every cut
BIPARTITE_DIGESTS = [
    "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2",
    "23e3afc91aba47e85a7f049b4a198554937d895760d796400f9182f859207c48",
    "75474ff06300b7cbae1af7bd3aacf533ccf1e0f246a2fab228d2330e5ab67a8a",
    "73c504cfac7413dda4a1583b6288520d6811f750275ba075fea2838eb4aaba16",
    "0044d5ac92893963a221fbee7bd1fe56597241052812994a4ff2d5ca9516c270",
    "60b9f0e0ae7b522e92808713469f1bab82778aad952641159ed936be81e73eb1",
]


def sha256(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


class TestPinnedBytes:
    @pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
    def test_grundy_tables(self, rule, odd_tables, even_tables):
        tables = odd_tables if rule is MoveRule.ODD else even_tables
        assert [sha256(t) for t in tables] == TABLE_DIGESTS[rule]

    def test_bipartite_tables(self):
        assert [sha256(bipartite_table(k)) for k in range(8)] == BIPARTITE_DIGESTS

    def test_census_7(self):
        report = census(7)
        rows = "\n".join(
            f"{r.grundy} {r.n} {r.edge_count} {r.count}" for r in report.rows
        )
        assert sha256(rows.encode()) == (
            "234677b72cc9c17c4d0cbaf1befba0bae672583e5d2041a9b07c522e4747238d"
        )
        examples = {v: to_graph6(g) for v, g in report.minimal_examples.items()}
        assert examples == {0: "?", 1: "A_", 2: "C{", 3: "ETQ?"}


def pext_child(k: int, mask: int, v: int) -> int:
    """The edge mask left by deleting ``v``, one slot at a time."""
    child = rank = 0
    for s, pair in enumerate(edge_slots(k)):
        if v not in pair:
            child |= (mask >> s & 1) << rank
            rank += 1
    return child


def degree_parities(k: int, mask: int) -> int:
    vector = 0
    for s, (i, j) in enumerate(edge_slots(k)):
        if mask >> s & 1:
            vector ^= 1 << i | 1 << j
    return vector


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=8))
def test_xor_doubled_xors_the_steps_of_each_slot(steps):
    table = _xor_doubled(steps)
    assert len(table) == 2 ** len(steps)
    for mask in range(2 ** len(steps)):
        expected = 0
        for s, step in enumerate(steps):
            if mask >> s & 1:
                expected ^= step
        assert table[mask] == expected, (steps, mask)


@pytest.mark.parametrize("k", range(8))
def test_row_plan_matches_a_per_mask_extract(k):
    """Every mask of levels 0-5, and a sample of levels 6 and 7: the
    degree-parity table and the row plan's parity vectors, gather patterns
    and offsets give each child's index, and a padding index where the
    vertex is not movable."""
    parities = _degree_parities(edge_slots(k))
    edge_parities = _xor_doubled([1] * math.comb(k, 2))
    patterns, tops, offsets = _level_tables(k)
    r = len(patterns)
    assert r == min(k, 5)
    parity = _degree_parities(edge_slots(r))
    row = len(parity)
    assert row == 2 ** math.comb(r, 2) and len(tops) * row == 2 ** math.comb(k, 2)
    for mask in range(0, 2 ** math.comb(k, 2), 1 if k <= 5 else 997):
        t, lo = divmod(mask, row)
        odd = degree_parities(k, mask)
        assert parities[mask] == odd, (k, mask)
        assert edge_parities[mask] == bin(mask).count("1") & 1, (k, mask)
        assert parity[lo] ^ tops[t] == odd, (k, mask)
        for v in range(k):
            child = pext_child(k, mask, v)
            if v >= r:
                assert offsets[v][t] + lo == child, (k, mask, v)
                continue
            for q, flip in ((tops[t] >> v & 1, 0), (tops[t] >> v & 1 ^ 1, 1)):
                # the odd rule moves v on odd degree, the even rule on even
                index = patterns[v][q][lo]
                if odd >> v & 1 ^ flip:
                    assert offsets[v][t] + index == child, (k, mask, v, flip)
                else:
                    assert index == _SEGMENT, (k, mask, v, flip)
