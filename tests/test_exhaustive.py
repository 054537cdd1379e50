import pytest

from vertexnim import (
    MoveRule,
    NodeBudgetExceeded,
    bipartite_table,
    census,
    from_edge_mask,
    grundy_tables,
    grundy_value,
    minimal_example,
    to_graph6,
)

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

    def test_budget(self):
        with pytest.raises(NodeBudgetExceeded):
            grundy_tables(7, graph_budget=1000)


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

    def test_budget_gives_partial_report(self):
        report = census(7, graph_budget=2000)
        assert report.partial
        assert report.completed_n == 5
        assert not report.minimal_examples.get(3)

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            census(8)

    def test_minimal_example_helper(self):
        assert minimal_example(2, max_n=4) == from_edge_mask(4, 15)
        assert minimal_example(9, max_n=4) is None


def test_paw_value_across_engines(odd_tables):
    paw = from_edge_mask(4, 15)
    assert grundy_value(paw) == 2
    assert odd_tables[4][15] == 2
