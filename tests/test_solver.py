import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, rules
from vertexnim import (
    Graph,
    MemoTable,
    Position,
    MoveRule,
    NodeBudgetExceeded,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_labeled_graphs,
    from_edge_mask,
    grid_graph,
    grundy,
    grundy_even_even,
    grundy_value,
    iter_bits,
    mex,
    nim_sum,
    path_graph,
    solve,
    to_edge_mask,
)
from vertexnim.theorems import random_graph


class TestMex:
    def test_empty(self):
        assert mex([]) == 0

    def test_gap(self):
        assert mex({0, 1, 3}) == 2

    def test_missing_zero(self):
        assert mex({1, 2}) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mex([-1])

    @given(st.sets(st.integers(min_value=0, max_value=200)))
    def test_definition(self, values):
        m = mex(values)
        assert m not in values
        assert all(v in values for v in range(m))


class TestNimSum:
    def test_self_inverse(self):
        assert nim_sum(1, 1) == 0

    def test_disjoint_bits(self):
        assert nim_sum(2, 1) == 3

    def test_identity(self):
        assert nim_sum(0, 7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            nim_sum(-1, 0)

    @given(
        st.integers(min_value=0, max_value=1 << 12),
        st.integers(min_value=0, max_value=1 << 12),
        st.integers(min_value=0, max_value=1 << 12),
    )
    def test_group_laws(self, a, b, c):
        assert nim_sum(a, b) == nim_sum(b, a)
        assert nim_sum(nim_sum(a, b), c) == nim_sum(a, nim_sum(b, c))
        assert nim_sum(a, a) == 0


class TestGrundyExamples:
    def test_path_4(self):
        assert grundy_value(path_graph(4)) == 1

    def test_complete_5(self):
        assert grundy_value(complete_graph(5)) == 0

    def test_complete_bipartite_3_3(self):
        assert grundy_value(complete_bipartite_graph(3, 3)) == 1

    def test_complete_bipartite_2_3(self):
        assert grundy_value(complete_bipartite_graph(2, 3)) == 0

    def test_empty_graph(self):
        report = grundy(Graph(0))
        assert report.grundy == 0
        assert report.optimal_move is None

    def test_smallest_connected_value_2_is_triangle_with_pendant(self):
        # independent enumeration oracle: scan labeled graphs in
        # (n, edge count, mask) order for the first connected value-2 graph
        found = None
        for n in range(5):
            hits = []
            for mask in range(1 << (n * (n - 1) // 2)):
                g = from_edge_mask(n, mask)
                if not g.is_connected():
                    continue
                if grundy_value(g) == 2:
                    hits.append((g.edge_count(), mask))
            if hits:
                found = (n, min(hits))
                break
        assert found is not None
        n, (edge_count, mask) = found
        assert (n, edge_count, mask) == (4, 4, 15)
        paw = from_edge_mask(4, 15)
        assert paw.edges() == [(0, 1), (0, 2), (0, 3), (1, 2)]
        assert grundy_value(paw) == 2


class TestEvenRule:
    def test_closed_form_examples(self):
        assert grundy_even_even(complete_graph(4)) == 0
        assert grundy_even_even(path_graph(5)) == 1
        assert grundy_even_even(Graph(0)) == 0

    def test_engine_matches_closed_form_exhaustively_small(self):
        for n in range(5):
            for g in enumerate_labeled_graphs(n):
                assert grundy_value(g, MoveRule.EVEN) == grundy_even_even(g)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(0)) == 1
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8

    def test_order_is_edge_mask_order(self):
        masks = [to_edge_mask(g) for g in enumerate_labeled_graphs(3)]
        assert masks == list(range(8))

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            next(enumerate_labeled_graphs(8))


class TestSearchSizeLimit:
    def test_deep_search_refused(self):
        # path plus triangle: the recursion would nest about 2n frames
        g = Graph(1200, [(i, i + 1) for i in range(1199)] + [(0, 2)])
        with pytest.raises(ValueError, match="limited to 255 alive vertices"):
            grundy_value(g)

    def test_limit_counts_alive_vertices(self):
        assert grundy_value(Position(Graph(1000), (1 << 255) - 1)) == 0
        with pytest.raises(ValueError, match="got 256"):
            grundy_value(Position(Graph(1000), (1 << 256) - 1))


class TestSolveReport:
    def test_optimal_move_present_iff_positive(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 7))
            report = grundy(g)
            assert (report.optimal_move is not None) == (report.grundy > 0)

    def test_optimal_move_reaches_zero_child(self):
        rng = random.Random(8)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 7))
            report = grundy(g)
            if report.optimal_move is None:
                continue
            child = g.full_position().remove_vertex(report.optimal_move)
            assert grundy_value(child) == 0

    def test_optimal_move_is_lowest_index(self):
        # on a single edge both endpoints win; vertex 0 must be reported
        assert grundy(complete_graph(2)).optimal_move == 0

    def test_determinism_across_memo_reuse(self):
        g = random_graph(random.Random(9), 8)
        memo = MemoTable()
        first = grundy(g, memo=memo)
        second = grundy(g, memo=memo)
        fresh = grundy(g)
        assert first.grundy == second.grundy == fresh.grundy
        assert first.optimal_move == second.optimal_move == fresh.optimal_move

    def test_memo_soundness_on_random_graphs(self):
        # memo reuse never changes the value
        rng = random.Random(10)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(0, 10))
            memo = MemoTable()
            v1 = grundy(g, memo=memo).grundy
            v2 = grundy(g, memo=memo).grundy
            assert v1 == v2 == grundy_value(g)


class TestMemoTable:
    def test_budget_error_carries_counts(self):
        g = complete_bipartite_graph(3, 4)
        memo = MemoTable(node_budget=3)
        with pytest.raises(NodeBudgetExceeded) as info:
            grundy(g, memo=memo)
        assert info.value.nodes_visited == 3
        assert memo.nodes_visited == 3
        assert memo.nodes_visited <= memo.node_budget

    def test_retry_with_larger_budget_reuses_entries(self):
        g = complete_bipartite_graph(3, 4)
        memo = MemoTable(node_budget=3)
        with pytest.raises(NodeBudgetExceeded):
            grundy(g, memo=memo)
        memo.node_budget = None
        report = grundy(g, memo=memo)
        assert report.grundy == grundy_value(g)

    def test_unlimited_budget(self):
        memo = MemoTable(node_budget=None)
        assert grundy(path_graph(6), memo=memo).grundy == 1


def naive_subset_dp(g, rule):
    """Independent oracle: bottom-up table over all alive subsets, straight
    from the game's definition, with no recursion, memo reuse, or component
    decomposition."""
    adj = g.adj
    parity = rule.value
    table = [0] * (1 << g.n)
    for alive in range(1, 1 << g.n):
        child_values = set()
        for v in iter_bits(alive):
            if (adj[v] & alive).bit_count() % 2 == parity:
                child_values.add(table[alive ^ (1 << v)])
        table[alive] = mex(child_values)
    return table[(1 << g.n) - 1]


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_engine_matches_naive_dp_exhaustively(rule):
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            assert grundy_value(g, rule) == naive_subset_dp(g, rule)


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_engine_matches_naive_dp_sampled(rule):
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng, rng.randint(5, 8))
        assert grundy_value(g, rule) == naive_subset_dp(g, rule)


def test_no_vertex_cap():
    assert grundy(Graph(64)).grundy == 0
    # paw (value 2) beside a 66-vertex path (value 1): 70 vertices, searched
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert grundy(disjoint_union(paw, path_graph(66))).grundy == 2 ^ 1


class TestSolve:
    def test_methods(self):
        paw = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        assert solve(paw).method == "brute-force search"
        assert solve(path_graph(4)).method == "bipartite edge-parity fast path"
        assert solve(paw, MoveRule.EVEN).method == "vertex-parity closed form"

    @pytest.mark.parametrize(
        "g,value",
        [
            pytest.param(cycle_graph(6), 0, id="C6"),
            pytest.param(path_graph(4), 1, id="P4"),
            pytest.param(grid_graph(2, 3), 1, id="grid2x3"),
            # far above the search limit: closed forms have none
            pytest.param(path_graph(1000), 1, id="P1000"),
        ],
    )
    def test_bipartite_values(self, g, value):
        report = solve(g)
        assert (report.grundy, report.method) == (value, "bipartite edge-parity fast path")

    def test_closed_forms_visit_nothing(self):
        report = solve(path_graph(200))
        assert (report.grundy, report.nodes_visited, report.optimal_move) == (1, 0, 0)

    def test_search_uses_the_memo(self):
        memo = MemoTable(node_budget=2)
        with pytest.raises(NodeBudgetExceeded):
            solve(complete_graph(6), memo=memo)

    @given(graphs(max_n=7), rules)
    @settings(max_examples=150, deadline=None)
    def test_matches_search(self, g, rule):
        fast, slow = solve(g, rule), grundy(g, rule)
        assert (fast.grundy, fast.optimal_move) == (slow.grundy, slow.optimal_move)


@given(graphs(max_n=6), rules)
@settings(max_examples=60, deadline=None)
def test_grundy_zero_iff_no_winning_move(g, rule):
    p = g.full_position()
    report = grundy(p, rule)
    children = [
        grundy_value(p.remove_vertex(v), rule)
        for v in iter_bits(p.movable_vertices(rule))
    ]
    if report.grundy == 0:
        assert 0 not in children
    else:
        assert 0 in children


@given(graphs(max_n=7), st.integers(min_value=0), rules)
@settings(max_examples=60, deadline=None)
def test_positions_solve_like_their_induced_subgraphs(g, alive_seed, rule):
    # dead vertices are irrelevant: relabeling the alive set in increasing
    # order gives a standalone graph with the same value
    alive = alive_seed & ((1 << g.n) - 1)
    live = list(iter_bits(alive))
    relabel = {v: i for i, v in enumerate(live)}
    compact = Graph(
        len(live),
        [
            (relabel[u], relabel[v])
            for u, v in g.edges()
            if u in relabel and v in relabel
        ],
    )
    assert grundy_value(Position(g, alive), rule) == grundy_value(compact, rule)
