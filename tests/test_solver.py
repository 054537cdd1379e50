import hashlib
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, positions, rules
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
    star_graph,
)
import vertexnim.solver
from vertexnim.formats import MAX_VERTICES, from_graph6
from vertexnim.solver import LATTICE_MAX_N, LATTICE_MIN_N, Lattice
from vertexnim.solver import _SLAB_MAX_N, _subset_vectors
from vertexnim.theorems import random_graph


def labeled_graphs(n):
    """Every labeled graph on ``n`` vertices, in edge-mask order."""
    for mask in range(2 ** (n * (n - 1) // 2)):
        yield from_edge_mask(n, mask)


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
            for g in labeled_graphs(n):
                assert grundy_value(g, MoveRule.EVEN) == grundy_even_even(g)


class TestSearchSizeLimit:
    def test_largest_search_nests_within_its_frame_bound(self):
        # path plus triangle on exactly MAX_VERTICES alive vertices, solved
        # under a recursion limit of 2n + 2 frames above this one
        n = MAX_VERTICES
        g = Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, 2)])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 2 * n + 2)
        try:
            report = grundy(g)
        finally:
            sys.setrecursionlimit(limit)
        assert (report.grundy, report.nodes_visited) == (1, 32386)

    def test_deep_search_refused(self):
        # path plus triangle: the recursion would nest about 2n frames
        g = Graph(1200, [(i, i + 1) for i in range(1199)] + [(0, 2)])
        memo = MemoTable()
        with pytest.raises(ValueError, match="1200 alive vertices .* recursion limit"):
            grundy(g, memo=memo)
        # the refused search left only completed entries behind
        small = Position(g, (1 << 40) - 1)
        assert grundy_value(small, memo=memo) == grundy_value(small)

    def test_shallow_positions_above_255_alive_vertices_solve(self):
        assert grundy_value(Graph(1000)) == 0
        matching = Graph(600, [(2 * i, 2 * i + 1) for i in range(300)])
        assert grundy_value(matching) == 0


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
        memo.node_budget = 10_000
        report = grundy(g, memo=memo)
        assert report.grundy == grundy_value(g)

    def test_no_budget_refused(self):
        with pytest.raises(TypeError):
            MemoTable(node_budget=None)

    def test_negative_budget_refused(self):
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            MemoTable(node_budget=-1)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 2.5, True])
    def test_a_budget_that_is_not_an_int_refused(self, budget):
        with pytest.raises(TypeError, match=f"^node budget must be an int, got {budget!r}$"):
            MemoTable(node_budget=budget)

    def test_another_host_graph_refused(self):
        memo = MemoTable()
        assert grundy(path_graph(2), memo=memo).grundy == 1
        with pytest.raises(ValueError, match="another host graph or rule"):
            grundy(Graph(2), memo=memo)
        assert grundy(Graph(2)).grundy == 0

    def test_another_rule_refused(self):
        memo = MemoTable()
        assert grundy(Graph(1), MoveRule.EVEN, memo).grundy == 1
        with pytest.raises(ValueError, match="another host graph or rule"):
            grundy(Graph(1), MoveRule.ODD, memo)
        assert grundy(Graph(1), MoveRule.ODD).grundy == 0

    def test_equal_host_graph_accepted(self):
        memo = MemoTable()
        grundy(path_graph(3), memo=memo)
        copy = Graph(3, [(0, 1), (1, 2)])
        assert copy is not memo.graph and copy == memo.graph
        assert grundy_value(Position(copy, 0b011), memo=memo) == 1


def pinned_positions():
    """40 seeded positions, n from 6 to 13: every other one has about a
    quarter of its vertices removed at random, and rules alternate in pairs."""
    rng = random.Random(20131)
    out = []
    for i in range(40):
        n = rng.randint(6, 13)
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        full = (1 << n) - 1
        removed = rng.getrandbits(n) & rng.getrandbits(n) if i % 2 else 0
        alive = full ^ removed
        rule = MoveRule.ODD if i % 4 < 2 else MoveRule.EVEN
        out.append((Position(Graph(n, edges), alive), rule))
    return out


# (grundy, nodes_visited, distinct_positions, optimal_move) with a fresh memo;
# the engine's traversal order and its choice between search and the lattice
# kernel fix every counter, so a rewrite that keeps both keeps these. A
# lattice of k vertices shows as 2**k visits and 2**k distinct positions
PINNED_REPORTS = [
    (0, 48, 48, None),  # n=7 alive=7 ODD
    (1, 51, 51, 0),  # n=8 alive=7 ODD
    (0, 23, 23, None),  # n=6 alive=6 EVEN
    (0, 30, 30, None),  # n=10 alive=6 EVEN
    (2, 1024, 1024, 4),  # n=10 alive=10 ODD
    (2, 256, 256, 0),  # n=9 alive=8 ODD
    (1, 4098, 4098, 0),  # n=13 alive=13 EVEN
    (1, 5, 5, 2),  # n=7 alive=5 EVEN
    (0, 8192, 8192, None),  # n=13 alive=13 ODD
    (2, 25, 25, 3),  # n=9 alive=6 ODD
    (0, 256, 256, None),  # n=8 alive=8 EVEN
    (1, 512, 512, 0),  # n=10 alive=9 EVEN
    (1, 7, 7, 1),  # n=6 alive=6 ODD
    (0, 8, 8, None),  # n=6 alive=5 ODD
    (1, 512, 512, 0),  # n=9 alive=9 EVEN
    (1, 19, 19, 3),  # n=7 alive=5 EVEN
    (1, 4096, 4096, 1),  # n=12 alive=12 ODD
    (1, 12, 12, 1),  # n=7 alive=6 ODD
    (0, 1024, 1024, None),  # n=10 alive=10 EVEN
    (0, 9, 9, None),  # n=7 alive=6 EVEN
    (1, 256, 256, 0),  # n=8 alive=8 ODD
    (1, 4, 4, 5),  # n=7 alive=3 ODD
    (0, 12, 12, None),  # n=10 alive=10 EVEN
    (0, 10, 10, None),  # n=11 alive=8 EVEN
    (0, 512, 512, None),  # n=9 alive=9 ODD
    (1, 6, 6, 1),  # n=9 alive=5 ODD
    (0, 4096, 4096, None),  # n=12 alive=12 EVEN
    (1, 23, 23, 3),  # n=9 alive=5 EVEN
    (0, 9, 9, None),  # n=6 alive=6 ODD
    (0, 13, 13, None),  # n=10 alive=7 ODD
    (0, 256, 256, None),  # n=8 alive=8 EVEN
    (0, 23, 23, None),  # n=7 alive=6 EVEN
    (1, 1025, 1025, 0),  # n=11 alive=11 ODD
    (2, 25, 25, 1),  # n=8 alive=6 ODD
    (1, 2051, 2051, 0),  # n=13 alive=13 EVEN
    (1, 19, 19, 0),  # n=6 alive=5 EVEN
    (0, 72, 72, None),  # n=7 alive=7 ODD
    (0, 19, 19, None),  # n=7 alive=5 ODD
    (1, 24, 24, 4),  # n=7 alive=7 EVEN
    (1, 2048, 2048, 0),  # n=13 alive=11 EVEN
]


def test_counters_pinned():
    got = []
    for position, rule in pinned_positions():
        r = grundy(position, rule)
        got.append((r.grundy, r.nodes_visited, r.distinct_positions, r.optimal_move))
    assert got == PINNED_REPORTS


# (host nodes_visited, grundy, nodes_visited, optimal_move, len(memo)): each
# pinned host solved whole, then the pinned position on the same memo. Most
# positions are memo hits that visit nothing; the others search the children
# or components the host's solve did not store
REUSED_MEMO_REPORTS = [
    (48, 0, 0, None, 48),
    (256, 1, 0, 0, 256),
    (23, 0, 0, None, 23),
    (1024, 0, 0, None, 1024),
    (1024, 2, 0, 4, 1024),
    (512, 2, 0, 0, 512),
    (4098, 1, 0, 0, 4098),
    (12, 1, 1, 2, 13),
    (8192, 0, 0, None, 8192),
    (512, 2, 0, 3, 512),
    (256, 0, 0, None, 256),
    (1024, 1, 0, 0, 1024),
    (7, 1, 0, 1, 7),
    (9, 0, 4, None, 13),
    (512, 1, 0, 0, 512),
    (72, 1, 0, 3, 72),
    (4096, 1, 0, 1, 4096),
    (13, 1, 0, 1, 13),
    (1024, 0, 0, None, 1024),
    (15, 0, 5, None, 20),
    (256, 1, 0, 0, 256),
    (34, 1, 0, 5, 34),
    (12, 0, 0, None, 12),
    (1026, 0, 0, None, 1026),
    (512, 0, 0, None, 512),
    (22, 1, 0, 1, 22),
    (4096, 0, 0, None, 4096),
    (512, 1, 0, 3, 512),
    (9, 0, 0, None, 9),
    (513, 0, 0, None, 513),
    (256, 0, 0, None, 256),
    (49, 0, 12, None, 61),
    (1025, 1, 0, 0, 1025),
    (256, 2, 0, 1, 256),
    (2051, 1, 0, 0, 2051),
    (23, 1, 16, 0, 39),
    (72, 0, 0, None, 72),
    (73, 0, 0, None, 73),
    (24, 1, 0, 4, 24),
    (8192, 1, 0, 0, 8192),
]


def test_reused_memo_counters_pinned():
    got = []
    for position, rule in pinned_positions():
        memo = MemoTable()
        whole = grundy(position.graph, rule, memo)
        r = grundy(position, rule, memo)
        got.append((whole.nodes_visited, r.grundy, r.nodes_visited, r.optimal_move, len(memo)))
    assert got == REUSED_MEMO_REPORTS


@pytest.mark.parametrize(
    "rule,budget,visited,entries",
    [
        (MoveRule.ODD, 0, 0, 0),
        (MoveRule.ODD, 37, 37, 26),
        (MoveRule.ODD, 1000, 1000, 991),
        (MoveRule.ODD, 3984, 3984, 3981),
        (MoveRule.EVEN, 37, 37, 26),
        (MoveRule.EVEN, 1000, 1000, 990),
        (MoveRule.EVEN, 3389, 3389, 3386),
    ],
)
def test_budget_refusals_pinned(rule, budget, visited, entries):
    # the densest pinned host graph: 13 vertices, 42 edges; a full solve visits
    # 3,985 positions under the odd rule and 3,390 under the even rule
    g = pinned_positions()[39][0].graph
    assert (g.n, g.edge_count()) == (13, 42)
    memo = MemoTable(budget)
    with pytest.raises(NodeBudgetExceeded) as info:
        grundy(g, rule, memo)
    assert (info.value.nodes_visited, memo.nodes_visited, len(memo)) == (
        visited, visited, entries
    )


def naive_subset_table(g, rule):
    """Independent oracle: bottom-up table over all alive subsets, straight
    from the game's definition, with no recursion, memo reuse, or component
    decomposition. Entry ``mask`` is the value of alive set ``mask``."""
    adj = g.adj
    parity = rule.value
    table = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        child_values = set()
        for v in iter_bits(mask):
            if (adj[v] & mask).bit_count() % 2 == parity:
                child_values.add(table[mask ^ (1 << v)])
        table[mask] = mex(child_values)
    return table


def naive_subset_dp(g, rule, alive=None):
    """The oracle's value of ``alive`` (default: every vertex)."""
    return naive_subset_table(g, rule)[(1 << g.n) - 1 if alive is None else alive]


# Connected graphs of the values 6 down to 0. For values 1-6 the vertex
# count is the least order: census(7) gives the largest value at n = 0..7 as
# 0, 0, 1, 1, 2, 2, 3, 3, and a move removes one vertex, so past n = 7 the
# largest value grows by at most one per vertex.
LEAST_ORDER_WITNESSES = {
    6: from_graph6("IeV`d~YVw"),
    5: from_graph6("HlncFJL"),
    4: from_graph6("G]WVv_"),
    3: from_graph6("EkEW"),
    2: from_graph6("C{"),
    1: complete_graph(2),
    0: path_graph(3),
}


@pytest.mark.parametrize("value", sorted(LEAST_ORDER_WITNESSES))
def test_least_order_witness(value):
    g = LEAST_ORDER_WITNESSES[value]
    assert g.n == [3, 2, 4, 6, 8, 9, 10][value]
    assert g.is_connected()
    assert naive_subset_table(g, MoveRule.ODD)[-1] == value


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_engine_matches_naive_dp_exhaustively(rule):
    for n in range(5):
        for g in labeled_graphs(n):
            assert grundy_value(g, rule) == naive_subset_dp(g, rule)


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_engine_matches_naive_dp_sampled(rule):
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng, rng.randint(5, 8))
        assert grundy_value(g, rule) == naive_subset_dp(g, rule)


def growth_positions():
    """Positions shaped for the engine's component growth, which starts at
    the lowest alive vertex and stops once the component covers the mask."""
    path = path_graph(14)
    # vertex 0 is adjacent to every other vertex
    hub = Graph(9, [(0, v) for v in range(1, 9)] + [(1, 2), (2, 5), (3, 4), (6, 8)])
    matching = Graph(14, [(2 * i, 2 * i + 1) for i in range(5)])
    triangle_tail = Graph(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    return {
        "empty graph": Graph(0).full_position(),
        "empty alive set": Position(hub, 0),
        "isolated lowest vertex": triangle_tail.full_position(),
        "lowest alive vertex cut off": Position(path, path.full_position().alive ^ 0b10),
        "matching plus isolated vertices": matching.full_position(),
        "long path": path.full_position(),
        "covered by the first closed neighbourhood": hub.full_position(),
    }


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
@pytest.mark.parametrize("shape", list(growth_positions()))
def test_component_growth_shapes(shape, rule):
    position = growth_positions()[shape]
    memo = MemoTable()
    report = grundy(position, rule, memo)
    assert report.grundy == naive_subset_dp(position.graph, rule, position.alive)
    # a fresh memo retraces the same search, and every visit stores one entry,
    # a lattice's 2**k visits included
    assert grundy(position, rule) == report
    assert report.nodes_visited == report.distinct_positions == len(memo)


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

    @pytest.mark.parametrize("rule", ["odd", "even", 1, 0, None])
    @pytest.mark.parametrize("call", [grundy, grundy_value, solve])
    def test_refuses_a_rule_that_is_not_a_move_rule(self, call, rule):
        # K3 goes to the search, the 3-path to solve's bipartite fast path
        for g in (complete_graph(3), path_graph(3)):
            with pytest.raises(ValueError, match="rule must be a MoveRule"):
                call(g, rule)

    @given(graphs(max_n=7), rules)
    @settings(max_examples=150, deadline=None)
    def test_matches_search(self, g, rule):
        fast, slow = solve(g, rule), grundy(g, rule)
        assert (fast.grundy, fast.optimal_move) == (slow.grundy, slow.optimal_move)


@given(graphs(max_n=7), rules)
@settings(max_examples=80, deadline=None)
def test_children_through_a_filled_memo(g, rule):
    # ranking moves through the memo the root solve filled. Every component
    # the root solve searched stored its movable children, and a lattice holds
    # every subset of its component, so the memo answers each child, and each
    # child's own optimal move, with no visit
    memo = MemoTable()
    grundy(g, rule, memo)
    p = g.full_position()
    for v in iter_bits(p.movable_vertices(rule)):
        child = p.remove_vertex(v)
        value = grundy_value(child, rule, memo)
        report = grundy(child, rule, memo)
        assert report.grundy == value == naive_subset_dp(g, rule, child.alive)
        assert report.nodes_visited == 0
    assert memo.nodes_visited == grundy(g, rule).nodes_visited


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


def test_solve_reads_only_the_alive_rows():
    # the set-up follows the alive set: a 1000-vertex host whose rows record
    # every read, and which refuses to be walked whole
    read = set()

    class Rows(tuple):
        def __getitem__(self, v):
            read.add(v)
            return tuple.__getitem__(self, v)

        def __iter__(self):
            raise AssertionError("walked every host row")

    host = path_graph(1000)
    spy = Graph._from_adj(host.n, Rows(host.adj))
    # an edge beside an isolated vertex: the edge wins under the odd rule,
    # the isolated vertex under the even rule
    position = Position(spy, 0b11 << 500 | 1 << 700)
    for rule, move in ((MoveRule.ODD, 500), (MoveRule.EVEN, 700)):
        read.clear()
        report = grundy(position, rule)
        assert (report.grundy, report.optimal_move) == (1, move)
        assert read == {500, 501, 700}


def test_value_only_builds_no_report_or_position(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built an object grundy_value does not need")

    g = disjoint_union(complete_graph(3), path_graph(10))
    memo = MemoTable()
    expected = grundy(g, memo=memo).grundy
    monkeypatch.setattr(vertexnim.solver, "SolveReport", refuse)
    monkeypatch.setattr(Graph, "full_position", refuse)
    # a fresh solve, a memo hit, and a position of the same host
    assert grundy_value(g) == expected
    assert grundy_value(g, memo=memo) == expected
    assert grundy_value(Position(g, 0b111), memo=memo) == 0
    with pytest.raises(AssertionError):
        grundy(g, memo=memo)


def test_value_only_skips_the_move_search():
    # paw (value 2) beside a 66-vertex path (value 1): grundy also looks for
    # an optimal move among the root's children, grundy_value does not
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    g = disjoint_union(paw, path_graph(66))
    root = g.full_position()
    children = {root.alive ^ 1 << v for v in iter_bits(root.movable_vertices(MoveRule.ODD))}

    class Entries(dict):
        def get(self, key, default=None):
            self.asked.add(key)
            return dict.get(self, key, default)

    asked, visited = {}, {}
    for solve_ in (grundy, grundy_value):
        memo = MemoTable()
        memo.entries = Entries()
        memo.entries.asked = set()
        got = solve_(g, memo=memo)
        assert (got if solve_ is grundy_value else got.grundy) == 2 ^ 1
        asked[solve_] = memo.entries.asked & children
        visited[solve_] = memo.nodes_visited
    assert asked[grundy] and not asked[grundy_value]
    assert visited[grundy_value] <= visited[grundy]


def every_level(g, even):
    """The bytes of every level of ``g``'s whole lattice, each computed by
    :meth:`Lattice.more`."""
    lattice = Lattice((1 << g.n) - 1, {1 << v: row for v, row in enumerate(g.adj)}, even)
    while lattice.rests is not None:
        lattice.more()
    return lattice.values


def lattice_value(values, m):
    (value,) = [g for g, bits in enumerate(values) if bits[m >> 3] >> (m & 7) & 1]
    return value


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_lattice_kernel_matches_naive_dp_exhaustively(rule):
    # every alive subset of every labeled graph on at most 5 vertices
    for n in range(6):
        for g in labeled_graphs(n):
            values = every_level(g, rule is MoveRule.EVEN)
            table = naive_subset_table(g, rule)
            assert [lattice_value(values, m) for m in range(1 << n)] == table


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_lattice_kernel_matches_naive_dp_sampled(rule):
    rng = random.Random(18)
    for _ in range(40):
        g = random_graph(rng, rng.randint(8, 12))
        values = every_level(g, rule is MoveRule.EVEN)
        table = naive_subset_table(g, rule)
        assert [lattice_value(values, m) for m in range(1 << g.n)] == table


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
@pytest.mark.parametrize(
    "n", [_SLAB_MAX_N, _SLAB_MAX_N + 1, _SLAB_MAX_N + 3, LATTICE_MAX_N]
)
def test_lattice_kernel_across_slab_counts(rule, n):
    # 12 vertices fill one slab of 2**12 subsets; 13, 15 and 18 take 2, 8
    # and 64 slabs, whose top vertices exit into finished slabs
    g = random_graph(random.Random(2200 + n), n)
    values = every_level(g, rule is MoveRule.EVEN)
    assert {len(bits) for bits in values} == {((1 << n) + 7) >> 3}
    table = naive_subset_table(g, rule)
    assert [lattice_value(values, m) for m in range(1 << n)] == table


def traced_peak(build):
    """``build()`` and its peak traced memory above what was traced before."""
    # built once per process, not by the lattice being measured
    _subset_vectors(_SLAB_MAX_N)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return built, peak


def test_lattice_working_set_stays_near_what_it_keeps():
    # the kernel holds each slab's rest and moves and the level it is
    # computing; every level forced, that stays within 4x what the lattice
    # keeps
    g = random_graph(random.Random(2218), 18)
    values, peak = traced_peak(lambda: every_level(g, False))
    kept = sum(map(len, values))
    assert kept == len(values) * 2**15
    assert peak <= 4 * kept


def test_root_only_solve_peaks_below_the_full_kernel():
    g = random_graph(random.Random(2218), 18)
    _, full = traced_peak(lambda: every_level(g, False))
    memo = MemoTable()
    value, root_only = traced_peak(lambda: grundy_value(g, MoveRule.ODD, memo))
    (lattice,) = {id(lattice): lattice for lattice in memo.lattices.values()}.values()
    assert len(lattice.values) == value + 1 < len(every_level(g, False))
    assert root_only < full


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
@pytest.mark.parametrize(
    "n", [_SLAB_MAX_N, _SLAB_MAX_N + 1, _SLAB_MAX_N + 3, LATTICE_MAX_N]
)
def test_lazy_levels_answer_every_read_order(rule, n):
    g = random_graph(random.Random(3200 + n), n)
    rows = {1 << v: row for v, row in enumerate(g.adj)}
    table = naive_subset_table(g, rule)
    levels = max(table) + 1
    rng = random.Random(n)
    masks = list(range(1 << n))
    rng.shuffle(masks)
    # the highest values first, which computes every level at once, then
    # every subset at random
    order = [table.index(value) for value in reversed(range(levels))] + masks
    lattice = Lattice((1 << n) - 1, rows, rule is MoveRule.EVEN)
    assert not lattice.values
    assert [lattice.value(m) for m in order] == [table[m] for m in order]
    assert len(lattice.values) == levels
    # the kernel's state goes with the last level
    assert lattice.rests is lattice.moves is lattice.exits is None
    # at random from the first read: each read computes the levels up to
    # the largest value read so far, and no more
    lattice = Lattice((1 << n) - 1, rows, rule is MoveRule.EVEN)
    highest = -1
    for m in masks:
        assert lattice.value(m) == table[m]
        highest = max(highest, table[m])
        assert len(lattice.values) == highest + 1
    # fully evaluated, the levels are the kernel's bytes
    assert lattice.values == every_level(g, rule is MoveRule.EVEN)


def test_an_interrupted_level_leaves_the_lattice_as_it_was():
    # 15 vertices, 8 slabs: the level is interrupted at slab 5, after slabs
    # 0-4 have it, and the lattice keeps the levels and rests it had
    g = random_graph(random.Random(3215), 15)
    rows = {1 << v: row for v, row in enumerate(g.adj)}
    expected = every_level(g, False)
    lattice = Lattice((1 << 15) - 1, rows, False)
    assert lattice.value(0) == 0 and len(lattice.values) == 1
    rests = lattice.rests

    class Interrupt(int):
        def __xor__(self, other):
            raise KeyboardInterrupt

    assert rests[5]
    lattice.rests = rests[:5] + [Interrupt(rests[5])] + rests[6:]
    interrupted = lattice.rests
    mask = next(m for m in range(1 << 15) if lattice_value(expected, m) == 1)
    with pytest.raises(KeyboardInterrupt):
        lattice.value(mask)
    assert lattice.rests is interrupted and lattice.values == expected[:1]
    lattice.rests = rests
    assert [lattice.value(m) for m in range(1 << 15)] == [
        lattice_value(expected, m) for m in range(1 << 15)
    ]
    assert lattice.values == expected


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_fresh_solve_computes_the_levels_up_to_its_root(rule):
    # connected seeded graphs of 8 to 18 vertices; the root's value is the
    # last level a fresh grundy_value computes
    rng = random.Random(32)
    seen = set()
    for k in range(LATTICE_MIN_N, LATTICE_MAX_N + 1):
        for _ in range(3):
            g = Graph(k, [(i, j) for j in range(k) for i in range(j) if rng.random() < 0.4])
            if len(g.full_position().connected_components()) > 1:
                continue
            memo = MemoTable()
            value = grundy_value(g, rule, memo)
            (lattice,) = {id(lat): lat for lat in memo.lattices.values()}.values()
            assert len(lattice.values) == value + 1
            seen.add((value, lattice.rests is None))
    # roots below their lattice's top value stop early
    assert (0, False) in seen and any(value for value, _ in seen)


@pytest.mark.parametrize("width", range(_SLAB_MAX_N + 1))
def test_nibble_tables_give_the_per_neighbour_parity_vectors(width):
    vectors, nibbles = _subset_vectors(width)
    assert len(vectors) == width and len(nibbles) == (width + 3) // 4
    rng = random.Random(width)
    full = (1 << width) - 1
    rows = [0, full] + [1 << i for i in range(width)]
    rows += [rng.getrandbits(width) for _ in range(64)] if width > 6 else range(1 << width)
    for row in rows:
        expected = 0
        for i in iter_bits(row):
            expected ^= vectors[i]
        odd = 0
        rest = row
        for table in nibbles:
            odd ^= table[rest & 15]
            rest >>= 4
        assert odd == expected


def test_lattice_values_pinned():
    # seeded graphs with k from 1 to 18, under both rules: the kernel's bytes
    # hash as they did before its parity vectors came from nibble tables
    digest = hashlib.sha256()
    for k in range(1, LATTICE_MAX_N + 1):
        g = random_graph(random.Random(3100 + k), k)
        for even in (False, True):
            for bits in every_level(g, even):
                digest.update(bits)
            digest.update(b"|")
    assert digest.hexdigest() == (
        "ef12a6e9cc352af211f70295672aa800d3dfca89a403d2b58b885b302451a4e9"
    )


def placed_mask(m, where):
    """Bit ``i`` of ``m`` moved to bit ``where[i]``."""
    return sum(1 << where[i] for i in iter_bits(m))


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_lattice_index_paths_agree(rule):
    # one 9-vertex graph placed four ways in larger hosts: at vertices
    # 0..8, at 5..13 (both consecutive, one run), at the even vertices
    # 0, 2, ..., 16 (nine runs of one vertex) and at 0..3 and 7..11 (two runs
    # of several vertices); the other host vertices have edges into it, which
    # its rows must mask out
    g = random_graph(random.Random(21), 9)
    even = rule is MoveRule.EVEN
    table = naive_subset_table(g, rule)

    def placed(where, n):
        edges = {(where[u], where[v]) for u, v in g.edges()}
        inside = set(where)
        edges |= {(min(u, v), max(u, v)) for u in inside for v in (u - 1, u + 1)
                  if 0 <= v < n and v not in inside}
        host = Graph(n, sorted(edges))
        mask = placed_mask((1 << 9) - 1, where)
        return Lattice(mask, {1 << v: row for v, row in enumerate(host.adj)}, even)

    layouts = [
        (range(9), 9, [(0, (1 << 9) - 1, 0)]),
        (range(5, 14), 20, [(5, (1 << 9) - 1, 0)]),
        (range(0, 18, 2), 18, [(2 * i, 1, i) for i in range(9)]),
        ([0, 1, 2, 3, 7, 8, 9, 10, 11], 14, [(0, 0xF, 0), (7, 0x1F, 4)]),
    ]
    for where, n, runs in layouts:
        lattice = placed(where, n)
        assert lattice.runs == runs
        for m in range(1 << 9):
            assert lattice.value(placed_mask(m, where)) == table[m]


def spy_graph(host, read):
    """``host`` with rows that record each vertex read in ``read`` and
    refuse to be walked whole."""

    class Rows(tuple):
        def __getitem__(self, v):
            read.add(v)
            return tuple.__getitem__(self, v)

        def __iter__(self):
            raise AssertionError("walked every host row")

    return Graph._from_adj(host.n, Rows(host.adj))


def test_a_memo_hit_builds_nothing():
    read = set()
    spy = spy_graph(path_graph(1000), read)
    # a 13-vertex path (value 0) valued by its lattice; its child at vertex
    # 500 is a 12-vertex path (value 1) whose best move is to remove 501
    root = Position(spy, ((1 << 13) - 1) << 500)
    memo = MemoTable()
    assert grundy(root, MoveRule.ODD, memo).nodes_visited == 2**13
    assert read == set(range(500, 513))
    child = root.remove_vertex(500)
    read.clear()
    assert grundy_value(child, MoveRule.ODD, memo) == 1
    assert not read
    # the move search needs the child's degree parities, and nothing more
    report = grundy(child, MoveRule.ODD, memo)
    assert (report.grundy, report.optimal_move, report.nodes_visited) == (1, 501, 0)
    assert read == set(range(501, 513))


def spy_search(monkeypatch):
    """Count the calls that build or run a search: the search itself, the
    lattice kernel and the component split."""
    calls = []
    for name in ("_search", "Lattice", "_components"):
        real = getattr(vertexnim.solver, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(vertexnim.solver, name, spy)
    return calls


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_memo_answered_queries_build_no_search(rule, monkeypatch):
    # a connected 10-vertex graph valued by its lattice, and a 7-vertex graph
    # searched: each query the filled memo answers, its move scan included,
    # gives the fresh memo's value and move and builds no search
    rng = random.Random(31)
    dense = Graph(10, [(i, j) for j in range(10) for i in range(j) if rng.random() < 0.5])
    assert Position(dense, (1 << 10) - 1).connected_components() == [(1 << 10) - 1]
    small = Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5), (5, 6)])
    for g, lattice in ((dense, True), (small, False)):
        memo = MemoTable()
        grundy(g, rule, memo)
        assert bool(memo.lattices) is lattice
        fresh = {alive: grundy(Position(g, alive), rule) for alive in range(1 << g.n)}

        def held(mask):
            # the memo's entries, or a lattice, which answers the empty set
            return mask in memo.entries or memo.lattices and (
                not mask or mask & -mask in memo.lattices
            )

        # the root and, from a positive root, each child the move scan
        # probes, up to the move
        answered = [
            alive for alive, report in fresh.items()
            if held(alive) and all(
                held(alive ^ 1 << v)
                for v in iter_bits(Position(g, alive).movable_vertices(rule))
                if report.grundy and v <= report.optimal_move
            )
        ]
        # the lattice answers every subset, the empty set included
        assert len(answered) == {
            (MoveRule.ODD, True): 1024, (MoveRule.EVEN, True): 1024,
            (MoveRule.ODD, False): 50, (MoveRule.EVEN, False): 50,
        }[rule, lattice]
        entries, visited = dict(memo.entries), memo.nodes_visited
        calls = spy_search(monkeypatch)
        for alive in answered:
            report = grundy(Position(g, alive), rule, memo)
            expected = fresh[alive]
            assert (report.grundy, report.optimal_move) == (
                expected.grundy, expected.optimal_move
            )
            assert report.nodes_visited == 0
            assert grundy_value(Position(g, alive), rule, memo) == expected.grundy
        assert memo.entries == entries and memo.nodes_visited == visited
        assert not calls
        monkeypatch.undo()


def test_a_memo_hit_searches_the_children_the_memo_cannot_answer(monkeypatch):
    # paw 0-3 beside the path 4-5-6; counters and entries recorded before
    # memo-answered queries stopped building the search
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (4, 5), (5, 6)])
    memo = MemoTable()
    grundy(g, MoveRule.ODD, memo)
    entries = dict(memo.entries)
    # 0b1110 splits into {1, 2} and {3}: the search stored it from its
    # components, and never probed its child 0b1100, the two lone vertices
    # 2 and 3, whose components it holds
    assert (entries[0b1110], 0b1100 in entries) == (1, False)
    calls = spy_search(monkeypatch)
    report = grundy(Position(g, 0b1110), MoveRule.ODD, memo)
    assert (report.grundy, report.optimal_move, report.nodes_visited) == (1, 1, 0)
    assert memo.entries == entries
    # the child's components are both memo-answered: it is split, and no
    # search is built
    assert calls == ["_components"]
    monkeypatch.undo()
    # a memo that holds only the root searches each child its move scan probes
    stored = {
        MoveRule.ODD: (2, 11, 3, [(2, 0), (4, 0), (6, 1), (7, 0), (8, 0), (16, 0), (32, 0),
                                  (48, 1), (64, 0), (96, 1), (112, 0), (127, 2)]),
        MoveRule.EVEN: (1, 9, 1, [(0, 0), (4, 1), (8, 1), (12, 0), (13, 1), (16, 1),
                                  (64, 1), (80, 0), (112, 1), (127, 1)]),
    }
    for rule, (value, visited, move, items) in stored.items():
        memo = MemoTable()
        memo.entries[127] = value
        report = grundy(g, rule, memo)
        assert (report.grundy, report.nodes_visited, report.optimal_move) == (
            value, visited, move
        )
        assert sorted(memo.entries.items()) == items
        assert memo.nodes_visited == visited


def test_a_split_miss_reads_each_part_once():
    # paw 0-3 beside the path 4-5-6: once the paw is solved, the whole graph
    # misses, splits into the paw, which the memo answers, and the path,
    # which it searches
    class Reads(dict):
        def get(self, key, default=None):
            reads[key] = reads.get(key, 0) + 1
            return dict.get(self, key, default)

    reads = {}
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (4, 5), (5, 6)])
    memo = MemoTable()
    memo.entries = Reads()
    assert grundy_value(Position(g, 0b1111), MoveRule.ODD, memo) == 2
    reads.clear()
    assert grundy_value(g, MoveRule.ODD, memo) == grundy_value(g)
    assert reads[0b1111] == 1


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_split_queries_the_memo_answers_build_no_search(rule, monkeypatch):
    # an 11-vertex lattice beside the isolated vertex 9: the root's children,
    # and the children their move scans probe, split into parts the filled
    # memo holds, so each is their nim-sum with no search built
    rng = random.Random(7)
    g = Graph(12, [(i, j) for j in range(12) for i in range(j) if rng.random() < 0.15])
    root = g.full_position()
    assert root.connected_components() == [(1 << 12) - 1 ^ 1 << 9, 1 << 9]
    memo = MemoTable()
    grundy(g, rule, memo)
    children = [root.remove_vertex(v) for v in iter_bits(root.movable_vertices(rule))]
    expected = [grundy(child, rule) for child in children]
    entries, visited = dict(memo.entries), memo.nodes_visited
    calls = spy_search(monkeypatch)
    for child, want in zip(children, expected):
        report = grundy(child, rule, memo)
        assert (report.grundy, report.optimal_move, report.nodes_visited) == (
            want.grundy, want.optimal_move, 0
        )
        assert grundy_value(child, rule, memo) == want.grundy
    assert calls and set(calls) == {"_components"}
    assert memo.entries == entries and memo.nodes_visited == visited


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_search_on_a_reused_memo_reads_its_lattices(rule):
    # a dense 10-vertex block with a 12-vertex path hanging off vertex 9: the
    # whole graph is searched, and once the block alone has been solved, the
    # search reads the block's subsets from its lattice
    rng = random.Random(10)
    block = [(i, j) for j in range(10) for i in range(j) if rng.random() < 0.5]
    g = Graph(22, block + [(v, v + 1) for v in range(9, 21)])
    block_mask = (1 << 10) - 1
    assert Position(g, block_mask).connected_components() == [block_mask]
    fresh = grundy(g, rule)
    memo = MemoTable()
    assert grundy(Position(g, block_mask), rule, memo).nodes_visited == 2**10
    report = grundy(g, rule, memo)
    assert (report.grundy, report.optimal_move) == (fresh.grundy, fresh.optimal_move)
    assert report.nodes_visited < fresh.nodes_visited
    # no position is stored twice
    assert not [key for key in memo.entries if key and not key & ~block_mask]
    assert len(memo) == memo.nodes_visited == 2**10 + report.nodes_visited


def test_len_counts_entries_a_later_lattice_answers_twice():
    # a connected 12-vertex graph; its first 7 vertices are searched, then
    # the whole graph's lattice answers those 13 entries' positions too
    rng = random.Random(5)
    g = Graph(12, [(i, j) for j in range(12) for i in range(j) if rng.random() < 0.4])
    assert g.is_connected()
    memo = MemoTable()
    assert grundy(Position(g, (1 << 7) - 1), MoveRule.ODD, memo).nodes_visited == 13
    assert grundy(g, MoveRule.ODD, memo).nodes_visited == 2**12
    assert len(memo) == len(memo.entries) + 2**12 == 13 + 2**12


def dense_16():
    # connected, 45 edges; a plain search visits 23,203-33,181 positions
    rng = random.Random(0)
    return Graph(16, [(i, j) for j in range(16) for i in range(j) if rng.random() < 0.5])


def search_only(monkeypatch, *args, **kwargs):
    """The report of a solve that never takes the lattice path."""
    with monkeypatch.context() as m:
        m.setattr(vertexnim.solver, "LATTICE_MAX_N", 0)
        return grundy(*args, **kwargs)


def test_lattice_path_starts_at_eight_vertices():
    assert LATTICE_MIN_N == 8
    # a connected 7-vertex position is searched (72 nodes)
    position, rule = pinned_positions()[36]
    assert position.alive.bit_count() == 7
    memo = MemoTable()
    assert grundy(position, rule, memo).nodes_visited == 72
    assert not memo.lattices
    # a connected 8-vertex position is valued by its lattice, 2**8 nodes
    position, rule = pinned_positions()[20]
    assert position.alive.bit_count() == 8
    memo = MemoTable()
    assert grundy(position, rule, memo).nodes_visited == 2**8
    assert {lattice.mask for lattice in memo.lattices.values()} == {position.alive}


@pytest.mark.parametrize(
    "g,rule",
    [
        pytest.param(star_graph(18), MoveRule.EVEN, id="star-even"),
        pytest.param(complete_graph(17), MoveRule.ODD, id="K17-odd"),
    ],
)
def test_terminal_component_never_pays_the_kernel(g, rule):
    # no vertex is movable, so the search visits the root alone
    memo = MemoTable()
    report = grundy(g, rule, memo)
    assert (report.grundy, report.nodes_visited, report.optimal_move) == (0, 1, None)
    assert len(memo) == 1 and not memo.lattices


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_path_like_component_is_valued_by_its_lattice(rule, monkeypatch):
    # path plus triangle on 18 vertices: a plain search visits only 154 (odd)
    # or 836 (even) positions, but the lattice values it whenever the budget
    # covers 2**18 nodes
    g = Graph(18, [(i, i + 1) for i in range(17)] + [(0, 2)])
    memo = MemoTable()
    report = grundy(g, rule, memo)
    assert len({lattice.mask for lattice in memo.lattices.values()}) == 1
    assert report.nodes_visited == report.distinct_positions == len(memo) == 2**18
    plain = search_only(monkeypatch, g, rule)
    assert (report.grundy, report.optimal_move) == (plain.grundy, plain.optimal_move)
    # one node short of the lattice, the plain search as before
    memo = MemoTable(2**18 - 1)
    report = grundy(g, rule, memo)
    assert report.nodes_visited == {MoveRule.ODD: 154, MoveRule.EVEN: 836}[rule]
    assert report.nodes_visited == report.distinct_positions == len(memo)
    assert not memo.lattices


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_dense_component_is_valued_by_its_lattice(rule, monkeypatch):
    g = dense_16()
    memo = MemoTable()
    report = grundy(g, rule, memo)
    assert report.nodes_visited == memo.nodes_visited == 2**16
    assert report.distinct_positions == len(memo) == 2**16
    assert not memo.entries
    plain = search_only(monkeypatch, g, rule)
    assert (report.grundy, report.optimal_move) == (plain.grundy, plain.optimal_move)
    # the memo stays sound: a retry reads the same answer and visits nothing
    again = grundy(g, rule, memo)
    assert (again.grundy, again.optimal_move, again.nodes_visited) == (
        report.grundy, report.optimal_move, 0
    )


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_children_of_a_lattice_root_visit_nothing(rule, monkeypatch):
    g = dense_16()
    memo = MemoTable()
    grundy(g, rule, memo)
    reference = MemoTable()
    search_only(monkeypatch, g, rule, reference)
    p = g.full_position()
    for v in iter_bits(p.movable_vertices(rule)):
        child = p.remove_vertex(v)
        report = grundy(child, rule, memo)
        assert report.nodes_visited == 0
        plain = search_only(monkeypatch, child, rule, reference)
        assert (report.grundy, report.optimal_move) == (plain.grundy, plain.optimal_move)
    assert memo.nodes_visited == 2**16


@pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
def test_budget_below_the_lattice_leaves_the_search_as_it_was(rule, monkeypatch):
    # a budget that cannot cover 2**16 nodes gets the plain search: the same
    # refusal where it refuses, the same report where not
    g = dense_16()
    need = 2**16
    searched = search_only(monkeypatch, g, rule).nodes_visited
    for budget in (0, 1000, searched - 1, searched, need - 1):
        memo, plain = MemoTable(budget), MemoTable(budget)
        try:
            report = grundy(g, rule, memo)
        except NodeBudgetExceeded as refused:
            with pytest.raises(NodeBudgetExceeded) as info:
                search_only(monkeypatch, g, rule, plain)
            assert refused.nodes_visited == info.value.nodes_visited == budget
        else:
            assert report == search_only(monkeypatch, g, rule, plain)
            assert budget >= searched
        assert len(memo) == len(plain) and not memo.lattices
    assert grundy(g, rule, MemoTable(need)).nodes_visited == need


@pytest.mark.parametrize("rule,entries", [(MoveRule.ODD, 1987), (MoveRule.EVEN, 1989)])
def test_cli_sized_budget_refusal(rule, entries):
    # the shape of `solve --budget 2000` on a random 18-vertex graph: the
    # lattice would need 2**18 nodes, so the search refuses
    rng = random.Random(18)
    edges = {(i, j) for j in range(18) for i in range(j) if rng.random() < 0.5}
    g = Graph(18, sorted(edges | {(0, 1), (0, 2), (1, 2)}))
    memo = MemoTable(2000)
    with pytest.raises(NodeBudgetExceeded) as info:
        grundy(g, rule, memo)
    assert (info.value.nodes_visited, memo.nodes_visited, len(memo)) == (2000, 2000, entries)


@given(positions(max_n=12), rules)
@settings(max_examples=60, deadline=None)
def test_positions_match_naive_dp(position, rule):
    assert grundy_value(position, rule) == naive_subset_dp(
        position.graph, rule, position.alive
    )
