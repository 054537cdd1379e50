import copy
import pickle
import random

import pytest
from hypothesis import given

from conftest import graphs, positions, rules
from vertexnim import (
    Graph,
    MemoTable,
    MoveRule,
    Position,
    add_isolated_vertices,
    census,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_edge_mask,
    grid_graph,
    grundy,
    iter_bits,
    path_graph,
    star_graph,
    to_edge_mask,
    witness,
)


def bit_list(mask):
    return list(iter_bits(mask))


class TestGraphConstruction:
    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_negative_n(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = path_graph(3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])

    def test_immutable(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(AttributeError):
            g.full_position().alive = 0

    def test_edges_sorted(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert g.edges() == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("a,b", [(-1, 2), (-3, 1), (2, -1)])
    def test_complete_bipartite_refuses_a_negative_side(self, a, b):
        with pytest.raises(
            ValueError, match=f"^complete bipartite sides .* got a={a}, b={b}$"
        ):
            complete_bipartite_graph(a, b)
        assert complete_bipartite_graph(0, 2) == Graph(2)


class TestDegreeAndMoves:
    def test_path_midpoint_degree(self):
        p = path_graph(3).full_position()
        assert p.degree(1) == 2

    def test_degree_after_removal(self):
        p = path_graph(3).full_position().remove_vertex(2)
        assert p.degree(1) == 1

    def test_isolated_degree(self):
        assert Graph(1).full_position().degree(0) == 0

    @pytest.mark.parametrize("v", [-1, -4, 4, 5])
    def test_graph_degree_refuses_a_vertex_out_of_range(self, v):
        # a negative index must not wrap to another vertex's row
        with pytest.raises(ValueError, match=f"^vertex {v} out of range for n=4$"):
            star_graph(4).degree(v)
        assert [star_graph(4).degree(u) for u in range(4)] == [3, 1, 1, 1]

    def test_degree_of_dead_vertex(self):
        p = path_graph(3).full_position().remove_vertex(2)
        with pytest.raises(ValueError, match="not alive"):
            p.degree(2)

    def test_path_endpoints_movable_odd(self):
        p = path_graph(3).full_position()
        assert bit_list(p.movable_vertices(MoveRule.ODD)) == [0, 2]

    def test_complete_graph_all_movable_odd(self):
        p = complete_graph(4).full_position()
        assert p.movable_vertices(MoveRule.ODD) == 0b1111

    def test_cycle_none_movable_odd(self):
        p = cycle_graph(4).full_position()
        assert p.movable_vertices(MoveRule.ODD) == 0

    def test_degree_zero_counts_as_even(self):
        p = Graph(1).full_position()
        assert p.movable_vertices(MoveRule.EVEN) == 0b1
        assert p.movable_vertices(MoveRule.ODD) == 0

    @pytest.mark.parametrize("rule", [MoveRule.ODD, MoveRule.EVEN])
    def test_parity_sets_match_per_vertex_degrees(self, rule):
        # seeded random positions of up to 20 vertices, a quarter of them
        # with every vertex alive
        rng = random.Random(31 + rule.value)
        for i in range(200):
            n = rng.randint(0, 20)
            p = rng.random()
            g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
            alive = (1 << n) - 1 if i % 4 == 0 else rng.getrandbits(n)
            position = Position(g, alive)
            movable = sum(
                1 << v for v in iter_bits(alive) if position.degree(v) % 2 == rule.value
            )
            assert position.movable_vertices(rule) == movable
            odd = sum(1 << v for v in range(n) if g.degree(v) % 2)
            assert g.odd_degree_vertices() == odd

    @pytest.mark.parametrize("method", ["movable_vertices", "is_terminal"])
    @pytest.mark.parametrize("rule", ["odd", 0, 1, None])
    def test_refuses_a_rule_that_is_not_a_move_rule(self, method, rule):
        p = complete_graph(3).full_position()
        with pytest.raises(ValueError, match="^rule must be a MoveRule, got "):
            getattr(p, method)(rule)


class TestRemoveVertex:
    def test_path_remove_endpoint(self):
        p = path_graph(3).full_position().remove_vertex(0)
        assert p.alive == 0b110
        assert p.edge_count() == 1

    def test_edge_remove_leaves_isolated(self):
        p = complete_graph(2).full_position().remove_vertex(0)
        assert p.edge_count() == 0
        assert p.alive.bit_count() == 1

    def test_star_remove_center(self):
        p = star_graph(4).full_position().remove_vertex(0)
        assert p.edge_count() == 0
        assert len(p.connected_components()) == 3

    def test_remove_dead_vertex(self):
        p = path_graph(3).full_position().remove_vertex(0)
        with pytest.raises(ValueError, match="not alive"):
            p.remove_vertex(0)

    @pytest.mark.parametrize("method", ["degree", "remove_vertex"])
    def test_negative_vertex_is_not_alive(self, method):
        p = path_graph(3).full_position()
        with pytest.raises(ValueError, match="vertex -1 is not alive"):
            getattr(p, method)(-1)

    @given(positions(max_n=6), rules)
    def test_removal_shrinks_alive_and_edges(self, p, rule):
        for v in iter_bits(p.movable_vertices(rule)):
            child = p.remove_vertex(v)
            assert child.alive.bit_count() == p.alive.bit_count() - 1
            assert child.edge_count() == p.edge_count() - p.degree(v)

    @given(positions(max_n=6))
    def test_odd_rule_removal_flips_edge_parity(self, p):
        for v in iter_bits(p.movable_vertices(MoveRule.ODD)):
            child = p.remove_vertex(v)
            assert (p.edge_count() - child.edge_count()) % 2 == 1


class TestEdgeCount:
    def test_cycle(self):
        assert cycle_graph(6).full_position().edge_count() == 6

    def test_complete_bipartite(self):
        assert complete_bipartite_graph(3, 3).full_position().edge_count() == 9

    def test_empty(self):
        assert Graph(0).full_position().edge_count() == 0


class TestComponents:
    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.full_position().connected_components() == [0b0011, 0b1100]

    def test_connected_path(self):
        assert len(path_graph(5).full_position().connected_components()) == 1

    def test_empty_alive_set(self):
        p = Position(path_graph(3), 0)
        assert p.connected_components() == []

    @given(positions(max_n=7))
    def test_components_partition_alive(self, p):
        comps = p.connected_components()
        union = 0
        for comp in comps:
            assert comp & union == 0
            union |= comp
        assert union == p.alive
        mins = [min(iter_bits(c)) for c in comps]
        assert mins == sorted(mins)
        adj = p.graph.adj
        for comp in comps:
            # connected: a search from the lowest vertex within comp reaches all
            reached = frontier = comp & -comp
            while frontier:
                reach = 0
                for v in iter_bits(frontier):
                    reach |= adj[v]
                frontier = reach & comp & ~reached
                reached |= frontier
            assert reached == comp
            # closed: no alive neighbour lies outside comp
            for v in iter_bits(comp):
                assert adj[v] & p.alive & ~comp == 0


class TestBipartite:
    def test_even_cycle(self):
        assert cycle_graph(6).is_bipartite()

    def test_triangle(self):
        assert not complete_graph(3).is_bipartite()

    def test_trees(self):
        assert path_graph(7).is_bipartite()
        assert star_graph(6).is_bipartite()

    def test_grid(self):
        assert grid_graph(3, 4).is_bipartite()

    @given(graphs(max_n=7))
    def test_bipartition_is_proper(self, g):
        side = g.bipartition()
        if side is None:
            return
        other = ((1 << g.n) - 1) & ~side
        for v in iter_bits(side):
            assert g.adj[v] & side == 0
        for v in iter_bits(other):
            assert g.adj[v] & other == 0


class TestTerminal:
    def test_even_cycle_terminal_odd_rule(self):
        assert cycle_graph(4).full_position().is_terminal(MoveRule.ODD)

    def test_edge_not_terminal_odd_rule(self):
        assert not complete_graph(2).full_position().is_terminal(MoveRule.ODD)

    def test_single_vertex_not_terminal_even_rule(self):
        assert not Graph(1).full_position().is_terminal(MoveRule.EVEN)

    def test_empty_position_terminal_both_rules(self):
        p = Position(path_graph(3), 0)
        assert p.is_terminal(MoveRule.ODD)
        assert p.is_terminal(MoveRule.EVEN)


class TestEulerianComponents:
    def test_cycle(self):
        assert cycle_graph(4).full_position().has_eulerian_components()

    def test_path_has_odd_endpoints(self):
        assert not path_graph(3).full_position().has_eulerian_components()

    def test_disjoint_cycles(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(4))
        assert g.full_position().has_eulerian_components()

    @given(positions(max_n=7))
    def test_equivalent_to_terminality_under_odd_rule(self, p):
        assert p.is_terminal(MoveRule.ODD) == p.has_eulerian_components()


@given(positions(max_n=7))
def test_handshake_parity(p):
    odd = sum(1 for v in iter_bits(p.alive) if p.degree(v) % 2 == 1)
    assert odd % 2 == 0


@given(graphs(max_n=7))
def test_edge_mask_round_trip(g):
    assert from_edge_mask(g.n, to_edge_mask(g)) == g


@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 64, 200, 255])
def test_edge_mask_round_trip_seeded(n, p):
    # edge (i, j), i < j, is slot j(j-1)/2 + i
    rng = random.Random(f"{n} {p}")
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
    g = Graph(n, edges)
    mask = sum(1 << j * (j - 1) // 2 + i for i, j in edges)
    assert to_edge_mask(g) == mask
    assert from_edge_mask(n, mask) == g


def test_iter_bits_refuses_a_negative_mask():
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        next(iter_bits(-1))


clones = pytest.mark.parametrize(
    "clone",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: path_graph(4),
        lambda: Position(cycle_graph(5), 0b10110),
        lambda: witness(3),
        lambda: census(3),
    ],
    ids=["graph", "position", "witness", "census"],
)
@clones
def test_values_pickle_and_copy(make, clone):
    value = make()
    twin = clone(value)
    assert twin == value and type(twin) is type(value)


@clones
def test_used_memo_pickles_and_copies(clone):
    memo = MemoTable()
    grundy(cycle_graph(5), memo=memo)
    twin = clone(memo)
    assert memo.entries
    for name in MemoTable.__slots__:
        assert getattr(twin, name) == getattr(memo, name), name
    # the copy keeps working as a memo of the same host graph
    assert grundy(cycle_graph(5), memo=twin).grundy == grundy(cycle_graph(5)).grundy


def test_disjoint_union_counts():
    g = disjoint_union(complete_graph(3), path_graph(4))
    assert g.n == 7
    assert g.edge_count() == 6
    assert len(g.full_position().connected_components()) == 2


def test_add_isolated_vertices():
    g = add_isolated_vertices(complete_graph(2), 2)
    assert g.n == 4
    assert g.degree(2) == 0 and g.degree(3) == 0
    with pytest.raises(ValueError):
        add_isolated_vertices(g, -1)


def test_from_edge_mask_negative_n():
    with pytest.raises(ValueError, match="nonnegative"):
        from_edge_mask(-1, 0)


def test_from_edge_mask_negative_mask():
    with pytest.raises(ValueError, match="edge mask must be nonnegative, got -0x1"):
        from_edge_mask(3, -1)


def test_position_alive_out_of_range():
    with pytest.raises(ValueError, match="alive"):
        Position(path_graph(3), 0b1000)
