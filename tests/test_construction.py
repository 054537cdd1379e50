import dataclasses
import json

import pytest

from vertexnim import (
    ConstructionError,
    ConstructionSoundnessError,
    Graph,
    MoveRule,
    NodeBudgetExceeded,
    Position,
    Witness,
    certify,
    complete_graph,
    construct_next,
    cycle_graph,
    from_graph6,
    grundy_value,
    iter_bits,
    path_graph,
    witness,
    witness_record,
)


class TestBaseWitnesses:
    def test_value_0_is_3_path(self):
        w = witness(0)
        assert w.graph == path_graph(3)
        assert w.k == 0 and w.certified
        assert w.recipe is None

    def test_value_1_is_single_edge(self):
        w = witness(1)
        assert w.graph == complete_graph(2)
        assert w.k == 1 and w.certified


class TestConstructNext:
    def test_two_parts_no_padding(self):
        w = construct_next([path_graph(3), complete_graph(2)])
        assert w.graph.n == 7
        assert w.graph.edge_count() == 8
        assert not w.recipe.padding_used
        assert [p.index for p in w.recipe.parts] == [0, 1]
        assert not w.certified
        assert certify(w).certified
        assert grundy_value(w.graph) == 2

    def test_single_part_gets_padding(self):
        w = construct_next([path_graph(3)])
        assert w.graph.n == 8
        assert w.recipe.padding_used
        assert [p.index for p in w.recipe.parts] == [-1, 0]
        assert grundy_value(w.graph) == 1

    def test_apex_degrees_are_odd(self):
        w = construct_next([path_graph(3), complete_graph(2)])
        apexes = list(iter_bits(w.recipe.apex_set()))
        assert apexes == [5, 6]
        for apex in apexes:
            assert w.graph.degree(apex) == 3

    def test_original_vertices_have_even_degree(self):
        w = construct_next([path_graph(3), complete_graph(2), witness(2).graph])
        for v in range(w.graph.n - len(w.recipe.parts)):
            assert w.graph.degree(v) % 2 == 0

    def test_only_apexes_movable_at_root(self):
        w = construct_next([path_graph(3), complete_graph(2)])
        movable = w.graph.full_position().movable_vertices(MoveRule.ODD)
        assert movable == w.recipe.apex_set()

    def test_all_even_part_rejected(self):
        with pytest.raises(ConstructionError, match="no odd-degree vertex"):
            construct_next([cycle_graph(4), complete_graph(2)])

    def test_disconnected_part_rejected(self):
        with pytest.raises(ConstructionError, match="connected"):
            construct_next([Graph(4, [(0, 1), (2, 3)])])

    def test_empty_part_rejected(self):
        with pytest.raises(ConstructionError, match="connected and nonempty"):
            construct_next([Graph(0)])

    def test_no_parts_rejected(self):
        with pytest.raises(ConstructionError, match="at least one part"):
            construct_next([])

    def test_non_graph_rejected(self):
        with pytest.raises(ConstructionError, match="not a Graph"):
            construct_next(["nope"])

    def test_wrong_part_values_build_but_fail_certification(self):
        # part values are trusted at assembly; certify checks the root and
        # each apex child. Swapped parts [K2, P3] still give the root
        # mex{1, 0} = 2, but part 0's child solves to K2's value 1
        swapped = construct_next([complete_graph(2), path_graph(3)])
        with pytest.raises(ConstructionSoundnessError) as info:
            certify(swapped)
        assert (info.value.part.index, info.value.part.claimed_grundy) == (0, 0)
        assert info.value.got == 1
        assert str(info.value).startswith(
            "the apex child of part 0 of the witness for value 2 solved to 1;"
        )
        # a repeated value already fails at the root
        w = construct_next([complete_graph(2), complete_graph(2)])
        assert w.k == 2 and w.graph.n == 6
        with pytest.raises(ConstructionSoundnessError) as info:
            certify(w)
        assert info.value.got == 0


class TestWitnessTower:
    def test_deterministic_layout(self):
        w = witness(2)
        assert w.graph.edges() == [
            (0, 1),
            (0, 5),
            (1, 2),
            (2, 5),
            (3, 4),
            (3, 6),
            (4, 6),
            (5, 6),
        ]

    def test_tower_sizes(self):
        assert [witness(k).graph.n for k in range(5)] == [3, 2, 7, 19, 35]

    def test_values_up_to_4(self):
        for k in range(5):
            w = witness(k)
            assert w.certified
            assert w.k == k
            assert w.graph.is_connected()

    def test_child_identities(self):
        w = witness(3)
        full = (1 << w.graph.n) - 1
        for part, _offset, apex in w.recipe.placed():
            child = Position(w.graph, full ^ (1 << apex))
            assert grundy_value(child) == part.claimed_grundy

    def test_padding_alternates(self):
        assert witness(2).recipe.padding_used is False
        assert witness(3).recipe.padding_used is True
        assert witness(4).recipe.padding_used is False

    def test_negative_k(self):
        with pytest.raises(ValueError, match="nonnegative"):
            witness(-1)

    def test_size_cap(self):
        # the tower stops at the input vertex limit, not at a solver cap
        w = witness(6)
        assert w.certified and w.k == 6
        assert w.graph.n == 147
        for k in (7, 30, 10**12):
            with pytest.raises(ValueError, match="limit of 255 vertices"):
                witness(k)

    def test_budget_too_small(self):
        with pytest.raises(NodeBudgetExceeded):
            witness(4, node_budget=10)

    def test_only_the_top_is_certified(self):
        # level 0 needs 6 nodes, but witness(1) certifies only the edge
        with pytest.raises(NodeBudgetExceeded):
            witness(0, node_budget=5)
        assert witness(1, node_budget=3).certified
        with pytest.raises(NodeBudgetExceeded):
            witness(1, node_budget=2)

    @pytest.mark.parametrize("k,n", [(2, 7), (3, 19), (4, 35), (5, 75), (6, 147)])
    def test_top_certificate_needs_twice_its_vertices(self, k, n):
        # the least budget that certifies a witness is twice its vertex count
        assert witness(k, node_budget=2 * n).graph.n == n
        with pytest.raises(NodeBudgetExceeded):
            witness(k, node_budget=2 * n - 1)


class TestCertify:
    def test_mismatch_raises_soundness_error(self):
        fake = Witness(5, path_graph(3), None, certified=False)
        with pytest.raises(ConstructionSoundnessError) as info:
            certify(fake)
        assert info.value.got == 0

    def test_certify_is_pure(self):
        w = construct_next([path_graph(3), complete_graph(2)])
        certified = certify(w)
        assert not w.certified and certified.certified
        assert certified.graph is w.graph


class TestRecipe:
    def test_part_offsets(self):
        recipe = witness(3).recipe
        # padding 3-path, then the tower parts, then the apexes
        assert [(p.index, offset, apex) for p, offset, apex in recipe.placed()] == [
            (-1, 0, 15),
            (0, 3, 16),
            (1, 6, 17),
            (2, 8, 18),
        ]

    def test_claimed_values(self):
        recipe = witness(4).recipe
        assert [(p.index, p.claimed_grundy) for p in recipe.parts] == [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 3),
        ]

    def test_records_only_its_parts(self):
        recipe = witness(3).recipe
        assert [f.name for f in dataclasses.fields(recipe)] == ["k", "parts"]


class TestWitnessRecord:
    def test_base_record(self):
        record = witness_record(witness(1))
        assert record["base_case"]
        assert record["vertices"] == 2
        json.dumps(record)

    def test_tower_record(self):
        record = witness_record(witness(2))
        assert record["vertices"] == 7 and record["edges"] == 8
        assert record["padding_used"] is False
        assert [p["index"] for p in record["parts"]] == [0, 1]
        assert [p["offset"] for p in record["parts"]] == [0, 3]
        assert [a["vertex"] for a in record["apexes"]] == [5, 6]
        assert [a["attached"] for a in record["apexes"]] == [[0, 2], [3, 4]]
        assert record["clique_edges"] == [[5, 6]]
        json.dumps(record)

    def test_padded_tower_record(self):
        record = witness_record(witness(3))
        assert record["vertices"] == 19 and record["edges"] == 27
        assert record["padding_used"] is True
        assert [
            (p["index"], p["claimed_grundy"], p["offset"], p["size"], p["graph6"])
            for p in record["parts"]
        ] == [
            (-1, 0, 0, 3, "Bg"),
            (0, 0, 3, 3, "Bg"),
            (1, 1, 6, 2, "A_"),
            (2, 2, 8, 7, "FgE_w"),
        ]
        assert [(a["index"], a["vertex"], a["attached"]) for a in record["apexes"]] == [
            (-1, 15, [0, 2]),
            (0, 16, [3, 5]),
            (1, 17, [6, 7]),
            (2, 18, [13, 14]),
        ]
        assert record["clique_edges"] == [
            [15, 16],
            [15, 17],
            [15, 18],
            [16, 17],
            [16, 18],
            [17, 18],
        ]

    @pytest.mark.parametrize("k", range(2, 7))
    def test_record_rebuilds_the_graph(self, k):
        w = witness(k)
        record = witness_record(w)
        edges = []
        for part in record["parts"]:
            offset = part["offset"]
            g = from_graph6(part["graph6"])
            edges += [(u + offset, v + offset) for u, v in g.edges()]
        for apex in record["apexes"]:
            edges += [(apex["vertex"], v) for v in apex["attached"]]
        edges += [tuple(e) for e in record["clique_edges"]]
        assert Graph(record["vertices"], edges) == w.graph
