import dataclasses
import json
import random

import pytest

from vertexnim import (
    Graph,
    MoveRule,
    TheoremCheckResult,
    TheoremId,
    add_isolated_vertices,
    check_bipartite_fast_path,
    check_bipartite_parity,
    check_closed_forms,
    check_euler_terminal,
    check_even_even,
    check_isolated_substitution,
    check_nim_sum,
    check_terminal_edge_parity,
    check_witness_construction,
    closed_form_complete,
    closed_form_complete_bipartite,
    closed_form_path,
    closed_form_star,
    complete_graph,
    cycle_graph,
    disjoint_union,
    grundy_value,
    path_graph,
    random_bipartite_graph,
    random_graph,
    replace_isolated_with_p3,
    verify_theorem,
)
from vertexnim.solver import grundy, solve
from vertexnim.theorems import CheckFailure, _reachable_masks


class TestClosedForms:
    def test_examples(self):
        assert closed_form_path(2) == 1
        assert closed_form_complete(5) == 0
        assert closed_form_star(4) == 1
        assert closed_form_complete_bipartite(3, 3) == 1
        assert closed_form_complete_bipartite(2, 3) == 0
        assert closed_form_complete_bipartite(1, 1) == 1

    def test_zero_rejected(self):
        for formula in (closed_form_path, closed_form_complete, closed_form_star):
            with pytest.raises(ValueError):
                formula(0)
        with pytest.raises(ValueError):
            closed_form_complete_bipartite(0, 3)


class TestReplaceIsolated:
    def test_single_vertex_becomes_path(self):
        g = replace_isolated_with_p3(Graph(1))
        assert (g.n, g.edge_count()) == (3, 2)
        assert g.is_connected()
        assert grundy_value(g) == 0

    def test_no_isolated_is_identity(self):
        g = complete_graph(2)
        assert replace_isolated_with_p3(g) is g

    def test_edge_plus_isolated(self):
        g = add_isolated_vertices(complete_graph(2), 1)
        replaced = replace_isolated_with_p3(g)
        assert replaced.n == 5
        assert len(replaced.full_position().connected_components()) == 2
        assert grundy_value(g) == grundy_value(replaced) == 1

    def test_non_isolated_vertices_unchanged(self):
        g = add_isolated_vertices(path_graph(3), 2)
        replaced = replace_isolated_with_p3(g)
        for u, v in g.edges():
            assert replaced.adj[u] >> v & 1
        assert replaced.n == g.n + 4


class TestRandomGenerators:
    def test_deterministic(self):
        a = random_graph(random.Random(5), 8)
        b = random_graph(random.Random(5), 8)
        assert a == b

    def test_bipartite_generator_is_bipartite(self):
        rng = random.Random(6)
        for _ in range(50):
            assert random_bipartite_graph(rng, rng.randint(0, 10)).is_bipartite()


class TestReachableMasks:
    def test_path_3(self):
        reachable = set(_reachable_masks(path_graph(3), MoveRule.ODD))
        assert reachable == {0b111, 0b110, 0b011, 0b100, 0b010, 0b001}

    def test_terminal_start(self):
        assert set(_reachable_masks(cycle_graph(4), MoveRule.ODD)) == {0b1111}


class TestCheckSuites:
    def test_closed_forms_small(self):
        result = check_closed_forms(max_n=6, max_side=3)
        assert result.passed
        assert result.instances_checked == 6 * 3 + 9

    def test_bipartite_parity_small(self):
        result = check_bipartite_parity(max_n=5)
        assert result.passed
        assert result.instances_checked == 1 + 1 + 2 + 7 + 41 + 376 + 3

    def test_terminal_edge_parity_small(self):
        result = check_terminal_edge_parity(max_n=4)
        assert result.passed
        assert result.scale["check"] == "terminal-edge-parity"

    def test_terminal_edge_parity_full_range(self):
        # the acceptance gate stops at 6; the invariant holds through 7
        result = check_terminal_edge_parity(max_n=7)
        assert result.passed
        assert result.instances_checked == 1175528

    def test_euler_terminal_small(self):
        result = check_euler_terminal(max_n=4, all_subsets_max_n=3)
        assert result.passed
        assert result.instances_checked == (1 + 1 + 2 + 8 + 64) + (1 + 2 + 8 + 64)

    def test_even_even_small(self):
        result = check_even_even(max_n=5)
        assert result.passed
        assert result.instances_checked == 1 + 1 + 2 + 8 + 64 + 1024

    def test_nim_sum_small(self):
        result = check_nim_sum(pairs=25, max_n=6, seed=1)
        assert result.passed
        assert result.instances_checked == 25

    def test_substitution_small(self):
        result = check_isolated_substitution(count=25, max_n=6, seed=2)
        assert result.passed

    def test_fast_path_small(self):
        result = check_bipartite_fast_path(count=25, max_n=9, seed=3)
        assert result.passed

    def test_fast_path_checks_solve_value(self, monkeypatch):
        def wrong(g, *args, **kwargs):
            report = solve(g, *args, **kwargs)
            return dataclasses.replace(report, grundy=report.grundy ^ 1)

        monkeypatch.setattr("vertexnim.theorems.solve", wrong)
        result = check_bipartite_fast_path(count=5, max_n=6, seed=3)
        assert result.instances_checked == 5
        assert len(result.failures) == 5 and not result.passed

    def test_fast_path_requires_a_closed_form(self, monkeypatch):
        # the right value from search is still a failure of the fast path
        monkeypatch.setattr("vertexnim.theorems.solve", lambda g: grundy(g))
        result = check_bipartite_fast_path(count=3, max_n=6, seed=3)
        assert [f.got for f in result.failures] == ["brute-force search"] * 3

    def test_witness_small(self):
        result = check_witness_construction(max_k=2)
        assert result.passed
        assert result.instances_checked == 2 + 2 + 6


class TestVerifyTheorem:
    @pytest.mark.parametrize(
        "theorem,kwargs",
        [
            (TheoremId.NIM_SUM, {"count": 10, "max_n": 5}),
            (TheoremId.EVEN_EVEN, {"max_n": 4}),
            (TheoremId.CLOSED_FORMS, {"max_n": 4}),
            (TheoremId.EULER_TERMINAL, {"max_n": 4}),
            (TheoremId.BIPARTITE_PARITY, {"max_n": 4, "count": 10}),
            (TheoremId.ISOLATED_SUBSTITUTION, {"count": 10, "max_n": 5}),
            (TheoremId.WITNESS_CONSTRUCTION, {"max_k": 2}),
        ],
    )
    def test_dispatch(self, theorem, kwargs):
        result = verify_theorem(theorem, **kwargs)
        assert result.theorem is theorem
        assert result.passed
        record = result.to_record()
        json.dumps(record)
        assert record["passed"] is True
        assert "PASS" in result.summary()

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            verify_theorem("not-a-theorem")


class TestTheoremCheckResult:
    def test_no_instances_is_not_a_pass(self):
        result = TheoremCheckResult(TheoremId.NIM_SUM)
        assert not result.passed

    def test_failures_mean_fail(self):
        result = TheoremCheckResult(TheoremId.NIM_SUM, instances_checked=1)
        assert result.passed
        result.add_failure(CheckFailure("A_", 1, 0))
        assert not result.passed
        assert "FAIL" in result.summary()

    def test_failure_cap(self):
        result = TheoremCheckResult(TheoremId.NIM_SUM, instances_checked=1)
        for i in range(1100):
            result.add_failure(CheckFailure("A_", 1, 0, note=str(i)))
        assert len(result.failures) == 1000
        assert result.truncated
        assert "truncated" in result.summary()


def test_sum_law_spot_check():
    g = complete_graph(3)
    h = path_graph(4)
    assert grundy_value(disjoint_union(g, h)) == grundy_value(g) ^ grundy_value(h)
