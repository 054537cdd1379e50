import dataclasses
import inspect
import json
import math
import random

import pytest

from vertexnim import (
    Graph,
    Position,
    TheoremCheckResult,
    TheoremId,
    add_isolated_vertices,
    check_bipartite_parity,
    check_closed_forms,
    check_euler_terminal,
    check_even_even,
    check_isolated_substitution,
    check_nim_sum,
    check_witness_construction,
    closed_form_complete,
    closed_form_complete_bipartite,
    closed_form_path,
    closed_form_star,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_slots,
    grundy_value,
    path_graph,
    random_bipartite_graph,
    random_graph,
    replace_isolated_with_p3,
    to_edge_mask,
    verify_theorem,
)
from vertexnim import theorems
from vertexnim.exhaustive import SWEEP_MAX_N, bipartite_table, census, grundy_tables
from vertexnim.graph import from_edge_mask, iter_bits
from vertexnim.solver import grundy, solve
from vertexnim.theorems import (
    FAILURE_CAP,
    SUITES,
    CheckFailure,
    _closed_trails,
    _covers_once,
    _cycle_space,
    _nth_bit,
    _terminal_edge_parity,
    _terminal_masks,
    _terminal_sweep,
)


def bit_vector(flags) -> int:
    """A level's 0/1 flag bytes as one int, bit ``m`` for edge mask ``m``."""
    return int(bytes(48 + flag for flag in reversed(flags)), 2)


def terminal_part(max_n: int, table=bipartite_table) -> TheoremCheckResult:
    """The terminal part of the bipartite-parity suite alone, on a fresh
    result, with level ``k``'s bipartite graphs taken from ``table(k)``."""
    result = TheoremCheckResult(TheoremId.BIPARTITE_PARITY)
    _terminal_edge_parity(result, [bit_vector(table(k)) for k in range(max_n + 1)])
    return result


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
        assert set(_terminal_masks(path_graph(3))) == {0b100, 0b010, 0b001}

    def test_terminal_start(self):
        assert set(_terminal_masks(cycle_graph(4))) == {0b1111}


class TestTerminalSweep:
    @pytest.mark.parametrize("k", range(7))
    def test_matches_the_per_graph_walk(self, k):
        sweep = {
            (mask, alive)
            for alive, terminal, _ in _terminal_sweep(k, bit_vector(bipartite_table(k)))
            for mask in iter_bits(terminal)
        }
        walk = {
            (mask, alive)
            for mask, flag in enumerate(bipartite_table(k))
            if flag
            for alive in _terminal_masks(from_edge_mask(k, mask))
        }
        assert sweep == walk

    def test_parity_is_the_edge_count_inside(self):
        slots = edge_slots(5)
        sweep = _terminal_sweep(5, bit_vector(bipartite_table(5)))
        for alive, terminal, parity in sweep:
            for mask in iter_bits(terminal | parity):
                inside = sum(
                    (mask >> s & alive >> i & alive >> j & 1)
                    for s, (i, j) in enumerate(slots)
                )
                assert (parity >> mask & 1) == inside % 2

    def test_alive_sets_descend(self):
        sweep = _terminal_sweep(6, bit_vector(bipartite_table(6)))
        order = [alive for alive, _, _ in sweep]
        assert order == sorted(order, reverse=True)

    def test_nth_bit(self):
        rng = random.Random(7)
        for _ in range(200):
            x = rng.getrandbits(rng.randint(1, 5000)) | 1
            bits = list(iter_bits(x))
            rank = rng.randrange(len(bits))
            assert _nth_bit(x, rank) == bits[rank]


BOWTIE = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


def hierholzer(g):
    slots = edge_slots(g.n)
    incident = [
        sum(1 << s for s, pair in enumerate(slots) if v in pair) for v in range(g.n)
    ]
    return _closed_trails(slots, incident, to_edge_mask(g))


class TestEulerCertificate:
    def test_bowtie_is_one_closed_trail(self):
        trails = hierholzer(BOWTIE)
        assert len(trails) == 1 and len(trails[0]) == 7
        assert _covers_once(to_edge_mask(BOWTIE), trails)

    def test_one_trail_per_component(self):
        g = disjoint_union(complete_graph(3), cycle_graph(4))
        trails = hierholzer(g)
        assert [sorted(set(t)) for t in trails] == [[0, 1, 2], [3, 4, 5, 6]]
        assert _covers_once(to_edge_mask(g), trails)

    def test_odd_degrees_give_no_certificate(self):
        for g in (complete_graph(4), path_graph(3), Graph(4, [(0, 1), (2, 3)])):
            assert not _covers_once(to_edge_mask(g), hierholzer(g))

    @pytest.mark.parametrize(
        "trails",
        [
            [[0, 1, 2, 0]],  # misses the triangle {0, 3, 4}
            [[0, 1, 2, 0], [0, 1, 2, 0]],  # uses edges twice
            [[0, 1, 2, 0, 3, 4]],  # not closed
            [[0, 1, 2, 0, 3, 4, 0, 0]],  # a step from a vertex to itself
        ],
    )
    def test_certificate_rejects(self, trails):
        assert not _covers_once(to_edge_mask(BOWTIE), trails)


@pytest.mark.parametrize("max_n", [-1, 8])
@pytest.mark.parametrize(
    "caller,sweep",
    [
        ("exhaustive sweep", grundy_tables),
        ("bipartite table", bipartite_table),
        ("census", census),
        ("even-even", check_even_even),
        ("bipartite-parity", check_bipartite_parity),
        ("euler-terminal", check_euler_terminal),
    ],
)
def test_every_sweep_refuses_a_bad_max_n_before_any_work(
    caller, sweep, max_n, monkeypatch
):
    def never(*args):
        raise AssertionError("built a table before refusing")

    for builder in ("exhaustive.edge_slots", "exhaustive._level_tables"):
        monkeypatch.setattr(f"vertexnim.{builder}", never)
    for builder in ("_degree_parities", "bipartite_table", "_cycle_space"):
        monkeypatch.setattr(f"vertexnim.theorems.{builder}", never)
    with pytest.raises(ValueError, match=f"^{caller} is capped at n=7: .* got {max_n}$"):
        sweep(max_n)


@pytest.mark.parametrize("sweep", [check_even_even, check_bipartite_parity])
def test_sweeping_suites_refuse_a_negative_budget_before_any_work(sweep, monkeypatch):
    def never(*args):
        raise AssertionError("built a table before refusing")

    for builder in ("exhaustive.edge_slots", "exhaustive._level_tables"):
        monkeypatch.setattr(f"vertexnim.{builder}", never)
    for builder in ("_degree_parities", "bipartite_table", "_cycle_space"):
        monkeypatch.setattr(f"vertexnim.theorems.{builder}", never)
    with pytest.raises(ValueError, match="^node budget must be nonnegative, got -1$"):
        sweep(budget=-1)


class TestCheckSuites:
    def test_closed_forms_small(self):
        result = check_closed_forms(max_n=6)
        assert result.passed
        assert result.instances_checked == 6 * 3 + 25

    def test_closed_forms_refuses_a_negative_max_n(self):
        with pytest.raises(ValueError, match="^closed-forms: max_n must be at least 0"):
            check_closed_forms(max_n=-3)

    def test_nim_sum_refuses_a_negative_max_n(self):
        with pytest.raises(ValueError, match="^nim-sum: max_n must be at least 0, got -1$"):
            check_nim_sum(count=3, max_n=-1)

    def test_isolated_substitution_refuses_a_negative_max_n(self):
        with pytest.raises(
            ValueError, match="^isolated-substitution: max_n must be at least 0, got -1$"
        ):
            check_isolated_substitution(count=3, max_n=-1)

    def test_bipartite_parity_crosschecks_every_level_with_the_engine(
        self, monkeypatch
    ):
        monkeypatch.setattr("vertexnim.theorems.grundy_value", lambda g, **kw: 7)
        result = check_bipartite_parity(max_n=4, count=1)
        assert result.scale["parts"][0]["engine_crosschecks"] == 5
        # rank 0 of each level is its edgeless graph
        assert [
            f.graph6 for f in result.failures if f.note == "sweep vs per-graph engine"
        ] == ["?", "@", "A?", "B?", "C?"]

    def test_bipartite_parity_reports_wrong_values_in_mask_order(self, monkeypatch):
        def corrupted(max_n, rule):
            tables = grundy_tables(max_n, rule)
            tables[4][3] = 2  # two edges at vertex 0: value 0
            tables[4][1] = 0  # one edge: value 1
            tables[3][7] = 1  # the triangle is not bipartite, so not checked
            return tables

        monkeypatch.setattr("vertexnim.theorems.grundy_tables", corrupted)
        result = check_bipartite_parity(max_n=4, count=1)
        assert [(f.graph6, f.expected, f.got, f.note) for f in result.failures] == [
            ("C_", 1, 0, ""),
            ("Co", 0, 2, ""),
        ]

    def test_bipartite_parity_suite_builds_each_level_once(self, monkeypatch):
        built = []

        def counted(n):
            built.append(n)
            return bipartite_table(n)

        monkeypatch.setattr("vertexnim.theorems.bipartite_table", counted)
        result = verify_theorem(TheoremId.BIPARTITE_PARITY, max_n=5, count=3)
        assert result.passed
        assert sorted(built) == list(range(6))

    def test_bipartite_parity_small(self):
        result = check_bipartite_parity(max_n=5, count=1)
        assert result.passed
        # the bipartite graphs and 3 grids, 1,924 terminal positions, 1 sample
        assert result.instances_checked == 1 + 1 + 2 + 7 + 41 + 376 + 3 + 1924 + 1

    def test_terminal_edge_parity_small(self):
        result = check_bipartite_parity(max_n=4, count=1)
        assert result.passed
        assert result.scale["parts"][1] == {"max_n": 4, "check": "terminal-edge-parity"}
        assert terminal_part(4).instances_checked == 153

    def test_terminal_edge_parity_default_is_the_sweep_range(self):
        # the terminal part follows the suite's max_n
        default = inspect.signature(check_bipartite_parity).parameters["max_n"]
        assert default.default == SWEEP_MAX_N

    def test_terminal_edge_parity_catches_a_wrong_bipartite_table(self):
        # K3, and a triangle with a pendant edge at vertex 2 (the pendant
        # vertex 3 is removed first, leaving the triangle terminal)
        paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        wrong = {3: to_edge_mask(complete_graph(3)), 4: to_edge_mask(paw)}

        def with_triangles(n):
            flags = bipartite_table(n)
            if n in wrong:
                flags[wrong[n]] = 1
            return flags

        result = terminal_part(4, with_triangles)
        assert not result.passed
        assert [f.to_record() for f in result.failures] == [
            {
                "graph6": graph6,
                "expected": "even edge count",
                "got": 3,
                "note": "terminal alive set 0x7",
            }
            for graph6 in ("Bw", "Cx")
        ]

    def test_terminal_edge_parity_truncates_its_failures(self):
        every_graph = lambda n: bytearray([1]) * 2 ** math.comb(n, 2)
        result = terminal_part(6, every_graph)
        assert len(result.failures) == FAILURE_CAP and result.truncated

    # ranks 0, 9973, 19946 and 29919 of each level are cross-checked: rank 0
    # of levels 0-5, then four of level 6's 36,873 instances
    CROSSCHECKED = [
        ("?", 0x0),
        ("@", 0x1),
        ("A?", 0x3),
        ("B?", 0x7),
        ("C?", 0xF),
        ("D??", 0x1F),
        ("E???", 0x3F),
        ("EEi_", 0x22),
        ("EP@O", 0x11),
        ("Ec_O", 0x5),
    ]

    def test_terminal_edge_parity_crosschecks_the_per_graph_walk(self, monkeypatch):
        monkeypatch.setattr("vertexnim.theorems._terminal_masks", lambda g: iter(()))
        result = terminal_part(6)
        assert result.instances_checked == 38797
        assert [(f.graph6, f.note, f.got) for f in result.failures] == [
            (graph6, f"terminal alive set {alive:#x}, per-graph walk", "not reached")
            for graph6, alive in self.CROSSCHECKED
        ]

    def test_terminal_edge_parity_crosschecks_the_position_api(self, monkeypatch):
        is_terminal = Position.is_terminal
        monkeypatch.setattr(
            Position, "is_terminal", lambda self, rule: not is_terminal(self, rule)
        )
        monkeypatch.setattr(Position, "edge_count", lambda self: 1)
        result = terminal_part(6)
        assert [(f.graph6, f.note, f.expected) for f in result.failures] == [
            (graph6, f"terminal alive set {alive:#x}, Position API", expected)
            for graph6, alive in self.CROSSCHECKED
            for expected in ("terminal", "even edge count")
        ]

    def test_euler_terminal_small(self):
        result = check_euler_terminal(max_n=4)
        assert result.passed
        assert result.instances_checked == 76 + 33867

    @pytest.mark.parametrize("n", range(8))
    def test_cycle_space_size(self, n):
        # dimension |E| - |V| + 1 = C(n-1, 2) for K_n; K_0 has only the empty set
        assert _cycle_space(n).count(1) == (2 ** math.comb(n - 1, 2) if n else 1)

    def test_euler_terminal_catches_a_wrong_flag_table(self, monkeypatch):
        def wrong(n):
            flags = _cycle_space(n)
            if n >= 2:
                flags[1] = 1  # the single edge {0, 1} is no cycle
            return flags

        monkeypatch.setattr("vertexnim.theorems._cycle_space", wrong)
        result = check_euler_terminal(max_n=4)
        assert not result.passed
        got = {(f.graph6, f.note, f.expected): f.got for f in result.failures}
        assert got["A_", "alive set 0x3", "terminal == eulerian"] == (False, True)
        # Hierholzer's trail on the single edge is not closed
        trails = got["A_", "alive set 0x3", "closed trails using each edge once"]
        assert trails == [[1, 0]]
        # alive {0, 1} of the triangle, from the every-alive-subset part
        assert got["Bw", "alive set 0x3", "terminal == eulerian"] == (False, True)

    def test_euler_terminal_catches_a_wrong_subset_parity(self, monkeypatch):
        # the every-alive-subset part starts its parity walk here; the full
        # positions read the sweep's row plan instead
        monkeypatch.setattr(Graph, "odd_degree_vertices", lambda self: 0)
        result = check_euler_terminal(max_n=4)
        assert not result.passed
        assert ("A_", "alive set 0x3", (True, False)) in {
            (f.graph6, f.note, f.got) for f in result.failures
        }
        assert all(f.note.startswith("alive set 0x") for f in result.failures)

    def test_euler_terminal_crosschecks_the_position_api(self, monkeypatch):
        is_terminal = Position.is_terminal
        monkeypatch.setattr(
            Position, "is_terminal", lambda self, rule: not is_terminal(self, rule)
        )
        result = check_euler_terminal(max_n=4)
        # ranks 0, 9973, 19946 and 29919 of each level are cross-checked: 5
        # full-position levels, then 1, 1, 1, 1, 1 and 4 every-alive-subset ones
        assert result.instances_checked == 33943
        assert len(result.failures) == 14
        for f in result.failures:
            assert f.note.endswith(", Position API")
            assert f.got == (not f.expected[0], f.expected[1])

    def test_even_even_small(self):
        result = check_even_even(max_n=5)
        assert result.passed
        assert result.instances_checked == 1 + 1 + 2 + 8 + 64 + 1024

    def test_nim_sum_small(self):
        result = check_nim_sum(count=25, max_n=6, seed=1)
        assert result.passed
        assert result.instances_checked == 25

    def test_substitution_small(self):
        result = check_isolated_substitution(count=25, max_n=6, seed=2)
        assert result.passed

    # at max_n=0 the suite checks 1 graph, 3 grids and 1 terminal position
    # before its sample, none of which calls solve

    def test_fast_path_small(self):
        result = check_bipartite_parity(max_n=0, count=25, seed=3)
        assert result.passed
        assert result.instances_checked == 5 + 25

    def test_fast_path_checks_solve_value(self, monkeypatch):
        def wrong(g, *args, **kwargs):
            report = solve(g, *args, **kwargs)
            return dataclasses.replace(report, grundy=report.grundy ^ 1)

        monkeypatch.setattr("vertexnim.theorems.solve", wrong)
        result = check_bipartite_parity(max_n=0, count=5, seed=3)
        assert result.instances_checked == 5 + 5
        assert len(result.failures) == 5 and not result.passed

    def test_fast_path_requires_a_closed_form(self, monkeypatch):
        # the right value from search is still a failure of the fast path
        monkeypatch.setattr("vertexnim.theorems.solve", lambda g: grundy(g))
        result = check_bipartite_parity(max_n=0, count=3, seed=3)
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

    def test_suites_cover_every_theorem(self):
        assert list(SUITES) == list(TheoremId)

    def test_suites_take_only_scale_flags(self):
        flags = {"max_n", "count", "seed", "max_k", "budget"}
        for suite in SUITES.values():
            assert inspect.signature(suite).parameters.keys() <= flags, suite

    def test_nim_sum_keeps_the_pairs_scale_key(self):
        result = verify_theorem(TheoremId.NIM_SUM, count=3, max_n=4)
        assert result.scale == {"pairs": 3, "max_n": 4, "seed": 1009}
        assert result.instances_checked == 3

    def test_bipartite_parity_terminal_part_follows_max_n(self, monkeypatch):
        seen = []

        def record(k, bipartite):
            seen.append((k, bipartite))
            return iter(())

        monkeypatch.setattr("vertexnim.theorems._terminal_sweep", record)
        SUITES[TheoremId.BIPARTITE_PARITY](max_n=7, count=1)
        # every level up to max_n, each with the vector the value part parsed
        assert [k for k, _ in seen] == list(range(8))
        assert all(bipartite == bit_vector(bipartite_table(k)) for k, bipartite in seen)

    def test_every_suite_is_its_public_check(self):
        for theorem in TheoremId:
            name = "check_" + theorem.value.replace("-", "_")
            assert SUITES[theorem] is getattr(theorems, name)

    def test_no_other_public_check(self):
        public = {name for name in vars(theorems) if name.startswith("check_")}
        assert public == {suite.__name__ for suite in SUITES.values()}

    @pytest.mark.parametrize(
        "suite,kwargs,message",
        [
            (check_nim_sum, {"count": 0}, "nim-sum: count must be at least 1, got 0"),
            (
                check_isolated_substitution,
                {"count": -3},
                "isolated-substitution: count must be at least 1, got -3",
            ),
            (
                check_witness_construction,
                {"max_k": -1},
                "witness-construction: max_k must be at least 0, got -1",
            ),
            (
                check_bipartite_parity,
                {"count": 0},
                "bipartite-parity: count must be at least 1, got 0",
            ),
        ],
    )
    def test_suites_refuse_a_scale_below_range_before_any_work(
        self, suite, kwargs, message, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("worked before refusing")

        for work in ("grundy_value", "grundy_tables", "bipartite_table", "random_graph"):
            monkeypatch.setattr(theorems, work, never)
        monkeypatch.setattr("vertexnim.construction.witness", never)
        with pytest.raises(ValueError, match=f"^{message}$"):
            suite(**kwargs)

    def test_euler_terminal_refuses_large_n_before_enumerating(self, monkeypatch):
        def never(n):
            raise AssertionError("enumerated before refusing")

        monkeypatch.setattr("vertexnim.theorems._cycle_space", never)
        with pytest.raises(ValueError, match="got 8"):
            check_euler_terminal(max_n=8)


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
