import dataclasses
import hashlib
import inspect
import itertools
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
    from_graph6,
    grundy_value,
    path_graph,
    random_bipartite_graph,
    random_graph,
    replace_isolated_with_p3,
    star_graph,
    to_edge_mask,
    to_graph6,
    verify_theorem,
)
from vertexnim import theorems
from vertexnim.exhaustive import SWEEP_MAX_N, bipartite_table, census, grundy_tables
from vertexnim.graph import from_edge_mask, iter_bits
from vertexnim.solver import Lattice, NodeBudgetExceeded, grundy, grundy_even_even
from vertexnim.solver import solve
from vertexnim.theorems import (
    FAILURE_CAP,
    SUITES,
    _alive_sets,
    _alive_subsets,
    _closed_trails,
    _covers_once,
    _cycle_space,
    _cycles,
    _nth_bit,
    _slot_vectors,
    _terminal_edge_parity,
    _terminal_masks,
    _terminal_sweep,
    _uncertified,
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

    # SHA-256 of the graph6 lines of each generator's first 100 samples, on
    # n = 0..12 in turn, recorded when the generators built their graphs
    # through Graph's per-edge validation
    SAMPLES = {
        (random_graph, 1009): (
            "c691385d32bbe3f0dc857e431b02d21a9e6e37f05fa29d9bee1a13f543e5c70f"
        ),
        (random_graph, 1013): (
            "4417f8c824314288de04014bfa71ab3bdbb41aa2d0366e9569fa93988aae0bfe"
        ),
        (random_graph, 1021): (
            "659f04ed9db8f88a1f465329f049f30a12115045c26a9862d81dc28b0f917ba0"
        ),
        (random_bipartite_graph, 1009): (
            "3a1d7349ebcc41ae54a09f78b371137af2d7b4a1eaf7414fdb08d01cfe19bfc2"
        ),
        (random_bipartite_graph, 1013): (
            "a9bdc4cde3b30dc16ac4e82ea786fe24ca9ad5a8294aed662951d6b099ef9a25"
        ),
        (random_bipartite_graph, 1021): (
            "d919756d33e82a1ecc58fc57e29a87f00d18f56d2614bc88891710b193fb9207"
        ),
    }

    @pytest.mark.parametrize("generator, seed", SAMPLES)
    def test_first_samples_are_pinned(self, generator, seed):
        rng = random.Random(seed)
        graphs = [generator(rng, i % 13) for i in range(100)]
        for g in graphs:
            assert g == Graph(g.n, g.edges())
        lines = "\n".join(map(to_graph6, graphs))
        digest = hashlib.sha256(lines.encode()).hexdigest()
        assert digest == self.SAMPLES[generator, seed]

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="got -1"):
            random_graph(random.Random(1), -1)

    @pytest.mark.parametrize("generator", [random_graph, random_bipartite_graph])
    def test_negative_order_is_refused_before_any_draw(self, generator):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(
            ValueError, match="^vertex count must be nonnegative, got -1$"
        ):
            generator(rng, -1)
        assert rng.getstate() == state


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


def planes_of(alive: int, between: list) -> list:
    """Each vertex's odd-degree plane inside ``alive``, one XOR of
    ``between[u][v]`` per alive ``u``: the reference the walk is checked
    against."""
    k = len(between)
    planes = []
    for v in range(k):
        odd = 0
        for u in range(k):
            if alive >> u & 1:
                odd ^= between[u][v]
        planes.append(odd if alive >> v & 1 else 0)
    return planes


class TestAliveSets:
    @pytest.mark.parametrize("k", range(7))
    def test_every_set_once_descending_with_its_planes_and_parity(self, k):
        # the full set's start is checked as the walk's first set
        vectors, between, planes, parity = _slot_vectors(k)
        slots = edge_slots(k)
        order = []
        for alive, planes, parity in _alive_sets(between, planes, parity):
            order.append(alive)
            assert list(planes) == planes_of(alive, between)
            inside = 0
            for (i, j), vector in zip(slots, vectors):
                if alive >> i & alive >> j & 1:
                    inside ^= vector
            assert parity == inside
        assert order == list(range((1 << k) - 1, -1, -1))

    def test_terminal_sweep_yields_are_pinned(self):
        # recorded from the sweep that recomputed every member's odd vector
        digest = hashlib.sha256()
        for k in range(7):
            for alive, terminal, parity in _terminal_sweep(
                k, bit_vector(bipartite_table(k))
            ):
                digest.update(f"{k} {alive} {terminal:x} {parity:x}\n".encode())
        assert (
            digest.hexdigest()
            == "5d60a084b1469ce6888176fbd757b6a37ca43b7bd318f445c35c78feaec1d342"
        )


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


def hierholzer_loop(n: int, flags) -> list:
    """``(mask, trails)`` of each flagged mask whose Hierholzer trails fail
    :func:`_covers_once`, one walk per mask: the loop that peeling replaced."""
    slots = edge_slots(n)
    incident = [
        sum(1 << s for s, pair in enumerate(slots) if v in pair) for v in range(n)
    ]
    failing = []
    for mask in itertools.compress(range(len(flags)), flags):
        trails = _closed_trails(slots, incident, mask)
        if not _covers_once(mask, trails):
            failing.append((mask, trails))
    return failing


# a triangle on {1, 2, 3} and a pendant edge 01: the triangle lies under
# the mask's highest slot, 23, but the rest, the lone edge, is no cycle
TRIANGLE_AND_PENDANT = to_edge_mask(Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)]))


class TestPeelingCertificate:
    @pytest.mark.parametrize("n", range(8))
    def test_cycle_counts(self, n):
        lists = _cycles(n)
        assert len(lists) == math.comb(n, 2)
        assert sum(map(len, lists)) == [0, 0, 0, 1, 7, 37, 197, 1172][n]

    @pytest.mark.parametrize("n", range(8))
    def test_each_cycle_is_one_two_regular_component(self, n):
        for slot, masks in enumerate(_cycles(n)):
            assert len(set(masks)) == len(masks)
            sizes = [mask.bit_count() for mask in masks]
            assert sizes == sorted(sizes)
            for mask in masks:
                assert mask.bit_length() - 1 == slot
                g = from_edge_mask(n, mask)
                parts = g.full_position().connected_components()
                (cycle,) = [part for part in parts if part.bit_count() > 1]
                assert all(g.degree(v) == 2 for v in iter_bits(cycle))

    def test_a_cycle_the_check_rejects_is_not_listed(self, monkeypatch):
        covers_once = _covers_once
        triangle = to_edge_mask(complete_graph(3))
        monkeypatch.setattr(
            "vertexnim.theorems._covers_once",
            lambda mask, trails: mask != triangle and covers_once(mask, trails),
        )
        # the lists are cached per n: build them under the patch, and leave
        # none built under it for later tests
        _cycles.cache_clear()
        try:
            lists = _cycles(4)
        finally:
            _cycles.cache_clear()
        assert triangle not in lists[2]
        assert sum(map(len, lists)) == 6

    @pytest.mark.parametrize("flips", [1, 5, 40])
    @pytest.mark.parametrize("n", range(7))
    def test_matches_the_per_mask_loop(self, n, flips):
        # seeded flips flag masks outside the cycle space and unflag members,
        # so both the peeling chain and its fallback are exercised
        rng = random.Random(100 * n + flips)
        flags = _cycle_space(n)
        for mask in rng.sample(range(len(flags)), min(flips, len(flags))):
            flags[mask] ^= 1
        assert list(_uncertified(n, flags, _cycles(6))) == hierholzer_loop(n, flags)

    def test_a_cycle_with_an_uncertified_rest_is_reported(self, monkeypatch):
        cycle_space = _cycle_space

        def with_pendant(n):
            flags = cycle_space(n)
            if n == 4:
                flags[TRIANGLE_AND_PENDANT] = 1
            return flags

        flags = with_pendant(4)
        expected = [(TRIANGLE_AND_PENDANT, [[1, 3, 2, 1, 0]])]
        assert list(_uncertified(4, flags, _cycles(4))) == expected
        assert hierholzer_loop(4, flags) == expected
        monkeypatch.setattr("vertexnim.theorems._cycle_space", with_pendant)
        rows = failure_rows(check_euler_terminal(max_n=4))
        assert rows[:2] == [
            ("Cj", "terminal == eulerian", (False, True), "alive set 0xf"),
            (
                "Cj",
                "closed trails using each edge once",
                [[1, 3, 2, 1, 0]],
                "alive set 0xf",
            ),
        ]


def per_position(n: int, flags) -> dict:
    """``(terminal, eulerian)`` of every ``(mask, alive)`` on ``n`` vertices,
    one position at a time: a graph per edge mask, its degree-parity vectors
    walked down by the engine's deletion update, and the cycle-space flag of
    the edges inside each alive set."""
    full = (1 << n) - 1
    slots = edge_slots(n)
    inside = [
        sum(1 << s for s, (i, j) in enumerate(slots) if alive >> i & alive >> j & 1)
        for alive in range(full + 1)
    ]
    out = {}
    for mask in range(len(flags)):
        g = from_edge_mask(n, mask)
        odd = [0] * (full + 1)
        odd[full] = g.odd_degree_vertices()
        for alive in range(full - 1, -1, -1):
            dead = ~alive & (alive + 1)
            odd[alive] = (odd[alive | dead] ^ g.adj[dead.bit_length() - 1]) & alive
        for alive in range(full + 1):
            out[mask, alive] = (not odd[alive], flags[mask & inside[alive]] == 1)
    return out


def failure_rows(result) -> list:
    return [(f.graph6, f.expected, f.got, f.note) for f in result.failures]


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def count_encodings(monkeypatch) -> list:
    """Wrap ``theorems.to_graph6``; the list collects each encoded graph."""
    encode = theorems.to_graph6
    encoded = []

    def to_graph6(graph):
        encoded.append(graph)
        return encode(graph)

    monkeypatch.setattr("vertexnim.theorems.to_graph6", to_graph6)
    return encoded


def zero_start_planes(monkeypatch) -> None:
    """Wrap ``theorems._slot_vectors`` so the alive-set walk starts with no
    odd-degree vertex in any graph."""

    def even(k):
        vectors, between, _, parity = _slot_vectors(k)
        return vectors, between, [0] * k, parity

    monkeypatch.setattr("vertexnim.theorems._slot_vectors", even)


class TestAliveSubsets:
    @pytest.mark.parametrize("n", range(theorems.EULER_ALL_SUBSETS_MAX_N + 1))
    def test_bits_match_the_per_position_walk(self, n):
        flags = _cycle_space(n)
        expected = per_position(n, flags)
        walked = list(_alive_subsets(n, flags))
        assert sorted(alive for alive, _, _ in walked) == list(range(1 << n))
        for alive, terminal, eulerian in walked:
            assert terminal >> len(flags) == eulerian >> len(flags) == 0
            for mask in range(len(flags)):
                got = (terminal >> mask & 1 == 1, eulerian >> mask & 1 == 1)
                assert got == expected[mask, alive]

    @pytest.mark.parametrize("n", [4, 5])
    def test_eulerian_bits_spread_any_flag_table(self, n):
        # seeded flags that are no cycle space: each alive set's Eulerian
        # bits are still the flag of the edges inside it
        rng = random.Random(n)
        flags = bytearray(rng.randrange(2) for _ in range(1 << math.comb(n, 2)))
        expected = per_position(n, flags)
        for alive, _, eulerian in _alive_subsets(n, flags):
            for mask in range(len(flags)):
                assert (eulerian >> mask & 1 == 1) == expected[mask, alive][1]

    @pytest.mark.parametrize("n", range(7))
    def test_start_is_every_host_graphs_odd_degree_vertices(self, n):
        # the walk starts from _slot_vectors' planes: bit m of plane v is v's
        # degree parity in the graph of edge mask m, for every edge mask up
        # to n = 6 (32,768 graphs), the every-alive-subset part's bound
        planes = _slot_vectors(n)[2]
        odd = [from_edge_mask(n, m).odd_degree_vertices() for m in range(1 << math.comb(n, 2))]
        expected = [int("".join(str(o >> v & 1) for o in reversed(odd)), 2) for v in range(n)]
        assert planes == expected

    # check_euler_terminal(max_n=4) under three faults, as the per-position
    # loop reported them: (count, truncated, SHA-256 of the capped rows, SHA-256
    # of the rows with no cap, first rows)
    FAULTS = {
        "wrong flag table": (
            1000,
            True,
            "aa6215e4191379d6b5bc820f6027a77f2cb1b3a3b0bbe96446b1b27223965541",
            (1006, "5e93d7faaa94c458941eeb590a0f6ffabc150b1486f22222cbb3d23ab8fdfe20"),
            [
                ("A_", "terminal == eulerian", (False, True), "alive set 0x3"),
                ("A_", "closed trails using each edge once", [[1, 0]], "alive set 0x3"),
                ("B_", "terminal == eulerian", (False, True), "alive set 0x7"),
            ],
        ),
        "no odd-degree vertex": (
            1000,
            True,
            "c51616b5079f786f4431f099c6398b7182968df4e04d950c341bc539d7e8b94e",
            (13211, "ad9d3e88901defcd1cb5932645012f891c7338f58ba4a505863bf53de09cd098"),
            [
                ("A_", "terminal == eulerian", (False, True), "alive set 0x1"),
                ("A_", "terminal == eulerian", (False, True), "alive set 0x2"),
                ("A_", "terminal == eulerian", (True, False), "alive set 0x3"),
            ],
        ),
        "inverted is_terminal": (
            14,
            False,
            "81935539f20f12dba3aec5d36673cb3d52b221e8d2946af5540e8c746924c686",
            (14, "81935539f20f12dba3aec5d36673cb3d52b221e8d2946af5540e8c746924c686"),
            [
                ("?", (True, True), (False, True), "alive set 0x0, Position API"),
                ("@", (True, True), (False, True), "alive set 0x1, Position API"),
                ("A?", (True, True), (False, True), "alive set 0x3, Position API"),
            ],
        ),
    }

    @staticmethod
    def inject(fault, monkeypatch):
        if fault == "wrong flag table":
            cycle_space = _cycle_space

            def wrong(n):
                flags = cycle_space(n)
                if n >= 2:
                    flags[1] = 1
                return flags

            monkeypatch.setattr("vertexnim.theorems._cycle_space", wrong)
        elif fault == "no odd-degree vertex":
            zero_start_planes(monkeypatch)
        else:
            is_terminal = Position.is_terminal
            monkeypatch.setattr(
                Position, "is_terminal", lambda self, rule: not is_terminal(self, rule)
            )

    @pytest.mark.parametrize("fault", FAULTS)
    def test_faults_are_reported_in_order(self, fault, monkeypatch):
        count, truncated, digest, _, head = self.FAULTS[fault]
        self.inject(fault, monkeypatch)
        result = check_euler_terminal(max_n=4)
        rows = failure_rows(result)
        assert (len(rows), result.truncated, rows[:3]) == (count, truncated, head)
        assert rows_digest(rows) == digest
        assert result.instances_checked == 33943

    def test_failures_past_the_cap_encode_no_graph6(self, monkeypatch):
        count, truncated, digest, _, _ = self.FAULTS["no odd-degree vertex"]
        self.inject("no odd-degree vertex", monkeypatch)
        encoded = count_encodings(monkeypatch)
        result = check_euler_terminal(max_n=4)
        rows = failure_rows(result)
        assert (len(encoded), len(rows)) == (FAILURE_CAP, count)
        assert result.truncated == truncated
        assert rows_digest(rows) == digest

    @pytest.mark.parametrize("fault", FAULTS)
    def test_faults_past_the_cap_are_reported_in_order(self, fault, monkeypatch):
        uncapped = self.FAULTS[fault][3]
        self.inject(fault, monkeypatch)
        monkeypatch.setattr("vertexnim.theorems.FAILURE_CAP", 10**6)
        rows = failure_rows(check_euler_terminal(max_n=4))
        assert (len(rows), rows_digest(rows)) == uncapped


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


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), 2.5, True])
def test_even_even_refuses_a_budget_that_is_not_an_int_before_any_work(
    budget, monkeypatch
):
    def never(*args):
        raise AssertionError("built a table before refusing")

    for builder in ("exhaustive.edge_slots", "exhaustive._level_tables"):
        monkeypatch.setattr(f"vertexnim.{builder}", never)
    for builder in ("_degree_parities", "bipartite_table", "_cycle_space"):
        monkeypatch.setattr(f"vertexnim.theorems.{builder}", never)
    with pytest.raises(TypeError, match=f"^node budget must be an int, got {budget!r}$"):
        check_even_even(budget=budget)


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
        assert [dataclasses.asdict(f) for f in result.failures] == [
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
        # the every-alive-subset part starts its parity walk from these
        # planes; the full positions read the sweep's row plan instead
        zero_start_planes(monkeypatch)
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

    @pytest.mark.parametrize(
        "n, kind, failure, instances",
        [
            # every apex child of witness(3): its padding part is checked first
            (19, Position, (0, 1, "witness(3) child of part -1"), 2 + 2 + 6 + 1 + 8),
            (7, Graph, (2, 3, "witness(2)"), 2 + 2 + 1 + 8 + 8),
        ],
    )
    def test_witness_broken_certificate_is_recorded(
        self, witness_lie, n, kind, failure, instances
    ):
        witness_lie(n, kind)
        result = check_witness_construction()
        assert [(f.expected, f.got, f.note) for f in result.failures] == [failure]
        # recorded on the witness graph itself
        assert [from_graph6(f.graph6).n for f in result.failures] == [n]
        assert result.instances_checked == instances

    def test_witness_with_a_stray_part_fails_connectivity_and_movable_set(
        self, monkeypatch
    ):
        # witness(2) with a stray edge beside it: still the right value, but
        # disconnected, its apex children off by the edge, and the edge's
        # ends movable
        from vertexnim import construction

        real = construction.witness

        def stray(k, node_budget):
            w = real(k, node_budget)
            if k != 2:
                return w
            return dataclasses.replace(w, graph=disjoint_union(w.graph, complete_graph(2)))

        monkeypatch.setattr(construction, "witness", stray)
        result = check_witness_construction(max_k=2)
        assert result.instances_checked == 10
        assert [(f.expected, f.got, f.note) for f in result.failures] == [
            ("connected", False, "witness(2)"),
            (0, 1, "witness(2) child at apex 5"),
            (1, 0, "witness(2) child at apex 6"),
            ("movable set 0x60", "0x1e0", "witness(2) root movable vertices"),
        ]
        assert {f.graph6 for f in result.failures} == {"HgE_w?@"}


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


class TestNotesPastTheCap:
    # the kept rows are pinned as recorded before the notes were deferred
    def test_nim_sum_encodes_no_parts_past_the_cap(self, monkeypatch):
        monkeypatch.setattr("vertexnim.theorems.nim_sum", lambda a, b: -1)
        encoded = count_encodings(monkeypatch)
        result = check_nim_sum(count=3000, max_n=6)
        rows = failure_rows(result)
        assert len(encoded) == 3 * FAILURE_CAP
        assert (len(rows), result.truncated, rows[0]) == (
            1000,
            True,
            ("C?", -1, 0, "parts @ and B?"),
        )
        assert (
            rows_digest(rows)
            == "2fa2e2c9155019f1d798eb9a5cb2c7b4ef2731915608fd057da27234b9e621ac"
        )

    def test_isolated_substitution_encodes_no_replacement_past_the_cap(
        self, monkeypatch
    ):
        # every other solve, the unreplaced graph's, is off by one
        value = theorems.grundy_value
        calls = itertools.count()
        monkeypatch.setattr(
            "vertexnim.theorems.grundy_value",
            lambda g, **kw: value(g, **kw) + (next(calls) % 2 == 0),
        )
        encoded = count_encodings(monkeypatch)
        result = check_isolated_substitution(count=3000, max_n=6)
        rows = failure_rows(result)
        assert len(encoded) == 2 * FAILURE_CAP
        assert (len(rows), result.truncated, rows[0]) == (
            1000,
            True,
            ("C?", 1, 0, "replaced: K?_I?C_?G_?@"),
        )
        assert (
            rows_digest(rows)
            == "504eeb3577c4320f438c3e2d0b936d40215e7aebfcd6e8513f734e0755d0962c"
        )


def grows_2_paths(g: Graph) -> Graph:
    """A wrong :func:`replace_isolated_with_p3`: each isolated vertex gains one
    appended neighbour, a 2-path of value 1 in place of a value-0 vertex."""
    isolated = [v for v in range(g.n) if g.adj[v] == 0]
    if not isolated:
        return g
    rows, n = list(g.adj), g.n
    for v in isolated:
        rows[v] = 1 << n
        rows.append(1 << v)
        n += 1
    return Graph._from_adj(n, tuple(rows))


class TestSharedMemos:
    """closed-forms, nim-sum and isolated-substitution solve the graphs that
    share a host graph and its labels on one memo per host."""

    @pytest.mark.parametrize(
        "suite, runs",
        [
            (check_closed_forms, 4),
            (lambda: check_nim_sum(count=250), 123),
            (lambda: check_isolated_substitution(count=250), 13),
        ],
    )
    def test_kernel_runs(self, suite, runs, monkeypatch):
        # one fresh memo per solve ran 18, 174 and 26 kernels
        calls = []

        def counted(mask, rows, even):
            calls.append(mask)
            return Lattice(mask, rows, even)

        monkeypatch.setattr("vertexnim.solver.Lattice", counted)
        assert suite().passed
        assert len(calls) == runs

    # each fault as (the suite's call, the name it patches, the fault, the
    # failure count, SHA-256 of the rows), recorded when every graph had its
    # own fresh memo
    FAULTS = {
        "path closed form wrong for even n": (
            check_closed_forms,
            "closed_form_path",
            lambda n: 0,
            6,
            "dd3b303e3b08b6ee6130f07d96024fc7a3af26010a21d3d363e2ed1e4e1a4fe2",
        ),
        "inverted complete bipartite closed form": (
            check_closed_forms,
            "closed_form_complete_bipartite",
            lambda a, b: 1 - closed_form_complete_bipartite(a, b),
            25,
            "00692ecd16f39422d98e3540ab694fd4daa279e0474578e5e52bf312da6c0bbe",
        ),
        "substitution grows 2-paths": (
            lambda: check_isolated_substitution(count=250),
            "replace_isolated_with_p3",
            grows_2_paths,
            126,
            "635b2a5f743636578abe3fac9e58e4423d3010dbf192b51491748b5f90e4d967",
        ),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    def test_failure_rows_are_pinned(self, fault, monkeypatch):
        suite, name, patched, failures, digest = self.FAULTS[fault]
        monkeypatch.setattr(f"vertexnim.theorems.{name}", patched)
        result = suite()
        rows = failure_rows(result)
        assert (len(rows), result.truncated) == (failures, False)
        assert rows_digest(rows) == digest

    def test_a_member_the_largest_did_not_reach_keeps_its_own_budget(self):
        # K_{5,5} searched visits 768 positions and does not reach K_{4,4},
        # K_{2,2}, K_{2,4} or K_{4,2}; one memo for all would need 772
        with pytest.raises(NodeBudgetExceeded, match="after 767 positions"):
            check_closed_forms(max_n=0, budget=767)
        for budget in (768, 771):
            assert check_closed_forms(max_n=0, budget=budget).passed

    def test_a_failing_member_reports_its_own_graph(self, monkeypatch):
        monkeypatch.setattr("vertexnim.theorems.closed_form_star", lambda n: n)
        result = check_closed_forms(max_n=3)
        assert [(f.graph6, f.note) for f in result.failures] == [
            (to_graph6(star_graph(n)), f"star n={n}") for n in (1, 2, 3)
        ]


def off_by_one(max_n, rule):
    return [bytes(value + 1 for value in table) for table in grundy_tables(max_n, rule)]


class TestLevelLoopsStopAtTheCap:
    # each fault at max_n=6 as (the suite's call, the name it patches, the
    # fault, SHA-256 of the 1,000 kept rows), recorded when every failing mask
    # still built its graph: 33,878, 5,622 and 66,664 graphs
    FAULTS = {
        "wrong even-rule closed form": (
            lambda: check_even_even(max_n=6),
            "grundy_even_even",
            lambda g: grundy_even_even(g) ^ 1,
            "034dba209e0c44916e3714a4acf23ac5a62c2df9e84f73577b518b46384d9960",
        ),
        "every value off by one": (
            lambda: check_bipartite_parity(max_n=6, count=1),
            "grundy_tables",
            off_by_one,
            "857e21130d7cc389e473dd9fdd952e8078b14ebae0d74888d74fbde364121fde",
        ),
        "all-ones flag table": (
            lambda: check_euler_terminal(max_n=6),
            "_cycle_space",
            lambda n: bytearray([1]) * 2 ** math.comb(n, 2),
            "8d25187a4e79881b0d12d15c8291c2455a5c36783b33c8ad6591989d7ccc54f1",
        ),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    def test_kept_rows_and_graphs_built(self, fault, monkeypatch):
        suite, name, patched, digest = self.FAULTS[fault]
        monkeypatch.setattr(f"vertexnim.theorems.{name}", patched)
        build = theorems.from_edge_mask
        built = []

        def from_edge_mask(n, mask):
            built.append(mask)
            return build(n, mask)

        monkeypatch.setattr("vertexnim.theorems.from_edge_mask", from_edge_mask)
        result = suite()
        rows = failure_rows(result)
        assert (len(rows), result.truncated, rows_digest(rows)) == (1000, True, digest)
        assert len(built) <= 1100


class TestTheoremCheckResult:
    def test_no_instances_is_not_a_pass(self):
        result = TheoremCheckResult(TheoremId.NIM_SUM)
        assert not result.passed

    def test_failures_mean_fail(self):
        result = TheoremCheckResult(TheoremId.NIM_SUM, instances_checked=1)
        assert result.passed
        result.fail(complete_graph(2), 1, 0)
        assert not result.passed
        assert "FAIL" in result.summary()

    def test_failure_cap(self):
        result = TheoremCheckResult(TheoremId.NIM_SUM, instances_checked=1)
        for i in range(1100):
            result.fail(complete_graph(2), 1, 0, str(i))
        assert len(result.failures) == 1000
        assert result.truncated
        assert "truncated" in result.summary()


def test_sum_law_spot_check():
    g = complete_graph(3)
    h = path_graph(4)
    assert grundy_value(disjoint_union(g, h)) == grundy_value(g) ^ grundy_value(h)
