"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either a proved closed form checked against brute
force, or was derived once by an independent enumeration oracle and frozen
here as a regression fixture (the minimal value-2 graph, instance counts).
"""

import json
import time

from vertexnim import (
    check_bipartite_parity,
    check_closed_forms,
    check_euler_terminal,
    check_even_even,
    check_isolated_substitution,
    check_nim_sum,
    check_witness_construction,
    census,
    from_edge_mask,
    to_graph6,
    witness,
)
from vertexnim.cli import main

# labeled bipartite graph counts for n = 0..7, as re-derived by both the
# cut-marking table and breadth-first coloring (see test_exhaustive)
BIPARTITE_GRAPHS_UP_TO_7 = 1 + 1 + 2 + 7 + 41 + 376 + 5177 + 103237
LABELED_GRAPHS_UP_TO_7 = 1 + 1 + 2 + 8 + 64 + 1024 + 32768 + 2097152
ALL_SUBSET_POSITIONS_UP_TO_5 = 1 + 2 + 8 + 64 + 1024 + 32768
# reachable terminal positions of the bipartite labeled graphs, n <= 6 and 7
TERMINAL_POSITIONS_UP_TO_6 = 38797
TERMINAL_POSITIONS_UP_TO_7 = 1175528
# bipartite graphs on 6 or fewer vertices and the 3 grid spot checks
BIPARTITE_SWEEP_UP_TO_6 = 1 + 1 + 2 + 7 + 41 + 376 + 5177 + 3

# minimal Grundy-2 labeled graph: triangle with a pendant, pinned from the
# enumeration (smallest n, then edge count, then edge mask)
MINIMAL_GRUNDY_2_N = 4
MINIMAL_GRUNDY_2_MASK = 15
MINIMAL_GRUNDY_2_GRAPH6 = "C{"


def report(criterion: int, name: str, result) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[criterion {criterion}] {name}: {status} "
        f"({result.instances_checked} instances, {len(result.failures)} failures)"
    )
    assert result.passed, result.summary()


def test_criterion_1_closed_forms():
    start = time.time()
    result = check_closed_forms(max_n=12)
    elapsed = time.time() - start
    assert result.instances_checked == 12 * 3 + 25
    assert elapsed < 60, f"expected < 60 s, took {elapsed:.1f} s"
    report(1, "closed forms for paths, complete graphs, stars, K_{n,m}", result)


def test_criterion_2_bipartite_parity():
    result = check_bipartite_parity(max_n=7)
    grid_spot_checks = 3
    fast_path_samples = 500
    assert result.instances_checked == (
        BIPARTITE_GRAPHS_UP_TO_7
        + grid_spot_checks
        + TERMINAL_POSITIONS_UP_TO_7
        + fast_path_samples
    )
    report(2, "bipartite Grundy value is the edge-count parity (n <= 7)", result)


def test_criterion_3_euler_terminal_equivalence():
    result = check_euler_terminal(max_n=7)
    assert (
        result.instances_checked
        == LABELED_GRAPHS_UP_TO_7 + ALL_SUBSET_POSITIONS_UP_TO_5
    )
    report(3, "terminal <=> all-even <=> Eulerian components (n <= 7)", result)


def test_criterion_4_even_even_law():
    result = check_even_even(max_n=7)
    assert result.instances_checked == LABELED_GRAPHS_UP_TO_7
    report(4, "even-rule value is the vertex-count parity (n <= 7)", result)


def test_criterion_5_sum_law():
    result = check_nim_sum(count=500, max_n=9)
    assert result.instances_checked == 500
    report(5, "disjoint-union value is the nim-sum (500 random pairs)", result)


def test_criterion_6_substitution_lemma():
    result = check_isolated_substitution(count=1000, max_n=8)
    assert result.instances_checked == 1000
    report(6, "isolated-vertex -> 3-path substitution preserves value", result)


def test_criterion_7_witness_construction():
    start = time.time()
    result = check_witness_construction(max_k=4)
    elapsed = time.time() - start
    w4 = witness(4)
    assert w4.graph.n == 35 and w4.certified
    assert elapsed < 120, f"expected < 2 min, took {elapsed:.1f} s"
    report(7, "witnesses 0..4 certified with child and mex identities", result)


def test_criterion_8_terminal_bipartite_edge_parity():
    result = check_bipartite_parity(max_n=6, count=1)
    assert result.instances_checked == (
        BIPARTITE_SWEEP_UP_TO_6 + TERMINAL_POSITIONS_UP_TO_6 + 1
    )
    report(8, "reachable terminal bipartite positions have even |E|", result)


def test_criterion_9_census_fixture(capsys):
    pinned = from_edge_mask(MINIMAL_GRUNDY_2_N, MINIMAL_GRUNDY_2_MASK)
    assert to_graph6(pinned) == MINIMAL_GRUNDY_2_GRAPH6

    # re-derive by enumeration through the census, twice, at the fixture's n
    first = census(MINIMAL_GRUNDY_2_N).minimal_examples[2]
    second = census(MINIMAL_GRUNDY_2_N).minimal_examples[2]
    assert first == second == pinned

    # and through the census command itself
    outputs = []
    for _ in range(2):
        code = main(["census", "--max-n", str(MINIMAL_GRUNDY_2_N), "--records"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    records = [json.loads(line) for line in outputs[0].splitlines()]
    minimal = [r for r in records if r.get("minimal_example_for") == 2]
    assert len(minimal) == 1
    assert minimal[0]["graph6"] == MINIMAL_GRUNDY_2_GRAPH6
    assert minimal[0]["n"] == MINIMAL_GRUNDY_2_N
    assert minimal[0]["edges"] == 4
    print(
        "[criterion 9] minimal Grundy-2 census fixture re-derived identically: PASS "
        f"(graph6 {MINIMAL_GRUNDY_2_GRAPH6}, n=4, 4 edges)"
    )
