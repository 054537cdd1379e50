"""The four benchmark workloads: seeded inputs, the ops of one pass, and
the oracle that checks each op's answer.

A workload is one list of ops, a *pass*. The harness runs passes until its
time is up, timing each op; the answers are checked after the timed phase.
Library entry points are looked up on their modules at call time
(``vertexnim.solver.grundy``, not a name bound at import), so the tracer's
rebinding and a test's injected fault both reach the timed code.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import vertexnim
import vertexnim.cli
import vertexnim.exhaustive
import vertexnim.solver
import vertexnim.theorems
from vertexnim import Graph, MoveRule, TheoremId

import oracle

DEFAULT_SEED = 1
EDGE_PROBS = (0.2, 0.5, 0.8)
# ``probe_power`` of a workload: its op latencies grow as the speed probe's
# time (see run.py) to this power while the host's speed changes. Fitted on a
# 2-vCPU Xeon host, with the probe between 0.38 and 0.85 ms: search and
# verify ops slow less than the small, cache-resident probe does; census and
# requests ops nearly as much.


@dataclass
class Op:
    """One timed call. ``run`` is timed; ``answer`` turns its result into
    the comparable summary the oracle checks, outside the op's latency."""

    kind: str
    size: int
    run: object
    answer: object


def random_edges(rng: random.Random, n: int, p: float) -> list:
    return [(i, j) for j in range(n) for i in range(j) if rng.random() < p]


def bipartite_edges(rng: random.Random, n: int, p: float) -> list:
    cut = rng.getrandbits(n)
    return [
        (i, j)
        for j in range(n)
        for i in range(j)
        if (cut >> i & 1) != (cut >> j & 1) and rng.random() < p
    ]


def grid_edges(rows: int, cols: int) -> list:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def with_triangle(rng: random.Random, n: int, edges: list) -> list:
    """Add a triangle on three random vertices, so the graph is not bipartite."""
    a, b, c = sorted(rng.sample(range(n), 3))
    present = set(edges)
    return edges + [e for e in ((a, b), (a, c), (b, c)) if e not in present]


# ----------------------------------------------------------------- search


# graphs in one pass per edge probability of EDGE_PROBS, by vertex count.
# Sparse graphs split into components, so their cost swings from graph to
# graph (memo sizes 13k-105k at n = 18, p = 0.2) where dense ones barely
# vary (128k-132k): p = 0.2 comes in many small graphs and n = 18 is dense
# only, so that every seed gives a pass of nearly the same cost.
SEARCH_CLASSES = {12: (24, 24, 24), 14: (8, 8, 8), 16: (4, 4, 4), 18: (0, 1, 1)}
SEARCH_TINY = {6: (2, 2, 2), 8: (1, 1, 1)}
SEARCH_REFERENCE_MAX_N = 16
# a graph of each (n, p) class whose index in its class is a multiple of
# this also has every root move ranked, and so does every graph beyond the
# reference: its ranked children certify the value
RANK_EVERY = 3

# Grundy values of the search pass at DEFAULT_SEED, in pass order; from the
# reference recursion, n = 18 included.
SEARCH_PINNED = (
    0, 1, 1, 0, 1, 0, 0, 1, 0, 2, 0, 1, 3, 0, 0, 1,
    1, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 0, 1, 0, 1, 0,
    1, 1, 0, 1, 2, 2, 1, 0, 0, 2, 2, 0, 1, 1, 2, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 2, 0, 0, 0, 0,
    1, 2, 0, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1,
    0, 1, 1, 1, 0, 1, 2, 0, 1, 1, 1, 1, 2, 1,
)


class Search:
    """Closed loop, one caller: ``grundy`` with a fresh memo per op, odd rule.

    A rank op also queries every child of the root against the memo the root
    solve filled, the hit-dominated path beside the miss-dominated one.
    """

    name = "search"
    nominal_pass_s = 6.0
    probe_power = 0.85

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = random.Random(seed)
        self.seed = seed
        self.tiny = tiny
        self.graphs = []
        specs = []
        for n, counts in (SEARCH_TINY if tiny else SEARCH_CLASSES).items():
            for p, count in zip(EDGE_PROBS, counts):
                for i in range(count):
                    rank = i % RANK_EVERY == 0 or n > SEARCH_REFERENCE_MAX_N
                    specs.append((n, random_edges(rng, n, p), rank))
        self.ops = []
        for n, edges, rank in specs:
            g = Graph(n, edges)
            self.graphs.append((n, edges))
            run = (lambda g=g: rank_moves(g)) if rank else (lambda g=g: solve(g))
            self.ops.append(Op("rank" if rank else "solve", n, run, search_answer))

    def expected(self) -> list:
        pinned = SEARCH_PINNED if self.seed == DEFAULT_SEED and not self.tiny else None
        out = []
        for i, (n, edges) in enumerate(self.graphs):
            ref = oracle.Reference(n, edges) if n <= SEARCH_REFERENCE_MAX_N else None
            value = ref.value() if ref else None
            if pinned is not None:
                if value is not None and value != pinned[i]:
                    raise AssertionError(f"reference disagrees with pin at op {i}")
                value = pinned[i]
            out.append((n, edges, value, ref))
        return out

    def check(self, expected, answer) -> bool:
        n, edges, value, ref = expected
        got, move, children = answer
        if value is not None and got != value:
            return False
        rows = oracle.adjacency(n, edges)
        full = (1 << n) - 1
        moves = oracle.movable(rows, full)
        if ref is not None:
            truth = {v: ref.value(full ^ (1 << v)) for v in moves}
        else:
            truth = dict(children)
        if children is not None:
            if [v for v, _ in children] != moves or truth != dict(children):
                return False
        mex = 0
        while mex in truth.values():
            mex += 1
        if got != mex:
            return False
        winning = [v for v in moves if truth[v] == 0]
        return move == (winning[0] if winning else None)


def solve(g: Graph):
    return vertexnim.solver.grundy(g, MoveRule.ODD, vertexnim.solver.MemoTable()), None


def rank_moves(g: Graph):
    memo = vertexnim.solver.MemoTable()
    grundy = vertexnim.solver.grundy
    report = grundy(g, MoveRule.ODD, memo)
    root = g.full_position()
    children = [
        (v, grundy(root.remove_vertex(v), MoveRule.ODD, memo).grundy)
        for v in vertexnim.iter_bits(root.movable_vertices(MoveRule.ODD))
    ]
    return report, children


def search_answer(result):
    report, children = result
    return report.grundy, report.optimal_move, children


# ----------------------------------------------------------------- census


# The sweeps run at n = 6 (33,868 labeled graphs per table, up to 55 ms a
# call) and the bipartite table at n = 7 (2,097,152 graphs, about 30 ms).
# At n = 7 a table takes 1.5-3 s: the warm-up alone (one op per kind) would
# take about 5 s in each set-up of a run, and a run would hold few passes.
CENSUS_N = 6
BIPARTITE_N = 7
CENSUS_TINY_N = 4


class Census:
    """Batch of whole-census sweeps: ``census``, the even-rule tables and the
    bipartite table, in a seeded order. The inputs do not depend on the seed."""

    name = "census"
    nominal_pass_s = 0.12
    probe_power = 0.95

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        n = CENSUS_TINY_N if tiny else CENSUS_N
        bn = CENSUS_TINY_N if tiny else BIPARTITE_N
        self.n, self.bipartite_n = n, bn
        ops = [
            Op("census", n, lambda: vertexnim.exhaustive.census(n), census_answer),
            Op(
                "tables_even",
                n,
                lambda: vertexnim.exhaustive.grundy_tables(n, MoveRule.EVEN),
                even_answer,
            ),
            Op("bipartite", bn, lambda: vertexnim.exhaustive.bipartite_table(bn), sum),
        ]
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def expected(self) -> list:
        want = oracle.census_expectation(self.n)
        return [
            {
                "census": (want["counts"], want["minimal2"]),
                "tables_even": True,
                "bipartite": oracle.bipartite_count(self.bipartite_n),
            }[op.kind]
            for op in self.ops
        ]

    def check(self, expected, answer) -> bool:
        return expected == answer


def census_answer(report):
    counts: dict = {}
    for row in report.rows:
        if row.n == report.max_n:
            counts[row.grundy] = counts.get(row.grundy, 0) + row.count
    g = report.minimal_examples.get(2)
    return counts, None if g is None else oracle.encode_graph6(g.n, g.edges())


def even_answer(tables) -> bool:
    # the even rule's value is the vertex-count parity on every graph
    return all(len(t) == 1 << (k * (k - 1) // 2) and t.count(k & 1) == len(t)
               for k, t in enumerate(tables))


# ----------------------------------------------------------------- verify


# The exhaustive suites run at n <= 6: at the library default (n <= 7) the
# euler-terminal suite alone takes about 35 s, longer than a whole run. The
# sampled suites take 250 samples, half their default, so bipartite-parity
# (0.4 s) stays clear of euler-terminal (0.6 s) and the p75 tail falls
# inside one suite's times rather than between two. They keep the library's
# own seeds: the fast-path part of bipartite-parity solves random graphs of
# up to 12 vertices, a few of which dominate its time, so over seeds 11-20
# the suite took 253-336 ms, a spread wider than any timing noise.
VERIFY_SCALE = {"max_n": 6, "count": 250, "max_k": None}
VERIFY_TINY = {"max_n": 4, "count": 20, "max_k": 2}
EXHAUSTIVE_SUITES = (
    TheoremId.EVEN_EVEN,
    TheoremId.EULER_TERMINAL,
    TheoremId.BIPARTITE_PARITY,
)
# the suites that take a sample count
SAMPLED_SUITES = (
    TheoremId.NIM_SUM,
    TheoremId.ISOLATED_SUBSTITUTION,
    TheoremId.BIPARTITE_PARITY,
)

# instances checked per suite; they depend on the scale, never on the seed
VERIFY_COUNTS = {
    "bench": {
        "nim-sum": 250,
        "even-even": 33_868,
        "closed-forms": 61,
        "euler-terminal": 67_735,
        "bipartite-parity": 44_655,
        "isolated-substitution": 250,
        "witness-construction": 26,
    },
    "tiny": {
        "nim-sum": 20,
        "even-even": 76,
        "closed-forms": 61,
        "euler-terminal": 33_943,
        "bipartite-parity": 228,
        "isolated-substitution": 20,
        "witness-construction": 10,
    },
}


class Verify:
    """Every ``verify_theorem`` suite, in ``TheoremId`` order, at the
    library's own seeds; the inputs do not depend on the seed."""

    name = "verify"
    nominal_pass_s = 1.5
    probe_power = 0.85

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        scale = VERIFY_TINY if tiny else VERIFY_SCALE
        self.counts = VERIFY_COUNTS["tiny" if tiny else "bench"]
        self.ops = []
        for theorem in TheoremId:
            kwargs = {}
            if theorem in EXHAUSTIVE_SUITES:
                kwargs["max_n"] = scale["max_n"]
            if theorem in SAMPLED_SUITES:
                kwargs["count"] = scale["count"]
            if theorem is TheoremId.WITNESS_CONSTRUCTION and scale["max_k"]:
                kwargs["max_k"] = scale["max_k"]
            run = lambda t=theorem, kw=kwargs: vertexnim.theorems.verify_theorem(t, **kw)
            self.ops.append(Op(theorem.value, 0, run, verify_answer))

    def expected(self) -> list:
        return [(True, self.counts[op.kind]) for op in self.ops]

    def check(self, expected, answer) -> bool:
        return expected == answer


def verify_answer(result):
    return result.passed, result.instances_checked


# --------------------------------------------------------------- requests


EXIT_OK, EXIT_USAGE, EXIT_BUDGET = 0, 2, 3
MALFORMED = ("3 2\n0 1\n", "4 1\n0 9\n", "2 1\n0 0\n", "5 x\n")
# request kind -> the size (vertex count, or k for generate) of each op of
# that kind in one pass. Sizes are fixed and only the edges are random, so
# every seed gives a pass of the same shape. Brute-force --verify stops at
# n = 12: at n = 14 one request costs 20-45 ms and would set the tail alone.
REQUEST_MIX = {
    "solve_edgelist": (6, 7, 8, 9, 10, 11, 12, 8, 10, 12),
    "solve_graph6": (6, 7, 8, 9, 10, 11, 12, 8, 10, 12),
    "solve_bipartite": (40, 48, 56, 63),
    "solve_grid": (40, 63),
    "solve_even": (30, 41, 52, 63),
    "solve_verify": (8, 10, 11, 12),
    "convert_to_graph6": (6, 9, 12),
    "convert_to_edgelist": (6, 9, 12),
    "generate": (0, 1, 2, 3, 4),
    "budget_refusal": (18, 18),
    "malformed": (0, 0),
}
REQUEST_TINY = {kind: sizes[:1] for kind, sizes in REQUEST_MIX.items()}
GRID_SHAPES = {40: (5, 8), 63: (7, 9)}


class Requests:
    """Closed loop, one client: ``vertexnim.cli.main(argv)`` in-process with
    stdout and stderr captured. Input files are written during set-up."""

    name = "requests"
    nominal_pass_s = 0.2
    probe_power = 0.95

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = random.Random(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        specs = []
        for kind, sizes in (REQUEST_TINY if tiny else REQUEST_MIX).items():
            for i, size in enumerate(sizes):
                p = EDGE_PROBS[i % len(EDGE_PROBS)]
                specs.append(self._request(rng, kind, size, p, len(specs)))
        rng.shuffle(specs)
        self.specs = specs
        self.ops = [
            Op(kind, size, lambda argv=argv: call_cli(argv), cli_answer)
            for kind, size, argv, _ in specs
        ]

    def _write(self, index: int, text: str) -> str:
        path = self.workdir / f"req-{index:03d}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _request(self, rng, kind, n, p, index):
        """``(kind, size, argv, expectation)``; the expectation is turned
        into an expected answer by :meth:`expected` after the timed phase."""
        if kind in ("solve_edgelist", "solve_graph6", "convert_to_graph6",
                    "convert_to_edgelist"):
            edges = with_triangle(rng, n, random_edges(rng, n, p))
            as_graph6 = kind in ("solve_graph6", "convert_to_edgelist")
            text = oracle.encode_graph6(n, edges) + "\n" if as_graph6 else edgelist(n, edges)
            path = self._write(index, text)
            if kind.startswith("solve"):
                return kind, n, ["solve", path, "--records"], ("ref", n, edges)
            return kind, n, ["convert", path, "--records"], ("convert", n, edges)
        if kind in ("solve_bipartite", "solve_grid", "solve_verify"):
            if kind == "solve_grid":
                edges = grid_edges(*GRID_SHAPES[n])
            else:
                edges = bipartite_edges(rng, n, p)
            argv = ["solve", self._write(index, edgelist(n, edges)), "--records"]
            if kind == "solve_verify":
                argv.append("--verify")
            return kind, n, argv, ("parity", len(edges))
        if kind == "solve_even":
            path = self._write(index, edgelist(n, random_edges(rng, n, p)))
            return kind, n, ["solve", path, "--rule", "even", "--records"], ("value", n & 1)
        if kind == "generate":
            return kind, n, ["generate", str(n), "-", "--records"], ("witness", n)
        if kind == "budget_refusal":
            edges = with_triangle(rng, n, random_edges(rng, n, 0.5))
            path = self._write(index, edgelist(n, edges))
            argv = ["solve", path, "--budget", "2000", "--records"]
            return kind, n, argv, ("exit", EXIT_BUDGET)
        if kind == "malformed":
            path = self._write(index, rng.choice(MALFORMED))
            return kind, n, ["solve", path, "--records"], ("exit", EXIT_USAGE)
        raise ValueError(f"unknown request kind {kind}")

    def expected(self) -> list:
        out = []
        for _kind, _size, _argv, (how, *data) in self.specs:
            if how == "ref":
                out.append((EXIT_OK, "grundy", oracle.Reference(*data).value()))
            elif how == "parity":
                out.append((EXIT_OK, "grundy", data[0] & 1))
            elif how == "value":
                out.append((EXIT_OK, "grundy", data[0]))
            elif how == "exit":
                out.append((data[0], "none", None))
            else:
                out.append((EXIT_OK, how, data))
        return out

    def check(self, expected, answer) -> bool:
        code, how, want = expected
        got_code, record = answer
        if got_code != code:
            return False
        if how == "none":
            return True
        if how == "grundy":
            return record.get("grundy") == want
        if how == "witness":
            (k,) = want
            if record.get("k") != k or record.get("certified") is not True:
                return False
            return oracle.Reference(*oracle.decode_graph6(record["graph6"])).value() == k
        n, edges = want
        if record.get("format") == "graph6":
            return record.get("graph") == oracle.encode_graph6(n, edges)
        lines = record.get("graph") or []
        got = sorted(tuple(sorted(map(int, line.split()))) for line in lines[1:])
        return lines[:1] == [f"{n} {len(edges)}"] and got == sorted(edges)


def edgelist(n: int, edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = vertexnim.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_answer(result):
    code, out, _err = result
    lines = out.strip().splitlines()
    record = json.loads(lines[-1]) if code == EXIT_OK and lines else {}
    return code, record


WORKLOADS = {w.name: w for w in (Search, Census, Verify, Requests)}
