"""Closed-form fast paths and the suites that verify them against brute force.

Each suite replays one proved statement at desk scale — exhaustively where
the statement is universal over small graphs, on seeded random samples where
it is about arbitrary graphs — and collects concrete counterexamples instead
of aborting, so a failure report alone reproduces the offending graph.
"""

import enum
import random
from dataclasses import asdict, dataclass, field

from .exhaustive import SWEEP_MAX_N, bipartite_table, grundy_tables
from .families import (
    complete_bipartite_graph,
    complete_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from .formats import to_graph6
from .graph import (
    Graph,
    MoveRule,
    Position,
    add_isolated_vertices,
    disjoint_union,
    edge_slots,
    from_edge_mask,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    SEARCH_METHOD,
    MemoTable,
    NodeBudgetExceeded,
    enumerate_labeled_graphs,
    grundy_even_even,
    grundy_value,
    mex,
    nim_sum,
    solve,
)

FAILURE_CAP = 1000

# deterministic defaults for the seeded random suites
NIM_SUM_SEED = 1009
SUBSTITUTION_SEED = 1013
FAST_PATH_SEED = 1021

ER_EDGE_PROBS = (0.2, 0.5, 0.8)

# every graph solved at this stride is re-solved with the per-graph engine,
# tying the sweep tables back to the reference recursion
ENGINE_CROSSCHECK_STRIDE = 9973


class TheoremId(enum.Enum):
    NIM_SUM = "nim-sum"
    EVEN_EVEN = "even-even"
    CLOSED_FORMS = "closed-forms"
    EULER_TERMINAL = "euler-terminal"
    BIPARTITE_PARITY = "bipartite-parity"
    ISOLATED_SUBSTITUTION = "isolated-substitution"
    WITNESS_CONSTRUCTION = "witness-construction"


@dataclass(frozen=True)
class CheckFailure:
    """One counterexample: the graph (graph6), what was claimed, what held."""

    graph6: str
    expected: object
    got: object
    note: str = ""

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class TheoremCheckResult:
    theorem: TheoremId
    scale: dict = field(default_factory=dict)
    instances_checked: int = 0
    failures: list = field(default_factory=list)
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures and self.instances_checked > 0

    def add_failure(self, failure: CheckFailure) -> None:
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(failure)
        else:
            self.truncated = True

    def fail(self, graph: Graph, expected, got, note: str = "") -> None:
        """Record a counterexample without counting an instance, for loops that
        compare inline so a passing instance encodes no graph6 for its note."""
        self.add_failure(CheckFailure(to_graph6(graph), expected, got, note))

    def check(self, graph: Graph, expected, got, note: str = "") -> None:
        """Count one instance on ``graph``; record it if ``got != expected``."""
        self.instances_checked += 1
        if got != expected:
            self.fail(graph, expected, got, note)

    def to_record(self) -> dict:
        return {
            "theorem": self.theorem.value,
            "passed": self.passed,
            "instances_checked": self.instances_checked,
            "scale": self.scale,
            "failures": [f.to_record() for f in self.failures],
            "truncated": self.truncated,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{self.theorem.value}: {status} "
            f"({self.instances_checked} instances checked)"
        )
        if self.failures:
            out += f", {len(self.failures)} failures"
            if self.truncated:
                out += " (truncated)"
        return out


class TheoremBudgetError(RuntimeError):
    """A verification suite hit its budget before finishing."""

    def __init__(self, theorem: TheoremId, cause):
        super().__init__(f"{theorem.value}: {cause}")
        self.theorem = theorem
        self.cause = cause


def _even_order_value(n: int, family: str) -> int:
    if n < 1:
        raise ValueError(f"{family} closed form needs n >= 1, got {n}")
    return 1 if n % 2 == 0 else 0


def closed_form_path(n: int) -> int:
    """Grundy value of the path on ``n`` vertices: 1 iff ``n`` is even."""
    return _even_order_value(n, "path")


def closed_form_complete(n: int) -> int:
    """Grundy value of the complete graph on ``n`` vertices: 1 iff even."""
    return _even_order_value(n, "complete graph")


def closed_form_star(n: int) -> int:
    """Grundy value of the star on ``n`` vertices total: 1 iff ``n`` is even."""
    return _even_order_value(n, "star")


def closed_form_complete_bipartite(n: int, m: int) -> int:
    """Grundy value of K_{n,m}: 1 iff both side sizes are odd."""
    if n < 1 or m < 1:
        raise ValueError("complete bipartite closed form needs n, m >= 1")
    return 1 if n % 2 == 1 and m % 2 == 1 else 0


def replace_isolated_with_p3(g: Graph) -> Graph:
    """Grow every degree-0 vertex into a fresh 3-vertex path component.

    Non-isolated vertices keep their indices and edges; each isolated vertex
    becomes an endpoint of a new path through two appended vertices. Both a
    lone vertex and a 3-path are value-0 components, so the Grundy value is
    preserved. Returns ``g`` itself when there is nothing to replace.
    """
    isolated = [v for v in range(g.n) if g.adj[v] == 0]
    if not isolated:
        return g
    rows = list(g.adj)
    n = g.n
    for v in isolated:
        mid, end = n, n + 1
        n += 2
        rows[v] = 1 << mid
        rows.append((1 << v) | (1 << end))
        rows.append(1 << mid)
    return Graph._from_adj(n, tuple(rows))


def random_graph(rng: random.Random, n: int) -> Graph:
    """Uniform-slot random graph; edge probability drawn from ER_EDGE_PROBS."""
    p = rng.choice(ER_EDGE_PROBS)
    return Graph(n, [e for e in edge_slots(n) if rng.random() < p])


def random_bipartite_graph(rng: random.Random, n: int) -> Graph:
    """Random bipartition of ``n`` vertices, then random edges across only."""
    cut = rng.getrandbits(n) if n else 0
    p = rng.choice(ER_EDGE_PROBS)
    edges = [
        (i, j)
        for (i, j) in edge_slots(n)
        if (cut >> i & 1) != (cut >> j & 1) and rng.random() < p
    ]
    return Graph(n, edges)


def check_closed_forms(
    max_n: int = 12,
    max_side: int = 5,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """Solver versus the closed forms for paths, complete graphs, stars, and
    complete bipartite graphs."""
    result = TheoremCheckResult(
        TheoremId.CLOSED_FORMS, scale={"max_n": max_n, "max_side": max_side}
    )
    families = (
        ("path", path_graph, closed_form_path),
        ("complete", complete_graph, closed_form_complete),
        ("star", star_graph, closed_form_star),
    )
    for n in range(1, max_n + 1):
        for name, build, formula in families:
            g = build(n)
            got = grundy_value(g, memo=MemoTable(budget))
            result.check(g, formula(n), got, f"{name} n={n}")
    for a in range(1, max_side + 1):
        for b in range(1, max_side + 1):
            g = complete_bipartite_graph(a, b)
            got = grundy_value(g, memo=MemoTable(budget))
            result.check(g, closed_form_complete_bipartite(a, b), got, f"K_{{{a},{b}}}")
    return result


def check_bipartite_parity(
    max_n: int = SWEEP_MAX_N,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """Every bipartite labeled graph's value equals its edge-count parity,
    exhaustively up to ``max_n`` vertices, plus grid spot checks."""
    result = TheoremCheckResult(TheoremId.BIPARTITE_PARITY, scale={"max_n": max_n})
    tables = grundy_tables(max_n, MoveRule.ODD, graph_budget=budget)
    crosschecks = 0
    for k in range(max_n + 1):
        flags = bipartite_table(k)
        table = tables[k]
        for mask, flag in enumerate(flags):
            if not flag:
                continue
            expected = mask.bit_count() & 1
            got = table[mask]
            result.instances_checked += 1
            if got != expected:
                result.fail(from_edge_mask(k, mask), expected, got)
            if result.instances_checked % ENGINE_CROSSCHECK_STRIDE == 0:
                g = from_edge_mask(k, mask)
                direct = grundy_value(g, memo=MemoTable(budget))
                crosschecks += 1
                if direct != got:
                    result.fail(g, got, direct, "sweep vs per-graph engine")
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        g = grid_graph(rows, cols)
        got = grundy_value(g, memo=MemoTable(budget))
        result.check(g, g.edge_count() & 1, got, f"grid {rows}x{cols}")
    result.scale["engine_crosschecks"] = crosschecks
    return result


def _reachable_masks(g: Graph, rule: MoveRule):
    """Depth-first walk of the game tree; yields every reachable alive set."""
    adj = g.adj
    parity = rule.value
    full = (1 << g.n) - 1
    seen = {full}
    stack = [full]
    while stack:
        mask = stack.pop()
        yield mask
        m = mask
        while m:
            low = m & -m
            m ^= low
            if (adj[low.bit_length() - 1] & mask).bit_count() & 1 == parity:
                child = mask ^ low
                if child not in seen:
                    seen.add(child)
                    stack.append(child)


def check_terminal_edge_parity(max_n: int = 6) -> TheoremCheckResult:
    """Every reachable terminal position of every bipartite graph has an even
    number of edges, exhaustively up to ``max_n`` vertices."""
    result = TheoremCheckResult(TheoremId.BIPARTITE_PARITY, scale={"max_n": max_n})
    result.scale["check"] = "terminal-edge-parity"
    for k in range(max_n + 1):
        flags = bipartite_table(k)
        for mask, flag in enumerate(flags):
            if not flag:
                continue
            g = from_edge_mask(k, mask)
            adj = g.adj
            for alive in _reachable_masks(g, MoveRule.ODD):
                movable = 0
                edges2 = 0
                m = alive
                while m:
                    low = m & -m
                    m ^= low
                    d = (adj[low.bit_length() - 1] & alive).bit_count()
                    if d & 1:
                        movable |= low
                    edges2 += d
                if movable:
                    continue
                result.instances_checked += 1
                if (edges2 // 2) % 2 != 0:
                    result.fail(
                        g, "even edge count", edges2 // 2, f"terminal alive set {alive:#x}"
                    )
    return result


def check_euler_terminal(
    max_n: int = SWEEP_MAX_N,
    all_subsets_max_n: int = 5,
) -> TheoremCheckResult:
    """Terminality under the odd rule, all-even degrees, and the
    componentwise Eulerian condition agree on every graph up to ``max_n``.

    Full alive sets are checked for every labeled graph; positions with dead
    vertices relabel to smaller enumerated graphs, and are additionally
    checked directly for every alive subset up to ``all_subsets_max_n``.
    """
    result = TheoremCheckResult(
        TheoremId.EULER_TERMINAL,
        scale={"max_n": max_n, "all_subsets_max_n": all_subsets_max_n},
    )

    def check_position(p: Position) -> None:
        terminal = p.is_terminal(MoveRule.ODD)
        adj = p.graph.adj
        alive = p.alive
        all_even = True
        m = alive
        while m:
            low = m & -m
            m ^= low
            if (adj[low.bit_length() - 1] & alive).bit_count() & 1:
                all_even = False
                break
        eulerian = p.has_eulerian_components()
        result.instances_checked += 1
        if not (terminal == all_even == eulerian):
            result.fail(
                p.graph,
                "terminal == all-even == eulerian",
                (terminal, all_even, eulerian),
                f"alive set {alive:#x}",
            )

    for n in range(max_n + 1):
        for g in enumerate_labeled_graphs(n):
            check_position(g.full_position())
    for n in range(all_subsets_max_n + 1):
        for g in enumerate_labeled_graphs(n):
            for alive in range(1 << n):
                check_position(Position(g, alive))
    return result


def check_even_even(
    max_n: int = SWEEP_MAX_N,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """The even-rule engine value equals the vertex-count parity for every
    labeled graph up to ``max_n`` vertices."""
    result = TheoremCheckResult(TheoremId.EVEN_EVEN, scale={"max_n": max_n})
    tables = grundy_tables(max_n, MoveRule.EVEN, graph_budget=budget)
    crosschecks = 0
    for k in range(max_n + 1):
        expected = grundy_even_even(Graph(k))
        table = tables[k]
        size = len(table)
        result.instances_checked += size
        if table.count(expected) != size:
            for mask, got in enumerate(table):
                if got != expected:
                    result.fail(from_edge_mask(k, mask), expected, got)
        for mask in range(0, size, ENGINE_CROSSCHECK_STRIDE):
            g = from_edge_mask(k, mask)
            direct = grundy_value(g, MoveRule.EVEN, MemoTable(budget))
            crosschecks += 1
            if direct != table[mask]:
                result.fail(g, table[mask], direct, "sweep vs per-graph engine")
    result.scale["engine_crosschecks"] = crosschecks
    return result


def check_nim_sum(
    pairs: int = 500,
    max_n: int = 9,
    seed: int = NIM_SUM_SEED,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """Value of a disjoint union equals the nim-sum of the parts' values, on
    seeded random graph pairs."""
    result = TheoremCheckResult(
        TheoremId.NIM_SUM, scale={"pairs": pairs, "max_n": max_n, "seed": seed}
    )
    rng = random.Random(seed)
    for _ in range(pairs):
        g = random_graph(rng, rng.randint(0, max_n))
        h = random_graph(rng, rng.randint(0, max_n))
        union = disjoint_union(g, h)
        expected = nim_sum(
            grundy_value(g, memo=MemoTable(budget)),
            grundy_value(h, memo=MemoTable(budget)),
        )
        got = grundy_value(union, memo=MemoTable(budget))
        result.instances_checked += 1
        if got != expected:
            result.fail(union, expected, got, f"parts {to_graph6(g)} and {to_graph6(h)}")
    return result


def check_isolated_substitution(
    count: int = 1000,
    max_n: int = 8,
    max_padding: int = 3,
    seed: int = SUBSTITUTION_SEED,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """Replacing isolated vertices with 3-paths preserves the Grundy value,
    on seeded random graphs padded with extra isolated vertices."""
    result = TheoremCheckResult(
        TheoremId.ISOLATED_SUBSTITUTION,
        scale={
            "count": count,
            "max_n": max_n,
            "max_padding": max_padding,
            "seed": seed,
        },
    )
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randint(0, max_n))
        g = add_isolated_vertices(g, rng.randint(0, max_padding))
        replaced = replace_isolated_with_p3(g)
        expected = grundy_value(g, memo=MemoTable(budget))
        got = grundy_value(replaced, memo=MemoTable(budget))
        result.instances_checked += 1
        if got != expected:
            result.fail(g, expected, got, f"replaced: {to_graph6(replaced)}")
    return result


def check_bipartite_fast_path(
    count: int = 500,
    max_n: int = 12,
    seed: int = FAST_PATH_SEED,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """:func:`~vertexnim.solver.solve` takes a closed form on seeded random
    bipartite graphs beyond the exhaustive range and agrees with the engine."""
    result = TheoremCheckResult(
        TheoremId.BIPARTITE_PARITY,
        scale={"count": count, "max_n": max_n, "seed": seed, "check": "fast-path"},
    )
    rng = random.Random(seed)
    for _ in range(count):
        g = random_bipartite_graph(rng, rng.randint(1, max_n))
        report = solve(g)
        # a solve that fell back to search is a failure even with the right value
        got = report.grundy if report.method != SEARCH_METHOD else report.method
        result.check(g, grundy_value(g, memo=MemoTable(budget)), got)
    return result


def check_witness_construction(
    max_k: int = 4,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """Witness graphs certify to their target values, their apex children
    realize exactly the claimed component values, and the root value is the
    mex of the child values."""
    from .construction import witness

    result = TheoremCheckResult(TheoremId.WITNESS_CONSTRUCTION, scale={"max_k": max_k})
    for k in range(max_k + 1):
        w = witness(k, node_budget=budget)
        g = w.graph
        result.instances_checked += 1
        if not w.certified:
            result.fail(g, "certified", False, f"witness({k})")
            continue
        result.instances_checked += 1
        if not g.is_connected():
            result.fail(g, "connected", False, f"witness({k})")
        if w.recipe is None:
            continue
        recipe = w.recipe
        memo = MemoTable(budget)
        full = (1 << g.n) - 1
        child_values = []
        for part in recipe.parts:
            apex = recipe.apex_vertex(part.index)
            got = grundy_value(Position(g, full ^ (1 << apex)), memo=memo)
            child_values.append(got)
            result.check(
                g, part.claimed_grundy, got, f"witness({k}) child at apex {apex}"
            )
        result.check(g, k, mex(child_values), f"witness({k}) root mex")
        apex_set = recipe.apex_set()
        movable = g.full_position().movable_vertices(MoveRule.ODD)
        result.instances_checked += 1
        if movable != apex_set:
            result.fail(
                g,
                f"movable set {apex_set:#x}",
                f"{movable:#x}",
                f"witness({k}) root movable vertices",
            )
    return result


def verify_theorem(
    theorem: TheoremId,
    *,
    max_n: int | None = None,
    count: int | None = None,
    seed: int | None = None,
    max_k: int | None = None,
    budget: int | None = None,
) -> TheoremCheckResult:
    """Run the verification suite for one theorem at the given scale.

    Omitted scale parameters take each suite's documented defaults. Budget
    exhaustion raises :class:`TheoremBudgetError`.
    """

    def args(**pairs):
        return {k: v for k, v in pairs.items() if v is not None}

    try:
        if theorem is TheoremId.NIM_SUM:
            return check_nim_sum(**args(pairs=count, max_n=max_n, seed=seed, budget=budget))
        if theorem is TheoremId.EVEN_EVEN:
            return check_even_even(**args(max_n=max_n, budget=budget))
        if theorem is TheoremId.CLOSED_FORMS:
            return check_closed_forms(**args(max_n=max_n, budget=budget))
        if theorem is TheoremId.EULER_TERMINAL:
            return check_euler_terminal(**args(max_n=max_n))
        if theorem is TheoremId.ISOLATED_SUBSTITUTION:
            return check_isolated_substitution(
                **args(count=count, max_n=max_n, seed=seed, budget=budget)
            )
        if theorem is TheoremId.WITNESS_CONSTRUCTION:
            return check_witness_construction(**args(max_k=max_k, budget=budget))
        if theorem is TheoremId.BIPARTITE_PARITY:
            parity_max_n = max_n if max_n is not None else SWEEP_MAX_N
            parts = [
                check_bipartite_parity(**args(max_n=parity_max_n, budget=budget)),
                check_terminal_edge_parity(max_n=min(parity_max_n, 6)),
                check_bipartite_fast_path(
                    **args(count=count, seed=seed, budget=budget)
                ),
            ]
            merged = TheoremCheckResult(
                TheoremId.BIPARTITE_PARITY,
                scale={"parts": [p.scale for p in parts]},
            )
            for p in parts:
                merged.instances_checked += p.instances_checked
                for f in p.failures:
                    merged.add_failure(f)
                merged.truncated = merged.truncated or p.truncated
            return merged
    except NodeBudgetExceeded as exc:
        raise TheoremBudgetError(theorem, exc) from exc
    raise ValueError(f"unknown theorem id: {theorem!r}")
