"""Exact Grundy values for parity vertex-removal games by memoized search.

The engine recurses on alive-vertex subsets of one host graph, splitting into
connected components at every level and combining component values with the
nim-sum, so positions that factor into independent subgames stay tractable.
One engine serves both rules. :func:`solve` puts the proved closed forms in
front of the engine; their cross-checks live in :mod:`vertexnim.theorems`.
"""

from dataclasses import dataclass

from .formats import MAX_VERTICES
from .graph import Graph, MoveRule, Position, from_edge_mask, iter_bits

DEFAULT_NODE_BUDGET = 50_000_000

SEARCH_METHOD = "brute-force search"

GRUNDY_VALUE_BOUND = 1 << 16

ENUMERATION_MAX_N = 7


class NodeBudgetExceeded(RuntimeError):
    """The solve would visit more positions than the budget allows."""

    def __init__(self, nodes_visited: int, node_budget: int):
        super().__init__(
            f"node budget exhausted after {nodes_visited} positions "
            f"(budget {node_budget}); retry with a larger budget"
        )
        self.nodes_visited = nodes_visited
        self.node_budget = node_budget


class MemoTable:
    """Cache from alive-subset keys to Grundy values for one host graph.

    ``nodes_visited`` accumulates across solves sharing the table and is
    checked against ``node_budget``.
    """

    __slots__ = ("entries", "nodes_visited", "node_budget")

    def __init__(self, node_budget: int | None = DEFAULT_NODE_BUDGET):
        self.entries: dict = {}
        self.nodes_visited = 0
        self.node_budget = node_budget

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: the value, search counters and the method used.

    ``optimal_move`` is the lowest-index removable vertex leading to a child
    of value 0; it is present exactly when ``grundy > 0``.
    """

    grundy: int
    nodes_visited: int
    distinct_positions: int
    optimal_move: int | None
    method: str = SEARCH_METHOD


def mex(values) -> int:
    """Minimal excludant: least nonnegative integer not in ``values``."""
    seen = 0
    for v in values:
        if v < 0:
            raise ValueError(f"mex is defined on nonnegative integers, got {v}")
        seen |= 1 << v
    out = 0
    while seen >> out & 1:
        out += 1
    return out


def nim_sum(a: int, b: int) -> int:
    """Grundy value of a disjunctive sum: bitwise exclusive or."""
    if a < 0 or b < 0:
        raise ValueError("nim_sum is defined on nonnegative integers")
    return a ^ b


def grundy(
    position: Position | Graph,
    rule: MoveRule = MoveRule.ODD,
    memo: MemoTable | None = None,
) -> SolveReport:
    """Solve a position exactly.

    Accepts a Graph as shorthand for its full position. The memo may be
    reused across solves of positions of the same host graph and rule;
    reuse changes the counters but never the value or the optimal move.
    Positions above :data:`~vertexnim.formats.MAX_VERTICES` alive vertices
    are refused with ``ValueError`` before the recursion can overflow.
    """
    if isinstance(position, Graph):
        position = position.full_position()
    alive_count = position.alive.bit_count()
    if alive_count > MAX_VERTICES:
        raise ValueError(
            f"search is limited to {MAX_VERTICES} alive vertices, got "
            f"{alive_count}; its recursion nests up to 2n + 2 frames"
        )
    g = position.graph
    if memo is None:
        memo = MemoTable()
    adj = g.adj
    parity = rule.value
    entries = memo.entries
    budget = memo.node_budget
    base = memo.nodes_visited
    visited = 0
    created = 0

    def solve(mask: int) -> int:
        nonlocal visited, created
        cached = entries.get(mask)
        if cached is not None:
            return cached
        # refuse the visit that would break nodes_visited <= node_budget
        if budget is not None and base + visited + 1 > budget:
            raise NodeBudgetExceeded(base + visited, budget)
        visited += 1
        comps = []
        rem = mask
        while rem:
            comp = rem & -rem
            frontier = comp
            while frontier:
                reach = 0
                f = frontier
                while f:
                    low = f & -f
                    f ^= low
                    reach |= adj[low.bit_length() - 1]
                frontier = reach & mask & ~comp
                comp |= frontier
            comps.append(comp)
            rem &= ~comp
        if len(comps) > 1:
            value = 0
            for comp in comps:
                value ^= solve(comp)
        else:
            movable = 0
            m = mask
            while m:
                low = m & -m
                m ^= low
                if (adj[low.bit_length() - 1] & mask).bit_count() & 1 == parity:
                    movable |= low
            if movable == 0:
                value = 0
            else:
                seen = 0
                while movable:
                    low = movable & -movable
                    movable ^= low
                    seen |= 1 << solve(mask ^ low)
                value = 0
                while seen >> value & 1:
                    value += 1
        entries[mask] = value
        created += 1
        return value

    try:
        value = solve(position.alive)
        move = None
        if value > 0:
            # a move to a 0-child exists from any positive position; take the
            # lowest-index one for determinism
            for v in iter_bits(position.movable_vertices(rule)):
                if solve(position.alive ^ (1 << v)) == 0:
                    move = v
                    break
    finally:
        memo.nodes_visited = base + visited
    if value >= GRUNDY_VALUE_BOUND:
        raise AssertionError(f"grundy value {value} exceeds the sanity bound")
    return SolveReport(value, visited, created, move)


def grundy_value(
    position: Position | Graph,
    rule: MoveRule = MoveRule.ODD,
    memo: MemoTable | None = None,
) -> int:
    """Just the Grundy value of :func:`grundy`."""
    return grundy(position, rule, memo).grundy


def grundy_even_even(g: Graph) -> int:
    """Closed form for the even/even rule: vertex-count parity."""
    return g.n & 1


def solve(
    graph: Graph,
    rule: MoveRule = MoveRule.ODD,
    memo: MemoTable | None = None,
) -> SolveReport:
    """Solve a whole graph by the cheapest proved method.

    Under the even rule the value is the vertex-count parity; under the odd
    rule a bipartite graph's value is its edge-count parity; anything else
    goes to :func:`grundy` with ``memo``. A closed form visits no positions,
    and ``method`` names the one taken.
    """
    if rule is MoveRule.EVEN:
        value, method = grundy_even_even(graph), "vertex-parity closed form"
    elif graph.is_bipartite():
        value, method = graph.edge_count() & 1, "bipartite edge-parity fast path"
    else:
        return grundy(graph, rule, memo)
    move = None
    if value > 0:
        # every move from a positive closed-form position wins, so the lowest
        # removable vertex is also the search engine's deterministic choice
        move = min(iter_bits(graph.full_position().movable_vertices(rule)))
    return SolveReport(value, 0, 0, move, method)


def enumerate_labeled_graphs(n: int):
    """Yield every labeled simple graph on ``n`` vertices, in edge-mask order."""
    if n > ENUMERATION_MAX_N:
        raise ValueError(
            f"full enumeration capped at n={ENUMERATION_MAX_N}, got {n}"
        )
    nslots = n * (n - 1) // 2
    for mask in range(1 << nslots):
        yield from_edge_mask(n, mask)
