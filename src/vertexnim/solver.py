"""Exact Grundy values for parity vertex-removal games by memoized search.

The engine recurses on alive-vertex subsets of one host graph, splitting each
into connected components and nim-summing their values, so positions that
factor into independent subgames stay tractable. A component grows from its
lowest vertex one vertex at a time and stops once it covers the position, the
common case. Each position carries a degree-parity vector, bit ``v`` set when
``v`` has odd degree within the alive set: the root XORs its alive rows, a
child removing ``v`` flips ``v``'s neighbours, and a component keeps its own
bits, so the movable set is one mask operation under either rule. Callers
probe the memo for each child and component, so the recursion runs only on a
miss. One engine serves both rules. :func:`solve` puts the proved closed forms
in front of the engine; their cross-checks live in :mod:`vertexnim.theorems`.

A solve splits its root into components once, reading only the rows of alive
vertices. A component the memo cannot answer is searched, but one of
``LATTICE_MIN_N`` to ``LATTICE_MAX_N`` vertices is searched only within
``allowance(k)`` nodes: if that runs out, :func:`lattice_values` values every
subset of the component at once, bit-sliced over its subset lattice, and the
memo keeps the result as a :class:`Lattice`, so later solves read any
subset's value as one bit.
"""

import sys
from dataclasses import dataclass
from itertools import count

from .graph import Graph, MoveRule, Position, from_edge_mask, iter_bits

DEFAULT_NODE_BUDGET = 50_000_000

SEARCH_METHOD = "brute-force search"

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


# The lattice kernel values a component only when it has at most this many
# vertices, which bounds its working set: about (2k + values) * 2**k / 8
# bytes, doubling with each vertex (peak traced memory 1.7 MB at k = 18,
# 7.3 MB at 20, 31 MB at 22). Kernel times on random graphs at p = 0.2, 0.5
# and 0.8 (medians of nine; 2-vCPU Xeon, Python 3.11.7): k = 12/14/16/18
# take 0.2/0.6/2.1/11-14 ms. At k = 20 the kernel takes 52-90 ms, and a
# dense graph's search 1.7-2.1 s.
LATTICE_MAX_N = 18


def allowance(k: int) -> int:
    """Search nodes a component of ``k`` vertices may visit before the lattice
    kernel values it instead: the kernel's measured cost in search nodes, so
    that, as in ski rental, a component never costs much more than the
    better of the two paths."""
    # the lattice path's time beyond its allowance, times the same graph's
    # search nodes/s (random connected graphs, p = 0.3/0.5/0.7, about ten per
    # k; 2-vCPU Xeon, Python 3.11.7): medians of 50, 56, 67, 80, 134, 238
    # and 347 nodes at k = 8 to 14; the kernel alone costs about 1,000-1,060
    # nodes at k = 16 and 4,100-4,700 at 18, so about 2**k / 64 from k = 14
    return max(1 << k >> 6, 64)


# the lattice path costs up to its allowance plus about as much again, so it
# can only win where a search may visit more than twice the allowance: from
# 8 vertices on, since a search of k vertices visits at most 2**k positions
LATTICE_MIN_N = next(k for k in count() if 1 << k > 2 * allowance(k))


class MemoTable:
    """Cache of Grundy values for positions of one host graph and rule.

    ``entries`` maps an alive set to its value. ``lattices`` maps each vertex
    bit of a lattice-valued component to its :class:`Lattice`, which answers
    every subset of that component. ``len`` counts the positions the table
    can answer. ``nodes_visited`` accumulates across solves sharing the table
    and is checked against ``node_budget``; a negative budget is refused with
    ``ValueError``. ``graph`` and ``rule`` are the first solve's host graph
    and rule; a solve of another graph or rule is refused with ``ValueError``.
    """

    __slots__ = ("entries", "lattices", "nodes_visited", "node_budget", "graph", "rule")

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET):
        if node_budget < 0:
            raise ValueError(f"node budget must be nonnegative, got {node_budget}")
        self.entries: dict = {}
        self.lattices: dict = {}
        self.nodes_visited = 0
        self.node_budget = node_budget
        self.graph = self.rule = None

    def __len__(self) -> int:
        masks = {lattice.mask for lattice in self.lattices.values()}
        return len(self.entries) + sum(1 << mask.bit_count() for mask in masks)


def lattice_values(rows: list, even: bool) -> list:
    """Value every subset of a graph on ``k = len(rows)`` vertices at once.

    ``rows[i]`` is vertex ``i``'s neighbourhood. Returns one int per Grundy
    value ``g``, with bit ``m`` set when the subset ``m`` has value ``g``.
    The sets are bit-sliced over the subset lattice (Biham, FSE 1997): bit
    ``m`` of ``alive[i]`` says that ``i`` is in ``m``, and the subsets from
    which removing ``i`` reaches a set ``s`` are ``s << 2**i``, masked by
    the subsets in which ``i`` is movable. The value-``g`` subsets are the
    unique fixpoint of "value at least ``g`` and no child of value ``g``";
    the iteration from "value at least ``g``" is exact on subsets of size
    below ``j`` after ``j`` rounds, and usually stops well before ``k + 1``.
    """
    k = len(rows)
    size = 1 << k
    alive = []
    for i in range(k):
        # period 2**(i + 1): 2**i subsets without i, then 2**i with it
        block = (1 << (1 << i)) - 1 << (1 << i)
        period = 2 << i
        while period < size:
            block |= block << period
            period <<= 1
        alive.append(block)
    moves = []
    for i, row in enumerate(rows):
        odd = 0
        for j in iter_bits(row):
            odd ^= alive[j]
        moves.append((1 << i, alive[i] & ~odd if even else alive[i] & odd))
    values = []
    # subsets of value at least len(values)
    rest = (1 << size) - 1
    while rest:
        out = rest
        while True:
            reach = 0
            for shift, movable in moves:
                reach |= out << shift & movable
            new = rest & ~reach
            if new == out:
                break
            out = new
        values.append(out)
        rest ^= out
    return values


class Lattice:
    """Every subset's value of one component, one bit per subset and value.

    Local subset ``m`` holds the component's ``i``-th lowest vertex when bit
    ``i`` of ``m`` is set. The value sets are kept as bytes, so a read is one
    byte lookup per value, whatever ``k``.
    """

    __slots__ = ("mask", "local", "values")

    def __init__(self, mask: int, rows: dict, even: bool):
        self.mask = mask
        self.local = {}
        for i, v in enumerate(iter_bits(mask)):
            self.local[1 << v] = 1 << i
        local_rows = [self._index(rows[bit] & mask) for bit in self.local]
        nbytes = ((1 << len(local_rows)) + 7) >> 3
        self.values = [
            bits.to_bytes(nbytes, "little")
            for bits in lattice_values(local_rows, even)
        ]

    def _index(self, mask: int) -> int:
        local = self.local
        m = 0
        while mask:
            low = mask & -mask
            m |= local[low]
            mask ^= low
        return m

    def value(self, mask: int) -> int:
        """The value of ``mask``, a subset of the component."""
        m = self._index(mask)
        byte, bit = m >> 3, m & 7
        return next(g for g, bits in enumerate(self.values) if bits[byte] >> bit & 1)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: the value, search counters and the method used.

    ``nodes_visited`` counts the positions the search visited plus ``2**k``
    for each lattice of ``k`` vertices; ``distinct_positions`` is how many
    more positions the memo can answer afterwards. ``optimal_move`` is the
    lowest-index removable vertex leading to a child of value 0; it is
    present exactly when ``grundy > 0``.
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


def _check_rule(rule) -> None:
    if not isinstance(rule, MoveRule):
        raise ValueError(f"rule must be a MoveRule, got {rule!r}")


def grundy(
    position: Position | Graph,
    rule: MoveRule = MoveRule.ODD,
    memo: MemoTable | None = None,
) -> SolveReport:
    """Solve a position exactly.

    Accepts a Graph as shorthand for its full position. The memo may be
    reused across solves of positions of the same host graph and rule;
    reuse changes the counters but never the value or the optimal move. A
    memo that holds another graph or rule, or a ``rule`` that is not a
    :class:`MoveRule`, is refused with ``ValueError``.

    The root splits into components once. A component the memo cannot
    answer is searched; one of ``LATTICE_MIN_N <= k <= LATTICE_MAX_N``
    vertices whose ``allowance(k) + 2**k`` nodes fit in the budget is
    searched within ``allowance(k)`` nodes, and if those run out the
    lattice kernel values all its subsets. ``nodes_visited`` counts the search's visits plus
    ``2**k`` per lattice, and is what the budget bounds;
    ``distinct_positions`` counts the positions the memo gained, each visit
    but those a lattice replaced, plus ``2**k`` per lattice. A solve's
    set-up follows its alive set, not its host graph.

    The search nests at most 2n + 2 Python frames on n alive vertices, and
    most positions nest far less: a path plus a triangle solves at n = 255
    in 0.96 s (32,386 nodes, 2-vCPU Xeon, Python 3.11) but overflows the
    default recursion limit of 1000 at n = 1200. A search that overflows is
    refused with ``ValueError``; the memo holds only completed entries, so
    it stays sound for later solves.
    """
    return _solve(position, rule, memo, True)


def grundy_value(
    position: Position | Graph,
    rule: MoveRule = MoveRule.ODD,
    memo: MemoTable | None = None,
) -> int:
    """Just the Grundy value of :func:`grundy`, without its search for an
    optimal move."""
    return _solve(position, rule, memo, False).grundy


def _solve(position, rule, memo, find_move) -> SolveReport:
    _check_rule(rule)
    if isinstance(position, Graph):
        position = position.full_position()
    alive = position.alive
    graph = position.graph
    if memo is None:
        memo = MemoTable()
    if memo.graph is None:
        memo.graph, memo.rule = graph, rule
    elif memo.rule is not rule or (memo.graph is not graph and memo.graph != graph):
        raise ValueError("this memo table holds another host graph or rule")
    adj = graph.adj
    # adjacency keyed by the vertex's bit, so no bit_length() per lookup; the
    # empty mask's lowest bit is 0, whose empty row gives an empty component
    rows = {0: 0}
    odd = 0
    for v in iter_bits(alive):
        row = rows[1 << v] = adj[v]
        odd ^= row
    odd &= alive
    even = rule is MoveRule.EVEN
    entries = memo.entries
    get = entries.get
    lattices = memo.lattices
    budget = memo.node_budget
    base = memo.nodes_visited
    # refuse the visit that would break nodes_visited <= node_budget
    limit = budget - base
    visited = 0
    # visits whose entries a lattice replaced
    replaced = 0

    def search(mask: int, odd: int) -> int:
        # a memo miss; bit v of odd is set when v has odd degree within mask
        nonlocal visited
        if visited >= limit:
            raise NodeBudgetExceeded(base + visited, budget)
        visited += 1
        value = 0
        rem = mask
        while True:
            # the component of rem's lowest vertex, expanding one vertex of todo
            # at a time; most masks are connected, so stop once it is all of rem
            low = rem & -rem
            comp = rows[low] & rem | low
            todo = comp ^ low
            while todo and comp != rem:
                low = todo & -todo
                reach = rows[low] & rem & ~comp
                comp |= reach
                todo ^= low | reach
            if comp == mask:
                break
            # no edge leaves a component, so its degrees are those in mask
            part = get(comp)
            if part is None:
                part = search(comp, odd & comp)
            value ^= part
            rem ^= comp
            if not rem:
                entries[mask] = value
                return value
        movable = mask ^ odd if even else odd
        seen = 0
        while movable:
            low = movable & -movable
            movable ^= low
            child = mask ^ low
            got = get(child)
            if got is None:
                got = search(child, (odd ^ rows[low]) & child)
            seen |= 1 << got
        value = (~seen & (seen + 1)).bit_length() - 1
        entries[mask] = value
        return value

    def known(mask: int) -> int | None:
        # the memo's value of mask, or None; most memos hold no lattice
        value = get(mask)
        if value is None and lattices:
            lattice = lattices.get(mask & -mask)
            if lattice is not None and not mask & ~lattice.mask:
                return lattice.value(mask)
        return value

    def answer(mask: int, odd: int) -> int:
        # a memo read, else the nim-sum of the components of mask
        value = known(mask)
        if value is not None:
            return value
        value = 0
        rem = mask
        while rem:
            # split as search() does, which keeps this loop inline for speed
            low = rem & -rem
            comp = rows[low] & rem | low
            todo = comp ^ low
            while todo and comp != rem:
                low = todo & -todo
                reach = rows[low] & rem & ~comp
                comp |= reach
                todo ^= low | reach
            rem ^= comp
            part = known(comp) if comp != mask else None
            # no edge leaves a component, so its degrees are those in mask
            value ^= fresh(comp, odd & comp) if part is None else part
        return value

    def fresh(comp: int, odd: int) -> int:
        # a component the memo cannot answer
        nonlocal limit, visited, replaced
        k = comp.bit_count()
        if not LATTICE_MIN_N <= k <= LATTICE_MAX_N:
            return search(comp, odd)
        cap = allowance(k)
        if cap + (1 << k) > limit - visited:
            return search(comp, odd)
        mark, saved, limit = len(entries), limit, visited + cap
        try:
            return search(comp, odd)
        except NodeBudgetExceeded:
            pass
        finally:
            limit = saved
        # the lattice also answers the abandoned search's entries
        while len(entries) > mark:
            entries.popitem()
        visited += 1 << k
        replaced += cap
        lattice = Lattice(comp, rows, even)
        for bit in lattice.local:
            lattices[bit] = lattice
        return lattice.value(comp)

    try:
        value = answer(alive, odd)
        move = None
        if find_move and value > 0:
            # a move to a 0-child exists from any positive position; take the
            # lowest-index one for determinism
            movable = alive ^ odd if even else odd
            for v in iter_bits(movable):
                child = alive ^ 1 << v
                if answer(child, (odd ^ rows[1 << v]) & child) == 0:
                    move = v
                    break
    except RecursionError:
        raise ValueError(
            f"search of {alive.bit_count()} alive vertices nests deeper than "
            f"the recursion limit of {sys.getrecursionlimit()} frames"
        ) from None
    finally:
        memo.nodes_visited = base + visited
    return SolveReport(value, visited, visited - replaced, move)


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
    _check_rule(rule)
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
