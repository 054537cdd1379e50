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
vertices, and a memo hit builds nothing: the rows are filled on the first
component the memo cannot answer, and the degree-parity vector only when a
miss or the move search needs it. A component the memo cannot answer that
has ``LATTICE_MIN_N`` to ``LATTICE_MAX_N`` vertices, a movable vertex and
``2**k`` nodes left in the budget goes straight to :func:`lattice_values`,
which values every subset of it at once, bit-sliced over its subset lattice
one slab of ``2**12`` subsets at a time; the memo keeps the result as a
:class:`Lattice`, so later solves read any subset's value as one bit, and a
search on a memo that already holds lattices reads them too. Any other
component is searched. A lattice costs one kernel run, where a search of a
dense component visits many times ``2**k / 64`` nodes (the kernel's measured
cost in search nodes); only a path-like component, whose search visits few
positions, is slower this way.
"""

import sys
from dataclasses import dataclass
from functools import cache

from .graph import Graph, MoveRule, Position, _check_rule, _components, iter_bits
from .graph import _slot_vector
# from_edge_mask goes unused here: perfbench's span recorder rebinds it
from .graph import from_edge_mask

DEFAULT_NODE_BUDGET = 50_000_000

SEARCH_METHOD = "brute-force search"


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
# vertices, which bounds its working set: the finished slabs' value sets and
# the bytes joined from them, about 2 * values * 2**k / 8 bytes, doubling
# with each vertex (peak traced memory 0.43 MB at k = 18, 1.8 MB at 20,
# 6.9 MB at 22). Kernel times on random graphs at p = 0.2, 0.5 and 0.8
# (medians of nine, two rounds; 2-vCPU Xeon, Python 3.11.7): k = 12/14/16/18
# take 0.14-0.20/0.37-0.71/1.4-2.4/5.5-8.6 ms, and k = 20/22 take 20-36/
# 88-125 ms. At k = 20 a dense graph's search takes 1.7-2.1 s.
LATTICE_MAX_N = 18


# the kernel beat the search on 15 of 15 random connected 8-vertex graphs
# (medians 42-44 vs 95-112 us) and on 14 of 15 at 7 (38-50 vs 63-74 us;
# grundy on a fresh memo, 2-vCPU Xeon, Python 3.11.7). Moving the bound to 7
# would change the counters of every 7-vertex solve, so it stays at 8
LATTICE_MIN_N = 8


def _check_budget(node_budget: int) -> None:
    """Refuse a negative node budget with ``ValueError``."""
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")


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
        _check_budget(node_budget)
        self.entries: dict = {}
        self.lattices: dict = {}
        self.nodes_visited = 0
        self.node_budget = node_budget
        self.graph = self.rule = None

    def __len__(self) -> int:
        masks = {lattice.mask for lattice in self.lattices.values()}
        return len(self.entries) + sum(1 << mask.bit_count() for mask in masks)


# a slab spans at most this many vertices, whose subset vectors are built once
# per process (14 KB for every width up to 12). Of widths 10 to 13, 12 was the
# fastest or tied at each k from 12 to 20, and 13 the slowest from 14 on (at
# k = 16, 1.2-2.0 ms against 1.4-2.0 at 11 and 2.2-3.8 at 13; 2-vCPU Xeon,
# Python 3.11.7)
_SLAB_MAX_N = 12


@cache
def _subset_vectors(k: int) -> tuple:
    # bit m of entry i says that subset m holds i, as edge mask m holds slot i
    size = 1 << k
    return tuple(_slot_vector(i, size) for i in range(k))


def lattice_values(rows: list, even: bool) -> list:
    """Value every subset of a graph on ``k = len(rows)`` vertices at once.

    ``rows[i]`` is vertex ``i``'s neighbourhood. Returns one ``bytes`` per
    Grundy value ``g``, with bit ``m`` (bit ``m & 7`` of byte ``m >> 3``)
    set when the subset ``m`` has value ``g``. The sets are bit-sliced over
    the subset lattice (Biham, FSE 1997), one slab at a time. The ``w``
    lowest vertices, at most ``_SLAB_MAX_N``, are the low vertices, and
    slab ``h`` holds the ``2**w`` subsets ``h << w | l`` whose other (top)
    vertices are the set ``h``. Bit ``l`` of ``alive[i]`` says that ``i``
    is in ``l``, and the subsets from which removing a low vertex ``i``
    reaches a set ``s`` of the slab are ``s << 2**i``, masked by the
    subsets in which ``i`` is movable; that mask is one of two per vertex,
    picked by the parity of ``i``'s top neighbours in ``h``. Removing top
    vertex ``t`` leads to slab ``h ^ 2**t < h``, so the slabs are valued in
    increasing ``h`` and those exits read finished slabs. In a slab, the
    value-``g`` subsets are the unique fixpoint of "value at least ``g``,
    no exit of value ``g`` and no low child of value ``g``"; the iteration
    is exact on subsets of fewer than ``j`` low vertices after ``j``
    rounds, and usually stops well before ``w + 1``.
    """
    k = len(rows)
    width = k if k <= _SLAB_MAX_N else _SLAB_MAX_N
    size = 1 << width
    full = (1 << size) - 1
    held_of = alive = _subset_vectors(width)
    if k > width:
        # a top vertex is in every subset of a slab that holds it
        held_of += (full,) * (k - width)
        tops = [row >> width for row in rows]
        rows = [row & size - 1 for row in rows]
    moves = []
    for i, row in enumerate(rows):
        odd = 0
        while row:
            low = row & -row
            odd ^= alive[low.bit_length() - 1]
            row ^= low
        held = held_of[i]
        # a ^ (a & b) is a & ~b without building ~b, about 4x faster at 2**18
        # bits; so are the tests below
        moves.append((1 << i, held ^ (held & odd) if even else held & odd))
    if k > width:
        # per vertex, its top neighbours and its movable subsets of a slab
        # whose top part holds an even, then an odd, number of them
        variants = [
            (up, (movable, held ^ movable))
            for up, held, (_, movable) in zip(tops, held_of, moves)
        ]
        del moves[width:]
    slabs = []
    exits = ()
    for h in range(1 << k - width):
        if h:
            moves = [
                (1 << i, pair[(up & h).bit_count() & 1])
                for i, (up, pair) in enumerate(variants[:width])
            ]
            exits = []
            for t in iter_bits(h):
                up, pair = variants[width + t]
                exits.append((slabs[h ^ 1 << t], pair[(up & h).bit_count() & 1]))
        values = []
        # subsets of the slab of value at least len(values)
        rest = full
        while rest:
            base = rest
            if exits:
                # drop the subsets with a move into a finished slab's
                # subsets of value len(values)
                g = len(values)
                hit = 0
                for done, movable in exits:
                    if g < len(done):
                        hit |= done[g] & movable
                base ^= base & hit
            out = base
            while True:
                reach = 0
                for shift, movable in moves:
                    reach |= out << shift & movable
                new = base ^ (base & reach)
                if new == out:
                    break
                out = new
            values.append(out)
            rest ^= out
        slabs.append(values)
    nbytes = (size + 7) >> 3
    if len(slabs) == 1:
        return [bits.to_bytes(nbytes, "little") for bits in values]
    zero = bytes(nbytes)
    return [
        b"".join(
            values[g].to_bytes(nbytes, "little") if g < len(values) else zero
            for values in slabs
        )
        for g in range(max(map(len, slabs)))
    ]


class Lattice:
    """Every subset's value of one component, one bit per subset and value.

    Local subset ``m`` holds the component's ``i``-th lowest vertex when bit
    ``i`` of ``m`` is set. A component of consecutive vertices, such as the
    root of any connected graph, maps a subset to ``m`` with one shift;
    another walks its bits through ``local``. The value sets are kept as
    bytes, so a read is one byte lookup per value, whatever ``k``.
    """

    __slots__ = ("mask", "shift", "local", "values")

    def __init__(self, mask: int, rows: dict, even: bool):
        self.mask = mask
        low = mask & -mask
        self.shift = low.bit_length() - 1
        # adding its lowest bit carries through a run of consecutive bits
        self.local = None if mask + low & mask == 0 else {
            1 << v: 1 << i for i, v in enumerate(iter_bits(mask))
        }
        local_rows = [self._index(rows[1 << v] & mask) for v in iter_bits(mask)]
        self.values = lattice_values(local_rows, even)

    def _index(self, mask: int) -> int:
        local = self.local
        if local is None:
            return mask >> self.shift
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
        for g, bits in enumerate(self.values):
            if bits[byte] >> bit & 1:
                return g


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: the value, search counters and the method used.

    ``nodes_visited`` counts the positions the search visited plus ``2**k``
    for each lattice of ``k`` vertices. ``optimal_move`` is the lowest-index
    removable vertex leading to a child of value 0; it is present exactly
    when ``grundy > 0``.
    """

    grundy: int
    nodes_visited: int
    optimal_move: int | None
    method: str = SEARCH_METHOD

    @property
    def distinct_positions(self) -> int:
        """Positions the memo gained in the solve, which is always
        ``nodes_visited``; kept for readers of the old field, such as
        perfbench's ``spans.describe``."""
        return self.nodes_visited


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
    reuse changes the counters but never the value or the optimal move. A
    memo that holds another graph or rule, or a ``rule`` that is not a
    :class:`MoveRule`, is refused with ``ValueError``.

    The root splits into components once. A component the memo cannot
    answer that has ``LATTICE_MIN_N <= k <= LATTICE_MAX_N`` vertices, a
    movable vertex and ``2**k`` nodes left in the budget is valued by the
    lattice kernel, all its subsets at once; any other component is
    searched, and a budget too small for the lattice gets the plain search
    and its refusal. ``nodes_visited`` counts the search's visits plus
    ``2**k`` per lattice, and is what the budget bounds; it is also the
    number of positions the memo gained. A solve's set-up follows its alive
    set, not its host graph, and a memo hit builds nothing: a solve that the
    memo answers reads no host row, and its move search reads only the alive
    rows.

    The search nests at most 2n + 2 Python frames on n alive vertices, and
    most positions nest far less: a path plus a triangle solves at n = 255
    in 0.96 s (32,386 nodes, 2-vCPU Xeon, Python 3.11) but overflows the
    default recursion limit of 1000 at n = 1200. A search that overflows is
    refused with ``ValueError``; the memo holds only completed entries, so
    it stays sound for later solves.
    """
    value, visited, move = _solve(position, rule, memo, True)
    return SolveReport(value, visited, move)


def grundy_value(
    position: Position | Graph,
    rule: MoveRule = MoveRule.ODD,
    memo: MemoTable | None = None,
) -> int:
    """Just the Grundy value of :func:`grundy`, without its search for an
    optimal move or its report."""
    return _solve(position, rule, memo, False)[0]


def _solve(position, rule, memo, find_move) -> tuple:
    # (value, nodes visited, optimal move or None)
    _check_rule(rule)
    if isinstance(position, Graph):
        graph, alive = position, (1 << position.n) - 1
    else:
        graph, alive = position.graph, position.alive
    if memo is None:
        memo = MemoTable()
    if memo.graph is None:
        memo.graph, memo.rule = graph, rule
    elif memo.rule is not rule or (memo.graph is not graph and memo.graph != graph):
        raise ValueError("this memo table holds another host graph or rule")
    adj = graph.adj
    # adjacency keyed by the vertex's bit, so no bit_length() per lookup,
    # filled on the first memo miss; the empty mask's lowest bit is 0, whose
    # empty row gives an empty component
    rows = {}
    even = rule is MoveRule.EVEN
    entries = memo.entries
    get = entries.get
    lattices = memo.lattices
    budget = memo.node_budget
    base = memo.nodes_visited
    # refuse the visit that would break nodes_visited <= node_budget
    limit = budget - base
    visited = 0

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
            # at a time; most masks are connected, so stop once it is all of rem.
            # graph._components keeps the same rule out of line; a call per
            # node would cost the search about 15% of its speed
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
            part = probe(comp)
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
            got = probe(child)
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

    # a fresh memo's lattices and this solve's searches cover disjoint
    # components, so only a reused memo's lattices can answer a search
    probe = known if lattices else get

    def split(mask: int, odd: int) -> int:
        # the nim-sum of the components of mask, which the memo cannot answer
        value = 0
        for comp in _components(adj, mask):
            part = known(comp) if comp != mask else None
            # no edge leaves a component, so its degrees are those in mask
            value ^= fresh(comp, odd & comp) if part is None else part
        return value

    def fresh(comp: int, odd: int) -> int:
        # a component the memo cannot answer
        nonlocal visited
        if not rows:
            rows[0] = 0
            for v in iter_bits(alive):
                rows[1 << v] = adj[v]
        k = comp.bit_count()
        movable = comp ^ odd if even else odd
        # a terminal component is one search node, far cheaper than a lattice
        if not movable or not LATTICE_MIN_N <= k <= LATTICE_MAX_N or 1 << k > limit - visited:
            return search(comp, odd)
        visited += 1 << k
        lattice = Lattice(comp, rows, even)
        for v in iter_bits(comp):
            lattices[1 << v] = lattice
        return lattice.value(comp)

    try:
        # a memo hit builds nothing, and its move search only the parities
        move = None
        value = known(alive)
        if value is None or find_move and value > 0:
            odd = 0
            for v in iter_bits(alive):
                odd ^= adj[v]
            odd &= alive
            if value is None:
                value = split(alive, odd)
        if find_move and value > 0:
            # a move to a 0-child exists from any positive position; take the
            # lowest-index one for determinism
            movable = alive ^ odd if even else odd
            for v in iter_bits(movable):
                child = alive ^ 1 << v
                got = known(child)
                if got is None:
                    got = split(child, (odd ^ adj[v]) & child)
                if got == 0:
                    move = v
                    break
    except RecursionError:
        raise ValueError(
            f"search of {alive.bit_count()} alive vertices nests deeper than "
            f"the recursion limit of {sys.getrecursionlimit()} frames"
        ) from None
    finally:
        memo.nodes_visited = base + visited
    return value, visited, move


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
    return SolveReport(value, 0, move, method)
