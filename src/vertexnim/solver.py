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

A solve reads the memo first, for its root and for each child its move search
probes. A read that misses takes one path, :func:`_split`: it splits into
components once, reads each from the memo once, and is their nim-sum. The
search (its closures, rows and budget bookkeeping) is built at the first
component the memo cannot answer and kept for the rest of the solve; a query
the memo answers costs its reads and, with the move search, the root's
degree-parity vector. The search reads only the rows of alive vertices,
filled when it is built. A component the memo cannot answer that has
``LATTICE_MIN_N`` to ``LATTICE_MAX_N`` vertices, a movable vertex and
``2**k`` nodes left in the budget goes straight to a :class:`Lattice`,
which values its subsets one Grundy value (a level) at a time, bit-sliced
over its subset lattice in slabs of ``2**12`` subsets, and only as far as
its reads need; the memo keeps it. A solve stops at its root's level, and
later reads (the move search, ranking the root's children) extend the same
lattice, so later solves read any subset's value as one bit, its index
remapped run by run as the kernel's rows were, and a search on a memo that
holds lattices reads them too. Any other component is searched. A lattice costs at most one
kernel run, where a search of a dense component visits many times ``2**k /
64`` nodes (the kernel's measured cost in search nodes); only a path-like
component, whose search visits few positions, is slower this way.
"""

import sys
from dataclasses import dataclass
from functools import cache, partial

from .graph import Graph, MoveRule, Position, _check_rule, _components, iter_bits
from .graph import _odd_vertices, _slot_vector
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
# vertices, which bounds its working set: each slab's rest and moves, the
# level being computed and the bytes joined from the levels, within 4x of
# what the lattice keeps once every level is computed (peak traced memory
# at k = 18, 20 and 22: 0.30-0.33, 1.2-1.4 and 5.4-5.8 MB every level
# computed, 0.19-0.26, 0.84-1.1 and 3.8-4.9 MB to the root's level).
# Kernel times every level computed, on random graphs at p = 0.2, 0.5 and
# 0.8 (per p the median of nine calls; 2-vCPU Xeon, Python 3.11.7): k =
# 12/14/16/18 take 0.084-0.094/0.31-0.48/1.2-1.8/5.0-7.1 ms and k = 20/22
# take 20-27/70-97 ms, and a third to nine tenths of that to the root's
# level. At k = 20 a dense graph's search takes 1.7-2.1 s.
LATTICE_MAX_N = 18


# the kernel beat the search on 15 of 15 random connected 8-vertex graphs
# (medians 42-44 vs 95-112 us) and on 14 of 15 at 7 (38-50 vs 63-74 us;
# grundy on a fresh memo, 2-vCPU Xeon, Python 3.11.7). Moving the bound to 7
# would change the counters of every 7-vertex solve, so it stays at 8
LATTICE_MIN_N = 8


def _check_budget(node_budget: int) -> None:
    """Refuse a node budget that is not an ``int`` (a ``bool`` included) with
    ``TypeError``, and a negative one with ``ValueError``."""
    if type(node_budget) is not int:
        raise TypeError(f"node budget must be an int, got {node_budget!r}")
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")


class MemoTable:
    """Cache of Grundy values for positions of one host graph and rule.

    ``entries`` maps an alive set to its value. ``lattices`` maps each vertex
    bit of a lattice-valued component to its :class:`Lattice`, which answers
    every subset of that component. ``len`` counts the entries plus
    ``2**k`` per lattice of ``k`` vertices, so on a reused memo a position
    held as an entry before a lattice came to answer it counts twice.
    ``nodes_visited`` accumulates across solves sharing the table and is
    checked against ``node_budget``; a budget that is not an ``int`` is
    refused with ``TypeError``, a negative one with ``ValueError``.
    ``graph`` and ``rule`` are the first solve's host graph and rule; a solve
    of another graph or rule is refused with ``ValueError``.
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


# a slab spans at most this many vertices, whose subset vectors and nibble
# tables are built once per process (32 KB at width 12, 63 KB for every width
# up to 12; the vectors alone take 7 and 14 KB). Of widths 10 to 13, 12 was
# the fastest or tied at each k from 12 to 20, and 13 the slowest from 14 on
# (at k = 16, 1.2-2.0 ms against 1.4-2.0 at 11 and 2.2-3.8 at 13; 2-vCPU
# Xeon, Python 3.11.7)
_SLAB_MAX_N = 12


@cache
def _subset_vectors(k: int) -> tuple:
    """``(vectors, nibbles)`` for the ``2**k`` subsets of ``k`` vertices.
    Bit ``m`` of ``vectors[i]`` says that subset ``m`` holds ``i``, as edge
    mask ``m`` holds slot ``i``. ``nibbles[j][x]`` is the XOR of the vectors
    of the vertices ``4 * j + i`` for the bits ``i`` of ``x``, so a row's
    degree-parity vector takes one lookup per group of four vertices."""
    size = 1 << k
    vectors = tuple(_slot_vector(i, size) for i in range(k))
    nibbles = []
    for j in range(0, k, 4):
        table = [0]
        for vector in vectors[j : j + 4]:
            table += [x ^ vector for x in table]
        nibbles.append(tuple(table))
    return vectors, tuple(nibbles)


def _fixpoint(base: int, moves: list) -> int:
    """The subsets of ``base`` with no move into the result: a slab's
    subsets of the value being computed, where ``base`` is its rest less the
    subsets with an exit of that value. The iteration is exact on subsets of
    fewer than ``j`` low vertices after ``j`` rounds, and usually stops well
    before ``w + 1``."""
    out = base
    while True:
        reach = 0
        for shift, movable in moves:
            reach |= out << shift & movable
        new = base ^ (base & reach)
        if new == out:
            return out
        out = new


class Lattice:
    """Every subset's value of one component, one bit per subset and value,
    computed one whole Grundy value (a level) at a time, and only as far as
    its reads need.

    Local subset ``m`` holds the component's ``i``-th lowest vertex when bit
    ``i`` of ``m`` is set. A subset maps to ``m`` one run of consecutive
    vertices at a time: ``runs`` holds each run's lowest vertex, bits shifted
    down and first local bit, so the root of a connected graph is one run.
    The kernel's rows are remapped the same way.
    ``values`` lists the bytes of the levels computed so far, one per value
    ``g`` from 0 up, with bit ``m`` (bit ``m & 7`` of byte ``m >> 3``) set
    when subset ``m`` has value ``g``, so a read is one byte lookup per
    level; a read that finds its subset in none of them has :meth:`more`
    compute further levels until one holds it. A fresh solve reads the
    root, so it computes the levels up to the root's value; later reads
    extend them.

    The levels are bit-sliced over the subset lattice (Biham, FSE 1997), one
    slab at a time. The ``w`` lowest vertices, at most ``_SLAB_MAX_N``, are
    the low vertices, and slab ``h`` holds the ``2**w`` subsets ``h << w |
    l`` whose other (top) vertices are the set ``h``. Bit ``l`` of
    ``alive[i]`` says that ``i`` is in ``l``; the subsets in which ``i`` has
    an odd number of low neighbours are read from cached tables, one lookup
    per group of four low vertices. The subsets from which removing a low
    vertex ``i`` reaches a set ``s`` of the slab are ``s << 2**i``, masked by
    the subsets in which ``i`` is movable; that mask is one of two per
    vertex, picked once per slab by the parity of ``i``'s top neighbours in
    ``h``. Removing top vertex ``t`` leads to slab ``h ^ 2**t < h``, so each
    level goes through the slabs in increasing ``h`` and those exits read
    the level's finished slabs.

    Per slab the kernel keeps its moves (pairs of a shift and the subsets in
    which that low vertex is movable), its exits (pairs of the lower slab a
    top vertex's removal leads to and the subsets in which it is movable)
    and its rest, the subsets whose value is not yet known; one slab keeps
    its moves and rest alone, with ``exits`` None. All three are dropped
    with the last level. The state is plain ints and lists, so a memo
    holding a lattice of which only some levels are known pickles and
    copies.
    """

    __slots__ = ("mask", "runs", "values", "moves", "exits", "rests", "nbytes")

    def __init__(self, mask: int, rows: dict, even: bool):
        self.mask = mask
        self.runs = []
        rest = mask
        while rest:
            low = rest & -rest
            # adding its lowest bit carries through the lowest run
            run = rest ^ (rest & rest + low)
            shift = low.bit_length() - 1
            self.runs.append((shift, run >> shift, (mask & low - 1).bit_count()))
            rest ^= run
        # the runs select only the component's bits, so a row needs no mask
        local_rows = []
        index = self._index
        rest = mask
        while rest:
            low = rest & -rest
            local_rows.append(index(rows[low]))
            rest ^= low
        self.values = []
        k = len(local_rows)
        width = k if k <= _SLAB_MAX_N else _SLAB_MAX_N
        size = 1 << width
        full = (1 << size) - 1
        self.nbytes = (size + 7) >> 3
        alive, nibbles = _subset_vectors(width)
        # a top vertex is in every subset of a slab that holds it
        held_of = alive + (full,) * (k - width)
        moves = []
        for i, row in enumerate(local_rows):
            # the subsets in which i has an odd number of low neighbours: the
            # tables read the row's low w bits
            odd = 0
            for table in nibbles:
                odd ^= table[row & 15]
                row >>= 4
            held = held_of[i]
            # a ^ (a & b) is a & ~b without building ~b, about 4x faster at
            # 2**18 bits; so are the tests below
            moves.append((1 << i, held ^ (held & odd) if even else held & odd))
        if k == width:
            # one slab, with no exits: its moves and its rest
            self.moves, self.exits, self.rests = moves, None, full
            return
        # per vertex, its top neighbours and its movable subsets of a slab
        # whose top part holds an even, then an odd, number of them
        variants = [
            (row >> width, (movable, held ^ movable))
            for row, held, (_, movable) in zip(local_rows, held_of, moves)
        ]
        slab_moves = []
        slab_exits = []
        for h in range(1 << k - width):
            slab_moves.append([
                (1 << i, pair[(up & h).bit_count() & 1])
                for i, (up, pair) in enumerate(variants[:width])
            ])
            exits = []
            for t in iter_bits(h):
                up, pair = variants[width + t]
                exits.append((h ^ 1 << t, pair[(up & h).bit_count() & 1]))
            slab_exits.append(exits)
        self.moves, self.exits = slab_moves, slab_exits
        self.rests = [full] * (1 << k - width)

    def _index(self, mask: int) -> int:
        m = 0
        for shift, bits, start in self.runs:
            m |= (mask >> shift & bits) << start
        return m

    def value(self, mask: int) -> int:
        """The value of ``mask``, a subset of the component."""
        m = self._index(mask)
        byte, bit = m >> 3, m & 7
        for g, bits in enumerate(self.values):
            if bits[byte] >> bit & 1:
                return g
        # in none of the levels so far: compute whole levels until one holds it
        more = self.more
        while not more()[byte] >> bit & 1:
            pass
        return len(self.values) - 1

    def more(self) -> bytes:
        """Compute the next level, append it to ``values`` and return it.

        In a slab, the subsets of value ``g = len(values)`` are the unique
        fixpoint of "value at least ``g``, no exit of value ``g`` and no low
        child of value ``g``". The level is committed only once every slab
        has it, so an exception leaves the lattice as it was."""
        nbytes = self.nbytes
        if self.exits is None:
            out = _fixpoint(self.rests, self.moves)
            bits = out.to_bytes(nbytes, "little")
            rests = self.rests ^ out
            finished = not rests
        else:
            outs = []
            rests = []
            for moves, exits, rest in zip(self.moves, self.exits, self.rests):
                if not rest:
                    outs.append(0)
                    rests.append(0)
                    continue
                base = rest
                if exits:
                    # drop the subsets with a move into a lower slab's subsets
                    # of this value
                    hit = 0
                    for source, movable in exits:
                        hit |= outs[source] & movable
                    base ^= base & hit
                out = _fixpoint(base, moves)
                outs.append(out)
                rests.append(rest ^ out)
            bits = b"".join(out.to_bytes(nbytes, "little") for out in outs)
            finished = not any(rests)
        if finished:
            self.moves = self.exits = self.rests = None
        else:
            self.rests = rests
        self.values.append(bits)
        return bits


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
    lattice kernel, every subset's value up to the root's; later reads of
    the memo compute further values as they need them. Any other component
    is searched, and a budget too small for the lattice gets the plain
    search and its refusal. ``nodes_visited`` counts the search's visits
    plus ``2**k`` per lattice, and is what the budget bounds; it is also
    the number of positions the memo gained. A solve's set-up follows its
    alive set, not its host graph. The memo is read first; a read it misses
    is split into components, each read once, and the search is built at
    the first component the memo cannot answer: a solve that the memo
    answers, and answers every child its move search probes, builds no
    search, visits nothing and reads no host row but the alive rows its
    move search and its splits need.

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


def _read(entries: dict, lattices: dict, mask: int) -> int | None:
    """The memo's value of ``mask``, or None: its entry, else the lattice
    that holds the mask's lowest vertex; the empty set, a subset of every
    lattice, is 0. Most memos hold no lattice."""
    value = entries.get(mask)
    if value is None and lattices:
        lattice = lattices.get(mask & -mask)
        if lattice is not None and not mask & ~lattice.mask:
            return lattice.value(mask)
        if not mask:
            return 0
    return value


def _split(memo, adj, alive, even, fresh, mask: int, odd: int | None) -> tuple:
    """``(value, fresh)``: the value of ``mask``, a memo miss of one solve
    of ``alive`` whose degree-parity vector is ``odd`` (None until the
    search needs it), and the solve's search. The value is the nim-sum of
    the mask's components, each read from the memo once; a connected mask,
    already missed, is not read again. The search (:func:`_search`) values
    a component the memo cannot answer, and is built at the first one
    unless ``fresh`` holds it."""
    entries = memo.entries
    lattices = memo.lattices
    value = 0
    for comp in _components(adj, mask):
        part = _read(entries, lattices, comp) if comp != mask else None
        if part is None:
            if fresh is None:
                fresh = _search(memo, adj, alive, even)
            if odd is None:
                odd = _odd_vertices(adj, mask)
            # no edge leaves a component, so its degrees are those in mask
            part = fresh(comp, odd & comp)
        value ^= part
    return value, fresh


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
    entries = memo.entries
    lattices = memo.lattices
    base = memo.nodes_visited
    even = rule is MoveRule.EVEN
    # a read the memo answers builds nothing; a miss is split, and the search
    # is built at the first component the memo cannot answer. Only the search
    # and the move search need the parities; _split computes them for a
    # search when the move search has not
    fresh = odd = move = None
    adj = graph.adj
    try:
        value = _read(entries, lattices, alive)
        if value is None:
            if find_move:
                odd = _odd_vertices(adj, alive)
            value, fresh = _split(memo, adj, alive, even, fresh, alive, odd)
        if find_move and value > 0:
            if odd is None:
                odd = _odd_vertices(adj, alive)
            # a move to a 0-child exists from any positive position; take the
            # lowest-index one for determinism
            movable = alive ^ odd if even else odd
            while movable:
                low = movable & -movable
                movable ^= low
                child = alive ^ low
                got = _read(entries, lattices, child)
                if got is None:
                    odd_child = (odd ^ adj[low.bit_length() - 1]) & child
                    got, fresh = _split(memo, adj, alive, even, fresh, child, odd_child)
                if got == 0:
                    move = low.bit_length() - 1
                    break
    except RecursionError:
        raise ValueError(
            f"search of {alive.bit_count()} alive vertices nests deeper than "
            f"the recursion limit of {sys.getrecursionlimit()} frames"
        ) from None
    return value, memo.nodes_visited - base, move


def _search(memo: MemoTable, adj: tuple, alive: int, even: bool):
    """The search of one solve of ``alive`` on ``memo``: a function of a
    component the memo cannot answer and its degree-parity vector that
    returns the component's value, and records the nodes visited so far in
    ``memo`` as it ends."""
    # adjacency keyed by the vertex's bit, so no bit_length() per lookup; the
    # empty mask's lowest bit is 0, whose empty row gives an empty component
    rows = {0: 0}
    rest = alive
    while rest:
        low = rest & -rest
        rows[low] = adj[low.bit_length() - 1]
        rest ^= low
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

    # a fresh memo's lattices and this solve's searches cover disjoint
    # components, so only a reused memo's lattices can answer a search; the
    # empty set is the exception, which get leaves to search as one node
    probe = partial(_read, entries, lattices) if lattices else get

    def fresh(comp: int, odd: int) -> int:
        # a component the memo cannot answer
        nonlocal visited
        k = comp.bit_count()
        movable = comp ^ odd if even else odd
        try:
            # a terminal component is one search node, far cheaper than a lattice
            if not movable or not LATTICE_MIN_N <= k <= LATTICE_MAX_N or 1 << k > limit - visited:
                return search(comp, odd)
            visited += 1 << k
            lattice = Lattice(comp, rows, even)
            rest = comp
            while rest:
                low = rest & -rest
                lattices[low] = lattice
                rest ^= low
            return lattice.value(comp)
        finally:
            memo.nodes_visited = base + visited

    return fresh


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
