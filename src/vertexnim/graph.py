"""Immutable bit-set graphs and the positions of parity vertex-removal games.

Vertices are integers ``0..n-1``. Adjacency is a tuple of ``n`` ints, where bit
``u`` of ``adj[v]`` means ``u`` and ``v`` are adjacent. A position is a host
graph plus an ``alive`` bit set; removed vertices simply leave the alive set,
so edges are never materially deleted and a position is identified by one int.

Labeled graphs also have a canonical *edge mask* encoding: edge slots are the
pairs ``(i, j)`` with ``i < j`` ordered by ``j`` then ``i`` (the column-major
upper-triangle order, shared with the graph6 format), and bit ``s`` of the
mask is edge slot ``s``.
"""

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ``mask``, lowest first; a negative
    ``mask`` has endless set bits and is refused with ``ValueError``."""
    if mask < 0:
        raise ValueError(f"bit set must be nonnegative, got {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class MoveRule(enum.Enum):
    """Degree parity a vertex must have to be removable.

    The enum value doubles as the required parity: a vertex of degree ``d``
    is movable under rule ``r`` iff ``d % 2 == r.value``. Degree 0 is even,
    so isolated vertices are movable under EVEN and never under ODD.
    """

    ODD = 1
    EVEN = 0


def _check_rule(rule) -> None:
    if not isinstance(rule, MoveRule):
        raise ValueError(f"rule must be a MoveRule, got {rule!r}")


@lru_cache(maxsize=64)
def edge_slots(n: int) -> tuple:
    """Edge slot table for ``n`` vertices: slot ``s`` -> pair ``(i, j)``."""
    return tuple((i, j) for j in range(n) for i in range(j))


def _slot_vector(s: int, size: int) -> int:
    """Bit ``m`` set, for every ``m < size``, when edge mask ``m`` holds slot
    ``s``: runs of ``2**s`` clear and ``2**s`` set bits, doubled up to
    ``size``."""
    v = ((1 << (1 << s)) - 1) << (1 << s)
    width = 2 << s
    while width < size:
        v |= v << width
        width *= 2
    return v


def _odd_vertices(adj: tuple, alive: int) -> int:
    """Bit set of the vertices of ``alive`` with an odd number of neighbours
    in ``alive``: the XOR of their rows, which holds each vertex once per
    alive neighbour, masked by ``alive``."""
    odd = 0
    rest = alive
    while rest:
        low = rest & -rest
        odd ^= adj[low.bit_length() - 1]
        rest ^= low
    return odd & alive


def _components(adj: tuple, alive: int) -> list:
    """Bit set ``alive`` of rows ``adj`` partitioned into components, ordered
    by lowest vertex. Each grows from its lowest remaining vertex one vertex
    at a time and stops once it covers the rest, the common case."""
    out = []
    rem = alive
    while rem:
        low = rem & -rem
        comp = adj[low.bit_length() - 1] & rem | low
        todo = comp ^ low
        while todo and comp != rem:
            low = todo & -todo
            reach = adj[low.bit_length() - 1] & rem & ~comp
            comp |= reach
            todo ^= low | reach
        out.append(comp)
        rem ^= comp
    return out


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Graph:
    """A simple undirected graph with a fixed vertex count.

    Instances are frozen values: hashable, comparable by structure, and
    picklable, so they cross threads and processes.
    """

    n: int
    adj: tuple

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    @classmethod
    def _from_adj(cls, n: int, adj: tuple) -> "Graph":
        # trusted fast path: callers guarantee symmetry, no loops, bits < n
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def edges(self) -> list:
        """All edges as ``(u, v)`` pairs with ``u < v``, sorted."""
        return [
            (u, v)
            for u in range(self.n)
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1))
        ]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``; a ``v`` outside ``0..n-1`` is refused
        with ``ValueError``."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.adj[v].bit_count()

    def odd_degree_vertices(self) -> int:
        """Bit set of vertices with odd degree: the XOR of every row, as
        :meth:`Position.movable_vertices` XORs the alive rows."""
        odd = 0
        for row in self.adj:
            odd ^= row
        return odd

    def full_position(self) -> "Position":
        return Position(self, (1 << self.n) - 1)

    def is_connected(self) -> bool:
        """True when there is at most one connected component."""
        return len(self.full_position().connected_components()) <= 1

    def bipartition(self) -> int | None:
        """One color class of a proper 2-coloring, or None if not bipartite.

        Breadth-first 2-coloring per component, seeded at the lowest
        uncolored vertex, so the returned class is deterministic.
        """
        adj = self.adj
        colored = 0
        side = 0
        for start in range(self.n):
            if colored >> start & 1:
                continue
            colored |= 1 << start
            frontier = 1 << start
            frontier_in_side = False
            while frontier:
                reach = 0
                for v in iter_bits(frontier):
                    reach |= adj[v]
                if reach & frontier:
                    # an edge inside one breadth-first level closes an odd cycle
                    return None
                new = reach & ~colored
                if not frontier_in_side:
                    side |= new
                colored |= new
                frontier = new
                frontier_in_side = not frontier_in_side
        return side

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Position:
    """An induced subgraph in play: a host graph plus an alive-vertex bit set."""

    graph: Graph
    alive: int

    def __init__(self, graph: Graph, alive: int):
        full = (1 << graph.n) - 1
        if alive & ~full:
            raise ValueError(f"alive set {alive:#x} has bits outside 0..{graph.n - 1}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "alive", alive)

    def __repr__(self):
        return f"Position({self.graph!r}, alive={self.alive:#x})"

    def degree(self, v: int) -> int:
        """Degree of ``v`` within the alive set. ``v`` must be alive."""
        if v < 0 or not self.alive >> v & 1:
            raise ValueError(f"vertex {v} is not alive")
        return (self.graph.adj[v] & self.alive).bit_count()

    def movable_vertices(self, rule: MoveRule) -> int:
        """Bit set of alive vertices whose degree parity matches ``rule``; a
        ``rule`` that is not a :class:`MoveRule` is refused with ``ValueError``."""
        _check_rule(rule)
        odd = _odd_vertices(self.graph.adj, self.alive)
        return odd if rule is MoveRule.ODD else self.alive ^ odd

    def remove_vertex(self, v: int) -> "Position":
        """The position after removing alive vertex ``v`` and its edges."""
        if v < 0 or not self.alive >> v & 1:
            raise ValueError(f"vertex {v} is not alive")
        return Position(self.graph, self.alive ^ (1 << v))

    def edge_count(self) -> int:
        alive = self.alive
        adj = self.graph.adj
        return sum((adj[v] & alive).bit_count() for v in iter_bits(alive)) // 2

    def connected_components(self) -> list:
        """Alive set partitioned into components, ordered by lowest vertex."""
        return _components(self.graph.adj, self.alive)

    def is_terminal(self, rule: MoveRule) -> bool:
        """True when no alive vertex is removable under ``rule``."""
        return self.movable_vertices(rule) == 0

    def has_eulerian_components(self) -> bool:
        """True when every component carries a closed Eulerian trail.

        Componentwise even degrees suffice: each component is connected by
        construction, and the one-vertex component carries the empty trail.
        """
        adj = self.graph.adj
        for comp in self.connected_components():
            for v in iter_bits(comp):
                if (adj[v] & comp).bit_count() & 1:
                    return False
        return True


def from_edge_mask(n: int, mask: int) -> Graph:
    """Graph for an edge-mask encoding (see module docstring), decoded column
    by column as :func:`to_edge_mask` encodes it."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if mask < 0:
        raise ValueError(f"edge mask must be nonnegative, got {mask:#x}")
    if mask >> n * (n - 1) // 2:
        raise ValueError(f"edge mask {mask:#x} too large for n={n}")
    rows = [0] * n
    for j in range(1, n):
        # column j holds j's lower neighbours; later columns add its higher ones
        bit = 1 << j
        column = rows[j] = mask & bit - 1
        mask >>= j
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= bit
            column ^= low
    return Graph._from_adj(n, tuple(rows))


def to_edge_mask(g: Graph) -> int:
    """Inverse of :func:`from_edge_mask`."""
    # column j's slots i < j start at slot j(j-1)/2, in the order of bits i
    mask = 0
    for j, row in enumerate(g.adj):
        mask |= (row & ((1 << j) - 1)) << (j * (j - 1) // 2)
    return mask


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; ``h``'s vertices are relabeled to ``g.n .. g.n+h.n-1``."""
    shift = g.n
    rows = list(g.adj) + [row << shift for row in h.adj]
    return Graph._from_adj(g.n + h.n, tuple(rows))


def add_isolated_vertices(g: Graph, count: int) -> Graph:
    """Append ``count`` fresh degree-0 vertices."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return Graph._from_adj(g.n + count, g.adj + (0,) * count)
