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
from functools import lru_cache
from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ``mask``, lowest first."""
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


@lru_cache(maxsize=64)
def edge_slots(n: int) -> tuple:
    """Edge slot table for ``n`` vertices: slot ``s`` -> pair ``(i, j)``."""
    return tuple((i, j) for j in range(n) for i in range(j))


def slot_index(i: int, j: int) -> int:
    """Slot number of the edge ``{i, j}`` (any order, ``i != j``)."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


class Graph:
    """A simple undirected graph with a fixed vertex count.

    Instances are immutable values: hashable, comparable by structure, and
    safe to share between tasks.
    """

    __slots__ = ("n", "adj")

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

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

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
        return self.adj[v].bit_count()

    def odd_degree_vertices(self) -> int:
        """Bit set of vertices with odd degree."""
        out = 0
        for v, row in enumerate(self.adj):
            if row.bit_count() & 1:
                out |= 1 << v
        return out

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


class Position:
    """An induced subgraph in play: a host graph plus an alive-vertex bit set."""

    __slots__ = ("graph", "alive")

    def __init__(self, graph: Graph, alive: int):
        full = (1 << graph.n) - 1
        if alive & ~full:
            raise ValueError(f"alive set {alive:#x} has bits outside 0..{graph.n - 1}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "alive", alive)

    def __setattr__(self, name, value):
        raise AttributeError("Position is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Position)
            and self.graph == other.graph
            and self.alive == other.alive
        )

    def __hash__(self):
        return hash((self.graph, self.alive))

    def __repr__(self):
        return f"Position({self.graph!r}, alive={self.alive:#x})"

    def degree(self, v: int) -> int:
        """Degree of ``v`` within the alive set. ``v`` must be alive."""
        if not self.alive >> v & 1:
            raise ValueError(f"vertex {v} is not alive")
        return (self.graph.adj[v] & self.alive).bit_count()

    def movable_vertices(self, rule: MoveRule) -> int:
        """Bit set of alive vertices whose degree parity matches ``rule``."""
        adj = self.graph.adj
        alive = self.alive
        parity = rule.value
        out = 0
        for v in iter_bits(alive):
            if (adj[v] & alive).bit_count() & 1 == parity:
                out |= 1 << v
        return out

    def remove_vertex(self, v: int) -> "Position":
        """The position after removing alive vertex ``v`` and its edges."""
        if not self.alive >> v & 1:
            raise ValueError(f"vertex {v} is not alive")
        return Position(self.graph, self.alive ^ (1 << v))

    def edge_count(self) -> int:
        alive = self.alive
        adj = self.graph.adj
        return sum((adj[v] & alive).bit_count() for v in iter_bits(alive)) // 2

    def connected_components(self) -> list:
        """Alive set partitioned into components, ordered by lowest vertex."""
        adj = self.graph.adj
        alive = self.alive
        out = []
        rem = alive
        while rem:
            comp = rem & -rem
            frontier = comp
            while frontier:
                reach = 0
                for v in iter_bits(frontier):
                    reach |= adj[v]
                frontier = reach & alive & ~comp
                comp |= frontier
            out.append(comp)
            rem &= ~comp
        return out

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
    """Graph for an edge-mask encoding (see module docstring)."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    slots = edge_slots(n)
    if mask >> len(slots):
        raise ValueError(f"edge mask {mask:#x} too large for n={n}")
    rows = [0] * n
    while mask:
        low = mask & -mask
        mask ^= low
        i, j = slots[low.bit_length() - 1]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph._from_adj(n, tuple(rows))


def to_edge_mask(g: Graph) -> int:
    """Inverse of :func:`from_edge_mask`."""
    mask = 0
    for u, v in g.edges():
        mask |= 1 << slot_index(u, v)
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
