"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports vertexnim: the reference recursion, the graph6 codec and
the bipartite test are written from the definitions, so a bug in the package
cannot also hide in the check. Graphs are plain ``(n, edges)`` pairs.
"""

import sys


def adjacency(n: int, edges) -> list:
    """Neighbour bit sets, one int per vertex."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def movable(rows, mask: int, parity: int = 1) -> list:
    """Alive vertices of ``mask`` whose alive degree has the given parity."""
    return [
        v
        for v in range(len(rows))
        if mask >> v & 1 and (rows[v] & mask).bit_count() % 2 == parity
    ]


class Reference:
    """Plain memoized mex recursion over alive masks, without component
    splitting: the value of a position is the mex of its children's values."""

    def __init__(self, n: int, edges, parity: int = 1):
        self.rows = adjacency(n, edges)
        self.parity = parity
        self.full = (1 << n) - 1
        self.memo = {}

    def value(self, mask: int | None = None) -> int:
        if mask is None:
            mask = self.full
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 4 * len(self.rows) + 100))
        try:
            return self._value(mask)
        finally:
            sys.setrecursionlimit(limit)

    def _value(self, mask: int) -> int:
        known = self.memo.get(mask)
        if known is not None:
            return known
        seen = {self._value(mask ^ (1 << v)) for v in movable(self.rows, mask, self.parity)}
        value = 0
        while value in seen:
            value += 1
        self.memo[mask] = value
        return value


def slots(n: int) -> list:
    """Edge slots in graph6 bit order: column-major upper triangle."""
    return [(i, j) for j in range(n) for i in range(j)]


def encode_graph6(n: int, edges) -> str:
    """graph6 string of a graph with at most 62 vertices."""
    if n > 62:
        raise ValueError("reference encoder handles n <= 62")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if s in present else 0 for s in slots(n)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        chars.append(chr(63 + int("".join(map(str, bits[k : k + 6])), 2)))
    return "".join(chars)


def decode_graph6(text: str) -> tuple:
    """``(n, sorted edges)`` of a graph6 string with at most 62 vertices."""
    n = ord(text[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    return n, sorted(s for s, b in zip(slots(n), bits) if b == "1")


def is_bipartite(n: int, edges) -> bool:
    rows = adjacency(n, edges)
    color = [-1] * n
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(n):
                if rows[u] >> v & 1:
                    if color[v] < 0:
                        color[v] = 1 - color[u]
                        stack.append(v)
                    elif color[v] == color[u]:
                        return False
    return True


def labeled_graphs(n: int):
    """Every labeled graph on ``n`` vertices as an edge list."""
    pairs = slots(n)
    for mask in range(1 << len(pairs)):
        yield [pairs[s] for s in range(len(pairs)) if mask >> s & 1]


def census_expectation(max_n: int) -> dict:
    """Odd-rule value counts over every labeled graph on ``max_n`` vertices
    and the graph6 of the first value-2 graph by (n, edges, edge mask) over
    all n <= max_n."""
    counts: dict = {}
    minimal2 = None
    for k in range(max_n + 1):
        graphs = list(labeled_graphs(k))
        values = [Reference(k, e).value() for e in graphs]
        if minimal2 is None:
            twos = [e for e, v in zip(graphs, values) if v == 2]
            if twos:
                minimal2 = encode_graph6(k, min(twos, key=len))
        if k == max_n:
            for v in values:
                counts[v] = counts.get(v, 0) + 1
    return {"counts": counts, "minimal2": minimal2}


def bipartite_count(n: int) -> int:
    """Number of bipartite labeled graphs on ``n`` vertices."""
    if n == 7:
        # too many to enumerate in the oracle's time (2,097,152 graphs)
        return 103_237
    return sum(is_bipartite(n, e) for e in labeled_graphs(n))
