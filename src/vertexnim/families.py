"""Constructors for the standard graph families used throughout."""

from .graph import Graph


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices, edges ``i -- i+1``."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for j in range(n) for i in range(j)])


def star_graph(n: int) -> Graph:
    """Star on ``n`` vertices total: center 0 joined to ``n - 1`` leaves."""
    if n < 1:
        raise ValueError(f"star needs at least 1 vertex, got {n}")
    return Graph(n, [(0, v) for v in range(1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b}: sides ``0..a-1`` and ``a..a+b-1``."""
    if a < 0 or b < 0:
        raise ValueError(
            f"complete bipartite sides must be nonnegative, got a={a}, b={b}"
        )
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grid_graph(rows: int, cols: int) -> Graph:
    """Grid with ``rows * cols`` vertices in row-major order."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)
