"""Text formats for graphs: an edge-list format and graph6.

Edge-list format: a header line ``n m`` (vertex count, edge count) followed by
``m`` lines ``u v`` with ``0 <= u, v < n`` and ``u != v``. Blank lines and
lines starting with ``#`` are ignored. Duplicate edges and self-loops are
rejected, not repaired.

graph6 is the standard ASCII encoding used by graph-enumeration tools: the
vertex count, then the upper triangle of the adjacency matrix in column-major
order, packed six bits per character with offset 63. Our edge-mask slot order
is exactly that bit order.

Both readers refuse graphs above :data:`MAX_VERTICES` before allocating them.
"""

from .graph import Graph, edge_slots, to_edge_mask

# Largest vertex count accepted from text, and the most alive vertices
# solver.grundy will search (it refuses more). Nothing in the solver depends on a
# word size (alive sets are Python ints); the limit keeps a few input bytes
# from committing the process to more than the node budget can bound.
# Measured on a 2-vCPU Xeon, Python 3.11, with no limit:
# - recursion: a search nests at most 2n + 2 Python frames, inside the
#   default limit of 1000. A path plus a triangle solves at n = 255 in 2.4 s
#   (32,386 nodes) and raises RecursionError at n = 1200.
# - memo memory: a memo entry (dict slot plus key) takes about 102 B at
#   n = 255 against 78 B at n = 63 (1M entries each), so the node budget
#   still bounds the memo.
# - adjacency: at most n * n / 8 bytes, about 8 kB at n = 255.
MAX_VERTICES = 255


class GraphFormatError(ValueError):
    """Malformed graph text; the message names the offending line."""


def _first_data_line(text: str) -> str:
    """The first line that is neither blank nor a ``#`` comment, stripped;
    empty when there is none."""
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            return line
    return ""


def sniff_format(text: str) -> str:
    """``"graph6"`` or ``"edgelist"``: which format ``text`` is in.

    A graph6 line contains no whitespace, so a first data line of two or more
    fields is an edge-list header and a single field is a graph6 string.
    Empty input counts as an edge list, whose parser names the problem.
    """
    return "graph6" if len(_first_data_line(text).split()) == 1 else "edgelist"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format into a Graph."""
    n = m = None
    header_line = 0
    rows = []
    edges_seen = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2:
                raise GraphFormatError(
                    f"line {lineno}: expected header 'n m', got {line!r}"
                )
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: expected header 'n m', got {line!r}"
                ) from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"line {lineno}: negative count in header")
            if n > MAX_VERTICES:
                raise GraphFormatError(
                    f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}"
                )
            header_line = lineno
            rows = [0] * n
            continue
        if edges_seen == m:
            raise GraphFormatError(
                f"line {lineno}: more than the {m} edges declared in the header"
            )
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected edge 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: expected edge 'u v', got {line!r}"
            ) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"line {lineno}: vertex out of range 0..{n - 1} in edge ({u}, {v})"
            )
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if rows[u] >> v & 1:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        edges_seen += 1
    if n is None:
        raise GraphFormatError("line 1: empty input, expected header 'n m'")
    if edges_seen != m:
        raise GraphFormatError(
            f"line {header_line}: header declares {m} edges, found {edges_seen}"
        )
    return Graph._from_adj(n, tuple(rows))


def serialize_graph(g: Graph) -> str:
    """Edge-list text for ``g``; ``parse_graph`` round-trips it exactly."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 string (without the optional ``>>graph6<<`` header)."""
    n = g.n
    if n <= _G6_MAX_SHORT:
        head = chr(n + 63)
    elif n <= _G6_MAX_LONG:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError(f"graph6 encoding for n={n} not supported (max {_G6_MAX_LONG})")
    mask = to_edge_mask(g)
    nslots = n * (n - 1) // 2
    chars = []
    for group in range((nslots + 5) // 6):
        val = 0
        for t in range(6):
            s = 6 * group + t
            if s < nslots and mask >> s & 1:
                val |= 1 << (5 - t)
        chars.append(chr(val + 63))
    return head + "".join(chars)


def from_graph6(text: str) -> Graph:
    """Decode the first graph6 line of ``text``.

    Blank lines and ``#`` comments before it are skipped, as in the edge-list
    format, and the ``>>graph6<<`` header is tolerated.
    """
    s = _first_data_line(text)
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphFormatError("empty graph6 string")
    if s[0] == ":" or s[0] == ";":
        raise GraphFormatError("sparse6 input is not supported")
    if s[0] == "&":
        raise GraphFormatError("digraph6 input is not supported")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"invalid graph6 character {ch!r}")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    else:
        if len(s) >= 2 and s[1] == "~":
            raise GraphFormatError("graph6 vertex counts above 258047 not supported")
        if len(s) < 4:
            raise GraphFormatError("truncated graph6 vertex count")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"graph6 vertex count {n} exceeds the limit of {MAX_VERTICES}"
        )
    nslots = n * (n - 1) // 2
    expected = (nslots + 5) // 6
    if len(body) != expected:
        raise GraphFormatError(
            f"graph6 body has {len(body)} characters, expected {expected} for n={n}"
        )
    mask = 0
    for group, ch in enumerate(body):
        val = ord(ch) - 63
        for t in range(6):
            if val >> (5 - t) & 1:
                s_idx = 6 * group + t
                if s_idx >= nslots:
                    raise GraphFormatError("nonzero padding bits in graph6 body")
                mask |= 1 << s_idx
    slots = edge_slots(n)
    rows = [0] * n
    while mask:
        low = mask & -mask
        mask ^= low
        i, j = slots[low.bit_length() - 1]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph._from_adj(n, tuple(rows))


def load_graph(text: str) -> Graph:
    """Parse either supported format, as :func:`sniff_format` tells."""
    if sniff_format(text) == "graph6":
        return from_graph6(text)
    return parse_graph(text)
