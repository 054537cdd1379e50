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

from .graph import Graph, from_edge_mask, to_edge_mask

# Largest vertex count accepted from text. Nothing in the solver depends on a
# word size (alive sets are Python ints); the limit keeps a few input bytes
# from committing the process to more than the node budget can bound.
# Measured on a 2-vCPU Xeon, Python 3.11, with no limit:
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
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if n is None:
            try:
                n, m = fields
                n, m = int(n), int(m)
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: expected header 'n m', got {raw.strip()!r}"
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
        try:
            u, v = fields
            u, v = int(u), int(v)
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: expected edge 'u v', got {raw.strip()!r}"
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
# each graph6 body character to its six bits, high bit first, for str.translate
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 string (without the optional ``>>graph6<<`` header)."""
    n = g.n
    if n <= _G6_MAX_SHORT:
        head = chr(n + 63)
    elif n <= _G6_MAX_LONG:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError(f"graph6 encoding for n={n} not supported (max {_G6_MAX_LONG})")
    # the edge-mask bits, slot 0 first; a sentinel bit above the last slot
    # keeps bin() from dropping empty high slots and is cut off with "0b"
    bits = bin(to_edge_mask(g) | 1 << n * (n - 1) // 2)[:2:-1]
    bits += "0" * (-len(bits) % 6)
    return head + "".join(
        chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6)
    )


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
    bits = body.translate(_G6_BITS)
    if "1" in bits[nslots:]:
        raise GraphFormatError("nonzero padding bits in graph6 body")
    return from_edge_mask(n, int(bits[:nslots][::-1] or "0", 2))


def load_graph(text: str) -> Graph:
    """Parse either supported format, as :func:`sniff_format` tells."""
    if sniff_format(text) == "graph6":
        return from_graph6(text)
    return parse_graph(text)
