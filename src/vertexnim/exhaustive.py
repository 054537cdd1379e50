"""Whole-census machinery: Grundy values for every labeled graph on <= 7
vertices, bipartite classification, and the value census.

The sweep exploits that a position's value depends only on its induced
subgraph: relabel the surviving vertices in increasing order and any position
of any n-vertex graph becomes a labeled graph on fewer vertices. Evaluating
all graphs level by level (k = 0, 1, ..., n) therefore needs each labeled
graph's value exactly once. This is exact labeled-graph identity, not
isomorphism reduction: every labeled graph is enumerated and valued.

A level is swept one row at a time, with no Python work per edge mask. Edge
slots are in colex order, so the slots among vertices ``0..r-1``,
``r = min(k, 5)``, are the low ``C(r, 2)`` bits of a mask; a row holds the
masks that agree on every other slot. Deleting a vertex ``v >= r`` leaves the
low slots as they are, so the row's children are one contiguous slice of the
previous level's table. Deleting ``v < r`` moves them by a fixed gather from
one 64-byte segment of that table, a single ``bytes.translate``. The values
of a row's children are OR-ed as presence bits through ``int.from_bytes``,
and one more translate takes the mex, in the manner of bit-slicing (Biham,
FSE 1997).
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .graph import MoveRule, from_edge_mask, edge_slots
from .solver import DEFAULT_NODE_BUDGET, NodeBudgetExceeded, _check_rule

SWEEP_MAX_N = 7

# A row splits off the slots among vertices 0..r-1. Deleting v < r gathers
# the row's children from a 2**C(r - 1, 2)-byte segment of the previous
# level; a translate table has 256 entries and the segment needs one more
# for the padding byte, so r is the largest with a segment under 256 bytes:
# 64 bytes at r = 5, 1,024 at r = 6.
_ROW_VERTICES = max(r for r in range(1, SWEEP_MAX_N + 1) if 1 << comb(r - 1, 2) < 256)
_SEGMENT = 1 << comb(_ROW_VERTICES - 1, 2)
# appended to a segment to make a translate table; its first byte, at index
# _SEGMENT, is the padding byte, 0, that an immovable vertex gathers
_PADDING = bytes(256 - _SEGMENT)

# a child value as a presence bit; children on k - 1 <= 6 vertices have
# values of at most 6, so the bit fits one byte
_PRESENCE = bytes(1 << x & 0xFF for x in range(256))
# mex of a child-value presence byte: its count of trailing one bits
_MEX = bytes((~x & x + 1).bit_length() - 1 for x in range(256))
# A pattern byte holds, below bit 7, a low vertex's child index within its
# segment and, in bit 7, the vertex's degree parity within the low slots.
# _GATHER[q] keeps the index where the vertex has odd degree overall, its
# degree parity outside the low slots being q, and elsewhere points at the
# padding byte.
_GATHER = tuple(
    bytes(x & 0x7F if x >> 7 != q else _SEGMENT for x in range(256)) for q in (0, 1)
)


@lru_cache(maxsize=None)
def _xor_table(d: int) -> bytes:
    """Translate table that XORs each byte with ``d``."""
    return bytes(x ^ d for x in range(256))


@lru_cache(maxsize=None)
def _row_patterns(r: int):
    """``(parity, patterns)`` for a row over the slots among vertices
    ``0..r-1``, built by doubling over those slots.

    ``parity[lo]``: the degree-parity vector of those vertices in the low
    mask ``lo``. ``patterns[v][q][lo]``: where the child of ``lo`` after
    deleting ``v`` lies in its segment, when ``v`` is movable under the odd
    rule with degree parity ``q`` outside the low slots, else the padding
    index :data:`_SEGMENT`. The even rule reads ``patterns[v][q ^ 1]``.
    """
    parity = b"\0"
    merged = [b"\0"] * r
    ranks = [0] * r
    for i, j in edge_slots(r):
        parity += parity.translate(_xor_table(1 << i | 1 << j))
        for v in range(r):
            if v == i or v == j:
                step = 0x80
            else:
                step = 1 << ranks[v]
                ranks[v] += 1
            merged[v] += merged[v].translate(_xor_table(step))
    return parity, tuple(tuple(m.translate(g) for g in _GATHER) for m in merged)


@lru_cache(maxsize=16)
def _level_tables(k: int):
    """Row plan for level ``k``: ``(parity, patterns, tops, offsets)``, the
    same for both rules.

    ``parity`` and ``patterns`` are :func:`_row_patterns` of ``r = min(k,
    5)``. Row ``t`` holds the masks ``t << C(r, 2) | lo``, so ``t`` holds
    the high slots, those past the low ``C(r, 2)``. ``tops[t]``: the
    degree-parity vector of all ``k`` vertices in ``t``.
    ``offsets[v][t]``: where the children of row ``t`` after deleting ``v``
    start in the previous level's table, a segment for ``v < r`` and a
    whole row for ``v >= r``. Both are built by doubling over the high
    slots.
    """
    r = min(k, _ROW_VERTICES)
    low = comb(r, 2)
    parity, patterns = _row_patterns(r)
    tops = [0]
    offsets = [[0] for _ in range(k)]
    # a child's next high slot adds one segment or one row to its offset
    steps = [1 << comb(max(r - 1, 0), 2)] * r + [1 << low] * (k - r)
    for i, j in edge_slots(k)[low:]:
        tops += [top ^ (1 << i | 1 << j) for top in tops]
        for v, offs in enumerate(offsets):
            if v == i or v == j:
                offs += offs
            else:
                step = steps[v]
                offs += [o + step for o in offs]
                steps[v] = 2 * step
    return parity, patterns, tuple(tops), tuple(map(tuple, offsets))


def _check_sweep_range(caller: str, max_n: int, name: str = "max_n") -> None:
    """Refuse a sweep scale outside ``0..SWEEP_MAX_N``, naming ``caller``."""
    if not 0 <= max_n <= SWEEP_MAX_N:
        raise ValueError(
            f"{caller} is capped at n={SWEEP_MAX_N}: {name} must be from 0 to at "
            f"most {SWEEP_MAX_N}, got {max_n}"
        )


def _levels_within(max_n: int, graph_budget: int) -> tuple:
    """How many levels ``0, 1, ..., max_n`` fit ``graph_budget`` labeled
    graphs, taken in order, and how many graphs those levels hold."""
    if graph_budget < 0:
        raise ValueError(f"graph budget must be nonnegative, got {graph_budget}")
    levels = graphs = 0
    for k in range(max_n + 1):
        size = 1 << k * (k - 1) // 2
        if graphs + size > graph_budget:
            break
        levels += 1
        graphs += size
    return levels, graphs


def grundy_tables(
    max_n: int,
    rule: MoveRule = MoveRule.ODD,
    graph_budget: int = DEFAULT_NODE_BUDGET,
) -> list:
    """Grundy value of every labeled graph with at most ``max_n`` vertices.

    Returns a list indexed by vertex count ``k``; entry ``k`` is a bytearray
    indexed by edge mask. The budget counts graph evaluations, level 0's one
    graph included, and is checked once before any level, so a refusal is
    explicit and costs no sweeping.
    """
    _check_sweep_range("exhaustive sweep", max_n)
    _check_rule(rule)
    levels, graphs = _levels_within(max_n, graph_budget)
    if levels <= max_n:
        raise NodeBudgetExceeded(graphs, graph_budget)
    flip = rule is not MoveRule.ODD
    tables = [bytearray([0])]
    for k in range(1, max_n + 1):
        parity, patterns, tops, offsets = _level_tables(k)
        row = len(parity)
        # a level below 5 is shorter than one segment
        bits = tables[-1].translate(_PRESENCE).ljust(_SEGMENT, b"\0")
        low = list(enumerate(patterns))
        high = range(len(patterns), k)
        rows = []
        for top, offs in zip(tops, zip(*offsets)):
            seen = 0
            for v, pattern in low:
                o = offs[v]
                gathered = pattern[top >> v & 1 ^ flip].translate(
                    bits[o : o + _SEGMENT] + _PADDING
                )
                seen |= int.from_bytes(gathered, "little")
            for v in high:
                if top >> v & 1 ^ flip:
                    o = offs[v]
                    seen |= int.from_bytes(bits[o : o + row], "little")
            rows.append(seen.to_bytes(row, "little").translate(_MEX))
        tables.append(bytearray().join(rows))
    return tables


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


def _drop_slots(marked: int, vectors) -> int:
    """``marked`` closed under dropping slot ``s`` from a marked edge mask,
    for each ``(s, _slot_vector(s, size))`` in ``vectors``: bit ``m`` moves
    down to ``m - 2**s`` where ``m`` holds slot ``s``."""
    for s, vector in vectors:
        marked |= (marked & vector) >> (1 << s)
    return marked


# slots 0-2 select a bit within a byte of the bit vector, so their closure
# is one translate of its bytes: the closure of all 256 bytes side by side
_CLOSE_IN_BYTE = _drop_slots(
    int.from_bytes(bytes(range(256)), "little"),
    [(s, _slot_vector(s, 8 * 256)) for s in range(3)],
).to_bytes(256, "little")
# bit b of a byte: runs of 2**b zeros and 2**b ones
_BIT_OF = tuple((bytes(1 << b) + b"\1" * (1 << b)) * (128 >> b) for b in range(8))
# The bit vector is built in pieces of 2**15 edge masks, 4 KB each, so that
# no object but the flags themselves grows with the level: at n = 7 one
# 256 KB vector raises the process's peak memory by about 0.45 MB.
_PIECE_SLOTS = 15
_INCREMENT = bytes(range(1, 256)) + b"\0"


def bipartite_table(n: int) -> bytearray:
    """Flag per edge mask: is the labeled n-vertex graph bipartite?

    A graph is bipartite when all its edges cross one cut, so the flags are
    the downward closure of the cuts' crossing masks. A cut and its
    complement cross the same edges, so the cuts with vertex ``n - 1`` on
    side 0 suffice. The closure works on one bit per edge mask
    (:func:`_drop_slots`): within each piece of ``2**15`` masks for the low
    slots, then piece into piece for the slots above. Independent of the
    breadth-first coloring in :meth:`Graph.bipartition`, which makes the two
    usable as cross-checks.
    """
    _check_sweep_range("bipartite table", n, "n")
    pairs = edge_slots(n)
    size = 1 << len(pairs)
    low = min(len(pairs), _PIECE_SLOTS)
    pieces = [0] * (size >> low)
    for cut in range(1 << max(n - 1, 0)):
        crossing = 0
        for s, (i, j) in enumerate(pairs):
            if (cut >> i ^ cut >> j) & 1:
                crossing |= 1 << s
        pieces[crossing >> low] |= 1 << (crossing & (1 << low) - 1)
    vectors = [(s, _slot_vector(s, 1 << low)) for s in range(3, low)]
    pieces = [_drop_slots(piece, vectors) for piece in pieces]
    for s in range(len(pieces).bit_length() - 1):
        for p in range(len(pieces)):
            if p >> s & 1:
                pieces[p ^ 1 << s] |= pieces[p]
    # one byte of the bit vector per 8 edge masks; levels 0-2 fill part of one
    flags = bytearray(max(size, 8))
    step = max(1 << low, 8)
    for p in range(len(pieces)):
        block = pieces[p].to_bytes(step // 8, "little").translate(_CLOSE_IN_BYTE)
        pieces[p] = None
        for b, bit_of in enumerate(_BIT_OF):
            flags[p * step + b : (p + 1) * step : 8] = block.translate(bit_of)
    del flags[size:]
    return flags


def _edge_counts(k: int) -> bytes:
    """Edge count of every edge mask on ``k`` vertices, one byte each,
    built by doubling over the slots."""
    counts = b"\0"
    for _ in range(comb(k, 2)):
        counts += counts.translate(_INCREMENT)
    return counts


@dataclass(frozen=True)
class CensusRow:
    """Count of labeled graphs sharing one (grundy, n, edge_count) cell."""

    grundy: int
    n: int
    edge_count: int
    count: int


@dataclass
class CensusReport:
    """Value census over all labeled graphs with ``n <= max_n``.

    ``minimal_examples[v]`` is the first graph of value ``v`` by vertex
    count, then edge count, then edge mask. ``completed_n`` trails ``max_n``
    only when a budget stopped the sweep early (``partial``).
    """

    max_n: int
    rows: list = field(default_factory=list)
    minimal_examples: dict = field(default_factory=dict)
    graphs_evaluated: int = 0
    completed_n: int = -1

    @property
    def partial(self) -> bool:
        return self.completed_n < self.max_n


def census(
    max_n: int = SWEEP_MAX_N, graph_budget: int = DEFAULT_NODE_BUDGET
) -> CensusReport:
    """Tabulate odd-rule Grundy values of every labeled graph with at most
    ``max_n`` vertices: counts per (value, n, edge count) plus minimal
    examples."""
    _check_sweep_range("census", max_n)
    levels, graphs = _levels_within(max_n, graph_budget)
    report = CensusReport(max_n=max_n)
    if not levels:
        return report
    tables = grundy_tables(levels - 1, graph_budget=graph_budget)
    counts: dict = {}
    minima: dict = {}
    for k, table in enumerate(tables):
        # one key byte per edge mask: value << 5 | edge count; at k <= 7 a
        # value is below 8 and an edge count below 32
        keys = int.from_bytes(table, "little") << 5
        keys |= int.from_bytes(_edge_counts(k), "little")
        keys = keys.to_bytes(len(table), "little")
        level = Counter(keys)
        for key, c in level.items():
            counts[key >> 5, k, key & 31] = c
        # sorted, each new value comes first with its lowest edge count, and
        # find gives the least mask in that class
        for key in sorted(level):
            if key >> 5 not in minima:
                minima[key >> 5] = from_edge_mask(k, keys.find(key))
    report.completed_n = levels - 1
    report.graphs_evaluated = graphs
    report.rows = [
        CensusRow(value, k, e, c) for (value, k, e), c in sorted(counts.items())
    ]
    report.minimal_examples = dict(sorted(minima.items()))
    return report
