"""Whole-census machinery: Grundy values for every labeled graph on <= 7
vertices, bipartite classification, and the value census.

A sweep takes no budget: its range check, ``max_n <= SWEEP_MAX_N``, bounds
it at 2,131,020 labeled graphs, which take tens of milliseconds and a few
megabytes.

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
FSE 1997). Every byte table that XORs a per-slot step into each mask, the
degree parities, the row plan's parities and gather patterns, and the
edge-count parities of the bipartite-parity check, comes from one doubling
builder, :func:`_xor_doubled`.

The census tallies a level the same way. Its value table becomes three bit
planes and its edge counts up to five more, one big int each with bit ``m`` for
edge mask ``m``; splitting the level's masks by the planes leaves one cell
per (value, edge count), counted with ``int.bit_count``.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import comb

from .graph import MoveRule, _check_rule, _slot_vector, edge_slots, from_edge_mask

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


def _xor_doubled(steps) -> bytes:
    """Byte table over the masks of ``len(steps)`` slots: entry ``m`` is the
    XOR of ``steps[s]`` over the slots ``s`` set in ``m``, built by doubling:
    each slot appends a copy of the table so far, translated through
    :func:`_xor_table` of its step."""
    table = b"\0"
    for step in steps:
        table += table.translate(_xor_table(step))
    return table


def _degree_parities(slots) -> bytes:
    """Degree-parity vector of every mask over the edge ``slots``, one byte
    each (bit ``v`` set when ``v`` has odd degree)."""
    return _xor_doubled([1 << i | 1 << j for i, j in slots])


@lru_cache(maxsize=None)
def _row_patterns(r: int):
    """Gather patterns for a row over the slots among vertices ``0..r-1``.

    ``patterns[v][q][lo]``: where the child of the low mask ``lo`` after
    deleting ``v`` lies in its segment, when ``v`` is movable under the odd
    rule with degree parity ``q`` outside the low slots, else the padding
    index :data:`_SEGMENT`. The even rule reads ``patterns[v][q ^ 1]``.
    Each vertex's merged pattern byte is one :func:`_xor_doubled` table:
    a slot at ``v`` steps bit 7, and ``v``'s other slots step the bits of
    the child index in turn.
    """
    slots = edge_slots(r)
    patterns = []
    for v in range(r):
        rank = count()
        merged = _xor_doubled([0x80 if v in pair else 1 << next(rank) for pair in slots])
        patterns.append(tuple(merged.translate(g) for g in _GATHER))
    return tuple(patterns)


@lru_cache(maxsize=16)
def _level_tables(k: int):
    """Row plan for level ``k``: ``(patterns, tops, offsets)``, the same for
    both rules.

    ``patterns`` is :func:`_row_patterns` of ``r = min(k, 5)``. Row ``t``
    holds the masks ``t << C(r, 2) | lo``, so ``t`` holds the high slots,
    those past the low ``C(r, 2)``. ``tops[t]``: the degree-parity vector
    of all ``k`` vertices in ``t``, the :func:`_degree_parities` of the high
    slots. ``offsets[v][t]``: where the children of row ``t`` after deleting
    ``v`` start in the previous level's table, a segment for ``v < r`` and a
    whole row for ``v >= r``, built by doubling over the high slots.
    """
    r = min(k, _ROW_VERTICES)
    low = comb(r, 2)
    high = edge_slots(k)[low:]
    offsets = [[0] for _ in range(k)]
    # a child's next high slot adds one segment or one row to its offset
    steps = [1 << comb(max(r - 1, 0), 2)] * r + [1 << low] * (k - r)
    for i, j in high:
        for v, offs in enumerate(offsets):
            if v == i or v == j:
                offs += offs
            else:
                step = steps[v]
                offs += [o + step for o in offs]
                steps[v] = 2 * step
    return _row_patterns(r), _degree_parities(high), tuple(map(tuple, offsets))


def _check_sweep_range(caller: str, max_n: int, name: str = "max_n") -> None:
    """Refuse a sweep scale outside ``0..SWEEP_MAX_N``, naming ``caller``."""
    if not 0 <= max_n <= SWEEP_MAX_N:
        raise ValueError(
            f"{caller} is capped at n={SWEEP_MAX_N}: {name} must be from 0 to at "
            f"most {SWEEP_MAX_N}, got {max_n}"
        )


def grundy_tables(max_n: int, rule: MoveRule = MoveRule.ODD) -> list:
    """Grundy value of every labeled graph with at most ``max_n`` vertices.

    Returns a list indexed by vertex count ``k``; entry ``k`` is a bytearray
    indexed by edge mask.
    """
    _check_sweep_range("exhaustive sweep", max_n)
    _check_rule(rule)
    flip = rule is not MoveRule.ODD
    tables = [bytearray([0])]
    for k in range(1, max_n + 1):
        patterns, tops, offsets = _level_tables(k)
        row = 1 << comb(len(patterns), 2)
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


def _drop_slots(marked: int, vectors) -> int:
    """``marked`` closed under dropping slot ``s`` from a marked edge mask,
    for each ``(s, _slot_vector(s, size))`` in ``vectors``: bit ``m`` moves
    down to ``m - 2**s`` where ``m`` holds slot ``s``."""
    for s, vector in vectors:
        marked |= (marked & vector) >> (1 << s)
    return marked


# _MOVE_BIT[p][b] keeps bit p of a byte and moves it to bit b: runs of 2**p
# zeros and 2**p bytes 1 << b
_MOVE_BIT = tuple(
    tuple((bytes(1 << p) + bytes([1 << b]) * (1 << p)) * (128 >> p) for b in range(8))
    for p in range(8)
)
# The bit vector is built in pieces of 2**15 edge masks, 4 KB each, so that
# no object but the flags themselves grows with the level: at n = 7 one
# 256 KB vector raises the process's peak memory by about 0.45 MB.
_PIECE_SLOTS = 15


def bipartite_table(n: int) -> bytearray:
    """Flag per edge mask: is the labeled n-vertex graph bipartite?

    A graph is bipartite when all its edges cross one cut, so the flags are
    the downward closure of the cuts' crossing masks. A cut and its
    complement cross the same edges, so the cuts with vertex ``n - 1`` on
    side 0 suffice. The closure works on one bit per edge mask: slot shifts
    (:func:`_drop_slots`) inside each piece of ``2**15`` masks for the low
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
    vectors = [(s, _slot_vector(s, 1 << low)) for s in range(low)]
    pieces = [_drop_slots(piece, vectors) for piece in pieces]
    for s in range(len(pieces).bit_length() - 1):
        for p in range(len(pieces)):
            if p >> s & 1:
                pieces[p ^ 1 << s] |= pieces[p]
    # one byte of the bit vector per 8 edge masks; levels 0-2 fill part of one
    flags = bytearray(max(size, 8))
    step = max(1 << low, 8)
    for p in range(len(pieces)):
        block = pieces[p].to_bytes(step // 8, "little")
        pieces[p] = None
        for b in range(8):
            flags[p * step + b : (p + 1) * step : 8] = block.translate(_MOVE_BIT[b][0])
    del flags[size:]
    return flags


def _bit_planes(table, planes: int) -> list:
    """The low ``planes`` bit planes of a byte table as big ints: bit ``m``
    of plane ``p`` is bit ``p`` of ``table[m]``.

    Byte ``i`` of the strided slice ``table[b::8]`` is entry ``8i + b``, so
    one translate per plane moves its bit ``p`` to bit ``b`` of each byte,
    and the 8 slices' planes OR together. The slices are taken one at a
    time.
    """
    out = [0] * planes
    for b in range(8):
        part = table[b::8]
        for p in range(planes):
            out[p] |= int.from_bytes(part.translate(_MOVE_BIT[p][b]), "little")
    return out


def _edge_count_planes(k: int) -> list:
    """Bit planes of the edge count of every edge mask on ``k`` vertices,
    low plane first: the slot vectors added in a ripple-carry adder."""
    size = 1 << comb(k, 2)
    planes = []
    for s in range(comb(k, 2)):
        carry = _slot_vector(s, size)
        for p, plane in enumerate(planes):
            planes[p], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    return planes


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
    count, then edge count, then edge mask; ``graphs_evaluated`` counts
    every labeled graph of every level ``0..max_n``.
    """

    max_n: int
    rows: list
    minimal_examples: dict
    graphs_evaluated: int


def census(max_n: int = SWEEP_MAX_N) -> CensusReport:
    """Tabulate odd-rule Grundy values of every labeled graph with at most
    ``max_n`` vertices: counts per (value, n, edge count) plus minimal
    examples."""
    _check_sweep_range("census", max_n)
    tables = grundy_tables(max_n)
    counts: dict = {}
    minima: dict = {}
    for k, table in enumerate(tables):
        # A cell holds the masks of one key, value << bits | edge count; at
        # k <= 7 a value is below 8. Cells are split depth first by the
        # planes, most significant first, so they come in ascending key
        # order: each new value first with its lowest edge count, whose
        # lowest set bit is the least mask in that class.
        edges = _edge_count_planes(k)
        planes = _bit_planes(table, 3)[::-1] + edges[::-1]
        bits = len(edges)
        stack = [(0, 0, (1 << len(table)) - 1)]
        while stack:
            depth, key, cell = stack.pop()
            if depth < len(planes):
                upper = cell & planes[depth]
                if upper:
                    stack.append((depth + 1, key << 1 | 1, upper))
                if upper != cell:
                    stack.append((depth + 1, key << 1, cell ^ upper))
                continue
            value = key >> bits
            counts[value, k, key & (1 << bits) - 1] = cell.bit_count()
            if value not in minima:
                minima[value] = from_edge_mask(k, (cell & -cell).bit_length() - 1)
    return CensusReport(
        max_n,
        [CensusRow(value, k, e, c) for (value, k, e), c in sorted(counts.items())],
        dict(sorted(minima.items())),
        sum(map(len, tables)),
    )
