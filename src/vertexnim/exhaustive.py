"""Whole-census machinery: Grundy values for every labeled graph on <= 7
vertices, bipartite classification, and the value census.

The sweep exploits that a position's value depends only on its induced
subgraph: relabel the surviving vertices in increasing order and any position
of any n-vertex graph becomes a labeled graph on fewer vertices. Evaluating
all graphs level by level (k = 0, 1, ..., n) therefore needs each labeled
graph's value exactly once, with a child lookup being a parallel bit extract
of the parent's edge mask. This is exact labeled-graph identity, not
isomorphism reduction: every labeled graph is enumerated and valued.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .graph import Graph, MoveRule, from_edge_mask, edge_slots
from .solver import NodeBudgetExceeded

SWEEP_MAX_N = 7

_CHUNK = 7
_CHUNK_MASK = (1 << _CHUNK) - 1
# chunks per edge mask: three hold the 21 edge slots of SWEEP_MAX_N = 7
_CHUNKS = 3

# mex of a child-value presence mask; level-7 children have values < 8
_MEX = []
for _s in range(256):
    _m = 0
    while _s >> _m & 1:
        _m += 1
    _MEX.append(_m)

_BITS = [tuple(i for i in range(_CHUNK) if m >> i & 1) for m in range(1 << _CHUNK)]


@lru_cache(maxsize=16)
def _level_tables(k: int):
    """Chunked lookup tables for level ``k``, always :data:`_CHUNKS` chunks.

    ``parity[c][x]``: degree-parity vector contributed by chunk ``c`` holding
    value ``x``. ``extract[v][c][x]``: the child-slot bits that chunk value
    ``x`` contributes after deleting vertex ``v`` (slot order is preserved by
    the order-preserving relabeling, so this is a plain parallel extract).
    Chunks past the level's last slot contribute nothing.
    """
    pairs = edge_slots(k)
    nslots = len(pairs)
    parity = []
    for c in range(_CHUNKS):
        tab = [0] * (1 << _CHUNK)
        for x in range(1 << _CHUNK):
            pv = 0
            for b in _BITS[x]:
                s = c * _CHUNK + b
                if s < nslots:
                    i, j = pairs[s]
                    pv ^= (1 << i) | (1 << j)
            tab[x] = pv
        parity.append(tab)
    extract = []
    for v in range(k):
        kept_rank = {}
        for s, (i, j) in enumerate(pairs):
            if i != v and j != v:
                kept_rank[s] = len(kept_rank)
        vtabs = []
        for c in range(_CHUNKS):
            tab = [0] * (1 << _CHUNK)
            for x in range(1 << _CHUNK):
                out = 0
                for b in _BITS[x]:
                    t = kept_rank.get(c * _CHUNK + b)
                    if t is not None:
                        out |= 1 << t
                tab[x] = out
            vtabs.append(tab)
        extract.append(vtabs)
    return parity, extract


def grundy_tables(
    max_n: int,
    rule: MoveRule = MoveRule.ODD,
    graph_budget: int | None = None,
) -> list:
    """Grundy value of every labeled graph with at most ``max_n`` vertices.

    Returns a list indexed by vertex count ``k``; entry ``k`` is a bytearray
    indexed by edge mask. The optional budget counts graph evaluations and is
    checked before each level so a refusal is explicit, never a wrong answer.
    """
    if not 0 <= max_n <= SWEEP_MAX_N:
        raise ValueError(
            f"exhaustive sweep is capped at n={SWEEP_MAX_N}: max_n must be from 0 "
            f"to at most {SWEEP_MAX_N}, got {max_n}"
        )
    want_odd = rule is MoveRule.ODD
    tables = [bytearray([0])]
    evaluated = 1
    for k in range(1, max_n + 1):
        nslots = k * (k - 1) // 2
        size = 1 << nslots
        if graph_budget is not None and evaluated + size > graph_budget:
            raise NodeBudgetExceeded(evaluated, graph_budget)
        evaluated += size
        prev = tables[k - 1]
        cur = bytearray(size)
        full = (1 << k) - 1
        mex = _MEX
        bits = _BITS
        (p0, p1, p2), extract = _level_tables(k)
        x0 = [extract[v][0] for v in range(k)]
        x1 = [extract[v][1] for v in range(k)]
        x2 = [extract[v][2] for v in range(k)]
        for mask in range(size):
            c0 = mask & _CHUNK_MASK
            c1 = (mask >> _CHUNK) & _CHUNK_MASK
            c2 = mask >> 14
            pv = p0[c0] ^ p1[c1] ^ p2[c2]
            movable = pv if want_odd else full ^ pv
            if not movable:
                continue
            seen = 0
            for v in bits[movable]:
                seen |= 1 << prev[x0[v][c0] + x1[v][c1] + x2[v][c2]]
            cur[mask] = mex[seen]
        tables.append(cur)
    return tables


def bipartite_table(n: int) -> bytearray:
    """Flag per edge mask: is the labeled n-vertex graph bipartite?

    Marks every submask of every "all edges cross the cut" mask, one cut per
    vertex subset. Independent of the breadth-first coloring in
    :meth:`Graph.bipartition`, which makes the two usable as cross-checks.
    """
    if not 0 <= n <= SWEEP_MAX_N:
        raise ValueError(
            f"bipartite table is capped at n={SWEEP_MAX_N}: n must be from 0 to "
            f"at most {SWEEP_MAX_N}, got {n}"
        )
    pairs = edge_slots(n)
    flags = bytearray(1 << len(pairs))
    for cut in range(1 << n):
        crossing = 0
        for s, (i, j) in enumerate(pairs):
            if (cut >> i & 1) != (cut >> j & 1):
                crossing |= 1 << s
        sub = crossing
        while True:
            flags[sub] = 1
            if sub == 0:
                break
            sub = (sub - 1) & crossing
    return flags


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
    only when a budget stopped the sweep early (``partial`` set).
    """

    max_n: int
    rule: MoveRule
    rows: list = field(default_factory=list)
    minimal_examples: dict = field(default_factory=dict)
    graphs_evaluated: int = 0
    completed_n: int = -1
    partial: bool = False


def census(
    max_n: int = SWEEP_MAX_N,
    rule: MoveRule = MoveRule.ODD,
    graph_budget: int | None = None,
) -> CensusReport:
    """Tabulate Grundy values of every labeled graph with at most ``max_n``
    vertices: counts per (value, n, edge count) plus minimal examples."""
    if not 0 <= max_n <= SWEEP_MAX_N:
        raise ValueError(
            f"census is capped at n={SWEEP_MAX_N}: max_n must be from 0 to at "
            f"most {SWEEP_MAX_N}, got {max_n}"
        )
    feasible_n = max_n
    if graph_budget is not None:
        evaluated = 0
        feasible_n = -1
        for k in range(max_n + 1):
            size = 1 << (k * (k - 1) // 2)
            if evaluated + size > graph_budget:
                break
            evaluated += size
            feasible_n = k
    report = CensusReport(max_n=max_n, rule=rule, partial=feasible_n < max_n)
    if feasible_n < 0:
        return report
    tables = grundy_tables(feasible_n, rule)
    counts: dict = {}
    minima: dict = {}
    evaluated = 0
    for k in range(feasible_n + 1):
        table = tables[k]
        evaluated += len(table)
        level_counts: dict = {}
        for mask, value in enumerate(table):
            e = mask.bit_count()
            key = (value, e)
            level_counts[key] = level_counts.get(key, 0) + 1
            if value not in minima:
                minima[value] = (k, e, mask)
            else:
                bn, be, bm = minima[value]
                if bn == k and (e, mask) < (be, bm):
                    minima[value] = (k, e, mask)
        for (value, e), c in level_counts.items():
            counts[(value, k, e)] = c
        report.completed_n = k
    report.graphs_evaluated = evaluated
    report.rows = [
        CensusRow(value, k, e, c) for (value, k, e), c in sorted(counts.items())
    ]
    report.minimal_examples = {
        value: from_edge_mask(k, mask) for value, (k, e, mask) in sorted(minima.items())
    }
    return report


def minimal_example(value: int, max_n: int = SWEEP_MAX_N) -> Graph | None:
    """First labeled graph of Grundy value ``value`` by (n, edge count, mask)."""
    return census(max_n).minimal_examples.get(value)
