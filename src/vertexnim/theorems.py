"""Closed-form fast paths and the suites that verify them against brute force.

Each suite replays one proved statement at desk scale — exhaustively where
the statement is universal over small graphs, on seeded random samples where
it is about arbitrary graphs — and collects concrete counterexamples instead
of aborting, so a failure report alone reproduces the offending graph.
"""

import enum
import inspect
import random
import re
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import compress, groupby

from .exhaustive import SWEEP_MAX_N, _bit_planes, _check_sweep_range, _degree_parities
from .exhaustive import _xor_doubled, bipartite_table, grundy_tables
from .families import (
    complete_bipartite_graph,
    complete_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from .formats import to_graph6
from .graph import (
    Graph,
    MoveRule,
    Position,
    _slot_vector,
    add_isolated_vertices,
    disjoint_union,
    edge_slots,
    from_edge_mask,
    iter_bits,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    SEARCH_METHOD,
    MemoTable,
    NodeBudgetExceeded,
    _check_budget,
    grundy_even_even,
    grundy_value,
    mex,
    nim_sum,
    solve,
)

FAILURE_CAP = 1000

# deterministic defaults for the seeded random suites
NIM_SUM_SEED = 1009
SUBSTITUTION_SEED = 1013
FAST_PATH_SEED = 1021

ER_EDGE_PROBS = (0.2, 0.5, 0.8)

# fixed parts of the suites' scale, reported in their scale records
CLOSED_FORMS_MAX_SIDE = 5
EULER_ALL_SUBSETS_MAX_N = 5
SUBSTITUTION_MAX_PADDING = 3
FAST_PATH_MAX_N = 12

# an exhaustive suite re-checks the instances of rank 0, stride, 2 * stride, ...
# of each level by an independent path: the per-graph engine, walk or Position API
ENGINE_CROSSCHECK_STRIDE = 9973


class TheoremId(enum.Enum):
    NIM_SUM = "nim-sum"
    EVEN_EVEN = "even-even"
    CLOSED_FORMS = "closed-forms"
    EULER_TERMINAL = "euler-terminal"
    BIPARTITE_PARITY = "bipartite-parity"
    ISOLATED_SUBSTITUTION = "isolated-substitution"
    WITNESS_CONSTRUCTION = "witness-construction"


@dataclass(frozen=True)
class CheckFailure:
    """One counterexample: the graph (graph6), what was claimed, what held."""

    graph6: str
    expected: object
    got: object
    note: str = ""

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class TheoremCheckResult:
    theorem: TheoremId
    scale: dict = field(default_factory=dict)
    instances_checked: int = 0
    failures: list = field(default_factory=list)
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures and self.instances_checked > 0

    def add_failure(self, failure: CheckFailure) -> None:
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(failure)
        else:
            self.truncated = True

    def fail(self, graph: Graph, expected, got, note: str = "", *graphs: Graph) -> None:
        """Record a counterexample without counting an instance, for loops that
        compare inline so a passing instance encodes no graph6 for its note;
        past :data:`FAILURE_CAP` none is encoded either. With ``graphs``,
        ``note`` is a format string whose fields take their graph6."""
        if len(self.failures) >= FAILURE_CAP:
            self.truncated = True
            return
        if graphs:
            note = note.format(*map(to_graph6, graphs))
        self.add_failure(CheckFailure(to_graph6(graph), expected, got, note))

    def check(self, graph: Graph, expected, got, note: str = "") -> None:
        """Count one instance on ``graph``; record it if ``got != expected``."""
        self.instances_checked += 1
        if got != expected:
            self.fail(graph, expected, got, note)

    def to_record(self) -> dict:
        return {
            "theorem": self.theorem.value,
            "passed": self.passed,
            "instances_checked": self.instances_checked,
            "scale": self.scale,
            "failures": [f.to_record() for f in self.failures],
            "truncated": self.truncated,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{self.theorem.value}: {status} "
            f"({self.instances_checked} instances checked)"
        )
        if self.failures:
            out += f", {len(self.failures)} failures"
            if self.truncated:
                out += " (truncated)"
        return out


class TheoremBudgetError(RuntimeError):
    """A verification suite hit its budget before finishing."""

    def __init__(self, theorem: TheoremId, cause):
        super().__init__(f"{theorem.value}: {cause}")
        self.theorem = theorem
        self.cause = cause


def _even_order_value(n: int, family: str) -> int:
    if n < 1:
        raise ValueError(f"{family} closed form needs n >= 1, got {n}")
    return 1 if n % 2 == 0 else 0


def closed_form_path(n: int) -> int:
    """Grundy value of the path on ``n`` vertices: 1 iff ``n`` is even."""
    return _even_order_value(n, "path")


def closed_form_complete(n: int) -> int:
    """Grundy value of the complete graph on ``n`` vertices: 1 iff even."""
    return _even_order_value(n, "complete graph")


def closed_form_star(n: int) -> int:
    """Grundy value of the star on ``n`` vertices total: 1 iff ``n`` is even."""
    return _even_order_value(n, "star")


def closed_form_complete_bipartite(n: int, m: int) -> int:
    """Grundy value of K_{n,m}: 1 iff both side sizes are odd."""
    if n < 1 or m < 1:
        raise ValueError("complete bipartite closed form needs n, m >= 1")
    return 1 if n % 2 == 1 and m % 2 == 1 else 0


def replace_isolated_with_p3(g: Graph) -> Graph:
    """Grow every degree-0 vertex into a fresh 3-vertex path component.

    Non-isolated vertices keep their indices and edges; each isolated vertex
    becomes an endpoint of a new path through two appended vertices. Both a
    lone vertex and a 3-path are value-0 components, so the Grundy value is
    preserved. Returns ``g`` itself when there is nothing to replace.
    """
    isolated = [v for v in range(g.n) if g.adj[v] == 0]
    if not isolated:
        return g
    rows = list(g.adj)
    n = g.n
    for v in isolated:
        mid, end = n, n + 1
        n += 2
        rows[v] = 1 << mid
        rows.append((1 << v) | (1 << end))
        rows.append(1 << mid)
    return Graph._from_adj(n, tuple(rows))


def random_graph(rng: random.Random, n: int) -> Graph:
    """Uniform-slot random graph; edge probability drawn from ER_EDGE_PROBS.
    The rows are built from the slot draws, with no per-edge validation."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    p = rng.choice(ER_EDGE_PROBS)
    rows = [0] * n
    for i, j in edge_slots(n):
        if rng.random() < p:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph._from_adj(n, tuple(rows))


def random_bipartite_graph(rng: random.Random, n: int) -> Graph:
    """Random bipartition of ``n`` vertices, then random edges across only."""
    cut = rng.getrandbits(n) if n else 0
    p = rng.choice(ER_EDGE_PROBS)
    rows = [0] * n
    for i, j in edge_slots(n):
        if (cut >> i & 1) != (cut >> j & 1) and rng.random() < p:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph._from_adj(n, tuple(rows))


def _check_scale(suite: str, name: str, value: int, least: int) -> None:
    """Refuse a scale below ``least``, naming ``suite``; the counterpart of
    :func:`~vertexnim.exhaustive._check_sweep_range` for the unswept scales."""
    if value < least:
        raise ValueError(f"{suite}: {name} must be at least {least}, got {value}")


def _engine_crosscheck(result, k: int, masks, table: bytes, rule, budget: int) -> int:
    """Re-solve each edge mask on ``k`` vertices with the per-graph engine
    within ``budget``, fail where it differs from ``table``; return the count."""
    for mask in masks:
        g = from_edge_mask(k, mask)
        direct = grundy_value(g, rule=rule, memo=MemoTable(budget))
        if direct != table[mask]:
            result.fail(g, table[mask], direct, "sweep vs per-graph engine")
    return len(masks)


def _strided(count: int, start: int = 0) -> range:
    """The ranks ``r < count`` of a level's instances ``start + r`` that are
    cross-checked: those whose rank within the level is a multiple of
    :data:`ENGINE_CROSSCHECK_STRIDE`."""
    return range(-start % ENGINE_CROSSCHECK_STRIDE, count, ENGINE_CROSSCHECK_STRIDE)


def check_closed_forms(
    max_n: int = 12,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """Solver versus the closed forms for paths, complete graphs and stars up
    to ``max_n`` vertices, and complete bipartite graphs with sides up to
    :data:`CLOSED_FORMS_MAX_SIDE`.

    Each family's largest member is solved once, on one memo bounded by
    ``budget``, and every member is read from that memo as a position of it:
    a path, complete graph or star on ``n`` vertices is its first ``n``
    vertices, with the same labels and rows, and K_{a,b} is ``a`` vertices of
    one side of K_{s,s} and ``b`` of the other, K_{a,b} up to labels. A
    member that the shared memo's budget cannot cover is solved again on a
    fresh memo of its own, so a budget fails exactly where one fresh memo per
    member fails. A member's own graph is built only when it fails, for its
    graph6.
    """
    _check_scale("closed-forms", "max_n", max_n, 0)
    result = TheoremCheckResult(
        TheoremId.CLOSED_FORMS,
        scale={"max_n": max_n, "max_side": CLOSED_FORMS_MAX_SIDE},
    )
    families = (
        ("path", path_graph, closed_form_path),
        ("complete", complete_graph, closed_form_complete),
        ("star", star_graph, closed_form_star),
    )

    def members(host: Graph):
        # the largest member first, so every other one reads its memo
        memo = MemoTable(budget)
        grundy_value(host, memo=memo)

        def read(alive: int) -> int:
            position = Position(host, alive)
            try:
                return grundy_value(position, memo=memo)
            except NodeBudgetExceeded:
                # a member that the largest one's search did not reach, such
                # as K_{4,4} in K_{5,5}, keeps a budget of its own
                return grundy_value(position, memo=MemoTable(budget))

        return read

    reads = [members(build(max_n)) for _, build, _ in families] if max_n else []
    for n in range(1, max_n + 1):
        for (name, build, formula), read in zip(families, reads):
            expected, got = formula(n), read((1 << n) - 1)
            result.instances_checked += 1
            if got != expected:
                result.fail(build(n), expected, got, f"{name} n={n}")
    side = CLOSED_FORMS_MAX_SIDE
    read = members(complete_bipartite_graph(side, side))
    for a in range(1, side + 1):
        for b in range(1, side + 1):
            expected = closed_form_complete_bipartite(a, b)
            got = read((1 << a) - 1 | ((1 << b) - 1) << side)
            result.instances_checked += 1
            if got != expected:
                g = complete_bipartite_graph(a, b)
                result.fail(g, expected, got, f"K_{{{a},{b}}}")
    return result


def check_bipartite_parity(
    max_n: int = SWEEP_MAX_N,
    count: int = 500,
    seed: int = FAST_PATH_SEED,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """A bipartite graph's value is its edge-count parity, checked three ways
    in one result: every bipartite labeled graph up to ``max_n`` vertices plus
    grid spot checks, every reachable terminal position of those graphs
    (:func:`_terminal_edge_parity`), and :func:`~vertexnim.solver.solve`'s
    fast path on ``count`` seeded random bipartite graphs of up to
    :data:`FAST_PATH_MAX_N` vertices.

    Each level's :func:`bipartite_table` is built once, and its big-int bit
    vector (bit ``m`` for edge mask ``m``) parsed once and kept for the
    terminal part. A level's values are compared in one big-int operation:
    the XOR of the value table with the edge-count parity bytes is nonzero in
    some byte under a flag exactly when some bipartite mask fails; only then
    are the masks walked, in ascending order. Each level's strided instances
    (:func:`_strided`) are re-solved with the per-graph engine. ``budget``
    bounds each per-graph engine solve, and a negative one is refused before
    any work; the sweep takes none, as its range check bounds it.
    """
    _check_sweep_range("bipartite-parity", max_n)
    _check_scale("bipartite-parity", "count", count, 1)
    _check_budget(budget)
    sweep = {"max_n": max_n}
    terminal = {"max_n": max_n, "check": "terminal-edge-parity"}
    sample = {"count": count, "max_n": FAST_PATH_MAX_N, "seed": seed, "check": "fast-path"}
    result = TheoremCheckResult(
        TheoremId.BIPARTITE_PARITY, scale={"parts": [sweep, terminal, sample]}
    )
    tables = grundy_tables(max_n, MoveRule.ODD)
    levels = []
    crosschecks = 0
    for k in range(max_n + 1):
        flags = bipartite_table(k)
        table = tables[k]
        parity = _xor_doubled([1] * len(edge_slots(k)))
        differ = int.from_bytes(table, "little") ^ int.from_bytes(parity, "little")
        # flags are 0/1 bytes, so 255 times them is 0xFF under each flag
        if differ & int.from_bytes(flags, "little") * 255:
            for mask in compress(range(len(flags)), flags):
                if table[mask] != parity[mask]:
                    result.fail(from_edge_mask(k, mask), parity[mask], table[mask])
                    if result.truncated:
                        break
        (bipartite,) = _bit_planes(flags, 1)
        levels.append(bipartite)
        graphs = bipartite.bit_count()
        result.instances_checked += graphs
        masks = [_nth_bit(bipartite, rank) for rank in _strided(graphs)]
        crosschecks += _engine_crosscheck(result, k, masks, table, MoveRule.ODD, budget)
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        g = grid_graph(rows, cols)
        got = grundy_value(g, memo=MemoTable(budget))
        result.check(g, g.edge_count() & 1, got, f"grid {rows}x{cols}")
    sweep["engine_crosschecks"] = crosschecks
    _terminal_edge_parity(result, levels)
    rng = random.Random(seed)
    for _ in range(count):
        g = random_bipartite_graph(rng, rng.randint(1, FAST_PATH_MAX_N))
        report = solve(g)
        # a solve that fell back to search is a failure even with the right value
        got = report.grundy if report.method != SEARCH_METHOD else report.method
        result.check(g, grundy_value(g, memo=MemoTable(budget)), got)
    return result


def _terminal_masks(g: Graph):
    """Depth-first walk of the odd-rule game tree; yields every reachable
    terminal alive set. Each alive set carries its degree-parity vector, as
    in the search engine; under the odd rule it is the movable set."""
    rows = {1 << v: row for v, row in enumerate(g.adj)}
    full = (1 << g.n) - 1
    seen = {full}
    stack = [(full, g.odd_degree_vertices())]
    while stack:
        mask, odd = stack.pop()
        if not odd:
            yield mask
        m = odd
        while m:
            low = m & -m
            m ^= low
            child = mask ^ low
            if child not in seen:
                seen.add(child)
                stack.append((child, (odd ^ rows[low]) & child))


def _nth_bit(x: int, rank: int) -> int:
    """Index of the set bit of ``x`` that has ``rank`` set bits below it,
    found by halving ``x``."""
    index = 0
    width = x.bit_length()
    while width > 1:
        half = width // 2
        low = x & ((1 << half) - 1)
        below = low.bit_count()
        if rank < below:
            x, width = low, half
        else:
            x >>= half
            rank -= below
            index += half
            width -= half
    return index


def _slot_vectors(k: int) -> tuple:
    """The slot vectors over every edge mask on ``k`` vertices
    (:func:`~vertexnim.graph._slot_vector`), the same by endpoints
    (``between[u][v]``, 0 for u == v), and the full set's planes and parity
    for :func:`_alive_sets`: each vector XORed into both endpoints and the parity."""
    slots = edge_slots(k)
    size = 1 << len(slots)
    vectors = [_slot_vector(s, size) for s in range(len(slots))]
    between = [[0] * k for _ in range(k)]
    planes = [0] * k
    parity = 0
    for (i, j), vector in zip(slots, vectors):
        between[i][j] = between[j][i] = vector
        planes[i] ^= vector
        planes[j] ^= vector
        parity ^= vector
    return vectors, between, planes, parity


def _alive_sets(between: list, planes: list, parity: int):
    """Every alive set in descending order, so supersets first, from the full
    set's planes and parity, bit-sliced over edge masks: bit ``m`` of plane
    ``v`` says that ``v`` has odd degree inside the set in the graph of edge
    mask ``m`` (0 for a dead ``v``), bit ``m`` of the parity that the graph
    has an odd number of edges inside it. It is the search engine's deletion
    update ``(odd ^ adj[d]) & alive`` on bit planes: a set's children drop
    each ``d`` below its lowest dead vertex, XOR ``between[d][v]`` into each
    alive ``v``'s plane and ``planes[d]`` into the parity. Depth first, the
    largest child popped first. Yields ``(alive, planes, parity)``."""
    alive, low, stack = (1 << len(planes)) - 1, len(planes), []
    while True:
        yield alive, planes, parity
        # each child waits with its parent's planes, the smallest stacked first
        for d in reversed(range(low)):
            stack.append((alive ^ 1 << d, d, planes, parity))
        if not stack:
            return
        alive, low, planes, parity = stack.pop()
        row, parity = between[low], parity ^ planes[low]
        planes = [p ^ row[v] if alive >> v & 1 else 0 for v, p in enumerate(planes)]


def _terminal_sweep(k: int, bipartite: int):
    """Every reachable terminal position of every bipartite graph on ``k``
    vertices, bit-sliced over edge masks: one big-int bit per labeled graph,
    so one integer operation acts on all ``2**C(k, 2)`` graphs at once.

    Bit ``m`` of ``reach[alive]`` says that ``alive`` is reachable in the
    graph with edge mask ``m``; the full set starts from ``bipartite``, the
    level's bipartite graphs as one such bit vector. The alive sets come
    supersets first from :func:`_alive_sets`; the child ``alive - v`` gains
    the graphs where ``v``'s plane is set, and the graphs where no plane is
    set are terminal at ``alive``. Yields ``(alive, terminal, parity)`` for
    each alive set terminal in some graph, with its parity from the walk.
    """
    _, between, planes, parity = _slot_vectors(k)
    reach = {(1 << k) - 1: bipartite}
    for alive, planes, parity in _alive_sets(between, planes, parity):
        graphs = reach.pop(alive, 0)
        if not graphs:
            continue
        movable = 0
        for v, odd in enumerate(planes):
            if odd:
                movable |= odd
                child = alive ^ 1 << v
                reach[child] = reach.get(child, 0) | graphs & odd
        terminal = graphs & ~movable
        if terminal:
            yield alive, terminal, parity


def _terminal_edge_parity(result: TheoremCheckResult, levels: list) -> None:
    """Every reachable terminal position of every bipartite graph has an even
    number of edges, on level ``k``'s graphs given by the bit vector
    ``levels[k]``, counted and recorded into ``result``.

    Each level is one sweep over all its edge masks (:func:`_terminal_sweep`),
    so failures come in alive-set order, then edge-mask order. Each level's
    strided instances (:func:`_strided`), in that order, are re-walked on
    their own graph by :func:`_terminal_masks` and checked through
    :meth:`Position.is_terminal` and :meth:`Position.edge_count`.
    """

    def crosscheck(k: int, mask: int, alive: int) -> None:
        g = from_edge_mask(k, mask)
        note = f"terminal alive set {alive:#x}"
        if alive not in _terminal_masks(g):
            result.fail(g, "reached", "not reached", note + ", per-graph walk")
        p = Position(g, alive)
        if not p.is_terminal(MoveRule.ODD):
            result.fail(g, "terminal", "not terminal", note + ", Position API")
        edges = p.edge_count()
        if edges % 2:
            result.fail(g, "even edge count", edges, note + ", Position API")

    for k, bipartite in enumerate(levels):
        level_start = result.instances_checked
        for alive, terminal, parity in _terminal_sweep(k, bipartite):
            for mask in iter_bits(terminal & parity):
                g = from_edge_mask(k, mask)
                edges = Position(g, alive).edge_count()
                result.fail(g, "even edge count", edges, f"terminal alive set {alive:#x}")
                if result.truncated:
                    break
            count = terminal.bit_count()
            for rank in _strided(count, result.instances_checked - level_start):
                crosscheck(k, _nth_bit(terminal, rank), alive)
            result.instances_checked += count


def _cycle_space(n: int) -> bytearray:
    """Flag per edge mask of K_n: does the edge set lie in the cycle space?

    By Veblen's theorem these are exactly the edge-disjoint unions of cycles.
    The C(n-1, 2) triangles {0, i, j} form a basis of the space (each holds
    the one edge (i, j) no other does), so XOR-ing them in Gray-code order
    visits each of its 2^C(n-1, 2) members once.
    """
    slots = edge_slots(n)
    slot = {pair: s for s, pair in enumerate(slots)}
    triangles = [
        1 << slot[0, i] | 1 << slot[0, j] | 1 << slot[i, j]
        for j in range(2, n)
        for i in range(1, j)
    ]
    flags = bytearray(1 << len(slots))
    flags[0] = 1
    member = 0
    for step in range(1, 1 << len(triangles)):
        member ^= triangles[(step & -step).bit_length() - 1]
        flags[member] = 1
    return flags


# a degree-parity vector with no odd-degree vertex
_EMPTY = bytes(x == 0 for x in range(256))


def _closed_trails(slots: tuple, incident: list, mask: int) -> list:
    """Hierholzer's algorithm on an edge mask: one trail per component with
    edges, as a vertex list; ``incident[v]`` is the mask of the slots at
    ``v``. The trails are closed and use each edge once exactly when every
    degree is even; :func:`_covers_once` checks that from the lists alone.
    It is :func:`_uncertified`'s fallback, and gives a failure's trails."""
    trails = []
    rest = mask
    while rest:
        stack = [slots[(rest & -rest).bit_length() - 1][0]]
        trail = []
        while stack:
            v = stack[-1]
            out = rest & incident[v]
            if out:
                low = out & -out
                rest ^= low
                i, j = slots[low.bit_length() - 1]
                stack.append(i ^ j ^ v)
            else:
                trail.append(stack.pop())
        trails.append(trail)
    return trails


def _covers_once(mask: int, trails: list) -> bool:
    """Every trail is closed, and together they use each edge of ``mask``
    exactly once."""
    used = 0
    for trail in trails:
        if trail[0] != trail[-1]:
            return False
        for u, v in zip(trail, trail[1:]):
            if u == v:
                return False
            if u > v:
                u, v = v, u
            bit = 1 << v * (v - 1) // 2 + u
            if used & bit:
                return False
            used |= bit
    return used == mask


@cache
def _cycles(n: int) -> tuple:
    """Every simple cycle of K_n as an edge mask, listed under its highest
    slot, shortest first, if :func:`_covers_once` accepts its vertex list.
    Those under slot (b, t) run t, b, ..., x, t through vertices below t,
    with x < b. Built once per ``n`` and process, as tuples, which callers
    cannot change."""
    bit = [[0] * n for _ in range(n)]
    for s, (i, j) in enumerate(edge_slots(n)):
        bit[i][j] = bit[j][i] = 1 << s
    lists = []
    for t in range(n):
        for b in range(t):
            found = []
            # the loop reads the paths it appends: shortest first
            paths = [([t, b], bit[t][b])]
            for path, mask in paths:
                v = path[-1]
                for u in range(t):
                    if u not in path:
                        step = mask | bit[v][u]
                        if u < b:
                            found.append((path + [u, t], step | bit[u][t]))
                        paths.append((path + [u], step))
            lists.append(
                tuple(mask for trail, mask in found if _covers_once(mask, [trail]))
            )
    return tuple(lists)


def _uncertified(n: int, flags, cycles: tuple):
    """Yield ``(mask, trails)`` for each flagged mask on ``n`` vertices,
    ascending, that closed trails using each edge once do not certify. A mask
    is certified if the first of ``cycles`` (:func:`_cycles`) under its
    highest slot inside it leaves a rest certified before it, or else by
    :func:`_closed_trails`, whose trails a failure reports."""
    slots = edge_slots(n)
    incident = [
        sum(1 << s for s, pair in enumerate(slots) if v in pair) for v in range(n)
    ]
    certified = set()
    # the flagged masks, ascending
    for flagged in re.finditer(b"\x01", flags):
        mask = flagged.start()
        for cycle in cycles[mask.bit_length() - 1] if mask else ():
            if cycle & mask == cycle:
                if mask ^ cycle in certified:
                    certified.add(mask)
                break
        if mask not in certified:
            trails = _closed_trails(slots, incident, mask)
            if _covers_once(mask, trails):
                certified.add(mask)
            else:
                yield mask, trails


def _alive_subsets(n: int, flags):
    """Every alive set on ``n`` vertices with its terminal and Eulerian sets,
    bit-sliced over edge masks: bit ``m`` of each says that the position of
    edge mask ``m`` restricted to ``alive`` is terminal under the odd rule
    (no plane of :func:`_alive_sets` is set), or that its edges there lie in
    the cycle space given by ``flags``. The walk starts from the full set's
    planes of :func:`_slot_vectors`, the host graphs' degree parities.
    Eulerian keeps the cycle-space masks inside the alive set's slots, then
    spreads each over every choice of the slots outside. Yields ``(alive,
    terminal, eulerian)``."""
    slots = edge_slots(n)
    vectors, between, planes, parity = _slot_vectors(n)
    graphs = (1 << len(flags)) - 1
    cycles = _bit_planes(flags, 1)[0]
    for alive, planes, _ in _alive_sets(between, planes, parity):
        movable = 0
        for plane in planes:
            movable |= plane
        eulerian = cycles
        for s, (i, j) in enumerate(slots):
            if not alive >> i & alive >> j & 1:
                eulerian ^= eulerian & vectors[s]
                eulerian |= eulerian << (1 << s)
        yield alive, graphs ^ movable, eulerian


def check_euler_terminal(max_n: int = SWEEP_MAX_N) -> TheoremCheckResult:
    """A position is terminal under the odd rule exactly when every component
    is Eulerian, on every graph up to ``max_n`` vertices.

    Both sides are read off edge masks; a graph is built only for each
    strided instance and each failure. "Terminal" means every degree is
    even, read off degree-parity vectors: for full alive sets the sweep's own
    table of them (:func:`~vertexnim.exhaustive._degree_parities`, which also
    gives the row plan its top parities), translated to one flag per mask.
    "Eulerian" is membership in the cycle space of K_n (:func:`_cycle_space`),
    and every member checked as a full position is certified by closed
    trails that use each edge once (:func:`_uncertified`).

    Full alive sets are checked for every labeled graph; positions with dead
    vertices relabel to smaller enumerated graphs, and are additionally
    checked directly for every alive subset up to
    :data:`EULER_ALL_SUBSETS_MAX_N` vertices. That part does not shrink with
    ``max_n``: at ``max_n=3`` it still checks every alive subset of every
    graph on up to 5 vertices. It is bit-sliced over edge masks
    (:func:`_alive_subsets`): each side is one big int per alive set, and one
    XOR compares them.

    Each level's strided instances (:func:`_strided`; in the every-alive-subset
    part a level's instances run by edge mask, then alive set) are also
    checked through :meth:`Position.is_terminal` and
    :meth:`Position.has_eulerian_components`. Failures come by host graph,
    then by alive set, each graph's Position API failures last.
    """
    _check_sweep_range("euler-terminal", max_n)
    result = TheoremCheckResult(
        TheoremId.EULER_TERMINAL,
        scale={"max_n": max_n, "all_subsets_max_n": EULER_ALL_SUBSETS_MAX_N},
    )
    top = max(max_n, EULER_ALL_SUBSETS_MAX_N)
    spaces = [_cycle_space(n) for n in range(top + 1)]
    # K_n's cycle lists are the first C(n, 2) of K_max_n's
    cycles = _cycles(max_n)

    def mismatch(g: Graph, alive: int, terminal: bool, eulerian: bool) -> None:
        result.fail(
            g, "terminal == eulerian", (terminal, eulerian), f"alive set {alive:#x}"
        )

    def crosscheck(g: Graph, alive: int, terminal: bool, eulerian: bool) -> None:
        p = Position(g, alive)
        api = (p.is_terminal(MoveRule.ODD), p.has_eulerian_components())
        if api != (terminal, eulerian):
            result.fail(
                g, (terminal, eulerian), api, f"alive set {alive:#x}, Position API"
            )

    for n in range(max_n + 1):
        flags = spaces[n]
        terminals = _degree_parities(edge_slots(n)).translate(_EMPTY)
        full = (1 << n) - 1
        if terminals != flags:
            for mask, (t, e) in enumerate(zip(terminals, flags)):
                if t != e:
                    mismatch(from_edge_mask(n, mask), full, bool(t), bool(e))
                    if result.truncated:
                        break
        for mask, trails in _uncertified(n, flags, cycles):
            result.fail(
                from_edge_mask(n, mask),
                "closed trails using each edge once",
                trails,
                f"alive set {full:#x}",
            )
            if result.truncated:
                break
        for mask in _strided(len(flags)):
            crosscheck(
                from_edge_mask(n, mask), full, bool(terminals[mask]), bool(flags[mask])
            )
        result.instances_checked += len(flags)

    for n in range(EULER_ALL_SUBSETS_MAX_N + 1):
        flags = spaces[n]
        subsets = 1 << n
        sets = {alive: (t, e) for alive, t, e in _alive_subsets(n, flags)}
        found = [
            (mask, False, alive)
            for alive, (terminal, eulerian) in sets.items()
            for mask in iter_bits(terminal ^ eulerian)
        ]
        for rank in _strided(len(flags) * subsets):
            mask, alive = divmod(rank, subsets)
            found.append((mask, True, alive))
        # a host graph's mismatches by alive set, then its Position API checks
        for mask, rows in groupby(sorted(found), key=lambda row: row[0]):
            if result.truncated:
                break
            g = from_edge_mask(n, mask)
            for _, api, alive in rows:
                terminal, eulerian = (bits >> mask & 1 == 1 for bits in sets[alive])
                (crosscheck if api else mismatch)(g, alive, terminal, eulerian)
        result.instances_checked += len(flags) * subsets
    return result


def check_even_even(
    max_n: int = SWEEP_MAX_N,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """The even-rule engine value equals the vertex-count parity for every
    labeled graph up to ``max_n`` vertices; each level's strided instances
    (:func:`_strided`) are re-solved with the per-graph engine, each within
    ``budget`` positions; a negative budget is refused before any work. The
    sweep takes no budget; its range check bounds it."""
    _check_sweep_range("even-even", max_n)
    _check_budget(budget)
    result = TheoremCheckResult(TheoremId.EVEN_EVEN, scale={"max_n": max_n})
    tables = grundy_tables(max_n, MoveRule.EVEN)
    crosschecks = 0
    for k in range(max_n + 1):
        expected = grundy_even_even(Graph(k))
        table = tables[k]
        size = len(table)
        result.instances_checked += size
        if table.count(expected) != size:
            for mask, got in enumerate(table):
                if got != expected:
                    result.fail(from_edge_mask(k, mask), expected, got)
                    if result.truncated:
                        break
        crosschecks += _engine_crosscheck(
            result, k, _strided(size), table, MoveRule.EVEN, budget
        )
    result.scale["engine_crosschecks"] = crosschecks
    return result


def check_nim_sum(
    count: int = 500,
    max_n: int = 9,
    seed: int = NIM_SUM_SEED,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """Value of a disjoint union equals the nim-sum of the parts' values, on
    ``count`` seeded random graph pairs.

    ``g`` is solved as the position of the union's first ``g.n`` vertices,
    which keep ``g``'s labels and rows, so it is the same computation as a
    solve of ``g``; the union is then solved on the same memo, bounded by
    ``budget``, and values only ``h``'s parts again. ``h`` keeps its own
    fresh solve at labels from 0, so the union re-values its parts at
    shifted labels and the check still compares two labelings.
    """
    _check_scale("nim-sum", "count", count, 1)
    _check_scale("nim-sum", "max_n", max_n, 0)
    result = TheoremCheckResult(
        TheoremId.NIM_SUM, scale={"pairs": count, "max_n": max_n, "seed": seed}
    )
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randint(0, max_n))
        h = random_graph(rng, rng.randint(0, max_n))
        union = disjoint_union(g, h)
        memo = MemoTable(budget)
        expected = nim_sum(
            grundy_value(Position(union, (1 << g.n) - 1), memo=memo),
            grundy_value(h, memo=MemoTable(budget)),
        )
        got = grundy_value(union, memo=memo)
        result.instances_checked += 1
        if got != expected:
            result.fail(union, expected, got, "parts {} and {}", g, h)
    return result


def check_isolated_substitution(
    count: int = 1000,
    max_n: int = 8,
    seed: int = SUBSTITUTION_SEED,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """Replacing isolated vertices with 3-paths preserves the Grundy value,
    on seeded random graphs padded with up to
    :data:`SUBSTITUTION_MAX_PADDING` extra isolated vertices.

    The padded graph is solved as the position of the replaced graph's first
    ``g.n`` vertices: they keep their labels and rows, and each new 3-path
    vertex is dead, so it is exactly ``g``. The replaced graph is then solved
    on the same memo, bounded by ``budget``, so only the new 3-paths are
    searched. The per-graph search path itself is checked against ground
    truth by bipartite-parity's fast-path part.
    """
    _check_scale("isolated-substitution", "count", count, 1)
    _check_scale("isolated-substitution", "max_n", max_n, 0)
    result = TheoremCheckResult(
        TheoremId.ISOLATED_SUBSTITUTION,
        scale={
            "count": count,
            "max_n": max_n,
            "max_padding": SUBSTITUTION_MAX_PADDING,
            "seed": seed,
        },
    )
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randint(0, max_n))
        g = add_isolated_vertices(g, rng.randint(0, SUBSTITUTION_MAX_PADDING))
        replaced = replace_isolated_with_p3(g)
        memo = MemoTable(budget)
        expected = grundy_value(Position(replaced, (1 << g.n) - 1), memo=memo)
        got = grundy_value(replaced, memo=memo)
        result.instances_checked += 1
        if got != expected:
            result.fail(g, expected, got, "replaced: {}", replaced)
    return result


def check_witness_construction(
    max_k: int = 4,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TheoremCheckResult:
    """Witness graphs certify to their target values, their apex children
    realize exactly the claimed component values, and the root value is the
    mex of the child values."""
    _check_scale("witness-construction", "max_k", max_k, 0)
    from .construction import witness

    result = TheoremCheckResult(TheoremId.WITNESS_CONSTRUCTION, scale={"max_k": max_k})
    for k in range(max_k + 1):
        w = witness(k, node_budget=budget)
        g = w.graph
        result.instances_checked += 1
        if not w.certified:
            result.fail(g, "certified", False, f"witness({k})")
            continue
        result.instances_checked += 1
        if not g.is_connected():
            result.fail(g, "connected", False, f"witness({k})")
        if w.recipe is None:
            continue
        recipe = w.recipe
        memo = MemoTable(budget)
        full = (1 << g.n) - 1
        child_values = []
        for part, _offset, apex in recipe.placed():
            got = grundy_value(Position(g, full ^ (1 << apex)), memo=memo)
            child_values.append(got)
            result.check(
                g, part.claimed_grundy, got, f"witness({k}) child at apex {apex}"
            )
        result.check(g, k, mex(child_values), f"witness({k}) root mex")
        apex_set = recipe.apex_set()
        movable = g.full_position().movable_vertices(MoveRule.ODD)
        result.instances_checked += 1
        if movable != apex_set:
            result.fail(
                g,
                f"movable set {apex_set:#x}",
                f"{movable:#x}",
                f"witness({k}) root movable vertices",
            )
    return result


# each suite's keyword parameters are the scale flags it takes
SUITES = {
    TheoremId.NIM_SUM: check_nim_sum,
    TheoremId.EVEN_EVEN: check_even_even,
    TheoremId.CLOSED_FORMS: check_closed_forms,
    TheoremId.EULER_TERMINAL: check_euler_terminal,
    TheoremId.BIPARTITE_PARITY: check_bipartite_parity,
    TheoremId.ISOLATED_SUBSTITUTION: check_isolated_substitution,
    TheoremId.WITNESS_CONSTRUCTION: check_witness_construction,
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def verify_theorem(
    theorem: TheoremId,
    *,
    max_n: int | None = None,
    count: int | None = None,
    seed: int | None = None,
    max_k: int | None = None,
    budget: int | None = None,
) -> TheoremCheckResult:
    """Run the verification suite for one theorem at the given scale.

    Omitted scale parameters take each suite's documented defaults. A
    parameter the suite does not take raises ``ValueError``, and so does any
    scale the suite itself refuses; budget exhaustion raises
    :class:`TheoremBudgetError`.
    """
    theorem = TheoremId(theorem)
    suite = SUITES[theorem]
    scale = dict(max_n=max_n, count=count, seed=seed, max_k=max_k, budget=budget)
    scale = {name: value for name, value in scale.items() if value is not None}
    ignored = sorted(scale.keys() - inspect.signature(suite).parameters.keys())
    if ignored:
        flags = ", ".join(map(_flag, ignored))
        raise ValueError(f"{theorem.value} does not take {flags}")
    try:
        return suite(**scale)
    except NodeBudgetExceeded as exc:
        raise TheoremBudgetError(theorem, exc) from exc
