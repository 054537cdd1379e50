"""Building connected graphs with any prescribed Grundy value.

Given connected parts realizing the values 0..K, the assembly takes their
disjoint union, adds one apex vertex per part joined to all of that part's
odd-degree vertices, and joins the apexes into a clique. A 3-path padding
part is added when K is even so the apex count is even. Every original
vertex then has even degree and every apex odd degree, so the apexes are
exactly the removable vertices; removing the apex of part ``i`` freezes
everything else (all even degrees, value 0) and revives part ``i``
unchanged. The root value is therefore mex{0, 1, ..., K} = K + 1.

A :class:`ConstructionRecipe` records only the parts; the vertex layout,
the apex attachments and the clique are derived from them, so the graph and
its audit record cannot disagree.

The canonical witness tower starts from the 3-path (value 0) and the single
edge (value 1) and feeds each new witness back in as a part. A witness is
certified by an independent brute-force solve of its root and of each
part's apex child; a mismatch is a soundness error and must never occur.
The top's apex children revive every lower level, so :func:`witness`
certifies the top alone, and stops at the first level above the input
limit :data:`~vertexnim.formats.MAX_VERTICES` (sizes grow about twofold).
"""

from dataclasses import dataclass, replace

from .families import complete_graph, path_graph
from .formats import MAX_VERTICES, to_graph6
from .graph import Graph, Position, iter_bits
from .solver import DEFAULT_NODE_BUDGET, MemoTable, grundy_value


class ConstructionError(ValueError):
    """A part violates the assembly's preconditions."""


class ConstructionSoundnessError(RuntimeError):
    """Certification contradicted a recipe; indicates a bug, must never fire.

    ``part`` is the recipe part whose apex child solved to ``got``, or None
    when the root did.
    """

    def __init__(self, witness: "Witness", got: int, part=None):
        where = "" if part is None else f"the apex child of part {part.index} of the "
        super().__init__(
            f"{where}witness for value {witness.k} solved to {got}; "
            f"recipe: {witness.recipe!r}"
        )
        self.witness = witness
        self.got = got
        self.part = part


@dataclass(frozen=True)
class RecipePart:
    """One component of an assembly: its index in I, graph, and claimed value."""

    index: int
    graph: Graph
    claimed_grundy: int


@dataclass(frozen=True)
class ConstructionRecipe:
    """Audit record of how a witness graph was assembled: its parts, and
    everything else derived from them.

    Parts are laid out in index order (padding part -1 first when present),
    then one apex vertex per part in the same order. Offsets, apex vertices,
    attachments and the apex clique are all computed from ``parts``.
    """

    parts: tuple

    @property
    def padding_used(self) -> bool:
        return self.parts[0].index < 0

    def placed(self):
        """Yield ``(part, offset, apex vertex)`` for each part in layout order."""
        offset = 0
        apex = sum(p.graph.n for p in self.parts)
        for p in self.parts:
            yield p, offset, apex
            offset += p.graph.n
            apex += 1

    def apex_set(self) -> int:
        return sum(1 << apex for _p, _offset, apex in self.placed())

    def _clique_edges(self) -> list:
        apexes = [apex for _p, _offset, apex in self.placed()]
        return [(a, b) for i, a in enumerate(apexes) for b in apexes[i + 1 :]]


def _attached(part: RecipePart, offset: int) -> list:
    """Final vertex numbers of a part's odd-degree vertices, its apex's
    neighbours within the part."""
    return [offset + v for v in iter_bits(part.graph.odd_degree_vertices())]


@dataclass(frozen=True)
class Witness:
    """A graph claimed (and, once certified, proved) to have value ``k``."""

    k: int
    graph: Graph
    recipe: ConstructionRecipe | None
    certified: bool


def construct_next(parts) -> Witness:
    """Assemble a witness of value ``len(parts)`` from parts of values 0..K.

    Every part must be connected with at least one odd-degree vertex (then it
    has at least two); grow isolated vertices into 3-paths first if needed.
    The parts' values are trusted, not solved; the result is not yet
    certified, and :func:`certify` checks its root and part values.
    """
    parts = list(parts)
    if not parts:
        raise ConstructionError("need at least one part")
    K = len(parts) - 1
    for i, g in enumerate(parts):
        if not isinstance(g, Graph):
            raise ConstructionError(f"part {i} is not a Graph")
        if g.n == 0 or not g.is_connected():
            raise ConstructionError(f"part {i} must be connected and nonempty")
        if g.odd_degree_vertices() == 0:
            # a graph has an even number of odd vertices, so >= 1 means >= 2
            raise ConstructionError(
                f"part {i} has no odd-degree vertex; replace it "
                "(e.g. by a 3-path) before assembly"
            )

    indexed = list(enumerate(parts))
    if K % 2 == 0:
        indexed.insert(0, (-1, path_graph(3)))
    recipe = ConstructionRecipe(
        tuple(RecipePart(idx, g, max(idx, 0)) for idx, g in indexed)
    )
    edges = []
    for p, offset, apex in recipe.placed():
        edges.extend((u + offset, v + offset) for u, v in p.graph.edges())
        edges.extend((apex, v) for v in _attached(p, offset))
    # the last apex is the last vertex
    graph = Graph(apex + 1, edges + recipe._clique_edges())

    # structural postconditions; violations indicate an assembly bug. Under
    # the odd rule the movable set is the odd-degree set, so the first one
    # also makes the apexes exactly the removable vertices.
    apexes = recipe.apex_set()
    if graph.odd_degree_vertices() != apexes:
        raise ConstructionError("odd-degree vertices are not exactly the apexes")
    if not graph.is_connected():
        raise ConstructionError("assembled graph is not connected")
    return Witness(K + 1, graph, recipe, certified=False)


def certify(w: Witness, node_budget: int = DEFAULT_NODE_BUDGET) -> Witness:
    """Solve the witness graph and confirm the claimed value, then confirm
    that each recipe part's apex child has the part's claimed value.

    The child solves share the root solve's memo. The root is connected,
    so its solve stored every apex child's value; only a child's own
    optimal-move search can visit new positions. Returns a certified copy on
    success; a mismatch raises :class:`ConstructionSoundnessError`. Budget
    exhaustion propagates as :class:`~vertexnim.solver.NodeBudgetExceeded`.
    """
    memo = MemoTable(node_budget)
    got = grundy_value(w.graph, memo=memo)
    if got != w.k:
        raise ConstructionSoundnessError(w, got)
    if w.recipe is not None:
        full = (1 << w.graph.n) - 1
        for part, _offset, apex in w.recipe.placed():
            got = grundy_value(Position(w.graph, full ^ 1 << apex), memo=memo)
            if got != part.claimed_grundy:
                raise ConstructionSoundnessError(w, got, part)
    return replace(w, certified=True)


def witness(k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> Witness:
    """Certified connected witness of Grundy value ``k`` (canonical tower).

    The tower is deterministic: value 0 is the 3-path, value 1 the single
    edge, and each later witness assembles all earlier ones. Only the top is
    certified, and that covers the whole tower: removing the apex of part
    ``i`` leaves level ``i`` beside a remainder frozen at value 0, so the
    top's apex-child checks prove every level's value. Raises ValueError as
    soon as a level exceeds :data:`~vertexnim.formats.MAX_VERTICES` vertices.
    """
    if k < 0:
        raise ValueError(f"witness value must be nonnegative, got {k}")
    tower = [path_graph(3), complete_graph(2)]
    w = Witness(min(k, 1), tower[min(k, 1)], None, certified=False)
    for _ in range(2, k + 1):
        w = construct_next(tower)
        if w.graph.n > MAX_VERTICES:
            raise ValueError(
                f"witness({k}) would exceed the limit of {MAX_VERTICES} vertices"
            )
        tower.append(w.graph)
    return certify(w, node_budget=node_budget)


def witness_record(w: Witness) -> dict:
    """JSON-ready audit record bundling the graph with its recipe."""
    record = {
        "k": w.k,
        "certified": w.certified,
        "vertices": w.graph.n,
        "edges": w.graph.edge_count(),
        "graph6": to_graph6(w.graph),
    }
    if w.recipe is None:
        record["base_case"] = True
        return record
    placed = list(w.recipe.placed())
    record["padding_used"] = w.recipe.padding_used
    record["parts"] = [
        {
            "index": p.index,
            "claimed_grundy": p.claimed_grundy,
            "offset": offset,
            "size": p.graph.n,
            "graph6": to_graph6(p.graph),
        }
        for p, offset, _apex in placed
    ]
    record["apexes"] = [
        {"index": p.index, "vertex": apex, "attached": _attached(p, offset)}
        for p, offset, apex in placed
    ]
    record["clique_edges"] = [list(e) for e in w.recipe._clique_edges()]
    return record
