"""Building connected graphs with any prescribed Grundy value.

Given connected parts realizing the values 0..K, the assembly takes their
disjoint union, adds one apex vertex per part joined to all of that part's
odd-degree vertices, and joins the apexes into a clique. A 3-path padding
part is added when K is even so the apex count is even. Every original
vertex then has even degree and every apex odd degree, so the apexes are
exactly the removable vertices; removing the apex of part ``i`` freezes
everything else (all even degrees, value 0) and revives part ``i``
unchanged. The root value is therefore mex{0, 1, ..., K} = K + 1.

The canonical witness tower starts from the 3-path (value 0) and the single
edge (value 1) and feeds each new witness back in as a part. Every witness
is certified by an independent brute-force solve; a mismatch is a soundness
error and must never occur. The tower's size grows about twofold per value,
so :func:`witness` stops where it would exceed the input limit
:data:`~vertexnim.formats.MAX_VERTICES`.
"""

from dataclasses import dataclass, replace

from .families import complete_graph, path_graph
from .formats import MAX_VERTICES, to_graph6
from .graph import Graph, MoveRule, iter_bits
from .solver import DEFAULT_NODE_BUDGET, MemoTable, grundy_value


class ConstructionError(ValueError):
    """A part violates the assembly's preconditions."""


class ConstructionSoundnessError(RuntimeError):
    """Certification contradicted a recipe; indicates a bug, must never fire."""

    def __init__(self, witness: "Witness", got: int):
        super().__init__(
            f"witness for value {witness.k} solved to {got}; "
            f"recipe: {witness.recipe!r}"
        )
        self.witness = witness
        self.got = got


@dataclass(frozen=True)
class RecipePart:
    """One component of an assembly: its index in I, graph, and claimed value."""

    index: int
    graph: Graph
    claimed_grundy: int


@dataclass(frozen=True)
class ConstructionRecipe:
    """Audit record of how a witness graph was assembled.

    Parts are laid out in index order (padding part -1 first when present),
    apex vertices come after all part vertices in the same order, and
    ``apex_edges``/``clique_edges`` use final vertex numbers.
    """

    k: int
    parts: tuple
    padding_used: bool
    apex_edges: tuple
    clique_edges: tuple

    def part_offset(self, index: int) -> int:
        offset = 0
        for p in self.parts:
            if p.index == index:
                return offset
            offset += p.graph.n
        raise KeyError(f"no part with index {index}")

    def apex_vertex(self, index: int) -> int:
        base = sum(p.graph.n for p in self.parts)
        for t, p in enumerate(self.parts):
            if p.index == index:
                return base + t
        raise KeyError(f"no part with index {index}")

    def apex_set(self) -> int:
        base = sum(p.graph.n for p in self.parts)
        return ((1 << len(self.parts)) - 1) << base

    def validate(self) -> None:
        if len(self.parts) % 2 != 0:
            raise ConstructionError(
                f"recipe must use an even number of parts, got {len(self.parts)}"
            )
        claimed = sorted(p.claimed_grundy for p in self.parts if p.index >= 0)
        if claimed != list(range(self.k)):
            raise ConstructionError(
                f"claimed values {claimed} are not exactly 0..{self.k - 1}"
            )
        for p in self.parts:
            if p.index < 0 and p.claimed_grundy != 0:
                raise ConstructionError("padding part must claim value 0")
        if self.padding_used != any(p.index < 0 for p in self.parts):
            raise ConstructionError("padding flag disagrees with the part list")
        attach_counts: dict = {}
        for apex, _v in self.apex_edges:
            attach_counts[apex] = attach_counts.get(apex, 0) + 1
        apexes = sorted(iter_bits(self.apex_set()))
        for apex in apexes:
            if attach_counts.get(apex, 0) < 2:
                raise ConstructionError(
                    f"apex {apex} has fewer than 2 attachments"
                )
        expected_clique = {
            (a, b) for i, a in enumerate(apexes) for b in apexes[i + 1 :]
        }
        if set(self.clique_edges) != expected_clique:
            raise ConstructionError("clique edges do not form a complete graph")


@dataclass(frozen=True)
class Witness:
    """A graph claimed (and, once certified, proved) to have value ``k``."""

    k: int
    graph: Graph
    recipe: ConstructionRecipe | None
    certified: bool


def construct_next(
    parts,
    verify_parts: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Witness:
    """Assemble a witness of value ``len(parts)`` from parts of values 0..K.

    Every part must be connected with at least one odd-degree vertex (then it
    has at least two); grow isolated vertices into 3-paths first if needed.
    With ``verify_parts`` each part's claimed value is solved and checked
    instead of trusted. The result is not yet certified.
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
        if verify_parts:
            got = grundy_value(g, memo=MemoTable(node_budget))
            if got != i:
                raise ConstructionError(f"part {i} has Grundy value {got}, not {i}")

    indexed = [(i, g) for i, g in enumerate(parts)]
    padding_used = K % 2 == 0
    if padding_used:
        indexed.insert(0, (-1, path_graph(3)))

    offsets = []
    offset = 0
    edges = []
    odd_lists = []
    for _idx, g in indexed:
        offsets.append(offset)
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        odd_lists.append([offset + v for v in iter_bits(g.odd_degree_vertices())])
        offset += g.n
    apexes = list(range(offset, offset + len(indexed)))
    apex_edges = []
    for apex, odd in zip(apexes, odd_lists):
        for v in odd:
            apex_edges.append((apex, v))
    clique_edges = [
        (a, b) for i, a in enumerate(apexes) for b in apexes[i + 1 :]
    ]
    graph = Graph(offset + len(apexes), edges + apex_edges + clique_edges)

    # structural postconditions; violations indicate an assembly bug
    for v in range(offset):
        if graph.degree(v) % 2 != 0:
            raise ConstructionError(f"original vertex {v} has odd degree")
    for apex in apexes:
        if graph.degree(apex) % 2 != 1:
            raise ConstructionError(f"apex {apex} has even degree")
    if not graph.is_connected():
        raise ConstructionError("assembled graph is not connected")
    movable = graph.full_position().movable_vertices(MoveRule.ODD)
    apex_mask = 0
    for apex in apexes:
        apex_mask |= 1 << apex
    if movable != apex_mask:
        raise ConstructionError("removable vertices at the root are not the apexes")

    recipe = ConstructionRecipe(
        k=K + 1,
        parts=tuple(RecipePart(idx, g, max(idx, 0)) for idx, g in indexed),
        padding_used=padding_used,
        apex_edges=tuple(apex_edges),
        clique_edges=tuple(clique_edges),
    )
    recipe.validate()
    return Witness(K + 1, graph, recipe, certified=False)


def certify(w: Witness, node_budget: int = DEFAULT_NODE_BUDGET) -> Witness:
    """Solve the witness graph and confirm the claimed value.

    Returns a certified copy on success; a mismatch raises
    :class:`ConstructionSoundnessError`. Budget exhaustion propagates as
    :class:`~vertexnim.solver.NodeBudgetExceeded`.
    """
    got = grundy_value(w.graph, memo=MemoTable(node_budget))
    if got != w.k:
        raise ConstructionSoundnessError(w, got)
    return replace(w, certified=True)


def tower_size(k: int) -> int:
    """Vertex count of the canonical tower witness for value ``k``."""
    sizes = []
    for j in range(k + 1):
        if j == 0:
            n = 3
        elif j == 1:
            n = 2
        else:
            padding = (j - 1) % 2 == 0
            n = sum(sizes) + (3 if padding else 0) + j + (1 if padding else 0)
        sizes.append(n)
    return sizes[k]


def witness(k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> Witness:
    """Certified connected witness of Grundy value ``k`` (canonical tower).

    The tower is deterministic: value 0 is the 3-path, value 1 the single
    edge, and each later witness assembles all earlier ones. Raises
    ValueError when the tower would exceed
    :data:`~vertexnim.formats.MAX_VERTICES` vertices.
    """
    if k < 0:
        raise ValueError(f"witness value must be nonnegative, got {k}")
    # the tower for k has more than k vertices: a huge k is refused unsized
    if k > MAX_VERTICES or tower_size(k) > MAX_VERTICES:
        raise ValueError(
            f"witness({k}) would exceed the limit of {MAX_VERTICES} vertices"
        )
    tower = []
    for j in range(k + 1):
        if j == 0:
            w = Witness(0, path_graph(3), None, certified=False)
        elif j == 1:
            w = Witness(1, complete_graph(2), None, certified=False)
        else:
            w = construct_next([t.graph for t in tower], node_budget=node_budget)
        tower.append(certify(w, node_budget=node_budget))
    return tower[k]


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
    recipe = w.recipe
    attached: dict = {}
    for apex, v in recipe.apex_edges:
        attached.setdefault(apex, []).append(v)
    record["padding_used"] = recipe.padding_used
    record["parts"] = [
        {
            "index": p.index,
            "claimed_grundy": p.claimed_grundy,
            "offset": recipe.part_offset(p.index),
            "size": p.graph.n,
            "graph6": to_graph6(p.graph),
        }
        for p in recipe.parts
    ]
    record["apexes"] = [
        {
            "index": p.index,
            "vertex": recipe.apex_vertex(p.index),
            "attached": sorted(attached.get(recipe.apex_vertex(p.index), [])),
        }
        for p in recipe.parts
    ]
    record["clique_edges"] = [list(e) for e in recipe.clique_edges]
    return record
