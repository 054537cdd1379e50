"""Span recorder for the traced run.

Spans are recorded from outside the package: the recorder rebinds the names
one vertexnim module imported from another (``vertexnim.cli.parse_graph``,
``vertexnim.theorems.grundy_value``, ...) and the ``Graph``/``Position``
methods, and puts every binding back on :meth:`Tracer.restore`.

A span is ``[id, parent, layer, name, start, end, child_s, info]``; its self
time is its duration minus the time its child spans cover. Graph methods run
millions of times a pass, so they are *hot*: each adds to a count and a total
per name instead of a span, and the outermost hot call's time counts as a
child of the span it ran in.
"""

import sys
import time

import vertexnim.cli
import vertexnim.construction
import vertexnim.exhaustive
import vertexnim.formats
import vertexnim.graph
import vertexnim.solver
import vertexnim.theorems
from vertexnim import Graph, NodeBudgetExceeded, Position

ID, PARENT, LAYER, NAME, START, END, CHILD_S, INFO = range(8)

LAYERS = ("formats", "graph", "solver", "exhaustive", "theorems", "construction", "cli")

# name -> (layer, modules whose binding of that name is replaced)
SPANS = {
    "parse_graph": ("formats", ("formats", "cli")),
    "from_graph6": ("formats", ("formats", "cli")),
    "load_graph": ("formats", ("formats", "cli")),
    "to_graph6": ("formats", ("formats", "cli", "construction", "theorems")),
    "serialize_graph": ("formats", ("formats", "cli")),
    "grundy": ("solver", ("solver", "cli")),
    "grundy_value": ("solver", ("solver", "theorems", "construction")),
    "grundy_tables": ("exhaustive", ("exhaustive", "theorems")),
    "bipartite_table": ("exhaustive", ("exhaustive", "theorems")),
    "census": ("exhaustive", ("exhaustive", "cli")),
    "verify_theorem": ("theorems", ("theorems", "cli")),
    "witness": ("construction", ("construction", "cli")),
    "construct_next": ("construction", ("construction",)),
    "certify": ("construction", ("construction",)),
    "witness_record": ("construction", ("construction", "cli")),
    "main": ("cli", ("cli",)),
}
SPANS.update(
    {
        name: ("theorems", ("theorems",))
        for name in dir(vertexnim.theorems)
        if name.startswith("check_")
    }
)

HOT_METHODS = {
    Graph: ("bipartition", "is_bipartite", "is_connected", "full_position",
            "odd_degree_vertices"),
    Position: ("movable_vertices", "connected_components", "is_terminal",
               "has_eulerian_components", "remove_vertex"),
}
HOT_FUNCTIONS = {"from_edge_mask": ("graph", "exhaustive", "theorems", "solver")}

MODULES = {
    "formats": vertexnim.formats,
    "graph": vertexnim.graph,
    "solver": vertexnim.solver,
    "exhaustive": vertexnim.exhaustive,
    "theorems": vertexnim.theorems,
    "construction": vertexnim.construction,
    "cli": vertexnim.cli,
}


class CountingDict(dict):
    """Memo entries that count the engine's lookups as hits and misses."""

    __slots__ = ("counts",)

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        self.counts[value is default] += 1
        return value


class Bindings:
    """Module and class attributes replaced until :meth:`restore`."""

    def __init__(self):
        self._saved = []

    def rebind(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer(Bindings):
    def __init__(self):
        super().__init__()
        self.spans = []
        self.stack = []
        self.hot = {}
        self.hot_depth = 0
        self.hot_outer_s = 0.0

    def _close(self, rec, info):
        end = time.perf_counter()
        rec[END] = end
        rec[INFO] = info
        self.stack.pop()
        if self.stack:
            self.stack[-1][CHILD_S] += end - rec[START]

    def span(self, layer, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1][ID] if tracer.stack else None
            rec = [len(tracer.spans), parent, layer, name, time.perf_counter(), 0.0, 0.0, None]
            tracer.spans.append(rec)
            tracer.stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(rec, {"raised": type(exc).__name__})
                raise
            tracer._close(rec, None)
            rec[INFO] = describe(name, args, kwargs, result)
            return result

        return traced

    def hot_call(self, name, fn):
        tracer = self
        totals = self.hot.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            tracer.hot_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                tracer.hot_depth -= 1
                totals[0] += 1
                totals[1] += took
                if tracer.hot_depth == 0:
                    tracer.hot_outer_s += took
                    if tracer.stack:
                        tracer.stack[-1][CHILD_S] += took

        return traced

    def install(self):
        for name, (layer, modules) in SPANS.items():
            wrapper = self.span(layer, name, getattr(MODULES[modules[0]], name))
            for mod in modules:
                self.rebind(MODULES[mod], name, wrapper)
        for cls, methods in HOT_METHODS.items():
            for attr in methods:
                self.rebind(cls, attr, self.hot_call(attr, cls.__dict__[attr]))
        for name, modules in HOT_FUNCTIONS.items():
            wrapper = self.hot_call(name, getattr(MODULES[modules[0]], name))
            for mod in modules:
                self.rebind(MODULES[mod], name, wrapper)


class MemoHits(Bindings):
    """Counts memo lookups as hits and misses: while installed, every
    ``MemoTable`` vertexnim or the benchmark creates has counting entries.
    Kept apart from the tracer, whose timings it would slow."""

    def __init__(self):
        super().__init__()
        self.counts = [0, 0]

    def install(self):
        counts = self.counts

        class CountingMemoTable(vertexnim.solver.MemoTable):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.entries = CountingDict()
                self.entries.counts = counts

        for mod in ("solver", "theorems", "construction", "cli"):
            self.rebind(MODULES[mod], "MemoTable", CountingMemoTable)

    def ratio(self) -> float:
        hits, misses = self.counts
        return hits / (hits + misses) if hits + misses else 0.0


def text_size(stream) -> int:
    getvalue = getattr(stream, "getvalue", None)
    return len(getvalue().encode()) if getvalue else 0


def describe(name, args, kwargs, result):
    """What a finished span did, for the per-layer counters."""
    if name in ("parse_graph", "from_graph6", "load_graph"):
        return {"bytes": len(args[0].encode())}
    if name in ("to_graph6", "serialize_graph"):
        return {"bytes": len(result.encode())}
    if name == "grundy":
        memo = args[2] if len(args) > 2 else kwargs.get("memo")
        graph = args[0] if isinstance(args[0], Graph) else args[0].graph
        return {
            "n": graph.n,
            "nodes": result.nodes_visited,
            "distinct": result.distinct_positions,
            "entries": len(memo) if memo is not None else result.distinct_positions,
        }
    if name == "grundy_tables":
        rule = args[1] if len(args) > 1 else kwargs.get("rule", vertexnim.graph.MoveRule.ODD)
        return {"max_n": args[0], "rule": rule.name, "graphs": sum(map(len, result))}
    if name == "verify_theorem":
        return {"suite": args[0].value, "instances": result.instances_checked}
    if name == "main":
        return {"output_bytes": text_size(sys.stdout) + text_size(sys.stderr)}
    return None


# ------------------------------------------------------------ per-layer


def per_layer(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics of a traced phase of ``passes`` passes.

    ``_s`` and count metrics are per pass, ``_us``/``_ms`` are means per
    call, and rates are totals over the time spent in the named calls.
    """
    by_name: dict = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for rec in tracer.spans:
        by_name.setdefault(rec[NAME], []).append(rec)
        self_s[rec[LAYER]] += rec[END] - rec[START] - rec[CHILD_S]
    self_s["graph"] += tracer.hot_outer_s

    def dur(rec):
        return rec[END] - rec[START]

    def mean_us(name):
        recs = by_name.get(name, [])
        return 1e6 * sum(map(dur, recs)) / len(recs) if recs else 0.0

    def per_pass(x):
        return x / passes

    def ok(recs):
        return [r for r in recs if r[INFO] is not None and "raised" not in r[INFO]]

    def hot_us(name):
        calls, total = tracer.hot.get(name, (0, 0.0))
        return 1e6 * total / calls if calls else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {}
    fmt = [r for n in ("parse_graph", "from_graph6", "to_graph6", "serialize_graph")
           for r in ok(by_name.get(n, []))]
    m["formats.parse_graph_us"] = mean_us("parse_graph")
    m["formats.from_graph6_us"] = mean_us("from_graph6")
    m["formats.to_graph6_us"] = mean_us("to_graph6")
    m["formats.serialize_graph_us"] = mean_us("serialize_graph")
    m["formats.bytes_per_s"] = rate(sum(r[INFO]["bytes"] for r in fmt), sum(map(dur, fmt)))
    m["formats.calls"] = per_pass(sum(len(v) for k, v in by_name.items()
                                      if SPANS[k][0] == "formats"))

    m["graph.bipartition_us"] = hot_us("bipartition")
    m["graph.components_us"] = hot_us("connected_components")
    m["graph.movable_us"] = hot_us("movable_vertices")
    m["graph.eulerian_us"] = hot_us("has_eulerian_components")
    m["graph.from_edge_mask_us"] = hot_us("from_edge_mask")
    m["graph.calls"] = per_pass(sum(c for c, _ in tracer.hot.values()))
    m["graph.self_s"] = per_pass(self_s["graph"])

    solves = by_name.get("grundy", [])
    done = ok(solves)
    m["solver.calls"] = per_pass(len(solves))
    m["solver.self_s"] = per_pass(self_s["solver"])
    m["solver.nodes"] = per_pass(sum(r[INFO]["nodes"] for r in done))
    for n in (12, 14, 16, 18):
        sized = [r for r in done if r[INFO]["n"] == n]
        m[f"solver.nodes_per_s.n{n}"] = rate(
            sum(r[INFO]["nodes"] for r in sized), sum(map(dur, sized))
        )
    m["solver.distinct"] = per_pass(sum(r[INFO]["distinct"] for r in done))
    m["solver.memo_entries_peak"] = max((r[INFO]["entries"] for r in done), default=0)
    m["solver.budget_refusals"] = per_pass(sum(
        1 for r in solves
        if r[INFO] and r[INFO].get("raised") == NodeBudgetExceeded.__name__
    ))

    tables = ok(by_name.get("grundy_tables", []))
    for rule in ("ODD", "EVEN"):
        m[f"exhaustive.grundy_tables_{rule.lower()}_s"] = per_pass(
            sum(dur(r) for r in tables if r[INFO]["rule"] == rule)
        )
    m["exhaustive.sweep_graphs_per_s"] = rate(
        sum(r[INFO]["graphs"] for r in tables), sum(map(dur, tables))
    )
    m["exhaustive.census_tally_s"] = per_pass(
        sum(dur(r) - r[CHILD_S] for r in by_name.get("census", []))
    )
    m["exhaustive.bipartite_table_s"] = per_pass(sum(map(dur, by_name.get("bipartite_table", []))))
    m["exhaustive.graphs"] = per_pass(sum(r[INFO]["graphs"] for r in tables))

    suites = ok(by_name.get("verify_theorem", []))
    for theorem in vertexnim.theorems.TheoremId:
        m[f"theorems.{theorem.value}_s"] = per_pass(
            sum(dur(r) for r in suites if r[INFO]["suite"] == theorem.value)
        )
    m["theorems.self_s"] = per_pass(self_s["theorems"])
    m["theorems.instances_per_s"] = rate(
        sum(r[INFO]["instances"] for r in suites), sum(map(dur, suites))
    )

    m["construction.construct_next_us"] = mean_us("construct_next")
    m["construction.certify_us"] = mean_us("certify")
    m["construction.witness_ms"] = mean_us("witness") / 1e3

    mains = by_name.get("main", [])
    m["cli.self_us"] = 1e6 * self_s["cli"] / len(mains) if mains else 0.0
    m["cli.output_bytes"] = per_pass(sum(r[INFO]["output_bytes"] for r in ok(mains)))
    return m
