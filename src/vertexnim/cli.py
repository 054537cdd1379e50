"""Command-line interface: solve, generate, verify, census, convert.

Exit codes: 0 success; 1 a check failed or a counterexample exists; 2 usage
or input error, including a graph or witness above the vertex limit
:data:`~vertexnim.formats.MAX_VERTICES`; 3 budget exhaustion. The library
decides every input: :func:`~vertexnim.formats.load_graph` sniffs the format,
and a bad scale or negative ``--budget`` exits 2 with the library's message.
``--budget`` counts positions: ``solve``, ``generate`` and ``verify`` bound
each solve they make with it, and ``census`` and ``convert``, which make none,
refuse it.
``solve`` prints the report of :func:`vertexnim.solver.solve`, which picks
the method.
With ``--records`` every command emits line-delimited JSON instead of
human-readable text; output bytes are deterministic for fixed inputs and
seeds. If standard output closes early, the rest of the output is dropped
quietly and the exit code is the command's own.

:func:`main` may be called repeatedly in one process: it builds its parser
once, returns the exit code, and never raises ``SystemExit``.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field

from .construction import witness, witness_record
from .exhaustive import SWEEP_MAX_N, census
# from_graph6 and parse_graph go unused here: perfbench's span recorder rebinds them
from .formats import (
    GraphFormatError,
    from_graph6,
    load_graph,
    parse_graph,
    serialize_graph,
    sniff_format,
    to_graph6,
)
from .graph import MoveRule
from .solver import (
    DEFAULT_NODE_BUDGET,
    SEARCH_METHOD,
    MemoTable,
    NodeBudgetExceeded,
    grundy,
    solve,
)
from .theorems import TheoremBudgetError, TheoremId, verify_theorem

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

MAX_PRINTED_FAILURES = 5


@dataclass
class CommandOutcome:
    """What a subcommand produced: exit code plus both output shapes."""

    exit_code: int = EXIT_OK
    lines: list = field(default_factory=list)
    records: list = field(default_factory=list)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_solve(args) -> CommandOutcome:
    g = load_graph(_read_text(args.graph))
    rule = MoveRule.ODD if args.rule == "odd" else MoveRule.EVEN
    memo = MemoTable(args.budget)
    report = solve(g, rule, memo)
    value, move, method = report.grundy, report.optimal_move, report.method
    nodes = report.nodes_visited
    fast = method != SEARCH_METHOD

    outcome = CommandOutcome()
    if fast and args.verify:
        check = grundy(g, rule, memo)
        nodes = check.nodes_visited
        if check.grundy != value:
            outcome.exit_code = EXIT_CHECK_FAILED
            outcome.lines.append(
                f"MISMATCH: fast path says {value}, brute force says "
                f"{check.grundy}"
            )

    outcome.lines.extend(
        [
            f"graph: {g.n} vertices, {g.edge_count()} edges",
            f"rule: {args.rule}",
            f"method: {method}",
            f"grundy: {value}",
            f"nodes visited: {nodes}",
            f"distinct positions: {nodes}",
        ]
    )
    terminal = g.full_position().is_terminal(rule)
    if move is not None:
        outcome.lines.append(f"optimal move: remove vertex {move}")
    elif terminal:
        outcome.lines.append("optimal move: none (terminal position)")
    else:
        outcome.lines.append("optimal move: none (every move loses)")
    if args.verify and fast and outcome.exit_code == EXIT_OK:
        outcome.lines.append(f"verification: brute force agrees (grundy {value})")

    outcome.records.append(
        {
            "command": "solve",
            "n": g.n,
            "edges": g.edge_count(),
            "rule": args.rule,
            "method": method,
            "grundy": value,
            "nodes_visited": nodes,
            "distinct_positions": nodes,
            "optimal_move": move,
            "terminal": terminal,
            "verified": bool(args.verify) if fast else None,
        }
    )
    return outcome


def cmd_generate(args) -> CommandOutcome:
    w = witness(args.k, node_budget=args.budget)
    record = witness_record(w)
    record["command"] = "generate"
    text = serialize_graph(w.graph)
    status = (
        f"# witness grundy={w.k} certified={'yes' if w.certified else 'no'} "
        f"vertices={w.graph.n} edges={w.graph.edge_count()}"
    )
    outcome = CommandOutcome(records=[record])
    if args.out == "-":
        outcome.lines.append(status)
        outcome.lines.append(text.rstrip("\n"))
    else:
        sidecar = args.out + ".recipe.json"
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(status + "\n" + text)
        with open(sidecar, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        outcome.lines.append(
            f"wrote {args.out} ({w.graph.n} vertices, {w.graph.edge_count()} edges)"
        )
        outcome.lines.append(f"wrote {sidecar}")
        outcome.lines.append(f"witness grundy {w.k}: certified")
    return outcome


def cmd_verify(args) -> CommandOutcome:
    theorem = TheoremId(args.theorem)
    result = verify_theorem(
        theorem,
        max_n=args.max_n,
        count=args.count,
        seed=args.seed,
        max_k=args.max_k,
        budget=args.budget,
    )
    outcome = CommandOutcome()
    outcome.lines.append(result.summary())
    for failure in result.failures[:MAX_PRINTED_FAILURES]:
        note = f" ({failure.note})" if failure.note else ""
        outcome.lines.append(
            f"counterexample: {failure.graph6} expected {failure.expected} "
            f"got {failure.got}{note}"
        )
    if len(result.failures) > MAX_PRINTED_FAILURES:
        outcome.lines.append(
            f"... and {len(result.failures) - MAX_PRINTED_FAILURES} more"
        )
    record = result.to_record()
    record["command"] = "verify"
    outcome.records.append(record)
    outcome.exit_code = EXIT_OK if result.passed else EXIT_CHECK_FAILED
    return outcome


def cmd_census(args) -> CommandOutcome:
    report = census(args.max_n)
    outcome = CommandOutcome()
    outcome.lines.append("grundy    n  edges      count")
    for row in report.rows:
        outcome.lines.append(
            f"{row.grundy:>6} {row.n:>4} {row.edge_count:>6} {row.count:>10}"
        )
        outcome.records.append(
            {
                "command": "census",
                "grundy": row.grundy,
                "n": row.n,
                "edges": row.edge_count,
                "count": row.count,
            }
        )
    for value, g in sorted(report.minimal_examples.items()):
        edges = ", ".join(f"({u},{v})" for u, v in g.edges())
        outcome.lines.append(
            f"minimal example for grundy {value}: n={g.n} edges={g.edge_count()} "
            f"graph6={to_graph6(g)} [{edges}]"
        )
        outcome.records.append(
            {
                "command": "census",
                "minimal_example_for": value,
                "n": g.n,
                "edges": g.edge_count(),
                "graph6": to_graph6(g),
            }
        )
    outcome.lines.append(
        f"labeled graphs evaluated: {report.graphs_evaluated} (n <= {report.max_n})"
    )
    return outcome


def cmd_convert(args) -> CommandOutcome:
    text = _read_text(args.graph)
    g = load_graph(text)
    out_fmt = args.to
    if out_fmt is None:
        out_fmt = "graph6" if sniff_format(text) == "edgelist" else "edgelist"
    payload = to_graph6(g) if out_fmt == "graph6" else serialize_graph(g).rstrip("\n")
    outcome = CommandOutcome()
    if args.out == "-":
        outcome.lines.append(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        outcome.lines.append(f"wrote {args.out}")
    outcome.records.append(
        {
            "command": "convert",
            "n": g.n,
            "edges": g.edge_count(),
            "format": out_fmt,
            "graph": payload if out_fmt == "graph6" else payload.split("\n"),
        }
    )
    return outcome


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every :func:`main`
    call (``parse_args`` starts each call from a fresh namespace)."""
    parser = argparse.ArgumentParser(
        prog="vertexnim",
        description=(
            "Exact Grundy values, witnesses, and verification for parity "
            "vertex-removal games on undirected graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute the Grundy value of a graph")
    solve.add_argument("graph", help="input file, or - for standard input")
    solve.add_argument("--rule", choices=("odd", "even"), default="odd")
    solve.add_argument(
        "--verify",
        action="store_true",
        help="cross-check any fast path against brute force",
    )
    solve.set_defaults(func=cmd_solve, budget=DEFAULT_NODE_BUDGET)

    generate = sub.add_parser(
        "generate", help="construct a certified witness of a given Grundy value"
    )
    generate.add_argument("k", type=int, help="target Grundy value")
    generate.add_argument(
        "out", help="output path for the edge list, or - for standard output"
    )
    generate.set_defaults(func=cmd_generate, budget=DEFAULT_NODE_BUDGET)

    verify = sub.add_parser("verify", help="run a theorem verification suite")
    verify.add_argument("theorem", choices=[t.value for t in TheoremId])
    verify.add_argument("--max-n", type=int, dest="max_n")
    verify.add_argument("--count", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--max-k", type=int, dest="max_k")
    verify.set_defaults(func=cmd_verify)

    census_cmd = sub.add_parser(
        "census", help="tabulate Grundy values over all small labeled graphs"
    )
    census_cmd.add_argument("--max-n", type=int, dest="max_n", default=SWEEP_MAX_N)
    census_cmd.set_defaults(func=cmd_census)

    convert = sub.add_parser("convert", help="convert between edge list and graph6")
    convert.add_argument("graph", help="input file, or - for standard input")
    convert.add_argument("--to", choices=("edgelist", "graph6"))
    convert.add_argument("--out", default="-")
    convert.set_defaults(func=cmd_convert)

    # verify's default stays None, so a suite that takes no budget refuses it
    for p in (solve, generate, verify):
        p.add_argument("--budget", type=int, help="positions each solve may visit")
    for p in (solve, generate, verify, census_cmd, convert):
        p.add_argument(
            "--records",
            action="store_true",
            help="emit line-delimited JSON records instead of text",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        outcome = args.func(args)
    except (NodeBudgetExceeded, TheoremBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.records:
            for record in outcome.records:
                print(json.dumps(record, sort_keys=True))
        else:
            for line in outcome.lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``vertexnim census | head -1``): send what is still
        # buffered to the null device so the interpreter's flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
