"""vertexnim benchmark: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the metrics and the workloads.
"""

import argparse
import gc
from array import array
from bisect import bisect_left
import json
import os
import pickle
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# An untraced run measures in this many fresh interpreters, one after the
# other, each set up anew and timed for an equal share of the seconds. A
# process keeps an offset of its own for its whole life (which core it runs
# on, where its memory lies), a few percent on a shared host; the medians
# over several processes average it out. Each one's set-up is a sample of
# setup_s.
SHARES = 3
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)
TAIL_BEYOND = 10

# The host's speed changes by up to 1.7x within seconds and over minutes
# (other tenants on shared cores), far more than a regression bound. So every
# timing is scaled to a reference speed by a *probe*: a fixed pure-Python job
# (the oracle's memoized mex recursion on one 9-vertex graph, nothing of
# vertexnim) that a wall-clock timer runs every PROBE_EVERY_S, in the middle
# of ops too. An op's latency leaves out the probes run inside it and is
# scaled by (PROBE_REF_S / probe) ** power, where probe is the median time
# of those probes, or of the PROBE_LEAST nearest ones when fewer ran inside
# it, and power is the workload's ``probe_power``: how its op latencies
# follow the probe's time (see workloads.py). PROBE_REF_S is near the
# probe's median on a 2-vCPU Xeon host.
PROBE_N = 9
PROBE_SEED = 9
PROBE_EVERY_S = 0.01
PROBE_LEAST = 4
PROBE_REF_S = 0.45e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="vertexnim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--share", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Put ``src/`` first on the path; refuse when the checkout lacks it."""
    if not (SRC / "vertexnim" / "__init__.py").is_file():
        sys.exit(f"error: no vertexnim package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


# ---------------------------------------------------------------- metrics


def tail_percentile(samples, basis: int) -> tuple:
    """Highest standard percentile with at least ``TAIL_BEYOND`` of
    ``basis`` samples above it, as ``(percentile, value)``, nearest-rank.

    ``basis`` is the sample count every run reaches (see
    :func:`min_passes`), so the percentile is the same in every run of a
    workload. Below 20 samples no percentile qualifies and the median
    stands in."""
    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if basis - nearest_rank(p, basis) >= TAIL_BEYOND:
            chosen = p
    return chosen, percentile_value(samples, chosen)


def percentile_value(samples, p: float) -> float:
    ordered = sorted(samples)
    return ordered[nearest_rank(p, len(ordered)) - 1]


def nearest_rank(p: float, count: int) -> int:
    rank = -(-p * count // 100)
    return max(1, min(count, int(rank)))


class Raised(str):
    """Answer of an op that raised; never a correct answer."""


def min_passes(wl, seconds: float) -> int:
    """Passes every run completes: as many as fit ``seconds`` at the
    workload's nominal pass time, and at least one."""
    return max(1, int(seconds / wl.nominal_pass_s))


def run_passes(wl, seconds: float) -> dict:
    """Complete passes until ``seconds`` have elapsed and at least
    :func:`min_passes` are done, with speed probes on a timer.

    Each op's first answer is kept, and later ones only when they differ
    from it: a run then holds no more objects after its first pass, so
    ``peak_rss_mb`` does not grow with the number of passes. Every op starts
    from a collected heap: the objects of set-up are frozen out of the
    collector and the garbage of each op is collected after it, untimed. So
    ``peak_rss_mb`` is the largest op's own footprint, not an accident of when
    the collector last ran, and no op pays for an earlier op's cycles."""
    least = min_passes(wl, seconds)
    clock = time.perf_counter
    starts, ends, pass_s = array("d"), array("d"), []
    answers = Answers(len(wl.ops))
    gc.collect()
    gc.freeze()
    with Probes() as probes:
        start = clock()
        while True:
            pass_start = clock()
            for index, op in enumerate(wl.ops):
                t0 = clock()
                try:
                    result = op.run()
                except Exception as exc:  # an op that raises is a counted failure
                    t1 = clock()
                    answer = Raised(f"{type(exc).__name__}: {exc}")
                else:
                    t1 = clock()
                    answer = op.answer(result)
                starts.append(t0)
                ends.append(t1)
                answers.add(index, answer)
                gc.collect()
            pass_s.append(clock() - pass_start)
            if clock() - start >= seconds and len(pass_s) >= least:
                break
        wall_s = clock() - start
    return {
        "starts": starts,
        "ends": ends,
        "probe_start": probes.start,
        "probe_s": probes.took,
        "basis": least * len(wl.ops),
        "probe_power": wl.probe_power,
        "pass_s": pass_s,
        "answers": answers,
        "wall_s": wall_s,
    }


class Probes:
    """Runs the speed probe every PROBE_EVERY_S of wall time, from a
    ``SIGALRM`` handler, while the ``with`` block runs; records when each
    probe started and how long it took."""

    def __init__(self):
        self.start, self.took = array("d"), array("d")
        self._probe = speed_probe()
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        if self._busy:  # the machine is so slow that a probe outlasts the period
            return
        self._busy = True
        try:
            a = time.perf_counter()
            self._probe()
            b = time.perf_counter()
            self.start.append(a)
            self.took.append(b - a)
        finally:
            self._busy = False


def speed_probe():
    """The probe job, a fixed workload that shares no code with vertexnim.

    The garbage collector is off while it runs, so its time does not depend
    on how many objects the program under test holds."""
    rng = random.Random(PROBE_SEED)
    edges = [pair for pair in oracle.slots(PROBE_N) if rng.random() < 0.5]

    def probe():
        collecting = gc.isenabled()
        gc.disable()
        try:
            oracle.Reference(PROBE_N, edges).value()
        finally:
            if collecting:
                gc.enable()

    return probe


def scaled_latencies(phase) -> array:
    """Each op's latency, less the probes run inside it, at reference speed."""
    starts, took, power = phase["probe_start"], phase["probe_s"], phase["probe_power"]
    out = array("d")
    for t0, t1 in zip(phase["starts"], phase["ends"]):
        lo, hi = bisect_left(starts, t0), bisect_left(starts, t1)
        net = t1 - t0 - sum(took[lo:hi])
        out.append(net * at_reference(probe_median(starts, took, t0, t1), power))
    return out


def at_reference(probe_s: float, power: float) -> float:
    """Factor from a time measured while the probe took ``probe_s`` to the
    same time at reference speed."""
    return (PROBE_REF_S / probe_s) ** power


def probe_median(starts, took, t0: float, t1: float) -> float:
    """Median time of the probes started within ``[t0, t1)``, or of the
    PROBE_LEAST nearest to its middle when fewer started within it."""
    lo, hi = bisect_left(starts, t0), bisect_left(starts, t1)
    if hi - lo < PROBE_LEAST:
        at = bisect_left(starts, (t0 + t1) / 2)
        lo = max(0, min(at - PROBE_LEAST // 2, len(starts) - PROBE_LEAST))
        hi = lo + PROBE_LEAST
    return statistics.median(took[lo:hi])


class Answers:
    """Answers per op: the first one, how often it repeated, and any other."""

    def __init__(self, ops: int):
        self.first = [None] * ops
        self.repeats = [0] * ops
        self.others = []

    def add(self, index: int, answer) -> None:
        if self.first[index] is None:
            self.first[index] = (answer,)
        elif self.first[index][0] == answer:
            self.repeats[index] += 1
        else:
            self.others.append((index, answer))

    def __len__(self) -> int:
        return sum(f is not None for f in self.first) + sum(self.repeats) + len(self.others)

    def __iter__(self):
        """``(index, answer, times)`` for every distinct answer recorded."""
        for index, first in enumerate(self.first):
            if first is not None:
                yield index, first[0], 1 + self.repeats[index]
        for index, answer in self.others:
            yield index, answer, 1


def count_failures(wl, *phases) -> tuple:
    """Answers the oracle rejects, and the first few of them; a phase is an
    iterable of ``(index, answer, times)``, such as :class:`Answers`."""
    expected = wl.expected()
    failed, examples = 0, []
    for answers in phases:
        for index, answer, times in answers:
            if isinstance(answer, Raised) or not wl.check(expected[index], answer):
                failed += times
                if len(examples) < 5:
                    examples.append({"op": index, "kind": wl.ops[index].kind,
                                     "times": times, "answer": repr(answer)[:200]})
    return failed, examples


def median_pass_s(lat, ops_per_pass: int) -> float:
    """One pass with every op at its median latency over the run's passes.

    Robust to a slow stretch of the machine in a way the median of a few
    whole-pass times is not; it leaves out the harness's time between ops."""
    return sum(statistics.median(lat[i::ops_per_pass]) for i in range(ops_per_pass))


def end_to_end(shares, ops_per_pass):
    """Metrics from the scaled latencies of every share; the raw ones go to
    the notes."""
    scaled, raw = array("d"), array("d")
    for share in shares:
        scaled += scaled_latencies(share)
        raw += array("d", (t1 - t0 for t0, t1 in zip(share["starts"], share["ends"])))
    lat_ms = [1e3 * x for x in scaled]
    percentile, tail = tail_percentile(lat_ms, sum(share["basis"] for share in shares))
    setups = [share["setup_s"] for share in shares]
    values = {
        "setup_s": statistics.median([scaled for scaled, _ in setups]),
        "pass_s": median_pass_s(scaled, ops_per_pass),
        "op_p50_ms": percentile_value(lat_ms, 50),
        "op_tail_ms": tail,
        "ops_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": statistics.median(share["peak_rss_mb"] for share in shares),
    }
    raw_ms = [1e3 * x for x in raw]
    wall_s = sum(share["wall_s"] for share in shares)
    notes = {
        "op_tail_percentile": percentile,
        "op_samples": len(lat_ms),
        "passes": [len(share["pass_s"]) for share in shares],
        "probes": [len(share["probe_s"]) for share in shares],
        "probe_share": sum(sum(share["probe_s"]) for share in shares) / wall_s,
        "probe_median_ms": [1e3 * statistics.median(share["probe_s"]) for share in shares],
        "setup_samples": setups,
        "peak_rss_mb": [share["peak_rss_mb"] for share in shares],
        "raw": {
            "pass_s": median_pass_s(raw, ops_per_pass),
            "op_p50_ms": percentile_value(raw_ms, 50),
            "op_tail_ms": percentile_value(raw_ms, percentile),
            "ops_per_s": len(raw_ms) / wall_s,
        },
    }
    return values, notes


# -------------------------------------------------------------- set-up


def set_up(args):
    """The workload and ``(scaled, raw)`` seconds of set-up: the package
    import, input generation and warm-up, less the probes run during it and
    scaled by them."""
    with Probes() as probes:
        t0 = time.perf_counter()
        wl = workload_class(args)(args.seed, work_dir(args))
        warm_up(wl)
        t1 = time.perf_counter()
        while len(probes.took) < PROBE_LEAST:  # a set-up shorter than a few periods
            signal.pause()
    raw = t1 - t0 - sum(probes.took[:bisect_left(probes.start, t1)])
    probe_s = probe_median(probes.start, probes.took, t0, t1)
    return wl, (raw * at_reference(probe_s, wl.probe_power), raw)


def workload_class(args):
    """The class of ``--workload``, after importing the package; sets the
    default seed when ``--seed`` is missing. Exits on an unknown name."""
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    return workloads.WORKLOADS[args.workload]


def warm_up(wl) -> None:
    """One untimed op per op kind, the smallest of each kind."""
    smallest = {}
    for op in wl.ops:
        if op.kind not in smallest or op.size < smallest[op.kind].size:
            smallest[op.kind] = op
    for op in smallest.values():
        op.run()


def work_dir(args) -> Path:
    return OUT_DIR / f"work-{args.workload}-{os.getpid()}"


def measure_share(args) -> None:
    """Set up, run passes for ``--seconds`` and write what the parent needs
    to ``--share``: timings, probes, answers and this process's peak RSS."""
    wl, setup_s = set_up(args)
    phase = run_passes(wl, args.seconds)
    share = {key: phase[key] for key in
             ("starts", "ends", "probe_start", "probe_s", "probe_power", "pass_s", "basis",
              "wall_s")}
    share["answers"] = plain_answers(phase["answers"])
    share["setup_s"] = setup_s
    share["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.share, "wb") as handle:
        pickle.dump(share, handle)


def measured_shares(args) -> list:
    """Run :data:`SHARES` fresh interpreters one after the other, each
    measuring ``seconds / SHARES``; their shares, answers restored."""
    OUT_DIR.mkdir(exist_ok=True)
    shares = []
    for i in range(SHARES):
        path = OUT_DIR / f"share-{args.workload}-{os.getpid()}-{i}.pkl"
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", repr(args.seconds / SHARES),
                 "--share", str(path)],
                capture_output=True, text=True, timeout=150, cwd=ROOT,
            )
            if proc.returncode != 0:
                sys.exit(f"error: measuring process {i} exited {proc.returncode}\n"
                         + proc.stderr[-2000:])
            with open(path, "rb") as handle:
                share = pickle.load(handle)
        finally:
            path.unlink(missing_ok=True)
        share["answers"] = restored_answers(share["answers"])
        shares.append(share)
    return shares


def plain_answers(answers) -> list:
    """``(index, (raised, answer), times)`` rows without :class:`Raised`
    instances, which another ``__main__`` could not unpickle."""
    return [(index, (True, str(answer)) if isinstance(answer, Raised) else (False, answer), times)
            for index, answer, times in answers]


def restored_answers(rows) -> list:
    """The inverse of :func:`plain_answers`."""
    return [(index, Raised(answer) if raised else answer, times)
            for index, (raised, answer), times in rows]


# ------------------------------------------------------------ metadata


def metadata(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


def commit() -> str:
    """HEAD of the checkout's git metadata, or ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------- main


def report(args, values, units, attempted, failed, notes):
    print("meta " + json.dumps({**metadata(args), **notes}, sort_keys=True))
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.share:
            measure_share(args)
            return 0
        if args.trace:
            wl, _ = set_up(args)
            return traced_run(args, wl)
        workload = workload_class(args)
        shares = measured_shares(args)
        # the oracle's copy of the inputs: the same seed gives the same ones
        wl = workload(args.seed, work_dir(args))
        failed, examples = count_failures(wl, *(share["answers"] for share in shares))
        values, notes = end_to_end(shares, len(wl.ops))
        notes["failures"] = examples
        attempted = sum(times for share in shares for _, _, times in share["answers"])
        report(args, values, END_TO_END_UNITS, attempted, failed, notes)
        return 0
    finally:
        shutil.rmtree(work_dir(args), ignore_errors=True)


def traced_run(args, wl) -> int:
    """Half the time untraced, half traced, then one pass counting memo
    hits. Per-layer metrics come from the traced half; the overhead ratio
    compares the two halves."""
    import spans

    plain = run_passes(wl, args.seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(wl, args.seconds / 2)
    finally:
        tracer.restore()
    hits = spans.MemoHits()
    hits.install()
    try:
        counted = run_passes(wl, 0)
    finally:
        hits.restore()
    values = spans.per_layer(tracer, len(traced["pass_s"]))
    values["solver.memo_hit_ratio"] = hits.ratio()
    values["solver.memo_bytes_per_entry"] = memo_bytes_per_entry(wl)
    values["trace.overhead_ratio"] = (
        median_pass_s(scaled_latencies(traced), len(wl.ops))
        / median_pass_s(scaled_latencies(plain), len(wl.ops))
    )
    phases = [plain["answers"], traced["answers"], counted["answers"]]
    failed, examples = count_failures(wl, *phases)
    dump_trace(args, tracer, hits)
    units = {name: trace_unit(name) for name in values}
    notes = {"failures": examples, "passes": [len(plain["pass_s"]), len(traced["pass_s"])]}
    report(args, values, units, sum(map(len, phases)), failed, notes)
    return 0


def memo_bytes_per_entry(wl) -> float:
    """Memo bytes per entry under tracemalloc, on the largest search graph
    (n = 18 at full scale); 0 on workloads that do not search."""
    import tracemalloc

    import vertexnim

    graphs = getattr(wl, "graphs", None)
    if not graphs:
        return 0.0
    n, edges = max(graphs, key=lambda g: (g[0], len(g[1])))
    g = vertexnim.Graph(n, edges)
    memo = vertexnim.MemoTable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vertexnim.grundy(g, vertexnim.MoveRule.ODD, memo)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / len(memo)


def dump_trace(args, tracer, hits):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["id", "parent", "layer", "name", "start", "end",
                              "child_s", "info"],
                   "spans": tracer.spans,
                   "hot": tracer.hot,
                   "memo_hits_misses": hits.counts}, handle)


def trace_unit(name: str) -> str:
    for suffix, unit in (("bytes_per_entry", "B/entry"), ("bytes_per_s", "B/s"),
                         ("graphs_per_s", "graphs/s"), ("instances_per_s", "1/s"),
                         ("output_bytes", "B"), ("_ratio", "ratio"), ("_us", "us"),
                         ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if ".nodes_per_s." in name:
        return "nodes/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
