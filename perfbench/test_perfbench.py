"""Tests of the benchmark itself: every workload at a tiny scale, the oracle
catching an injected wrong answer, the tail-percentile rule, the traced run,
and the command's output contract.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import vertexnim.solver  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work_dir():
    path = run.OUT_DIR / f"test-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(name, work_dir, seed=3):
    return workloads.WORKLOADS[name](seed, work_dir, tiny=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_is_correct(name, work_dir):
    wl = tiny(name, work_dir)
    phase = run.run_passes(wl, 0)
    assert len(phase["pass_s"]) == 1
    assert len(phase["answers"]) == len(wl.ops) == len(phase["starts"])
    failed, examples = run.count_failures(wl, phase["answers"])
    assert failed == 0, examples


def test_default_seed_search_matches_pins(work_dir):
    wl = workloads.Search(workloads.DEFAULT_SEED, work_dir)
    assert len(workloads.SEARCH_PINNED) == len(wl.ops)
    # the pins cover the n = 18 graphs the reference skips
    small = [i for i, (n, _) in enumerate(wl.graphs) if n <= 12]
    for i in small:
        n, edges = wl.graphs[i]
        assert workloads.oracle.Reference(n, edges).value() == workloads.SEARCH_PINNED[i]


def test_injected_wrong_answer_is_counted(work_dir, monkeypatch):
    real = vertexnim.solver.grundy

    def wrong(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, grundy=report.grundy ^ 1)

    monkeypatch.setattr(vertexnim.solver, "grundy", wrong)
    wl = tiny("search", work_dir)
    phase = run.run_passes(wl, 0)
    failed, _ = run.count_failures(wl, phase["answers"])
    assert failed / len(phase["answers"]) > 0


def test_raised_op_is_counted(work_dir, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(vertexnim.exhaustive, "bipartite_table", broken)
    wl = tiny("census", work_dir)
    phase = run.run_passes(wl, 0)
    failed, examples = run.count_failures(wl, phase["answers"])
    assert failed == 1
    assert examples[0]["kind"] == "bipartite"


def test_answers_cross_processes_as_plain_data(work_dir, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(vertexnim.exhaustive, "bipartite_table", broken)
    wl = tiny("census", work_dir)
    phase = run.run_passes(wl, 0)
    rows = pickle.loads(pickle.dumps(run.plain_answers(phase["answers"])))
    assert not any(isinstance(answer, run.Raised) for _, (_, answer), _ in rows)
    failed, examples = run.count_failures(wl, run.restored_answers(rows))
    assert failed == 1
    assert examples[0]["kind"] == "bipartite"


@pytest.mark.parametrize(
    "count, percentile",
    [(19, 50), (20, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95),
     (999, 95), (1000, 99), (10_000, 99.9)],
)
def test_tail_percentile_rule(count, percentile):
    samples = list(range(1, count + 1))
    chosen, value = run.tail_percentile(samples, count)
    assert chosen == percentile
    assert count - value >= run.TAIL_BEYOND or chosen == 50
    assert value == run.nearest_rank(percentile, count)


def test_tail_percentile_200_samples_is_p95():
    chosen, value = run.tail_percentile([float(x) for x in range(200, 0, -1)], 200)
    assert (chosen, value) == (95, 190.0)


def test_median_pass_uses_each_ops_median():
    assert run.median_pass_s([1.0, 10.0, 3.0, 30.0, 2.0, 20.0], 2) == 2.0 + 20.0


def test_latencies_are_scaled_by_the_probes_within_them():
    ref = run.PROBE_REF_S
    # probes every 0.1 s: reference speed until t = 5, half speed after
    starts = [0.1 * k for k in range(100)]
    phase = {
        "probe_start": starts,
        "probe_s": [ref if t < 5 else 2 * ref for t in starts],
        "starts": [1.0, 8.0, 4.7, 20.0],
        "ends": [1.3, 8.3, 5.3, 20.3],
        "probe_power": 0.8,
    }
    fast, slow, mixed, late = run.scaled_latencies(phase)
    power = 0.8
    # the probes that ran inside an op are not part of its latency
    assert fast == pytest.approx(0.3 - 3 * ref)
    assert slow == pytest.approx((0.3 - 6 * ref) / 2 ** power)
    # three probes inside at each speed: the median is between the two
    assert mixed == pytest.approx((0.6 - 9 * ref) / 1.5 ** power)
    # past the last probe the nearest ones stand in
    assert late == pytest.approx(0.3 / 2 ** power)


def test_probes_run_inside_a_timed_op():
    with run.Probes() as probes:
        end = time.perf_counter() + 20 * run.PROBE_EVERY_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probes.took) >= 5
    assert all(0 < t < run.PROBE_EVERY_S for t in probes.took)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, work_dir):
    wl = tiny(name, work_dir)
    tracer = spans.Tracer()
    bound = vertexnim.cli.parse_graph
    tracer.install()
    try:
        phase = run.run_passes(wl, 0)
    finally:
        tracer.restore()
    assert vertexnim.cli.parse_graph is bound
    assert vertexnim.graph.Position.movable_vertices.__name__ == "movable_vertices"
    assert run.count_failures(wl, phase["answers"])[0] == 0
    values = spans.per_layer(tracer, 1)
    values["solver.memo_hit_ratio"] = 0.0
    values["solver.memo_bytes_per_entry"] = 0.0
    values["trace.overhead_ratio"] = 1.0
    assert set(values) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert run.trace_unit(metric["name"]) == metric["unit"]


def test_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS


def test_command_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "requests", "--seed", "4",
         "--seconds", "0.3", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_package():
    lonely = run.OUT_DIR / f"lonely-{os.getpid()}"
    try:
        shutil.copytree(HERE, lonely / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=lonely,
        )
    finally:
        shutil.rmtree(lonely, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
