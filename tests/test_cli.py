import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from vertexnim import (
    grid_graph,
    grundy_value,
    parse_graph,
    path_graph,
    serialize_graph,
    to_graph6,
)
from vertexnim.cli import build_parser, main

P4_TEXT = "4 3\n0 1\n1 2\n2 3\n"
C4_TEXT = "4 4\n0 1\n1 2\n2 3\n0 3\n"
PAW_TEXT = "4 4\n0 1\n0 2\n0 3\n1 2\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_bipartite_fast_path(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, "solve", p4_file)
        assert code == 0
        assert "grundy: 1" in out
        assert "bipartite edge-parity fast path" in out
        assert "optimal move: remove vertex 0" in out

    def test_terminal_position(self, capsys, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text(C4_TEXT)
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert "grundy: 0" in out
        assert "none (terminal position)" in out

    def test_non_bipartite_uses_search(self, capsys, tmp_path):
        path = tmp_path / "paw.txt"
        path.write_text(PAW_TEXT)
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert "grundy: 2" in out
        assert "brute-force search" in out

    def test_even_rule_closed_form(self, capsys, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run_cli(capsys, "solve", str(path), "--rule", "even")
        assert code == 0
        assert "grundy: 0" in out
        assert "vertex-parity closed form" in out

    def test_verify_flag_cross_checks(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, "solve", p4_file, "--verify")
        assert code == 0
        assert "verification: brute force agrees" in out

    def test_records_mode(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, "solve", p4_file, "--records")
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "solve"
        assert record["grundy"] == 1
        assert record["optimal_move"] == 0

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(P4_TEXT))
        code, out, _ = run_cli(capsys, "solve", "-")
        assert code == 0
        assert "grundy: 1" in out

    def test_graph6_input(self, capsys, tmp_path):
        path = tmp_path / "p4.g6"
        path.write_text("Ch\n")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert "grundy: 1" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/file")
        assert code == 2
        assert "error:" in err

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 0\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "line 2" in err

    def test_oversized_graph(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("256 0\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "limit of 255" in err

    def test_large_grid_fast_path(self, capsys, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text(serialize_graph(grid_graph(10, 10)))
        code, out, _ = run_cli(capsys, "solve", str(path), "--records")
        assert code == 0
        record = json.loads(out)
        assert record["n"] == 100 and record["edges"] == 180
        assert record["method"] == "bipartite edge-parity fast path"
        assert record["grundy"] == 0 and record["nodes_visited"] == 0

    def test_budget_exhaustion(self, capsys, tmp_path):
        path = tmp_path / "paw.txt"
        path.write_text(PAW_TEXT)
        code, _, err = run_cli(capsys, "solve", str(path), "--budget", "2")
        assert code == 3
        assert "budget" in err


class TestGenerate:
    def test_writes_witness_and_recipe(self, capsys, tmp_path):
        out_path = tmp_path / "w2.txt"
        code, out, _ = run_cli(capsys, "generate", "2", str(out_path))
        assert code == 0
        g = parse_graph(out_path.read_text())
        assert g.n == 7 and g.edge_count() == 8
        assert grundy_value(g) == 2
        record = json.loads((tmp_path / "w2.txt.recipe.json").read_text())
        assert record["k"] == 2 and record["certified"]
        assert "wrote" in out

    def test_stdout_is_parseable(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "0", "-")
        assert code == 0
        g = parse_graph(out)
        assert g.n == 3 and g.edge_count() == 2

    def test_records_mode(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "1", "-", "--records")
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "generate"
        assert record["k"] == 1 and record["base_case"]

    def test_size_cap(self, capsys):
        for k in ("7", "30"):
            code, _, err = run_cli(capsys, "generate", k, "-")
            assert code == 2
            assert "limit of 255 vertices" in err

    def test_negative_k(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--", "-1", "-")
        assert code == 2
        assert "nonnegative" in err

    def test_output_is_byte_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(capsys, "generate", "3", str(a))
        run_cli(capsys, "generate", "3", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (
            (tmp_path / "a.txt.recipe.json").read_bytes()
            == (tmp_path / "b.txt.recipe.json").read_bytes()
        )


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "closed-forms", "--max-n", "10"),
            ("verify", "euler-terminal", "--max-n", "6"),
            ("verify", "bipartite-parity", "--max-n", "6"),
            ("verify", "even-even", "--max-n", "6"),
            ("verify", "nim-sum", "--count", "50"),
            ("verify", "isolated-substitution", "--count", "50"),
            ("verify", "witness-construction", "--max-k", "3"),
        ],
    )
    def test_suites_pass(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "PASS" in out

    def test_records_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "closed-forms", "--max-n", "4", "--records"
        )
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "verify"
        assert record["passed"] is True
        assert record["instances_checked"] > 0

    def test_bipartite_parity_record_is_pinned(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "bipartite-parity", "--max-n", "6", "--records"
        )
        assert (code, err) == (0, "")
        assert out == (
            '{"command": "verify", "failures": [], "instances_checked": 44905, '
            '"passed": true, "scale": {"parts": [{"engine_crosschecks": 7, '
            '"max_n": 6}, {"check": "terminal-edge-parity", "max_n": 6}, '
            '{"check": "fast-path", "count": 500, "max_n": 12, "seed": 1021}]}, '
            '"theorem": "bipartite-parity", "truncated": false}\n'
        )

    def test_euler_terminal_record_is_pinned(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "euler-terminal", "--max-n", "6", "--records"
        )
        assert (code, err) == (0, "")
        assert out == (
            '{"command": "verify", "failures": [], "instances_checked": 67735, '
            '"passed": true, "scale": {"all_subsets_max_n": 5, "max_n": 6}, '
            '"theorem": "euler-terminal", "truncated": false}\n'
        )

    # the records of the suites whose solves share one memo per host graph,
    # recorded when every graph had its own fresh memo
    SHARED_MEMO_RECORDS = {
        ("closed-forms",): (
            '{"command": "verify", "failures": [], "instances_checked": 61, '
            '"passed": true, "scale": {"max_n": 12, "max_side": 5}, '
            '"theorem": "closed-forms", "truncated": false}\n'
        ),
        ("nim-sum", "--count", "250"): (
            '{"command": "verify", "failures": [], "instances_checked": 250, '
            '"passed": true, "scale": {"max_n": 9, "pairs": 250, "seed": 1009}, '
            '"theorem": "nim-sum", "truncated": false}\n'
        ),
        ("isolated-substitution", "--count", "250"): (
            '{"command": "verify", "failures": [], "instances_checked": 250, '
            '"passed": true, "scale": {"count": 250, "max_n": 8, "max_padding": 3, '
            '"seed": 1013}, "theorem": "isolated-substitution", "truncated": false}\n'
        ),
    }

    @pytest.mark.parametrize("argv", SHARED_MEMO_RECORDS)
    def test_shared_memo_records_are_pinned(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv, "--records")
        assert (code, out, err) == (0, self.SHARED_MEMO_RECORDS[argv], "")

    # exit code per budget 0, 30, 1000 and 4095, recorded when every graph had
    # its own fresh memo: one host's solves share one budget, and their total
    # is the derived graph's own solve
    SHARED_MEMO_BUDGET_EXITS = {
        "closed-forms": ((3, 3, 3, 0), 61),
        "nim-sum": ((3, 3, 0, 0), 500),
        "isolated-substitution": ((3, 3, 0, 0), 1000),
    }

    @pytest.mark.parametrize("theorem", SHARED_MEMO_BUDGET_EXITS)
    def test_shared_memo_budget_outcomes(self, capsys, theorem):
        codes, instances = self.SHARED_MEMO_BUDGET_EXITS[theorem]
        for budget, expected in zip((0, 30, 1000, 4095), codes):
            code, out, err = run_cli(capsys, "verify", theorem, "--budget", str(budget))
            assert code == expected, budget
            if code:
                assert (out, err) == (
                    "",
                    f"error: {theorem}: node budget exhausted after {budget} "
                    f"positions (budget {budget}); retry with a larger budget\n",
                )
            else:
                assert (out, err) == (
                    f"{theorem}: PASS ({instances} instances checked)\n", ""
                )

    def test_unknown_theorem(self, capsys):
        code = main(["verify", "flat-earth"])
        capsys.readouterr()
        assert code == 2

    def test_budget_exhaustion(self, capsys):
        # the sweep takes no budget; an engine cross-check needs more than 50
        code, out, err = run_cli(
            capsys, "verify", "even-even", "--max-n", "7", "--budget", "50"
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: even-even: node budget exhausted after 50 positions (budget 50); "
            "retry with a larger budget\n"
        )

    def test_budget_counts_positions_not_swept_graphs(self, capsys):
        # every engine solve fits in 100 positions; the 2,131,020 swept graphs
        # are not counted against it
        code, out, err = run_cli(
            capsys, "verify", "even-even", "--max-n", "7", "--budget", "100"
        )
        assert (code, err) == (0, "")
        assert out == "even-even: PASS (2131020 instances checked)\n"

    def test_budget_bounds_every_solve(self, capsys):
        # the sweep and the sample fit in 30, the 3x3 grid spot check does not
        code, _, err = run_cli(
            capsys, "verify", "bipartite-parity", "--max-n", "2", "--count", "1",
            "--budget", "30",
        )
        assert code == 3
        assert "budget" in err

    def test_records_are_byte_deterministic(self, capsys):
        argv = ("verify", "nim-sum", "--count", "30", "--seed", "11", "--records")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize(
        "theorem,flag",
        [
            ("nim-sum", "--max-k"),
            ("even-even", "--count"),
            ("even-even", "--seed"),
            ("even-even", "--max-k"),
            ("closed-forms", "--count"),
            ("closed-forms", "--seed"),
            ("closed-forms", "--max-k"),
            ("euler-terminal", "--count"),
            ("euler-terminal", "--seed"),
            ("euler-terminal", "--max-k"),
            ("euler-terminal", "--budget"),
            ("isolated-substitution", "--max-k"),
            ("witness-construction", "--max-n"),
            ("witness-construction", "--count"),
            ("witness-construction", "--seed"),
            ("bipartite-parity", "--max-k"),
        ],
    )
    def test_refuses_a_flag_the_suite_ignores(self, capsys, theorem, flag):
        code, out, err = run_cli(capsys, "verify", theorem, flag, "2")
        assert code == 2
        assert out == ""
        assert f"error: {theorem} does not take {flag}\n" == err

    def test_names_every_ignored_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "euler-terminal", "--max-n", "3", "--count", "5",
            "--seed", "9", "--budget", "1",
        )
        assert code == 2
        assert err == "error: euler-terminal does not take --budget, --count, --seed\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("nim-sum", "--count", "0"), "nim-sum: count must be at least 1, got 0"),
            (
                ("witness-construction", "--max-k", "-1"),
                "witness-construction: max_k must be at least 0, got -1",
            ),
            (
                ("nim-sum", "--max-n", "-1", "--count", "3"),
                "nim-sum: max_n must be at least 0, got -1",
            ),
            (
                ("closed-forms", "--max-n", "-2"),
                "closed-forms: max_n must be at least 0, got -2",
            ),
            (("euler-terminal", "--max-n", "9"), "at most 7, got 9"),
            (("even-even", "--max-n", "8"), "error: even-even is capped at n=7"),
            (
                ("bipartite-parity", "--max-n", "8"),
                "error: bipartite-parity is capped at n=7",
            ),
        ],
    )
    def test_bad_scale_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert message in err


class TestCensus:
    def test_minimal_grundy_2_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--max-n", "4")
        assert code == 0
        assert "minimal example for grundy 2: n=4 edges=4 graph6=C{" in out

    def test_records_mode(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--max-n", "4", "--records")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        minimal = [r for r in records if r.get("minimal_example_for") == 2]
        assert minimal == [
            {
                "command": "census",
                "minimal_example_for": 2,
                "n": 4,
                "edges": 4,
                "graph6": "C{",
            }
        ]
        row = [r for r in records if r.get("grundy") == 2 and r.get("n") == 4]
        assert row[0]["count"] == 12

    def test_default_scale_is_the_librarys(self, capsys):
        bare = run_cli(capsys, "census", "--records")
        assert bare == run_cli(capsys, "census", "--max-n", "7", "--records")
        assert bare[0] == 0

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "census", "--max-n", "5")
        _, second, _ = run_cli(capsys, "census", "--max-n", "5")
        assert first == second

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "census", "--max-n", "8")
        assert code == 2
        assert "at most" in err

    def test_negative_max_n(self, capsys):
        code, out, err = run_cli(capsys, "census", "--max-n", "-1")
        assert code == 2
        assert out == "" and "got -1" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("verify", "nim-sum", "--budget", "-5", "--count", "2"),
            "node budget must be nonnegative, got -5",
        ),
        (
            ("generate", "2", "-", "--budget", "-3"),
            "node budget must be nonnegative, got -3",
        ),
    ],
    ids=["verify", "generate"],
)
def test_negative_budget_is_a_usage_error(capsys, argv, message):
    # the library refuses a negative budget; the CLI only reports it
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,accepted",
    [
        (("solve", None), True),
        (("generate", "2", "-"), True),
        (("verify", "nim-sum", "--count", "2"), True),
        (("census", "--max-n", "3"), False),
        (("convert", None), False),
    ],
    ids=["solve", "generate", "verify", "census", "convert"],
)
def test_budget_flag_contract(capsys, p4_file, argv, accepted):
    # --budget counts positions, so only the commands that solve take it
    argv = [p4_file if a is None else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--budget", "1000")
    if accepted:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --budget 1000" in err


def test_zero_budget_still_refuses_work(capsys, tmp_path):
    path = tmp_path / "paw.txt"
    path.write_text(PAW_TEXT)
    code, _, err = run_cli(capsys, "solve", str(path), "--budget", "0")
    assert code == 3
    assert "after 0 positions (budget 0)" in err


def test_zero_budget_refuses_the_whole_sweep(capsys):
    code, out, err = run_cli(capsys, "verify", "even-even", "--budget", "0")
    assert (code, out) == (3, "")
    assert err == (
        "error: even-even: node budget exhausted after 0 positions (budget 0); "
        "retry with a larger budget\n"
    )


class TestConvert:
    def test_edgelist_to_graph6(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, "convert", p4_file)
        assert code == 0
        assert out.strip() == "Ch"

    def test_graph6_to_edgelist(self, capsys, tmp_path):
        path = tmp_path / "p4.g6"
        path.write_text("Ch\n")
        code, out, _ = run_cli(capsys, "convert", str(path))
        assert code == 0
        assert parse_graph(out) == path_graph(4)

    def test_explicit_target(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, "convert", p4_file, "--to", "edgelist")
        assert code == 0
        assert out.startswith("4 3")

    def test_graph6_after_comment(self, capsys, tmp_path):
        # the format is always sniffed; there is no option to force it
        path = tmp_path / "p4.g6"
        path.write_text("# the path on four vertices\nCh\n")
        code, out, _ = run_cli(capsys, "convert", str(path))
        assert code == 0 and parse_graph(out) == path_graph(4)
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0 and "grundy: 1" in out
        for command in ("convert", "solve"):
            code, out, err = run_cli(capsys, command, str(path), "--format", "graph6")
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --format graph6" in err

    def test_output_file(self, capsys, p4_file, tmp_path):
        out_path = tmp_path / "converted.g6"
        code, _, _ = run_cli(capsys, "convert", p4_file, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().strip() == "Ch"

    def test_budget_refused(self, capsys, p4_file):
        # convert does no search, so it takes no budget
        code, out, err = run_cli(capsys, "convert", p4_file, "--budget", "1")
        assert code == 2
        assert out == ""
        assert "--budget" in err


class TestExitCodeOne:
    # the theorems are true, so the counterexample path only fires when a
    # suite is stubbed to report a failure
    def test_verify_reports_counterexample(self, capsys, monkeypatch):
        from vertexnim import cli as cli_module
        from vertexnim.theorems import CheckFailure, TheoremCheckResult, TheoremId

        def fake_verify(theorem, **kwargs):
            result = TheoremCheckResult(theorem, instances_checked=1)
            result.add_failure(CheckFailure("A_", 1, 0, note="stubbed"))
            return result

        monkeypatch.setattr(cli_module, "verify_theorem", fake_verify)
        code, out, _ = run_cli(capsys, "verify", "nim-sum")
        assert code == 1
        assert "FAIL" in out
        assert "counterexample: A_ expected 1 got 0 (stubbed)" in out

    def test_solve_verify_mismatch(self, capsys, monkeypatch, p4_file):
        from vertexnim import cli as cli_module
        from vertexnim.solver import SolveReport

        monkeypatch.setattr(
            cli_module, "grundy", lambda *a, **k: SolveReport(9, 1, 0)
        )
        code, out, _ = run_cli(capsys, "solve", p4_file, "--verify")
        assert code == 1
        assert "MISMATCH" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vertexnim", "solve", "-"],
        input=P4_TEXT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "grundy: 1" in proc.stdout


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "vertexnim", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv", [("census", "--max-n", "3"), ("generate", "2", "-")], ids=["census", "generate"]
)
def test_closed_output_pipe_is_quiet(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vertexnim", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


class TestParserReuse:
    """``main`` builds its parser once per process; no call sees another's."""

    def test_options_do_not_carry_over(self, capsys, p4_file, tmp_path):
        paw = tmp_path / "paw.txt"
        paw.write_text(PAW_TEXT)
        code, out, _ = run_cli(
            capsys, "solve", p4_file, "--verify", "--rule", "even", "--budget", "50",
            "--records",
        )
        assert code == 0
        first = json.loads(out)
        assert (first["rule"], first["verified"]) == ("even", True)
        code, out, _ = run_cli(
            capsys, "solve", p4_file, "--verify", "--rule", "even", "--budget", "5",
            "--records",
        )
        assert (code, out) == (3, "")
        code, out, _ = run_cli(capsys, "solve", p4_file, "--records")
        assert code == 0
        second = json.loads(out)
        assert (second["rule"], second["verified"], second["method"]) == (
            "odd",
            False,
            "bipartite edge-parity fast path",
        )
        # the paw's search visits 7 nodes, so a leftover budget of 5 would refuse it
        code, out, _ = run_cli(capsys, "solve", str(paw), "--records")
        assert (code, json.loads(out)["grundy"]) == (0, 2)

    def test_usage_error_goes_to_the_current_stderr(self, capsys, p4_file):
        main(["solve", p4_file])
        capsys.readouterr()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["solve", p4_file, "--rule", "bogus"])
        assert code == 2
        assert err.getvalue().startswith("usage: vertexnim solve ")
        assert "argument --rule: invalid choice: 'bogus'" in err.getvalue()
        assert capsys.readouterr().err == ""
        code, out, _ = run_cli(capsys, "solve", p4_file)
        assert code == 0
        assert "grundy: 1" in out

    def test_help_is_the_same_each_time(self, capsys):
        first = run_cli(capsys, "--help")
        assert first[0] == 0
        assert first[1].startswith("usage: vertexnim ")
        assert run_cli(capsys, "--help") == first

    def test_no_parser_is_built_after_the_first_call(self, capsys, monkeypatch, p4_file):
        main(["solve", p4_file])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["solve", p4_file]) == 0
        assert main(["convert", p4_file]) == 0
        assert built == []
        assert build_parser() is build_parser()


# Inputs for the fuzz below: short arbitrary text or bytes, near-valid edge
# lists (a graph's own text with a line dropped, doubled or changed, or small
# random rows with endpoints just outside the range) and graph6 strings, valid
# or with junk appended. Most argv are valid, so most calls reach a command.
_edge_rows = st.builds(
    lambda n, m, rows: "\n".join([f"{n} {m}"] + [" ".join(r) for r in rows]),
    st.integers(min_value=-1, max_value=9),
    st.integers(min_value=-1, max_value=9),
    st.lists(
        st.lists(st.integers(min_value=-1, max_value=9).map(str), max_size=3),
        max_size=10,
    ),
)
_serialized = st.builds(
    lambda g, edit: edit(serialize_graph(g).splitlines()),
    graphs(max_n=9),
    st.sampled_from(
        [
            lambda lines: "\n".join(lines),
            lambda lines: "\n".join(lines[:-1]),
            lambda lines: "\n".join(lines + lines[-1:]),
            lambda lines: "\n".join(["# c", *lines, "  # c", "0 0"]),
            lambda lines: "\n".join(lines).replace("1", "x", 1),
        ]
    ),
)
_graph6 = st.builds(
    lambda g, junk: to_graph6(g) + junk,
    graphs(max_n=9),
    st.sampled_from(["", "", "\n", "?", "~", " x"]),
)
_inputs = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
    st.binary(max_size=20),
    _edge_rows,
    _serialized,
    _graph6,
)
_stray = st.sampled_from([[], [], [], [], ["-x"], ["extra"], ["--"], ["-h"], ["--to"]])


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["solve", "convert"]))
    argv = [command, None]
    if command == "solve":
        flag, values = "--rule", ["odd", "even", "even", "bogus"]
    else:
        flag, values = "--to", ["edgelist", "graph6", "graph6", "bogus"]
    if draw(st.booleans()):
        argv += [flag, draw(st.sampled_from(values))]
    for flag in ("--verify", "--records"):
        if draw(st.booleans()):
            argv.append(flag)
    if command == "solve":
        argv += ["--budget", str(draw(st.integers(min_value=0, max_value=2000)))]
    return argv + draw(_stray)


@settings(max_examples=150, deadline=None)
@given(_inputs, _cli_argv())
def test_fuzzed_input_exits_with_a_known_code(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "wb") as handle:
            handle.write(text if isinstance(text, bytes) else text.encode("utf-8"))
        argv[1] = path
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
    assert code in (0, 1, 2, 3)
