import json
import subprocess
import sys

import pytest

from vertexnim import grid_graph, grundy_value, parse_graph, path_graph, serialize_graph
from vertexnim.cli import main

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

    def test_unknown_theorem(self, capsys):
        code = main(["verify", "flat-earth"])
        capsys.readouterr()
        assert code == 2

    def test_budget_exhaustion(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "even-even", "--max-n", "7", "--budget", "100"
        )
        assert code == 3
        assert "budget" in err

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

    def test_budget_partial(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--max-n", "6", "--budget", "100")
        assert code == 3
        assert "PARTIAL" in out


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
        # sniffed and explicit formats accept the same texts
        path = tmp_path / "p4.g6"
        path.write_text("# the path on four vertices\nCh\n")
        outputs = [
            run_cli(capsys, "convert", str(path), *flag)
            for flag in ((), ("--format", "graph6"))
        ]
        assert outputs[0] == outputs[1]
        code, out, _ = outputs[0]
        assert code == 0 and parse_graph(out) == path_graph(4)
        code, out, _ = run_cli(capsys, "solve", str(path), "--format", "graph6")
        assert code == 0 and "grundy: 1" in out

    def test_output_file(self, capsys, p4_file, tmp_path):
        out_path = tmp_path / "converted.g6"
        code, _, _ = run_cli(capsys, "convert", p4_file, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().strip() == "Ch"


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
            cli_module, "grundy", lambda *a, **k: SolveReport(9, 1, 1, 0)
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
