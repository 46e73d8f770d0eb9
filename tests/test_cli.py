"""Command-line contract: exit codes, artifacts, report determinism."""

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from osbm.cli import main
from osbm.instances import load_problem, save_problem
from osbm.offline import load_solution
from test_instances import write_ratings_fixture


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def small_problem_file(tmp_path, rng_seed=0):
    """Hand-sized instance file reusing the budget-additive schema."""
    from conftest import small_instance
    from osbm.instances import EdgeFeatures, Problem

    rng = np.random.default_rng(rng_seed)
    inst = small_instance(rng, integral=True)
    w = 0.2 + rng.random(inst.n_edges)
    problem = Problem(
        instance=inst,
        features=EdgeFeatures(edge_weights=w),
        kind="budget_additive",
        budget=float(w.sum()) * 0.5,
    )
    path = tmp_path / "instance.txt"
    save_problem(problem, path)
    return path


class TestGenerate:
    def test_budget_recipe_summary_and_shape(self, tmp_path):
        out_file = tmp_path / "inst.txt"
        code, out, _ = run_cli("generate", "--kind", "budget-additive",
                               "--seed", "7", "--out", str(out_file))
        assert code == 0
        assert "|U|=100" in out and "|V|=200" in out and "T=200" in out
        prob = load_problem(out_file)
        assert prob.budget == 50.0

    def test_coverage_recipe(self, tmp_path):
        out_file = tmp_path / "inst.txt"
        code, out, _ = run_cli("generate", "--kind", "coverage",
                               "--seed", "1", "--out", str(out_file))
        assert code == 0
        assert "|U|=40" in out and "T=1000" in out

    def test_bad_kind_exits_2(self, tmp_path):
        code, _, _ = run_cli("generate", "--kind", "nope", "--out",
                             str(tmp_path / "x"))
        assert code == 2


class TestIngest:
    def test_counts_reported(self, tmp_path):
        ratings, genres = write_ratings_fixture(
            tmp_path, n_users=8, n_movies=6, leave_out={("user0", "m0")})
        out_file = tmp_path / "inst.txt"
        code, out, _ = run_cli(
            "ingest", "--ratings", str(ratings), "--genres", str(genres),
            "--users", "8", "--movies", "6", "--out", str(out_file))
        assert code == 0
        assert "|U|=6" in out and "|V|=8" in out

    def test_missing_ratings_file_exits_2_naming_path(self, tmp_path):
        genres = tmp_path / "genres.csv"
        genres.write_text("m0,g0\n")
        missing = tmp_path / "nowhere.csv"
        code, _, err = run_cli(
            "ingest", "--ratings", str(missing), "--genres", str(genres),
            "--users", "2", "--movies", "1", "--out", str(tmp_path / "o"))
        assert code == 2
        assert str(missing) in err


class TestOffline:
    def test_lp_solver_writes_artifact(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        out_file = tmp_path / "x.txt"
        code, out, _ = run_cli("offline", "--instance", str(inst_file),
                               "--out", str(out_file))
        assert code == 0
        assert "benchmark=lp:" in out
        prob = load_problem(inst_file)
        sol = load_solution(out_file, prob.instance)
        assert sol.solver == "lp"

    def test_rerun_is_byte_identical(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        f1, f2 = tmp_path / "x1.txt", tmp_path / "x2.txt"
        assert run_cli("offline", "--instance", str(inst_file), "--seed", "3",
                       "--out", str(f1))[0] == 0
        assert run_cli("offline", "--instance", str(inst_file), "--seed", "3",
                       "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_linear_objective_estimate_equals_lp_value(self, tmp_path):
        from conftest import small_instance
        from osbm.instances import EdgeFeatures, Problem

        rng = np.random.default_rng(4)
        inst = small_instance(rng)
        problem = Problem(
            instance=inst,
            features=EdgeFeatures(edge_weights=0.2 + rng.random(inst.n_edges)),
            kind="linear",
        )
        inst_file = tmp_path / "lin.txt"
        save_problem(problem, inst_file)
        x_file = tmp_path / "x.txt"
        code, out, _ = run_cli("offline", "--instance", str(inst_file),
                               "--out", str(x_file))
        assert code == 0
        sol = load_solution(x_file, inst)
        assert abs(sol.objective_estimate - sol.benchmark_value) <= 1e-6

    def test_ascent_solver_runs(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        out_file = tmp_path / "x.txt"
        code, out, _ = run_cli(
            "offline", "--instance", str(inst_file), "--solver",
            "continuous-greedy", "--steps", "10", "--grad-samples", "10",
            "--out", str(out_file))
        assert code == 0
        assert "guide-scaled" in out


class TestSimulate:
    def test_simulate_with_artifact(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        x_file = tmp_path / "x.txt"
        run_cli("offline", "--instance", str(inst_file), "--out", str(x_file))
        code, out, _ = run_cli(
            "simulate", "--instance", str(inst_file), "--x-star", str(x_file),
            "--algorithm", "marginal-sampling", "--trials", "50",
            "--seed", "2")
        assert code == 0
        assert "ratio=" in out

    @pytest.mark.parametrize("corrupt", ["truncated", "non_finite", "infeasible"])
    def test_malformed_artifact_exits_2_naming_file(self, tmp_path, corrupt):
        inst_file = small_problem_file(tmp_path)
        x_file = tmp_path / "x.txt"
        assert run_cli("offline", "--instance", str(inst_file),
                       "--out", str(x_file))[0] == 0
        lines = x_file.read_text().splitlines()
        first_x = next(k for k, ln in enumerate(lines) if ln.startswith("x "))
        if corrupt == "truncated":
            lines[first_x] = " ".join(lines[first_x].split()[:2])
        elif corrupt == "non_finite":
            lines[first_x] = " ".join(lines[first_x].split()[:2] + ["nan"])
        else:
            lines = [" ".join(ln.split()[:2] + ["5"]) if ln.startswith("x ")
                     else ln for ln in lines]
        x_file.write_text("\n".join(lines) + "\n")
        for algorithm in ("greedy", "dependent-rounding"):
            code, _, err = run_cli(
                "simulate", "--instance", str(inst_file), "--x-star",
                str(x_file), "--algorithm", algorithm, "--trials", "5")
            assert code == 2
            assert str(x_file) in err
            assert "Traceback" not in err

    def test_zero_trials_rejected_at_parse_time(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        code, _, _ = run_cli("simulate", "--instance", str(inst_file),
                             "--algorithm", "greedy", "--trials", "0")
        assert code == 2


class TestExperiment:
    def test_row_count_and_recomputable_ratios(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        report = tmp_path / "report.csv"
        code, _, _ = run_cli(
            "experiment", "--instance", str(inst_file),
            "--algorithms", "greedy,marginal-sampling",
            "--b", "1,2,3", "--eta", "1,2", "--trials", "40",
            "--out", str(report))
        assert code == 0
        lines = report.read_text().splitlines()
        refs = [ln for ln in lines if ln.startswith("#")]
        assert len(refs) == 2
        rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
        assert len(rows) == 2 * 3 * 2  # algorithms x b values x eta values
        for row in rows:
            assert row["error"] == ""
            recomputed = float(row["mean"]) / float(row["benchmark_value"])
            assert math.isclose(recomputed, float(row["ratio"]), rel_tol=1e-12)

    def test_identical_plan_identical_bytes(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = ["experiment", "--instance", str(inst_file), "--algorithms",
                "greedy", "--b", "1,2", "--trials", "30", "--seed", "5"]
        assert run_cli(*args, "--out", str(r1))[0] == 0
        assert run_cli(*args, "--out", str(r2))[0] == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_coverage_histogram_for_per_user_objective(self, tmp_path):
        ratings, genres = write_ratings_fixture(
            tmp_path, n_users=8, n_movies=6,
            leave_out={(f"user{u}", f"m{m}") for u in range(8)
                       for m in range(6) if (u + m) % 3 == 0})
        inst_file = tmp_path / "inst.txt"
        run_cli("ingest", "--ratings", str(ratings), "--genres", str(genres),
                "--users", "8", "--movies", "6", "--rates", "integral",
                "--out", str(inst_file))
        report = tmp_path / "report.csv"
        hist = tmp_path / "hist.csv"
        code, _, _ = run_cli(
            "experiment", "--instance", str(inst_file), "--algorithms",
            "greedy", "--b", "1", "--trials", "20", "--out", str(report),
            "--coverage-hist", str(hist))
        assert code == 0
        hist_rows = list(csv.DictReader(hist.read_text().splitlines()))
        assert len(hist_rows) == 10
        total_users = sum(float(r["mean_user_count"]) for r in hist_rows)
        assert total_users == pytest.approx(8.0)

    def test_unknown_algorithm_exits_2(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        code, _, err = run_cli("experiment", "--instance", str(inst_file),
                               "--algorithms", "psychic", "--out",
                               str(tmp_path / "r.csv"))
        assert code == 2
        assert "psychic" in err
