"""Command-line contract: exit codes, artifacts, report determinism."""

import ast
import csv
import hashlib
import inspect
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import osbm
from conftest import golden_note
from osbm.cli import main
from osbm.instances import load_problem, save_problem
from osbm.offline import load_solution
from test_instances import write_ratings_fixture

# sha256 of the files the benchmark's two workloads write at seed 7 on the
# seed-11 recipes (see TestBenchmarkOutputs).  The marginals were re-recorded
# (from e639168e...) when the coverage ascent took the exact gradient and F
# in place of Monte Carlo estimates.  The coverage report was re-recorded
# (from d09e932b...) when the simplex took devex pricing: each epigraph
# optimum holds, but the vertex and so the guided policies' rows move.
BENCHMARK_GOLDENS = {
    "budget report.csv": "59b581efd5dee765aebc21b96d8832e7d52cc728a3c36f730ecdb39fa29d124a",
    "coverage report.csv": "3ce8237312d06c338a25727b5a06fa7a01f69262ca5f9b86409c40965e5f8c7b",
    "coverage marginals.x": "06eda073d60010391fd1c8e992807d1c1ed8e41e8acadd2a96227ef87fa1a7ad",
}


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


class TestPublicNames:
    def test_package_names_stay(self):
        # the library's public names: dropping one breaks the code that calls it
        assert {name for name, value in vars(osbm).items()
                if not name.startswith("_") and not inspect.ismodule(value)} == {
            "ArrivalSequence", "BudgetAdditiveObjective", "CoverageObjective",
            "EdgeFeatures", "Instance", "LinearObjective", "LinearProgram",
            "LpSolution", "OfflineSolution", "PerUserCoverageObjective", "Problem",
            "RunMetrics", "SampledSupport", "SubmodularObjective", "build_instance",
            "build_matching_lmo", "build_objective", "build_special_lp",
            "compute_benchmark", "continuous_greedy", "dependent_round_stars",
            "expected_opt", "generate_synthetic", "hindsight_optimal",
            "independent_sample", "ingest_ratings", "load_problem", "make_policy",
            "multilinear_exact", "multilinear_mc",
            "pipage_round", "run_trial", "sample_arrivals", "sample_support",
            "saturate_marginals", "save_problem", "select_per_star", "simulate",
            "solve", "solve_offline_lp", "validate"}

    def test_bounds_and_guides_are_made_in_offline_only(self):
        # online replays a run against the bound it is given, and the cli
        # picks which bound that is; neither makes a bound or a guide
        def imported(module):
            tree = ast.parse(Path(inspect.getfile(module)).read_text(encoding="utf-8"))
            return {(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}

        online = imported(osbm.online)
        assert not {name for module, name in online
                    if "offline" in (name, (module or "").rpartition(".")[2])}
        assert "multilinear_estimate" not in {name for _, name in online}
        assert not {name for _, name in imported(osbm.cli)} & {
            "multilinear_estimate", "guide_scaled", "OfflineSolution"}
        assert osbm.compute_benchmark is osbm.offline.compute_benchmark


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

    @pytest.mark.parametrize("which", ["ratings", "genres"])
    def test_non_utf8_input_exits_2_naming_file(self, tmp_path, which):
        files = dict(zip(("ratings", "genres"), write_ratings_fixture(
            tmp_path, n_users=4, n_movies=3)))
        files[which].write_bytes(files[which].read_bytes() + b"m\xff,g\xfe\n")
        code, _, err = run_cli(
            "ingest", "--ratings", str(files["ratings"]), "--genres",
            str(files["genres"]), "--users", "4", "--movies", "3",
            "--out", str(tmp_path / "o"))
        assert code == 2
        assert str(files[which]) in err
        assert "Traceback" not in err

    def test_repeated_rating_exits_2_naming_file(self, tmp_path):
        ratings, genres = write_ratings_fixture(tmp_path, n_users=4, n_movies=3)
        ratings.write_text(ratings.read_text() + ratings.read_text().splitlines()[0] + "\n")
        code, _, err = run_cli(
            "ingest", "--ratings", str(ratings), "--genres", str(genres),
            "--users", "4", "--movies", "3", "--out", str(tmp_path / "o"))
        assert code == 2
        assert str(ratings) in err and "again" in err
        assert "Traceback" not in err

    def test_all_zero_ratings_ingest_then_offline(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        genres = tmp_path / "genres.csv"
        ratings.write_text("u1,m1,0\nu1,m2,0\nu2,m1,0\nu1,m3,0\n")
        genres.write_text("m1,g1\nm2,g2\nm3,g1\n")
        inst_file = tmp_path / "inst.txt"
        code, _, err = run_cli(
            "ingest", "--ratings", str(ratings), "--genres", str(genres),
            "--users", "2", "--movies", "3", "--out", str(inst_file))
        assert code == 0, err
        code, out, err = run_cli("offline", "--instance", str(inst_file),
                                 "--out", str(tmp_path / "x.txt"))
        assert code == 0, err
        assert "benchmark=lp:0" in out

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

    def test_lp_is_the_default_solver(self, tmp_path):
        # the default writes --solver lp's bytes; there is no auto solver
        inst_file = small_problem_file(tmp_path)
        f1, f2 = tmp_path / "x1.txt", tmp_path / "x2.txt"
        assert run_cli("offline", "--instance", str(inst_file), "--out", str(f1))[0] == 0
        assert run_cli("offline", "--instance", str(inst_file), "--solver", "lp",
                       "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()
        code, _, err = run_cli("offline", "--instance", str(inst_file), "--solver", "auto",
                               "--out", str(f1))
        assert code == 2 and "invalid choice: 'auto'" in err

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

    def test_greedy_guide_scaled_benchmark_reads_the_artifact(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        x_file = tmp_path / "x.txt"
        assert run_cli("offline", "--instance", str(inst_file),
                       "--out", str(x_file))[0] == 0
        benchmarks = []
        for algorithm in ("greedy", "marginal-sampling"):
            code, out, err = run_cli(
                "simulate", "--instance", str(inst_file), "--x-star", str(x_file),
                "--algorithm", algorithm, "--benchmark", "guide-scaled",
                "--trials", "20", "--seed", "2")
            assert code == 0, err
            benchmarks.append(out.split("benchmark=guide-scaled:")[1].split()[0])
        assert benchmarks[0] == benchmarks[1]

    def test_refused_policy_exits_before_the_bound(self, tmp_path, monkeypatch):
        # contention resolution refuses fractional rates; it says so before
        # `guide-scaled` is made from the LP artifact, not after
        from conftest import small_instance
        from osbm import cli
        from osbm.instances import EdgeFeatures, Problem

        rng = np.random.default_rng(5)
        inst = small_instance(rng)
        assert any(r != 1.0 for r in inst.rates)
        problem = Problem(instance=inst, kind="budget_additive", budget=1.0,
                          features=EdgeFeatures(edge_weights=0.2 + rng.random(inst.n_edges)))
        inst_file, x_file = tmp_path / "frac.txt", tmp_path / "x.txt"
        save_problem(problem, inst_file)
        assert run_cli("offline", "--instance", str(inst_file), "--out", str(x_file))[0] == 0
        made = []
        make = cli.compute_benchmark
        monkeypatch.setattr(cli, "compute_benchmark",
                            lambda *a, **kw: made.append(a[0]) or make(*a, **kw))
        args = ["simulate", "--instance", str(inst_file), "--x-star", str(x_file),
                "--algorithm", "contention-resolution", "--benchmark", "guide-scaled",
                "--trials", "5"]
        code, out, err = run_cli(*args)
        assert code == 1 and out == ""
        assert err == ("error: contention-resolution assumes integral rates (rate 1 "
                       "per type, one type per round); enable the fractional-rate "
                       "override to run it anyway\n")
        assert made == []
        code, out, err = run_cli(*args, "--allow-fractional-cr")
        assert code == 0, err
        assert made == ["guide-scaled"]

    @pytest.mark.parametrize("algorithm,bound,message", [
        ("marginal-sampling", "lp", "marginal-sampling needs offline edge marginals"),
        ("contention-resolution", "lp",
         "contention-resolution needs offline edge marginals"),
        ("dependent-rounding", "lp", "dependent-rounding needs offline edge marginals"),
        ("greedy", "guide-scaled", "guide-scaled benchmark needs edge marginals")],
        ids=["marginal-sampling", "contention-resolution", "dependent-rounding",
             "guide-scaled"])
    def test_missing_guide_is_a_usage_error(self, tmp_path, algorithm, bound, message):
        # a guided policy or a guide-scaled bound without --x-star is a
        # missing input: exit 2, before any trial runs
        inst_file = small_problem_file(tmp_path)
        code, out, err = run_cli(
            "simulate", "--instance", str(inst_file), "--algorithm", algorithm,
            "--benchmark", bound, "--trials", "5")
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("corrupt", ["truncated", "non_finite", "infeasible",
                                         "not_utf8", "repeated_x", "missing_header"])
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
        elif corrupt == "infeasible":
            lines = [" ".join(ln.split()[:2] + ["5"]) if ln.startswith("x ")
                     else ln for ln in lines]
        elif corrupt == "repeated_x":
            lines.append(" ".join(lines[first_x].split()[:2] + ["0.25"]))
        elif corrupt == "missing_header":
            del lines[0]
        x_file.write_text("\n".join(lines) + "\n")
        if corrupt == "not_utf8":
            x_file.write_bytes(x_file.read_bytes() + b"\xff\xfe\n")
        message = {"not_utf8": "not a solution file (not UTF-8 text)",
                   "missing_header": "not a solution file (missing 'osbm-solution/1')"}
        for algorithm in ("greedy", "dependent-rounding"):
            code, _, err = run_cli(
                "simulate", "--instance", str(inst_file), "--x-star",
                str(x_file), "--algorithm", algorithm, "--trials", "5")
            assert code == 2
            assert str(x_file) in err
            assert "Traceback" not in err
            if corrupt in message:
                assert err == f"error: {x_file}: {message[corrupt]}\n"

    @pytest.mark.parametrize("corrupt", [
        "missing_header", "truncated_edge", "missing_eta", "negative_features",
        "fw_index", "uw_negative_index", "uw_unknown_type", "dangling_endpoint",
        "not_utf8", "budget_nan", "budget_negative", "q_negative_index",
        "q_index_past_features", "rate_nan", "fw_nan", "coverage_without_fw",
        "linear_without_weights", "repeated_T", "dropped_weight", "q_unknown_edge"])
    def test_malformed_instance_exits_2_naming_file(self, tmp_path, corrupt):
        inst_file = small_problem_file(tmp_path)
        lines = inst_file.read_text().splitlines()
        first_e = next(k for k, ln in enumerate(lines) if ln.startswith("e "))
        if corrupt == "missing_header":
            del lines[0]
        elif corrupt == "truncated_edge":
            lines[first_e] = " ".join(lines[first_e].split()[:2])
        elif corrupt == "missing_eta":
            lines = [ln for ln in lines if not ln.startswith("eta ")]
        elif corrupt == "negative_features":
            lines += ["features -1"]
        elif corrupt == "fw_index":
            lines += ["features 2", "fw 2 0.5"]
        elif corrupt == "uw_negative_index":
            lines += ["features 2", "uw v0 -1 0.5"]
        elif corrupt == "uw_unknown_type":
            lines += ["features 2", "uw nobody 0 0.5"]
        elif corrupt == "dangling_endpoint":
            tok = lines[first_e].split()
            lines[first_e] = " ".join(tok[:2] + ["ghost"] + tok[3:])
        elif corrupt.startswith("budget_"):
            value = "nan" if corrupt == "budget_nan" else "-1"
            lines = [f"budget {value}" if ln.startswith("budget ") else ln
                     for ln in lines]
        elif corrupt == "q_unknown_edge":
            lines += ["features 2", "q ghost 0 1"]
        elif corrupt.startswith("q_"):
            z = "-1" if corrupt == "q_negative_index" else "5000"
            lines += [f"q {lines[first_e].split()[1]} {z} 3"]
        elif corrupt == "rate_nan":
            first_v = next(k for k, ln in enumerate(lines) if ln.startswith("v "))
            lines[first_v] = " ".join(lines[first_v].split()[:2] + ["nan"])
        elif corrupt == "fw_nan":
            lines += ["features 2", "fw 0 nan"]
        elif corrupt == "coverage_without_fw":  # feature sets, no feature weights
            lines = [ln.replace("budget_additive", "coverage") for ln in lines]
            lines += ["features 2", f"q {lines[first_e].split()[1]} 0 1"]
        elif corrupt == "repeated_T":
            lines += ["T 2000"]
        elif corrupt == "dropped_weight":
            lines[first_e] = " ".join(lines[first_e].split()[:4])
        elif corrupt == "linear_without_weights":
            lines = [" ".join(ln.split()[:4]) if ln.startswith("e ")
                     else ln.replace("budget_additive", "linear") for ln in lines]
        inst_file.write_text("\n".join(lines) + "\n")
        if corrupt == "not_utf8":
            inst_file.write_bytes(inst_file.read_bytes() + b"\xff\xfe\n")
        code, _, err = run_cli("simulate", "--instance", str(inst_file),
                               "--algorithm", "greedy", "--trials", "5")
        assert code == 2
        assert str(inst_file) in err
        assert "Traceback" not in err
        message = {"not_utf8": "not an instance file (not UTF-8 text)",
                   "missing_header": "not an instance file (missing 'osbm-instance/1')",
                   "missing_eta": "missing T or eta record"}
        if corrupt in message:
            assert err == f"error: {inst_file}: {message[corrupt]}\n"

    def test_a_bound_that_cannot_be_made_exits_1(self, tmp_path):
        # the budget recipe's 201 branches over T=200 are past the exact
        # expectation's enumeration budget: a runtime failure, not a usage one
        inst_file = tmp_path / "budget.txt"
        assert run_cli("generate", "--kind", "budget-additive", "--seed", "11",
                       "--out", str(inst_file))[0] == 0
        code, out, err = run_cli("simulate", "--instance", str(inst_file), "--algorithm",
                                 "greedy", "--benchmark", "brute", "--trials", "5")
        assert code == 1
        assert err == "error: exact mode exceeds the sequence enumeration budget\n"
        assert out == ""

    def test_zero_trials_rejected_at_parse_time(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        code, _, _ = run_cli("simulate", "--instance", str(inst_file),
                             "--algorithm", "greedy", "--trials", "0")
        assert code == 2


@pytest.mark.parametrize("seed", ["-1", "x"])
@pytest.mark.parametrize("command", ["generate", "ingest", "offline", "simulate",
                                     "experiment"])
def test_bad_seed_rejected_at_parse_time(tmp_path, command, seed):
    # a generator seed is an integer >= 0: numpy refuses a negative one, and a
    # run should not get as far as asking it
    inst_file = small_problem_file(tmp_path)
    ratings, genres = write_ratings_fixture(tmp_path, n_users=4, n_movies=3,
                                            leave_out={("user0", "m1")})
    out_file = tmp_path / "out.txt"
    argv = {
        "generate": ["--kind", "coverage", "--out", str(out_file)],
        "ingest": ["--ratings", str(ratings), "--genres", str(genres), "--users", "4",
                   "--movies", "3", "--out", str(out_file)],
        "offline": ["--instance", str(inst_file), "--solver", "continuous-greedy",
                    "--out", str(out_file)],
        "simulate": ["--instance", str(inst_file), "--algorithm", "greedy"],
        "experiment": ["--instance", str(inst_file), "--b", "1", "--trials", "3",
                       "--out", str(out_file)],
    }[command]
    code, out, err = run_cli(command, *argv, "--seed", seed)
    assert code == 2
    assert f"argument --seed: expected a non-negative integer, got {seed!r}" in err
    assert out == ""
    assert not out_file.exists()


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

    def test_sweep_draws_each_trials_arrivals_once(self, tmp_path, monkeypatch):
        from osbm import online as online_mod

        inst_file = small_problem_file(tmp_path)
        horizon = load_problem(inst_file).instance.horizon
        calls = []
        draw = online_mod.sample_arrivals
        monkeypatch.setattr(online_mod, "sample_arrivals",
                            lambda inst, s: calls.append(s) or draw(inst, s))
        args = ["experiment", "--instance", str(inst_file), "--b", "1,2",
                "--eta", "1,2", "--trials", "30", "--seed", "5"]
        held_all, held_some = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(*args, "--out", str(held_all))[0] == 0
        assert calls == list(range(5, 35))  # not once per cell and policy
        # a set with room for 10 streams draws the other 20 trials' streams
        # in each of the 4 cells for each of the 4 policies
        monkeypatch.setattr(online_mod, "STREAM_CELLS", 10 * (2 * horizon + 68))
        del calls[:]
        assert run_cli(*args, "--out", str(held_some))[0] == 0
        assert len(calls) == 10 + 20 * 4 * 4
        assert held_some.read_bytes() == held_all.read_bytes()
        # and the same bytes with small blocks spread over a pool
        monkeypatch.setattr(online_mod, "BLOCK_CELLS", 1)
        pooled = tmp_path / "r3.csv"
        assert run_cli(*args, "--workers", "2", "--out", str(pooled))[0] == 0
        assert pooled.read_bytes() == held_all.read_bytes()

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

    def test_matches_are_kept_only_for_histogram_rows(self, tmp_path, monkeypatch):
        # a budget-additive objective has no per-user coverage: its histogram
        # is the header alone, so no run keeps its trials' matches
        from osbm import cli

        keeps = []
        run = cli.simulate
        monkeypatch.setattr(cli, "simulate", lambda *a, **kw: keeps.append(
            kw["keep_matches"]) or run(*a, **kw))
        inst_file = small_problem_file(tmp_path)
        args = ["experiment", "--instance", str(inst_file), "--algorithms",
                "greedy,marginal-sampling", "--b", "1,2", "--trials", "10"]
        plain, report, hist = (tmp_path / name for name in ("r0.csv", "r1.csv", "h.csv"))
        assert run_cli(*args, "--out", str(plain))[0] == 0
        assert run_cli(*args, "--out", str(report), "--coverage-hist", str(hist))[0] == 0
        assert keeps == [False] * 8
        assert report.read_bytes() == plain.read_bytes()
        assert hist.read_text() == "algorithm,b,eta,bucket_lo,bucket_hi,mean_user_count\n"

    def test_failed_cells_write_error_rows(self, tmp_path, monkeypatch):
        # a failing offline solve costs its cell, a failing run its row; the
        # sweep goes on and every other row keeps its bytes
        from osbm import cli, lp

        inst_file = small_problem_file(tmp_path)
        args = ["experiment", "--instance", str(inst_file), "--algorithms",
                "greedy,marginal-sampling", "--b", "1,2,3", "--trials", "10"]
        clean, failed = tmp_path / "clean.csv", tmp_path / "failed.csv"
        assert run_cli(*args, "--out", str(clean))[0] == 0
        solve, run = lp.solve_offline_lp, cli.simulate

        def solve_but_b2(inst, objective):
            if inst.capacities[0] == 2:
                raise RuntimeError("offline program not optimal: iteration_limit")
            return solve(inst, objective)

        def run_but_greedy(inst, objective, name, **kw):
            if name == "greedy":
                raise ValueError("greedy is down")
            return run(inst, objective, name, **kw)

        monkeypatch.setattr(lp, "solve_offline_lp", solve_but_b2)
        monkeypatch.setattr(cli, "simulate", run_but_greedy)
        code, out, _ = run_cli(*args, "--out", str(failed))
        assert code == 0
        assert out == f"wrote {failed}: 6 rows\n"
        want = []
        for line in clean.read_text().splitlines():
            row = line.split(",")
            if row[2:4] == ["2", "1"]:
                row[4:] = ["0", "", "", "lp", "", "", "offline program not optimal: "
                           "iteration_limit"]
            elif row[0] == "greedy":
                row[5:7], row[9:] = ["", ""], ["", "greedy is down"]
            want.append(",".join(row))
        assert failed.read_text().splitlines() == want
        assert sum(line.endswith(",") for line in want) == 2  # marginal sampling, b 1 and 3

    @pytest.mark.parametrize("flag, value", [
        ("--b", "1,x"), ("--b", "1,,2"), ("--b", "2.5"), ("--eta", "0"),
        ("--algorithms", ","), ("--algorithms", "greedy,")])
    def test_malformed_list_flag_exits_2(self, tmp_path, flag, value):
        inst_file = small_problem_file(tmp_path)
        report = tmp_path / "r.csv"
        code, _, err = run_cli("experiment", "--instance", str(inst_file),
                               "--trials", "5", flag, value, "--out", str(report))
        assert code == 2
        assert flag in err
        assert "Traceback" not in err
        assert not report.exists()

    def test_unknown_algorithm_exits_2(self, tmp_path):
        inst_file = small_problem_file(tmp_path)
        code, _, err = run_cli("experiment", "--instance", str(inst_file),
                               "--algorithms", "psychic", "--out",
                               str(tmp_path / "r.csv"))
        assert code == 2
        assert "psychic" in err


class TestBenchmarkOutputs:
    def test_seed_7_workload_outputs(self, tmp_path):
        # the commands of perfbench's budget-sweep and coverage-sweep-ascent
        # workloads, run once each: a change that keeps results keeps bytes
        algorithms = "marginal-sampling,contention-resolution,greedy,dependent-rounding"
        outputs = {}
        for name, kind, b, eta, trials in (
                ("budget", "budget-additive", "1,2,3,5,10,15", "1,2", "170"),
                ("coverage", "coverage", "1,5,15", "1", "50")):
            inst_file, report = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
            assert run_cli("generate", "--kind", kind, "--seed", "11",
                           "--out", str(inst_file))[0] == 0
            assert run_cli("experiment", "--instance", str(inst_file),
                           "--algorithms", algorithms, "--b", b, "--eta", eta,
                           "--trials", trials, "--seed", "7", "--workers", "1",
                           "--out", str(report))[0] == 0
            outputs[f"{name} report.csv"] = report
        marginals = tmp_path / "coverage.x"
        assert run_cli("offline", "--instance", str(tmp_path / "coverage.txt"),
                       "--solver", "continuous-greedy", "--steps", "12",
                       "--grad-samples", "20", "--seed", "7",
                       "--out", str(marginals))[0] == 0
        outputs["coverage marginals.x"] = marginals
        for name, path in outputs.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == \
                BENCHMARK_GOLDENS[name], golden_note(name)
