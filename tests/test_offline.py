"""Offline phase: fractional ascent, pipage rounding, brute-force optima."""

import itertools
import math
import re

import numpy as np
import pytest

from conftest import small_instance, small_objective
from osbm.instances import ArrivalSequence, build_instance, generate_synthetic
from osbm import offline as offline_mod
from osbm.lp import build_matching_lmo, feasible_for_matching, solve, solve_offline_lp
from osbm.objectives import (
    LinearObjective,
    build_objective,
    multilinear_exact,
)
from osbm.offline import (
    OfflineSolution,
    SolutionError,
    _project_into_polytope,
    continuous_greedy,
    expected_opt,
    guide_scaled,
    hindsight_optimal,
    load_solution,
    lp_guide,
    save_solution,
)
from osbm.rounding import pipage_round


def grid_fractional_max(objective, inst, step=0.25):
    """Independent oracle: best multilinear value on a feasibility-filtered
    grid (an under-estimate of the true fractional optimum)."""
    m = inst.n_edges
    levels = np.arange(0.0, 1.0 + 1e-9, step)
    best = 0.0
    for point in itertools.product(levels, repeat=m):
        x = np.array(point)
        if feasible_for_matching(inst, x):
            best = max(best, multilinear_exact(objective, x))
    return best


class TestContinuousGreedy:
    def test_linear_objective_recovers_lp_optimum(self, rng):
        inst = small_instance(rng)
        w = 0.2 + rng.random(inst.n_edges)
        obj = LinearObjective(w)
        lp_value = solve(build_matching_lmo(inst, w)).value
        sol = continuous_greedy(obj, inst, steps=50, grad_samples=5, seed=1)
        assert float(w @ sol.x) == pytest.approx(lp_value, abs=1e-6)

    def test_single_step_is_one_oracle_vertex(self, rng):
        inst = small_instance(rng)
        obj = LinearObjective(0.2 + rng.random(inst.n_edges))
        sol = continuous_greedy(obj, inst, steps=1, grad_samples=4, seed=3)
        vertex = solve(build_matching_lmo(inst, obj.weights)).x
        np.testing.assert_allclose(sol.x, vertex * (1 - 1e-9), atol=1e-8)

    def test_output_always_feasible(self, rng):
        for kind in ("coverage", "budget_additive"):
            inst = small_instance(rng)
            obj = small_objective(kind, inst.n_edges, rng)
            sol = continuous_greedy(obj, inst, steps=30, grad_samples=30, seed=2)
            assert feasible_for_matching(inst, sol.x)

    def test_beats_discounted_grid_optimum(self, rng):
        # coarse-grid fractional optimum as an independent floor
        inst = build_instance(
            [("u0", 1), ("u1", 1)],
            [("v0", 0.8), ("v1", 0.6)],
            [("e0", "u0", "v0"), ("e1", "u1", "v0"), ("e2", "u0", "v1"),
             ("e3", "u1", "v1")],
            horizon=3)
        obj = small_objective("coverage", 4, rng)
        sol = continuous_greedy(obj, inst, steps=100, grad_samples=200, seed=4)
        achieved = multilinear_exact(obj, sol.x)
        floor = (1 - 1 / math.e - 0.05) * grid_fractional_max(obj, inst)
        assert achieved >= floor

    def test_deterministic_given_seed(self, rng):
        inst = small_instance(rng)
        obj = small_objective("budget_additive", inst.n_edges, rng)
        a = continuous_greedy(obj, inst, steps=12, grad_samples=12, seed=9)
        b = continuous_greedy(obj, inst, steps=12, grad_samples=12, seed=9)
        assert np.array_equal(a.x, b.x)

    def test_zero_grad_samples_is_rejected(self, rng):
        # an empty gradient batch divided 0 by 0, and the NaN gradient then
        # failed inside the linear oracle
        inst = small_instance(rng)
        obj = small_objective("budget_additive", inst.n_edges, rng)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            continuous_greedy(obj, inst, steps=2, grad_samples=0)
        # and an ascent of no steps
        with pytest.raises(ValueError, match="^steps must be >= 1$"):
            continuous_greedy(obj, inst, steps=0)

    def test_records_its_guide_scaled_bound(self, rng):
        inst = small_instance(rng)
        obj = small_objective("coverage", inst.n_edges, rng)
        sol = continuous_greedy(obj, inst, steps=5, grad_samples=5, seed=0)
        assert sol.benchmark_kind == "guide-scaled"
        assert sol.benchmark_value == guide_scaled(sol.objective_estimate)
        assert guide_scaled(1.0) == math.e / (math.e - 1.0)

    @pytest.mark.parametrize("x, outside", [([0.7, 0.3, 0.4], 1),   # star u0 at 1.1
                                            ([0.3, 0.7, 0.4], 0)],  # type v1 at 1.1
                             ids=["star", "type"])
    def test_projection_rescales_a_violated_row(self, x, outside):
        # a row over its bound by more than the 1e-9 shrink is scaled down
        # onto it; the edges outside it keep the shrunk value
        inst = build_instance([("u0", 1), ("u1", 1)], [("v0", 1.0), ("v1", 1.0)],
                              [("e0", "u0", "v0"), ("e1", "u1", "v1"),
                               ("x0", "u0", "v1")], horizon=2)
        x = np.array(x)
        shrunk = np.clip(x * (1.0 - 1e-9), 0.0, 1.0)
        assert not feasible_for_matching(inst, shrunk)
        y = _project_into_polytope(x, inst)
        assert feasible_for_matching(inst, y)
        assert np.all(y <= shrunk)
        assert y[outside] == shrunk[outside]
        # the violated row now sits at its bound
        assert max(load.max() for load in inst.loads(y)) == pytest.approx(1.0, abs=1e-12)


    def test_estimate_is_exact_on_small_ground_sets(self, rng):
        # F(x) over at most 20 edges is enumerated, not sampled
        for kind in ("coverage", "budget_additive", "linear"):
            inst = small_instance(rng)
            assert inst.n_edges <= 20
            obj = small_objective(kind, inst.n_edges, rng)
            sol = continuous_greedy(obj, inst, steps=5, grad_samples=5, seed=0)
            if kind == "linear":
                assert sol.objective_estimate == float(obj.weights @ sol.x)
                assert sol.objective_estimate == pytest.approx(
                    multilinear_exact(obj, sol.x), rel=1e-12)
            else:
                assert sol.objective_estimate == multilinear_exact(obj, sol.x)
            assert sol.estimate_std_error == 0.0


class TestLpGuide:
    def test_carries_the_lp_bound_and_an_estimate_at_its_guide(self, rng, monkeypatch):
        inst = small_instance(rng)
        obj = small_objective("coverage", inst.n_edges, rng)
        calls = []
        estimate = offline_mod.multilinear_estimate
        monkeypatch.setattr(offline_mod, "multilinear_estimate",
                            lambda *a: calls.append(a[2:]) or estimate(*a))
        sol = lp_guide(obj, inst, seed=4)
        x, value, _ = solve_offline_lp(inst, obj)
        assert sol.x.tobytes() == x.tobytes()
        assert (sol.solver, sol.seed, sol.benchmark_kind, sol.benchmark_value) == (
            "lp", 4, "lp", value)
        assert calls == [(200 + inst.n_edges, 4)]  # min(2000, 200 + m) samples
        assert (sol.objective_estimate, sol.estimate_std_error) == estimate(
            obj, x, 200 + inst.n_edges, 4)


class TestPipage:
    def test_integral_input_returned_unchanged(self, rng):
        inst = small_instance(rng)
        x = (rng.random(inst.n_edges) < 0.4).astype(float)
        # force feasibility: at most one edge per star kept
        for ui in range(inst.n_offline):
            edges = inst.edges_at_u[ui]
            on = [e for e in edges if x[e] == 1.0]
            for e in on[1:]:
                x[e] = 0.0
        out = pipage_round(x, inst, seed=0)
        np.testing.assert_array_equal(out, x.astype(bool))

    def test_two_edge_star_yields_exactly_one(self):
        inst = build_instance([("u0", 1)], [("v0", 1.0), ("v1", 1.0)],
                              [("e0", "u0", "v0"), ("e1", "u0", "v1")],
                              horizon=2)
        x = np.array([0.5, 0.5])
        n = 20_000
        counts = np.zeros(2)
        for s in range(n):
            out = pipage_round(x, inst, seed=s)
            assert out.sum() == 1
            counts += out
        sd = math.sqrt(0.25 / n)
        for c in counts:
            assert abs(c / n - 0.5) <= 3 * sd

    def test_marginals_preserved(self, rng):
        inst = build_instance(
            [("u0", 1), ("u1", 1)],
            [("v0", 1.0), ("v1", 1.0)],
            [("e0", "u0", "v0"), ("e1", "u1", "v0"), ("e2", "u0", "v1"),
             ("e3", "u1", "v1")],
            horizon=2)
        x = np.array([0.3, 0.45, 0.55, 0.2])
        n = 20_000
        counts = np.zeros(4)
        for s in range(n):
            counts += pipage_round(x, inst, seed=s)
        for e in range(4):
            sd = math.sqrt(x[e] * (1 - x[e]) / n)
            assert abs(counts[e] / n - x[e]) <= 3 * sd

    def test_degree_bounds_hold_every_run(self, rng):
        for _ in range(8):
            inst = small_instance(rng)
            # feasible fractional point from the matching oracle on noise
            x = solve(build_matching_lmo(inst, rng.random(inst.n_edges))).x
            x = np.minimum(x * 0.8 + 0.1 * rng.random(inst.n_edges), 1.0)
            for ui in range(inst.n_offline):
                edges = inst.edges_at_u[ui]
                s = x[edges].sum()
                if s > inst.capacities[ui]:
                    x[edges] *= inst.capacities[ui] / s
            for vi in range(inst.n_online):
                edges = inst.edges_at_v[vi]
                s = x[edges].sum()
                rhs = inst.eta * inst.rates[vi]
                if s > rhs:
                    x[edges] *= rhs / s
            for s in range(30):
                out = pipage_round(x, inst, seed=s)
                for ui in range(inst.n_offline):
                    assert out[inst.edges_at_u[ui]].sum() <= inst.capacities[ui]
                for vi in range(inst.n_online):
                    bound = math.ceil(inst.eta * inst.rates[vi] - 1e-9)
                    assert out[inst.edges_at_v[vi]].sum() <= bound

    def test_expected_value_not_below_multilinear(self, rng):
        inst = build_instance(
            [("u0", 1), ("u1", 1)],
            [("v0", 1.0), ("v1", 1.0)],
            [("e0", "u0", "v0"), ("e1", "u1", "v0"), ("e2", "u0", "v1"),
             ("e3", "u1", "v1")],
            horizon=2)
        obj = small_objective("coverage", 4, rng)
        x = np.array([0.3, 0.45, 0.55, 0.2])
        target = multilinear_exact(obj, x)
        n = 10_000
        vals = np.array([
            obj.value(np.flatnonzero(pipage_round(x, inst, seed=s)))
            for s in range(n)
        ])
        se = vals.std(ddof=1) / math.sqrt(n)
        assert vals.mean() >= target - 3 * se


class TestHindsight:
    def test_no_arrivals_is_zero(self, rng):
        inst = small_instance(rng)
        obj = small_objective("linear", inst.n_edges, rng)
        seq = ArrivalSequence(np.full(inst.horizon, -1, dtype=np.int64))
        value, edges = hindsight_optimal(inst, seq, obj)
        assert value == 0.0 and edges == ()

    def test_single_arrival_takes_argmax(self):
        inst = build_instance([("u0", 1), ("u1", 1)], [("v0", 1.0)],
                              [("e0", "u0", "v0"), ("e1", "u1", "v0")],
                              horizon=1)
        obj = LinearObjective([2.0, 3.0])
        value, edges = hindsight_optimal(
            inst, ArrivalSequence(np.array([0])), obj)
        assert value == 3.0 and edges == (1,)

    def test_capacity_binds_across_repeats(self):
        inst = build_instance([("u0", 1)], [("v0", 1.0)],
                              [("e0", "u0", "v0")], horizon=2)
        obj = LinearObjective([1.0])
        value, _ = hindsight_optimal(
            inst, ArrivalSequence(np.array([0, 0])), obj)
        assert value == 1.0

    def test_eta_limits_per_arrival_batch(self):
        inst = build_instance(
            [("u0", 1), ("u1", 1), ("u2", 1)], [("v0", 1.0)],
            [("e0", "u0", "v0"), ("e1", "u1", "v0"), ("e2", "u2", "v0")],
            horizon=1, eta=2)
        obj = LinearObjective([1.0, 1.0, 1.0])
        value, edges = hindsight_optimal(
            inst, ArrivalSequence(np.array([0])), obj)
        assert value == 2.0 and len(edges) == 2

    def test_matches_sequence_order_free_enumeration(self, rng):
        # independent oracle: enumerate ordered per-arrival choices directly
        inst = small_instance(rng, n_offline=3, n_online=2, horizon=3)
        obj = small_objective("coverage", inst.n_edges, rng)
        seq = ArrivalSequence(np.array([1, 0, 1][: inst.horizon]))

        def ordered_brute():
            arrivals = [v for v in seq.slots.tolist() if v >= 0]
            best = 0.0

            def rec(i, remaining, chosen):
                nonlocal best
                if i == len(arrivals):
                    best = max(best, obj.value(chosen))
                    return
                v = arrivals[i]
                rec(i + 1, remaining, chosen)  # skip
                for e in inst.edges_at_v[v]:
                    u = int(inst.edge_u[e])
                    if remaining[u] > 0:
                        remaining[u] -= 1
                        rec(i + 1, remaining, chosen | {int(e)})
                        remaining[u] += 1

            rec(0, list(inst.capacities), set())
            return best

        value, _ = hindsight_optimal(inst, seq, obj)
        assert value == pytest.approx(ordered_brute(), rel=1e-12)

    def test_search_space_budget(self):
        # one type with 30 edges arriving 5 times: 31 ** 5 > 10 ** 7 choices
        inst = build_instance([(f"u{i}", 1) for i in range(30)], [("v0", 1.0)],
                              [(f"e{i}", f"u{i}", "v0") for i in range(30)], horizon=5)
        with pytest.raises(ValueError, match=(
                "^hindsight search space exceeds the enumeration budget$")):
            hindsight_optimal(inst, ArrivalSequence(np.zeros(5, dtype=np.int64)),
                              LinearObjective(np.ones(30)))


class TestExpectedOpt:
    def test_deterministic_single_arrival(self):
        inst = build_instance([("u0", 1), ("u1", 1)], [("v0", 1.0)],
                              [("e0", "u0", "v0"), ("e1", "u1", "v0")],
                              horizon=1)
        obj = LinearObjective([2.0, 3.0])
        value, _ = expected_opt(inst, obj, mode="exact")
        assert value == pytest.approx(3.0)

    def test_two_round_coupon_value(self):
        # one type at rate 1 over T=2: matched unless no round draws it
        inst = build_instance([("u0", 1)], [("v0", 1.0)],
                              [("e0", "u0", "v0")], horizon=2)
        obj = LinearObjective([1.0])
        value, _ = expected_opt(inst, obj, mode="exact")
        assert value == pytest.approx(0.75)

    def test_mc_agrees_with_exact(self, rng):
        inst = small_instance(rng, n_offline=3, n_online=2, horizon=3)
        obj = small_objective("budget_additive", inst.n_edges, rng)
        exact, _ = expected_opt(inst, obj, mode="exact")
        est, se = expected_opt(inst, obj, mode="mc", trials=4000, seed=8)
        assert abs(est - exact) <= 3 * se

    def test_mc_with_no_trials_is_rejected(self, rng):
        # no trials have no mean: numpy's is nan, with a RuntimeWarning
        inst = small_instance(rng, n_offline=3, n_online=2, horizon=3)
        obj = small_objective("coverage", inst.n_edges, rng)
        with pytest.raises(ValueError, match="at least one value"):
            expected_opt(inst, obj, mode="mc", trials=0)

    def test_unknown_mode_is_rejected(self, rng):
        inst = small_instance(rng, n_offline=3, n_online=2, horizon=3)
        obj = small_objective("coverage", inst.n_edges, rng)
        with pytest.raises(ValueError, match="^unknown mode 'x'$"):
            expected_opt(inst, obj, mode="x")

    def test_exact_budget_gate(self):
        inst = build_instance(
            [("u0", 1)],
            [(f"v{j}", 0.5) for j in range(8)],
            [(f"e{j}", "u0", f"v{j}") for j in range(8)],
            horizon=12)
        obj = LinearObjective(np.ones(8))
        with pytest.raises(ValueError, match="budget"):
            expected_opt(inst, obj, mode="exact")

    def test_exact_budget_gate_on_the_budget_recipe(self):
        # 201 branches over T=200: 201.0 ** 200 overflows a float, an int does not
        problem = generate_synthetic("budget_additive", 11)
        with pytest.raises(ValueError, match="exceeds the sequence enumeration budget"):
            expected_opt(problem.instance, build_objective(problem), mode="exact")


class TestSolutionArtifact:
    def test_round_trip(self, tmp_path, rng):
        inst = small_instance(rng)
        obj = small_objective("coverage", inst.n_edges, rng)
        sol = continuous_greedy(obj, inst, steps=10, grad_samples=10, seed=0)
        sol.benchmark_kind = "guide-scaled"
        sol.benchmark_value = 1.25
        path = tmp_path / "x.txt"
        save_solution(path, inst, sol)
        back = load_solution(path, inst)
        np.testing.assert_array_equal(back.x, sol.x)
        assert back.solver == sol.solver
        assert back.benchmark_value == 1.25
        # a bound divides every ratio, so a non-finite one is not written
        sol.benchmark_value = math.inf
        with pytest.raises(SolutionError, match=re.escape(
                f"{path}: benchmark value inf is not finite")):
            save_solution(path, inst, sol)

    def test_mismatched_instance_rejected(self, tmp_path, rng):
        inst = small_instance(rng)
        other = small_instance(rng)
        obj = small_objective("linear", inst.n_edges, rng)
        sol = continuous_greedy(obj, inst, steps=2, grad_samples=2, seed=0)
        path = tmp_path / "x.txt"
        save_solution(path, inst, sol)
        if other.edge_ids != inst.edge_ids:
            with pytest.raises(ValueError, match="marginals"):
                load_solution(path, other)


class TestLoadSolutionFuzz:
    def test_one_edit_loads_or_raises_solution_error(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        inst = build_instance(
            offline=[("u1", 1), ("u2", 2)],
            online=[("v1", 0.5), ("v2", 1.0)],
            edges=[("e1", "u1", "v1"), ("e2", "u2", "v1"), ("e3", "u2", "v2")],
            horizon=4)
        sol = OfflineSolution(
            x=np.array([0.25, 0.25, 0.5]), objective_estimate=1.5,
            estimate_std_error=0.125, solver="continuous-greedy", seed=3,
            steps=10, grad_samples=20, benchmark_kind="guide-scaled",
            benchmark_value=2.5)
        path = tmp_path / "x.txt"
        save_solution(path, inst, sol)
        lines = path.read_text().splitlines()
        tokens = st.sampled_from(["", "-1", "0", "0.5", "7", "nan", "inf", "1e400",
                                  "x", "e1", "e9", "seed", "steps", "benchmark"])
        tokens = tokens | st.text(alphabet="0123456789-.eux", max_size=3)

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            k = data.draw(st.integers(0, len(lines) - 1))
            edited = list(lines)
            tok = edited[k].split()
            op = data.draw(st.sampled_from(["drop line", "drop token", "replace token"]))
            if op == "drop line":
                del edited[k]
            else:
                j = data.draw(st.integers(0, len(tok) - 1))
                tok[j:j + 1] = [] if op == "drop token" else [data.draw(tokens)]
                edited[k] = " ".join(tok)
            path.write_text("\n".join(edited) + "\n")
            try:
                assert isinstance(load_solution(path, inst), OfflineSolution)
            except SolutionError as exc:
                assert str(path) in str(exc)

        np.testing.assert_array_equal(load_solution(path, inst).x, sol.x)
        check()
