"""Simplex solver, program builders, rational cross-check, MPS dump."""

import numpy as np
import pytest

from conftest import small_instance, small_objective
from osbm import lp as lpmod
from osbm.instances import build_instance, generate_synthetic
from osbm.lp import (
    LinearProgram,
    build_matching_lmo,
    build_special_lp,
    feasible_for_matching,
    reference_solve,
    saturate_marginals,
    solve,
    solve_offline_lp,
    write_mps,
)
from osbm.objectives import (
    BudgetAdditiveObjective,
    CoverageObjective,
    LinearObjective,
    build_objective,
)
from osbm.offline import expected_opt


def random_lp(rng, max_vars=6, max_rows=5):
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    return LinearProgram(
        c=np.round(rng.uniform(-1, 1, n), 3),
        A=np.round(rng.uniform(-1, 1, (m, n)), 3),
        b=np.round(rng.uniform(0, 2, m), 3),
        upper=np.round(rng.uniform(0.5, 2.0, n), 3),
    )


class TestSolve:
    def test_box_maximum(self):
        lp = LinearProgram(c=[1.0, 1.0], A=np.zeros((1, 2)), b=[5.0],
                           upper=[1.0, 1.0])
        s = solve(lp)
        assert s.status == "optimal"
        assert s.value == pytest.approx(2.0)

    def test_negative_rhs_rejected(self):
        lp = LinearProgram(c=[1.0], A=[[1.0]], b=[-1.0], upper=[1.0])
        with pytest.raises(ValueError, match="right-hand side"):
            solve(lp)

    def test_unbounded_detected(self):
        lp = LinearProgram(c=[1.0], A=[[-1.0]], b=[1.0], upper=[np.inf])
        assert solve(lp).status == "unbounded"

    def test_deterministic_given_input(self, rng):
        lp = random_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.value == b.value
        assert np.array_equal(a.x, b.x)

    def test_matches_rational_reference_on_random_lps(self, rng):
        for _ in range(250):
            lp = random_lp(rng)
            s = solve(lp)
            assert s.status == "optimal"
            ref = float(reference_solve(lp))
            assert abs(s.value - ref) <= 1e-9 * max(1.0, abs(ref))
            assert s.audit(lp) == []

    def test_degenerate_ties_are_stable(self):
        # identical rows and costs: tied reduced costs enter by lowest index,
        # every pivot after the first is degenerate, and the solve must
        # terminate on the rational optimum
        lp = LinearProgram(
            c=[1.0, 1.0, 1.0],
            A=[[1.0, 1.0, 1.0]] * 3,
            b=[1.0, 1.0, 1.0],
            upper=[1.0, 1.0, 1.0],
        )
        s = solve(lp)
        assert s.value == pytest.approx(1.0)
        assert float(reference_solve(lp)) == pytest.approx(1.0)


def beale_lp():
    """Beale's (1955) program, on which largest-coefficient pricing cycles."""
    return LinearProgram(
        c=[0.75, -20.0, 0.5, -6.0],
        A=[[0.25, -8.0, -1.0, 9.0],
           [0.5, -12.0, -0.5, 3.0],
           [0.0, 0.0, 1.0, 0.0]],
        b=[0.0, 0.0, 1.0],
        upper=[np.inf] * 4,
    )


class TestAntiCycling:
    def test_beale_reaches_optimum(self):
        lp = beale_lp()
        a, b = solve(lp), solve(lp)
        assert a.status == "optimal"
        assert a.value == pytest.approx(1.25, rel=1e-12)
        assert abs(a.value - float(reference_solve(lp))) <= 1e-9
        assert a.audit(lp) == []
        assert np.array_equal(a.x, b.x)

    def test_beale_cycles_without_the_bland_fallback(self, monkeypatch):
        monkeypatch.setattr(lpmod, "DEGENERATE_LIMIT", 10**9)
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve(beale_lp(), max_iterations=500)

    def test_degenerate_pivots_counted_on_beale(self):
        s = solve(beale_lp())
        assert 0 < s.degenerate_pivots <= s.iterations

    def test_nondegenerate_box_has_no_degenerate_pivots(self):
        lp = LinearProgram(c=[1.0, 2.0, 3.0], A=[[1.0, 1.0, 1.0]], b=[10.0],
                           upper=[1.0, 1.0, 1.0])
        s = solve(lp)
        assert s.value == pytest.approx(6.0)
        assert s.iterations > 0
        assert s.degenerate_pivots == 0


class TestHighsCrossCheck:
    """Recipe-size programs against scipy's HiGHS (test-only dependency)."""

    @staticmethod
    def assert_matches_highs(lp):
        optimize = pytest.importorskip("scipy.optimize")
        res = optimize.linprog(
            -lp.c, A_ub=lp.A, b_ub=lp.b,
            bounds=np.column_stack([np.zeros(len(lp.c)), lp.upper]),
            method="highs")
        assert res.status == 0
        s = solve(lp)
        assert s.status == "optimal"
        assert s.value == pytest.approx(-res.fun, rel=1e-7)
        assert s.audit(lp) == []

    @pytest.mark.parametrize("b", [1, 5])
    def test_coverage_epigraph_lp(self, b):
        problem = generate_synthetic("coverage", 11)
        inst = problem.instance.with_capacities(b)
        self.assert_matches_highs(build_special_lp(inst, build_objective(problem)))

    @pytest.mark.parametrize("eta", [1, 2])
    def test_budget_additive_matching_lmo(self, eta):
        problem = generate_synthetic("budget_additive", 11)
        inst = problem.instance.with_eta(eta)
        weights = build_objective(problem).weights
        self.assert_matches_highs(build_matching_lmo(inst, weights))


class TestMatchingOracle:
    def test_two_edge_star_picks_heavier(self):
        inst = build_instance([("u1", 1)], [("v1", 1.0), ("v2", 1.0)],
                              [("e1", "u1", "v1"), ("e2", "u1", "v2")],
                              horizon=2)
        s = solve(build_matching_lmo(inst, [2.0, 3.0]))
        assert s.value == pytest.approx(3.0)
        np.testing.assert_allclose(s.x, [0.0, 1.0], atol=1e-12)

    def test_fractional_rates_split_mass(self):
        inst = build_instance([("u1", 1)], [("v1", 0.5), ("v2", 0.5)],
                              [("e1", "u1", "v1"), ("e2", "u1", "v2")],
                              horizon=2)
        s = solve(build_matching_lmo(inst, [2.0, 3.0]))
        assert s.value == pytest.approx(2.5)
        np.testing.assert_allclose(s.x, [0.5, 0.5], atol=1e-12)

    def test_all_negative_weights_give_zero(self):
        inst = build_instance([("u1", 1)], [("v1", 1.0), ("v2", 1.0)],
                              [("e1", "u1", "v1"), ("e2", "u1", "v2")],
                              horizon=2)
        s = solve(build_matching_lmo(inst, [-1.0, -2.0]))
        assert s.value == 0.0
        assert np.all(s.x == 0.0)

    def test_capacity_binds_on_star(self):
        inst = build_instance(
            [("u1", 1)],
            [("v1", 1.0), ("v2", 1.0), ("v3", 1.0)],
            [("e1", "u1", "v1"), ("e2", "u1", "v2"), ("e3", "u1", "v3")],
            horizon=3)
        s = solve(build_matching_lmo(inst, np.ones(3)))
        assert s.value == pytest.approx(1.0)

    def test_perfect_matching_saturates(self):
        T = 12
        inst = build_instance(
            [(f"u{i}", 1) for i in range(T)],
            [(f"v{i}", 1.0) for i in range(T)],
            [(f"e{i}", f"u{i}", f"v{i}") for i in range(T)], horizon=T)
        s = solve(build_matching_lmo(inst, np.ones(T)))
        assert s.value == pytest.approx(float(T))
        np.testing.assert_allclose(s.x, 1.0, atol=1e-12)

    def test_eta_scales_online_rows(self):
        inst = build_instance([("u1", 2)], [("v1", 0.5)],
                              [("e1", "u1", "v1")], horizon=2, eta=2)
        s = solve(build_matching_lmo(inst, [1.0]))
        assert s.value == pytest.approx(1.0)  # eta * r = 1.0 allows full edge

    def test_solutions_feasible_on_random_instances(self, rng):
        for _ in range(40):
            inst = small_instance(rng)
            w = rng.uniform(-0.5, 1.0, inst.n_edges)
            s = solve(build_matching_lmo(inst, w))
            assert s.status == "optimal"
            assert feasible_for_matching(inst, s.x)


class TestSpecialPrograms:
    def test_budget_additive_clamps_at_budget(self):
        inst = build_instance([("u1", 1), ("u2", 1)],
                              [("v1", 1.0), ("v2", 1.0)],
                              [("e1", "u1", "v1"), ("e2", "u2", "v2")],
                              horizon=2)
        obj = BudgetAdditiveObjective([3.0, 4.0], budget=5.0)
        s = solve(build_special_lp(inst, obj))
        assert s.value == pytest.approx(5.0)

    def test_single_feature_single_edge(self):
        inst = build_instance([("u1", 1)], [("v1", 0.4)],
                              [("e1", "u1", "v1")], horizon=5)
        obj = CoverageObjective([frozenset({0})], [2.0])
        s = solve(build_special_lp(inst, obj))
        assert s.value == pytest.approx(0.8)

    def test_huge_budget_reduces_to_max_weight_matching(self, rng):
        inst = small_instance(rng)
        w = rng.random(inst.n_edges)
        obj = BudgetAdditiveObjective(w, budget=1e9)
        s_budget = solve(build_special_lp(inst, obj))
        s_match = solve(build_matching_lmo(inst, w))
        assert s_budget.value == pytest.approx(s_match.value, rel=1e-9)

    def test_linear_kind_reuses_matching_oracle(self, rng):
        inst = small_instance(rng)
        obj = LinearObjective(rng.random(inst.n_edges))
        lp = build_special_lp(inst, obj)
        s = solve(lp)
        assert s.value == pytest.approx(
            solve(build_matching_lmo(inst, obj.weights)).value)

    def test_mismatched_ground_set_rejected(self, rng):
        inst = small_instance(rng)
        obj = LinearObjective(np.ones(inst.n_edges + 1))
        with pytest.raises(ValueError, match="ground set"):
            build_special_lp(inst, obj)

    def test_lp_value_dominates_expected_opt(self, rng):
        # the epigraph optimum upper-bounds the expected hindsight optimum
        for trial in range(6):
            inst = small_instance(rng, n_offline=3, n_online=2, horizon=3)
            for kind in ("linear", "coverage", "budget_additive"):
                obj = small_objective(kind, inst.n_edges, rng)
                _, lp_value, _ = solve_offline_lp(inst, obj)
                e_opt, _ = expected_opt(inst, obj, mode="exact")
                assert lp_value >= e_opt - 1e-9


class TestGuideMarginals:
    def test_saturation_dominates_and_stays_feasible(self, rng):
        for _ in range(10):
            inst = small_instance(rng)
            obj = small_objective("coverage", inst.n_edges, rng)
            x, value, _ = solve_offline_lp(inst, obj)
            assert feasible_for_matching(inst, x)
            lean = solve(build_special_lp(inst, obj)).x[: inst.n_edges]
            assert np.all(x >= lean - 1e-9)

    def test_saturated_guide_preserves_lp_value(self, rng):
        # re-evaluating the program objective at the guide hits the optimum
        for _ in range(6):
            inst = small_instance(rng)
            obj = small_objective("coverage", inst.n_edges, rng)
            x, value, _ = solve_offline_lp(inst, obj)
            gammas = 0.0
            for z in range(obj.n_features):
                covering = [e for e in range(inst.n_edges)
                            if z in set(obj.edge_features[e])]
                gammas += obj.feature_weights[z] * min(
                    1.0, float(x[covering].sum()) if covering else 0.0)
            assert gammas == pytest.approx(value, rel=1e-9, abs=1e-9)

    def test_priority_order_respected(self):
        inst = build_instance([("u1", 1)], [("v1", 1.0), ("v2", 1.0)],
                              [("e1", "u1", "v1"), ("e2", "u1", "v2")],
                              horizon=2)
        x = saturate_marginals(inst, np.zeros(2), priority=[1.0, 9.0])
        np.testing.assert_allclose(x, [0.0, 1.0])


class TestMpsDump:
    def test_dump_round_trips_all_numbers(self, tmp_path, rng):
        inst = small_instance(rng)
        lp = build_matching_lmo(inst, rng.random(inst.n_edges))
        path = tmp_path / "prog.mps"
        write_mps(lp, path)
        text = path.read_text()
        assert text.startswith("NAME")
        assert "ENDATA" in text
        # every objective coefficient echoes exactly
        for j, cname in enumerate(lp.col_names):
            if lp.c[j] != 0.0:
                assert format(lp.c[j], ".17g") in text
