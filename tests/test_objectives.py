"""Objectives: value oracles, marginal gains, multilinear extension tools."""

import itertools

import numpy as np
import pytest

from conftest import small_instance, small_objective
from osbm.instances import EdgeFeatures, Problem, generate_synthetic
from osbm.objectives import (
    BudgetAdditiveObjective,
    CoverageObjective,
    Evaluator,
    LinearObjective,
    PerUserCoverageObjective,
    SubmodularObjective,
    batch_gradient,
    build_objective,
    F_SAMPLES,
    multilinear_estimate,
    multilinear_exact,
    multilinear_mc,
)
from osbm.lp import solve_offline_lp
from osbm.offline import continuous_greedy
from osbm.online import simulate


def brute_multilinear(objective, x):
    """Independent oracle: direct sum over all subsets via itertools."""
    m = len(x)
    total = 0.0
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            p = 1.0
            for e in range(m):
                p *= x[e] if e in subset else (1.0 - x[e])
            total += p * objective.value(subset)
    return total


def gain(objective, edges, e):
    """f(S + e) - f(S), the marginal gain taken through the value oracle."""
    s = set(edges)
    return objective.value(s | {e}) - objective.value(s)


class TestValueOracles:
    def test_empty_set_is_zero_for_every_kind(self, rng):
        for kind in ("linear", "coverage", "budget_additive"):
            obj = small_objective(kind, 5, rng)
            assert obj.value([]) == 0.0

    def test_budget_clamp(self):
        obj = BudgetAdditiveObjective([3.0, 4.0], budget=5.0)
        assert obj.value([0, 1]) == 5.0

    def test_coverage_union(self):
        obj = CoverageObjective([frozenset({0, 1}), frozenset({1, 2})],
                                [1.0, 1.0, 1.0])
        assert obj.value([0, 1]) == 3.0

    def test_duplicate_edges_do_not_double_count(self):
        obj = LinearObjective([2.0, 5.0])
        assert obj.value([1, 1, 1]) == 5.0

    def test_unknown_edge_rejected(self):
        obj = LinearObjective([1.0])
        with pytest.raises(ValueError, match="unknown edge"):
            obj.value([3])

    @pytest.mark.parametrize("edges, bad", [
        ([0, 5, -1, 7], 5), ((2, -1, 9), -1), (np.array([1, 3]), 3)])
    def test_unknown_edge_names_the_first_bad_id(self, edges, bad):
        with pytest.raises(ValueError, match=f"unknown edge id {bad}$"):
            LinearObjective(np.ones(3)).value(edges)

    @pytest.mark.parametrize("kind", ["linear", "budget_additive", "coverage"])
    def test_every_container_is_scored_and_checked_alike(self, rng, kind):
        # run_trial scores an int64 array; callers also pass lists, tuples,
        # sets and other arrays, and each reads the same
        obj = small_objective(kind, 6, rng)
        edges = [4, 1, 4, 0]
        forms = (list, tuple, set, np.array,
                 lambda e: np.array(e, dtype=np.int32),
                 lambda e: np.array(e, dtype=np.uint64))
        want = obj.value(edges)
        for form in forms:
            assert obj.value(form(edges)) == want
            assert obj.value(form([])) == 0.0
        assert obj.value(np.array([])) == 0.0  # an empty float array too
        for bad_edges in ([1, 6, -1], [-3, 9], [2, 5, 7]):
            for form in (list, tuple, set, np.array):
                ids = form(bad_edges)
                first_bad = next(e for e in ids if not 0 <= e < 6)
                with pytest.raises(ValueError, match=f"^unknown edge id {first_bad}$"):
                    obj.value(ids)

    def test_value_equals_the_per_edge_forms(self, rng):
        # the forms value had before it checked and collected edges as arrays
        for kind in ("linear", "budget_additive", "coverage"):
            obj = small_objective(kind, 40, rng, n_features=30)
            for _ in range(30):
                edges = rng.integers(0, 40, size=int(rng.integers(0, 60))).tolist()
                if kind == "coverage":
                    covered = np.zeros(obj.n_features, dtype=bool)
                    for e in edges:
                        covered[obj.edge_features[e]] = True
                    expected = float(obj.feature_weights[covered].sum())
                elif not edges:
                    expected = 0.0
                else:
                    expected = float(obj.weights[np.unique(edges)].sum())
                    if kind == "budget_additive":
                        expected = float(min(obj.budget, expected))
                for form in (edges, set(edges), np.array(edges, dtype=np.int64)):
                    assert obj.value(form) == expected


class TestMarginalGain:
    def test_linear_gain_independent_of_set(self):
        obj = LinearObjective([2.0, 7.0, 1.0])
        assert gain(obj, [], 1) == 7.0
        assert gain(obj, [0, 2], 1) == 7.0

    def test_saturated_budget_gain_zero(self):
        obj = BudgetAdditiveObjective([3.0, 4.0, 2.0], budget=5.0)
        assert gain(obj, [0, 1], 2) == 0.0

    def test_coverage_overlap_gain(self):
        obj = CoverageObjective([frozenset({0, 1}), frozenset({1, 2})],
                                [1.0, 1.0, 1.0])
        assert gain(obj, [0], 1) == 1.0

    def test_gain_nonnegative_everywhere(self, rng):
        for kind in ("linear", "coverage", "budget_additive"):
            obj = small_objective(kind, 6, rng)
            for _ in range(50):
                size = int(rng.integers(0, 6))
                s = set(rng.choice(6, size=size, replace=False).tolist())
                e = int(rng.integers(0, 6))
                if e in s:
                    continue
                assert gain(obj, s, e) >= -1e-12


class TestSubmodularityAudit:
    def test_diminishing_returns_on_random_triples(self, rng):
        # 1000 random (S, S', e) with S subset of S' for each built-in kind
        for kind in ("linear", "coverage", "budget_additive"):
            obj = small_objective(kind, 7, rng)
            checked = 0
            while checked < 1000:
                big = set(rng.choice(7, size=int(rng.integers(1, 7)),
                                     replace=False).tolist())
                small = {e for e in big if rng.random() < 0.6}
                e = int(rng.integers(0, 7))
                if e in big:
                    continue
                assert gain(obj, small, e) >= gain(obj, big, e) - 1e-12
                checked += 1


class TestMultilinearExact:
    def test_matches_independent_enumeration(self, rng):
        for kind in ("linear", "coverage", "budget_additive"):
            obj = small_objective(kind, 5, rng)
            x = rng.random(5)
            assert multilinear_exact(obj, x) == pytest.approx(
                brute_multilinear(obj, x), rel=1e-12)

    def test_hand_computed_coverage_point(self):
        obj = CoverageObjective([frozenset({0, 1}), frozenset({1, 2})],
                                [1.0, 1.0, 1.0])
        # subsets: {}, {e1}->2, {e2}->2, {e1,e2}->3, each weight 1/4
        assert multilinear_exact(obj, [0.5, 0.5]) == pytest.approx(1.75)

    def test_integral_point_equals_set_value(self, rng):
        for kind in ("linear", "coverage", "budget_additive"):
            obj = small_objective(kind, 6, rng)
            x = (rng.random(6) < 0.5).astype(float)
            support = np.flatnonzero(x)
            assert multilinear_exact(obj, x) == pytest.approx(
                obj.value(support), rel=1e-12)

    def test_linear_case_is_dot_product(self, rng):
        w = rng.random(8)
        x = rng.random(8)
        assert multilinear_exact(LinearObjective(w), x) == pytest.approx(
            float(w @ x))

    def test_too_large_ground_set_rejected(self):
        obj = LinearObjective(np.ones(21))
        with pytest.raises(ValueError, match="enumeration"):
            multilinear_exact(obj, np.full(21, 0.5))

    def test_monotone_in_each_coordinate(self, rng):
        obj = small_objective("coverage", 5, rng)
        x = 0.2 + 0.5 * rng.random(5)
        base = multilinear_exact(obj, x)
        for e in range(5):
            bumped = x.copy()
            bumped[e] = min(1.0, bumped[e] + 0.25)
            assert multilinear_exact(obj, bumped) >= base - 1e-12


class TestMultilinearMonteCarlo:
    def test_integral_point_has_zero_error(self, rng):
        obj = small_objective("coverage", 6, rng)
        x = (rng.random(6) < 0.5).astype(float)
        est, se = multilinear_mc(obj, x, samples=50, seed=1)
        assert se == 0.0
        assert est == pytest.approx(obj.value(np.flatnonzero(x)))

    def test_single_sample_is_one_draw(self, rng):
        obj = small_objective("linear", 4, rng)
        est, se = multilinear_mc(obj, rng.random(4), samples=1, seed=2)
        assert se == 0.0
        values = {obj.value(s) for s in itertools.chain.from_iterable(
            itertools.combinations(range(4), k) for k in range(5))}
        assert any(abs(est - v) < 1e-12 for v in values)

    def test_tracks_exact_value_within_three_se(self, rng):
        obj = CoverageObjective([frozenset({0, 1}), frozenset({1, 2})],
                                [1.0, 1.0, 1.0])
        est, se = multilinear_mc(obj, [0.5, 0.5], samples=100_000, seed=3)
        assert abs(est - 1.75) <= 3 * se

    def test_repeated_estimates_stay_calibrated(self, rng):
        # 100 independent estimates: at least 99 inside their own 3-se band
        obj = small_objective("budget_additive", 8, rng)
        x = rng.random(8)
        exact = multilinear_exact(obj, x)
        hits = 0
        for s in range(100):
            est, se = multilinear_mc(obj, x, samples=600, seed=500 + s)
            if abs(est - exact) <= 3 * se:
                hits += 1
        assert hits >= 99


class TestGroundSetLength:
    def test_short_or_long_x_is_rejected(self):
        # the coverage recipe has 1066 edges; its first 100 entries used to
        # estimate F over a prefix of the ground set without an error
        obj = build_objective(generate_synthetic("coverage", 11))
        x = np.full(obj.n_edges, 0.2)
        est, _ = multilinear_mc(obj, x, samples=5, seed=1)
        assert est > 0
        for bad in (x[:100], np.append(x, 0.2)):
            with pytest.raises(ValueError, match="ground set"):
                multilinear_mc(obj, bad, samples=5, seed=1)
            with pytest.raises(ValueError, match="ground set"):
                batch_gradient(obj, bad, 5, np.random.default_rng(1))
            with pytest.raises(ValueError, match="ground set"):
                multilinear_exact(obj, bad)


class TestBatchGradient:
    # batch_gradient estimates every dF/dx_e = F(x | x_e=1) - F(x | x_e=0)
    # from shared draws R ~ x, each draw giving f(R + e) - f(R - e)
    def test_linear_has_zero_variance(self):
        # the closed form w: no draw, and a copy the caller may change
        obj = LinearObjective([2.0, 7.0])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        grad = batch_gradient(obj, [0.4, 0.9], 64, rng)
        assert grad.tolist() == [2.0, 7.0]
        assert rng.bit_generator.state == state
        grad[0] = 0.0
        assert obj.weights.tolist() == [2.0, 7.0]

    def test_matches_exact_finite_difference(self, rng):
        # each draw's gain lies in [0, f(E)], so by Hoeffding the mean of n
        # draws is within 2 f(E) / sqrt(n) of dF/dx_e with probability
        # at least 1 - 2 exp(-8) per coordinate
        n = 4000
        for kind in ("coverage", "budget_additive"):
            obj = small_objective(kind, 6, rng)
            x = rng.random(6)
            exact = []
            for e in range(6):
                hi, lo = x.copy(), x.copy()
                hi[e], lo[e] = 1.0, 0.0
                exact.append(multilinear_exact(obj, hi) - multilinear_exact(obj, lo))
            grad = batch_gradient(obj, x, n, np.random.default_rng(11))
            bound = 2 * obj.value(range(6)) / np.sqrt(n)
            assert np.abs(grad - exact).max() <= bound

    def test_unsaturated_singleton_budget(self):
        obj = BudgetAdditiveObjective([3.0, 4.0], budget=10.0)
        grad = batch_gradient(obj, [0.0, 0.0], 32, np.random.default_rng(5))
        assert grad.tolist() == [3.0, 4.0]


class TestCoverageClosedForm:
    """Coverage's F and gradient in closed form (Calinescu et al., SICOMP
    2011): F(x) = sum_z w_z (1 - prod_{e covers z} (1 - x_e))."""

    @staticmethod
    def points(rng, m):
        """Random points with coordinates at 0 and at 1 among the rest."""
        for _ in range(6):
            x = rng.random(m)
            x[rng.random(m) < 0.3] = 1.0
            x[rng.random(m) < 0.2] = 0.0
            yield x
        yield np.ones(m)
        yield np.zeros(m)

    @pytest.mark.parametrize("kind", ["coverage", "per_user_coverage"])
    def test_value_and_gradient_match_enumeration(self, rng, kind):
        for _ in range(8):
            m = int(rng.integers(1, 11))
            obj = small_objective(kind, m, rng)
            for x in self.points(rng, m):
                value, grad = obj._multilinear(x)
                exact = multilinear_exact(obj, x)
                assert value == pytest.approx(exact, rel=1e-12, abs=1e-12)
                # F is multilinear: dF/dx_e = F(x | x_e=1) - F(x | x_e=0)
                diff = []
                for e in range(m):
                    hi, lo = x.copy(), x.copy()
                    hi[e], lo[e] = 1.0, 0.0
                    diff.append(multilinear_exact(obj, hi) - multilinear_exact(obj, lo))
                np.testing.assert_allclose(grad, diff, rtol=1e-12, atol=1e-12)

    def test_estimate_and_gradient_are_exact_past_enumeration(self):
        # on the 1066-edge recipe: se 0, no draws, seed and samples ignored
        obj = build_objective(generate_synthetic("coverage", 11))
        x = np.random.default_rng(3).random(obj.n_edges) * 0.3
        x[::7] = 1.0
        value, grad = obj._multilinear(x)
        assert multilinear_estimate(obj, x, 1) == (value, 0.0)
        assert multilinear_estimate(obj, x, 2) == (value, 0.0)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert batch_gradient(obj, x, 20, rng).tobytes() == grad.tobytes()
        assert rng.bit_generator.state == state
        mc, se = multilinear_mc(obj, x, 400, 5)
        assert abs(mc - value) <= 4 * se

    @pytest.mark.parametrize("kind", ["linear", "coverage", "per_user_coverage",
                                      "budget_additive"])
    def test_closed_form_comes_first(self, rng, kind):
        # a closed form is taken bit for bit before the enumeration, which
        # agrees with it to rounding; without one (budget-additive) F is the
        # enumeration itself
        for m in (1, 8, 12):
            obj = small_objective(kind, m, rng)
            x = rng.random(m)
            x[rng.random(m) < 0.2] = 1.0
            exact = multilinear_exact(obj, x)
            if kind == "budget_additive":
                assert obj._multilinear(x) is None
                assert multilinear_estimate(obj, x, 0) == (exact, 0.0)
                continue
            value, _ = obj._multilinear(x)
            assert multilinear_estimate(obj, x, 0) == (value, 0.0)
            assert value == pytest.approx(exact, rel=1e-12)

    def test_monte_carlo_estimate_draws_from_its_own_stream(self):
        # past the enumeration, F without a closed form is the mean of
        # F_SAMPLES draws from (seed, 2), the stream no gradient and no trial
        # draws from
        problem = generate_synthetic("budget_additive", 11)
        obj = BudgetAdditiveObjective(problem.features.edge_weights, 150.0)
        x = np.full(obj.n_edges, 0.28)  # w . x = 147.2, near the budget
        est, se = multilinear_estimate(obj, x, 5)
        assert (est, se) == multilinear_mc(obj, x, F_SAMPLES, (5, 2))
        assert se > 0.0
        assert multilinear_estimate(obj, x, 6)[0] != est

    def test_no_features_and_no_edges(self):
        obj = CoverageObjective([frozenset()] * 3, [1.0, 2.0])
        value, grad = obj._multilinear(np.full(3, 0.5))
        assert value == 0.0 and grad.dtype == float and grad.tolist() == [0.0] * 3
        value, grad = CoverageObjective([], [1.0])._multilinear(np.zeros(0))
        assert value == 0.0 and grad.dtype == float and len(grad) == 0

    @pytest.mark.parametrize("b, ratio", [(1, 0.842), (5, 0.934)])
    def test_lp_guide_is_within_ageev_sviridenko(self, b, ratio):
        # F(x) >= (1 - 1/e) L(x) for coverage (Ageev-Sviridenko, J. Comb.
        # Optim. 2004), so the LP guide keeps that share of the LP optimum
        problem = generate_synthetic("coverage", 11)
        obj = build_objective(problem)
        x, value, _ = solve_offline_lp(problem.instance.with_capacities(b), obj)
        f, _ = obj._multilinear(x)
        assert f >= (1.0 - 1.0 / np.e) * value
        assert f / value == pytest.approx(ratio, abs=5e-4)

    @pytest.mark.parametrize("kind", ["linear", "budget_additive", "coverage",
                                      "per_user_coverage"])
    def test_zero_samples_rejected_for_every_kind(self, rng, kind):
        obj = small_objective(kind, 4, rng)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            batch_gradient(obj, np.full(4, 0.5), 0, rng)


def all_pairs(rows, n_edges):
    """(row, edge) index arrays over every row and every edge."""
    return np.repeat(np.arange(rows), n_edges), np.tile(np.arange(n_edges), rows)


class TestEvaluators:
    def test_incremental_matches_recompute(self, rng):
        # two rows add the edges in different orders; at each step every
        # (row, edge) gain equals the value difference over that row's set
        for kind in ("linear", "coverage", "budget_additive", "per_user_coverage"):
            obj = small_objective(kind, 8, rng)
            ev = Evaluator(obj, 2)
            orders = [rng.permutation(8).tolist() for _ in range(2)]
            sets = [set(), set()]
            rows, edges = all_pairs(2, 8)
            for step in range(6):
                gains = ev.row_gains(rows, edges)
                for r, e, g in zip(rows.tolist(), edges.tolist(), gains.tolist()):
                    assert g == pytest.approx(gain(obj, sets[r], e), abs=1e-12)
                added = [order[step] for order in orders]
                assert ev.row_add(np.arange(2), np.array(added)) is None
                for r, e in enumerate(added):
                    sets[r].add(e)
                    assert np.array_equal(np.flatnonzero(ev.members[r]), sorted(sets[r]))

    def test_re_adding_member_gains_nothing(self, rng):
        for kind in ("linear", "coverage", "budget_additive", "per_user_coverage"):
            obj = small_objective(kind, 4, rng)
            ev = Evaluator(obj, 2)
            ev.row_add(np.array([0, 1]), np.array([2, 1]))
            assert ev.row_gains(np.array([0]), np.array([2]))[0] == 0.0
            rows, edges = all_pairs(2, 4)
            gains, members = ev.row_gains(rows, edges), ev.members.copy()
            ev.row_add(np.array([0]), np.array([2]))
            assert np.array_equal(ev.row_gains(rows, edges), gains)
            assert np.array_equal(ev.members, members)

    def test_row_add_takes_no_gain(self, rng, monkeypatch):
        # greedy has just taken the gains it commits; adding them again
        # would double its gain work
        for kind in ("linear", "coverage", "budget_additive", "generic",
                     "per_user_coverage"):
            obj = (_ValueOnlyLinear(rng.random(6)) if kind == "generic"
                   else small_objective(kind, 6, rng))
            ev = Evaluator(obj, 3)
            calls = []

            def counted(self, ev, r, e, real=type(obj)._gains):
                calls.append(len(e))
                return real(self, ev, r, e)

            # per_user_coverage inherits coverage's hooks: undo each patch
            # before the next kind reads its class's `_gains`
            with monkeypatch.context() as patch:
                patch.setattr(type(obj), "_gains", counted)
                ev.row_gains(np.arange(3), np.array([0, 1, 2]))
                assert calls == [3]
                ev.row_add(np.arange(3), np.array([0, 4, 5]))
                assert calls == [3]

    def test_coverage_row_gains_sum_as_the_one_edge_form(self, rng):
        # edges with 0 to 40 features: the sums of 8 and more terms take
        # numpy's pairwise blocking, which the batched gains must keep
        sets = [frozenset(rng.choice(60, size=k, replace=False).tolist())
                for k in range(41)]
        obj = CoverageObjective(sets, rng.random(60) * 10.0 ** rng.integers(-3, 4, 60))
        ev = Evaluator(obj, rows=3)
        ev.row_add(np.array([1, 2]), np.array([5, 17]))
        rows, edges = all_pairs(3, 41)
        for r, e, g in zip(rows, edges, ev.row_gains(rows, edges)):
            q = obj.edge_features[e]
            fresh = q[~ev.state[r][q]]
            expected = 0.0 if ev.members[r, e] else float(obj.feature_weights[fresh].sum())
            assert g == expected


class _ValueOnlyLinear(SubmodularObjective):
    """A user objective that defines only `value`, so its coordinate gains
    and evaluator gains take the base classes' value-oracle fallbacks."""

    def __init__(self, weights):
        super().__init__(len(weights))
        self.weights = np.asarray(weights, dtype=float)

    def value(self, edges) -> float:
        return float(sum(self.weights[e] for e in set(self._check_edges(edges))))


class TestGenericValueOracle:
    """The fallbacks against LinearObjective on dyadic weights, where every
    sum is exact, so the two must agree bit for bit."""

    @pytest.fixture
    def pair(self, rng):
        inst = small_instance(rng, n_offline=5, n_online=4, integral=True)
        w = rng.integers(1, 33, size=inst.n_edges) / 8.0
        return inst, _ValueOnlyLinear(w), LinearObjective(w)

    def test_coordinate_gains(self, pair, rng):
        _, generic, linear = pair
        for _ in range(10):
            mask = rng.random(generic.n_edges) < 0.5
            assert np.array_equal(generic.coordinate_gains(mask),
                                  linear.coordinate_gains(mask))

    def test_evaluator_gains_and_values(self, pair, rng):
        # three rows add the edges in different orders; every (row, edge)
        # gain agrees at each step, and so does the value of each row's set
        _, generic, linear = pair
        m = generic.n_edges
        evs = Evaluator(generic, 3), Evaluator(linear, 3)
        rows, edges = all_pairs(3, m)
        orders = np.array([rng.permutation(m) for _ in range(3)])
        for step in range(m):
            assert np.array_equal(evs[0].row_gains(rows, edges),
                                  evs[1].row_gains(rows, edges))
            for ev in evs:
                ev.row_add(np.arange(3), orders[:, step])
            for r in range(3):
                members = np.flatnonzero(evs[0].members[r])
                assert np.array_equal(members, np.flatnonzero(evs[1].members[r]))
                assert generic.value(members) == linear.value(members)

    def test_greedy_and_continuous_greedy(self, pair):
        inst, generic, linear = pair
        runs = [simulate(inst, obj, "greedy", trials=8, seed=3, keep_matches=True)
                for obj in (generic, linear)]
        assert np.array_equal(runs[0].values, runs[1].values)
        assert runs[0].matches == runs[1].matches
        sols = [continuous_greedy(obj, inst, steps=4, grad_samples=3, seed=5)
                for obj in (generic, linear)]
        assert np.array_equal(sols[0].x, sols[1].x)


class TestBuildObjective:
    @pytest.mark.parametrize("kind, needs", [
        ("linear", "edge_weights"),
        ("budget_additive", "edge_weights and budget"),
        ("coverage", "feature_sets and feature_weights"),
        ("per_user_coverage", "feature_sets and user_weights"),
    ])
    def test_missing_payload_raises_value_error(self, rng, kind, needs):
        problem = Problem(instance=small_instance(rng), features=EdgeFeatures(),
                          kind=kind)
        with pytest.raises(ValueError, match=f"{kind} objective needs {needs}$"):
            build_objective(problem)

    def test_missing_budget_alone(self, rng):
        inst = small_instance(rng)
        problem = Problem(instance=inst, kind="budget_additive",
                          features=EdgeFeatures(edge_weights=np.ones(inst.n_edges)))
        with pytest.raises(ValueError, match="budget_additive objective needs budget$"):
            build_objective(problem)
        # a kind that reads no payload has none missing, and is still unknown
        with pytest.raises(ValueError, match="^unknown objective kind 'mystery'$"):
            build_objective(Problem(instance=inst, kind="mystery", features=EdgeFeatures()))


class TestEmptyIncidence:
    @pytest.mark.parametrize("sets, weights", [
        ([frozenset()] * 3, []),            # no features
        ([frozenset()] * 3, [1.0, 2.0]),    # features, but no edge covers one
        ([], [1.0]),                        # no edges
    ])
    def test_gains_and_value_are_zero(self, sets, weights):
        obj = CoverageObjective(sets, weights)
        for member in (np.zeros(len(sets), bool), np.ones(len(sets), bool)):
            gains = obj.coordinate_gains(member)
            assert gains.dtype == float
            assert np.array_equal(gains, np.zeros(len(sets)))
        assert obj.value(range(len(sets))) == 0.0
        assert obj.value([]) == 0.0
        assert [len(edges) for edges in obj.covering_edges()] == [0] * len(weights)


class TestPerUserCoverage:
    def test_sums_independent_user_coverages(self):
        # two users; user 0 weighs genre 0 at 2, user 1 weighs both at 1, 3
        obj = PerUserCoverageObjective(
            edge_online=[0, 1, 1],
            genre_sets=[frozenset({0}), frozenset({0}), frozenset({1})],
            user_weights=np.array([[2.0, 0.0], [1.0, 3.0]]),
        )
        assert obj.value([0]) == 2.0
        assert obj.value([1]) == 1.0
        assert obj.value([1, 2]) == 4.0
        assert obj.value([0, 1, 2]) == 6.0

    def test_cover_fractions(self):
        obj = PerUserCoverageObjective(
            edge_online=[0, 1],
            genre_sets=[frozenset({0}), frozenset({0})],
            user_weights=np.array([[2.0, 2.0], [5.0, 0.0]]),
        )
        fr = obj.user_cover_fractions([0, 1])
        assert fr[0] == pytest.approx(0.5)
        assert fr[1] == pytest.approx(1.0)

    def test_coordinate_gains_match_generic(self, rng):
        obj = PerUserCoverageObjective(
            edge_online=rng.integers(0, 3, size=7),
            genre_sets=[frozenset(rng.choice(4, size=2, replace=False).tolist())
                        for _ in range(7)],
            user_weights=rng.random((3, 4)),
        )
        mask = rng.random(7) < 0.5
        fast = obj.coordinate_gains(mask)
        base = set(np.flatnonzero(mask).tolist())
        slow = [obj.value(base | {e}) - obj.value(base - {e}) for e in range(7)]
        np.testing.assert_allclose(fast, slow, atol=1e-12)
