"""Online policies: behavior, distributional laws, simulator contracts."""

import dataclasses
import hashlib
import math
import re
from bisect import bisect_right
from itertools import islice

import numpy as np
import pytest

from conftest import golden_note, small_instance, small_objective
from osbm import online as online_mod
from osbm.instances import (
    ArrivalSequence,
    build_instance,
    generate_synthetic,
    sample_arrivals,
)
from osbm.lp import solve_offline_lp
from osbm.objectives import (BudgetAdditiveObjective, CoverageObjective,
                             LinearObjective, build_objective)
from osbm.offline import expected_opt
from osbm.online import (
    POLICY_NAMES,
    ArrivalStreams,
    OnlinePolicy,
    make_policy,
    run_trial,
    simulate,
)
from osbm.rounding import (SampledSupport, dependent_round_stars, sample_support,
                           select_per_star)


SIMULATE_GOLDEN = "a4e50008e8227e38805fa0a6371b13b4cefb0d43c8679f7d2ddb8c8bafe8994f"
COVERAGE_GOLDEN = "0f4895682a06b2dca2df406fe1c90619d9cc12e4dd50b8d4101c382f848cb2ed"


def perfect_matching_instance(T):
    return build_instance(
        offline=[(f"u{i}", 1) for i in range(T)],
        online=[(f"v{i}", 1.0) for i in range(T)],
        edges=[(f"e{i}", f"u{i}", f"v{i}") for i in range(T)],
        horizon=T,
    )


def binom_sigma(p, n):
    return math.sqrt(max(p * (1 - p), 1e-12) / n)


def recipe_guide(inst, b, eta):
    """A feasible guide drawn, not solved, so a solver change cannot move it."""
    w = np.random.default_rng(11).random(inst.n_edges)
    deg_u = np.bincount(inst.edge_u, minlength=inst.n_offline)[inst.edge_u]
    deg_v = np.bincount(inst.edge_v, minlength=inst.n_online)[inst.edge_v]
    return w * np.minimum(1.0, np.minimum(
        b / deg_u, eta * inst.rate_array[inst.edge_v] / deg_v))


def recipe_digest(kind, bs, etas, trials=20):
    """sha256 over every policy's values and matches on recipe seed 11, one
    cell per (b, eta).  The guide is drawn, not solved, so a solver change
    cannot move it."""
    problem = generate_synthetic(kind, 11)
    inst, obj = problem.instance, build_objective(problem)
    digest = hashlib.sha256()
    for b in bs:
        for eta in etas:
            cell = inst.with_capacities(b).with_eta(eta)
            x = recipe_guide(inst, b, eta)
            for name in POLICY_NAMES:
                m = simulate(cell, obj, name, x_star=x, trials=trials, seed=11,
                             allow_fractional_cr=True, keep_matches=True)
                digest.update(m.values.tobytes())
                for matched in m.matches:
                    digest.update(np.array(matched + [-1], dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestMarginalSampling:
    def test_zero_mass_never_matches(self, rng):
        inst = small_instance(rng)
        obj = small_objective("linear", inst.n_edges, rng)
        m = simulate(inst, obj, "marginal-sampling",
                     x_star=np.zeros(inst.n_edges), trials=50, seed=0)
        assert m.mean == 0.0

    def test_forced_single_draw_matches(self):
        inst = build_instance([("u0", 1)], [("v0", 1.0)],
                              [("e0", "u0", "v0")], horizon=1)
        obj = LinearObjective([1.0])
        m = simulate(inst, obj, "marginal-sampling", x_star=np.array([1.0]),
                     trials=200, seed=1, benchmark=("brute", 1.0))
        assert m.mean == 1.0 and m.ratio == 1.0

    def test_infeasible_marginals_rejected(self):
        inst = build_instance([("u0", 1)], [("v0", 0.4)],
                              [("e0", "u0", "v0")], horizon=2)
        obj = LinearObjective([1.0])
        with pytest.raises(ValueError, match="infeasible"):
            make_policy("marginal-sampling", inst, obj, np.array([0.9]))

    def test_tight_instance_ratio(self):
        # perfect matching with full marginals: each type matched on first
        # arrival, so the ratio approaches 1 - (1 - 1/T)^T
        T = 20
        inst = perfect_matching_instance(T)
        obj = LinearObjective(np.ones(T))
        m = simulate(inst, obj, "marginal-sampling", x_star=np.ones(T),
                     trials=4000, seed=2, benchmark=("lp", float(T)))
        target = 1 - (1 - 1 / T) ** T
        assert abs(m.ratio - target) <= 4 * m.ratio_std_error

    def test_coupon_instance_reaches_expected_opt(self):
        # one edge with rate 1 over T=2: policy matches iff the type arrives
        inst = build_instance([("u0", 1)], [("v0", 1.0)],
                              [("e0", "u0", "v0")], horizon=2)
        obj = LinearObjective([1.0])
        e_opt, _ = expected_opt(inst, obj, mode="exact")
        m = simulate(inst, obj, "marginal-sampling", x_star=np.array([1.0]),
                     trials=30_000, seed=3, benchmark=("brute", e_opt))
        assert abs(m.ratio - 1.0) <= 3 * m.ratio_std_error

    def test_eta_splits_draws(self):
        # eta=2 with two disjoint offline slots: both can match on one arrival
        inst = build_instance(
            [("u0", 1), ("u1", 1)], [("v0", 1.0)],
            [("e0", "u0", "v0"), ("e1", "u1", "v0")], horizon=1, eta=2)
        obj = LinearObjective([1.0, 1.0])
        m = simulate(inst, obj, "marginal-sampling",
                     x_star=np.array([1.0, 1.0]), trials=4000, seed=4)
        # two draws over {e0: 1/2, e1: 1/2}; distinct-u dedupes repeats, so
        # the expected matched count is 0.5 * 1 + 0.5 * 2
        assert abs(m.mean - 1.5) <= 3 * m.std_error

    def test_single_star_unmatched_frequency(self):
        # one offline vertex, several types: unmatched prob ~ exp(-total mass)
        T = 300
        rates = [0.9, 0.8, 0.7]
        x = np.array([0.45, 0.3, 0.15])
        inst = build_instance(
            [("u0", 1)],
            [(f"v{j}", r) for j, r in enumerate(rates)],
            [(f"e{j}", "u0", f"v{j}") for j in range(3)],
            horizon=T)
        obj = LinearObjective(np.ones(3))
        policy = make_policy("marginal-sampling", inst, obj, x)
        n = 8000
        unmatched = 0
        edge_hits = np.zeros(3)
        for s in range(n):
            seq = sample_arrivals(inst, s)
            rng = np.random.default_rng((s, 1))
            _, matched = run_trial(policy, inst, obj, seq, rng)
            if not matched:
                unmatched += 1
            else:
                edge_hits[matched[0]] += 1
        x_u = x.sum()
        p0 = math.exp(-x_u)
        assert abs(unmatched / n - p0) <= 3 * binom_sigma(p0, n)
        # conditional on matched, the edge law is proportional to x
        matched_total = n - unmatched
        for e in range(3):
            share = x[e] / x_u
            sd = binom_sigma(share, matched_total)
            assert abs(edge_hits[e] / matched_total - share) <= 3 * sd

    def test_distant_stars_nearly_independent(self):
        T = 300
        inst = build_instance(
            [("u0", 1), ("u1", 1)],
            [("v0", 0.8), ("v1", 0.8)],
            [("e0", "u0", "v0"), ("e1", "u1", "v1")],
            horizon=T)
        obj = LinearObjective(np.ones(2))
        policy = make_policy("marginal-sampling", inst, obj,
                             np.array([0.7, 0.7]))
        n = 8000
        hits = np.zeros((n, 2))
        for s in range(n):
            seq = sample_arrivals(inst, s)
            rng = np.random.default_rng((s, 1))
            _, matched = run_trial(policy, inst, obj, seq, rng)
            for e in matched:
                hits[s, e] = 1.0
        cov = np.cov(hits[:, 0], hits[:, 1])[0, 1]
        assert abs(cov) <= 3 * 0.25 / math.sqrt(n) + 5.0 / T


class TestContentionResolution:
    def test_requires_integral_rates(self, rng):
        inst = small_instance(rng, integral=False)
        obj = small_objective("linear", inst.n_edges, rng)
        with pytest.raises(ValueError, match="integral"):
            make_policy("contention-resolution", inst, obj,
                        np.zeros(inst.n_edges))
        make_policy("contention-resolution", inst, obj,
                    np.zeros(inst.n_edges), allow_fractional_cr=True)

    def test_single_edge_full_mass_always_matches(self):
        inst = perfect_matching_instance(1)
        obj = LinearObjective([1.0])
        m = simulate(inst, obj, "contention-resolution", x_star=np.ones(1),
                     trials=300, seed=5)
        assert m.mean == 1.0

    def test_empty_sampled_neighborhood_skips(self):
        inst = perfect_matching_instance(2)
        obj = LinearObjective(np.ones(2))
        m = simulate(inst, obj, "contention-resolution", x_star=np.zeros(2),
                     trials=100, seed=6)
        assert m.mean == 0.0

    def test_conditional_marginal_audit(self, rng, monkeypatch):
        # survival probability of a sampled edge stays above the
        # half-times-(1 - e^{-1/2}) floor
        floor = 0.5 * (1 - math.exp(-0.5))
        inst = small_instance(rng, n_offline=4, n_online=4, integral=True)
        obj = small_objective("linear", inst.n_edges, rng)
        x, _, _ = solve_offline_lp(inst, obj)
        policy = make_policy("contention-resolution", inst, obj, x)
        supports = []

        def recording_sample(x_star, inst, rng):
            out = sample_support(x_star, inst, rng)
            supports.append(out)
            return out

        monkeypatch.setattr(online_mod, "sample_support", recording_sample)
        n = 12_000
        sampled = np.zeros(inst.n_edges)
        matched_given_sampled = np.zeros(inst.n_edges)
        for s in range(n):
            _, matched = run_trial(policy, inst, obj, sample_arrivals(inst, s),
                                   np.random.default_rng((s, 1)))
            sampled += supports[-1].X
            for e in set(matched):
                matched_given_sampled[e] += 1
        for e in range(inst.n_edges):
            if sampled[e] < 500:
                continue
            rate = matched_given_sampled[e] / sampled[e]
            assert rate >= floor - 3 * binom_sigma(floor, int(sampled[e]))

    def test_tight_instance_clears_theory_floor(self):
        # perfect matching with full marginals: empirical ratio far above the
        # half-(1 - e^{-1/2})-(1 - 1/e) guarantee
        floor = 0.5 * (1 - math.exp(-0.5)) * (1 - 1 / math.e)
        T = 20
        inst = perfect_matching_instance(T)
        obj = LinearObjective(np.ones(T))
        m = simulate(inst, obj, "contention-resolution", x_star=np.ones(T),
                     trials=2000, seed=17, benchmark=("lp", float(T)))
        assert m.ratio - 3 * m.ratio_std_error >= floor

    def test_capacity_two_star_matches_two_distinct_edges(self):
        # both edges fit the capacity, so both survive thinning into Y and
        # each arriving type takes its own edge
        inst = build_instance([("u0", 2)], [("v0", 1.0), ("v1", 1.0)],
                              [("e0", "u0", "v0"), ("e1", "u0", "v1")],
                              horizon=2)
        obj = LinearObjective(np.ones(2))
        policy = make_policy("contention-resolution", inst, obj, np.ones(2))
        for s in range(20):
            value, matched = run_trial(policy, inst, obj,
                                       ArrivalSequence(np.array([0, 1])),
                                       np.random.default_rng(s))
            assert matched == [0, 1]
            assert value == 2.0

    def test_monotonicity_in_the_sampled_support(self, rng, monkeypatch):
        # shrinking the support never lowers a surviving edge's match rate
        inst = perfect_matching_instance(4)
        extra = [("x0", "u0", "v1"), ("x1", "u0", "v2"), ("x2", "u1", "v2")]
        inst = build_instance(
            offline=[(u, 1) for u in inst.offline_ids],
            online=[(v, 1.0) for v in inst.online_ids],
            edges=[(e, u, v) for e, u, v in zip(
                inst.edge_ids, inst.edge_offline, inst.edge_online)] + extra,
            horizon=4)
        obj = LinearObjective(np.ones(inst.n_edges))
        x = np.full(inst.n_edges, 1 / 3)  # stars u0 and v2 at exactly 1
        policy = make_policy("contention-resolution", inst, obj, x)

        small_support = np.zeros(inst.n_edges, dtype=bool)
        small_support[0] = True
        big = small_support.copy()
        big[4] = big[5] = big[6] = True  # superset

        def match_rate(X, n=6000):
            # the support is fixed to X; only the thinning to Y is drawn
            monkeypatch.setattr(online_mod, "sample_support", lambda x_star, inst, rng:
                                SampledSupport(X=X, Y=select_per_star(X, inst, rng)))
            hits = 0
            for s in range(n):
                _, matched = run_trial(policy, inst, obj, sample_arrivals(inst, s),
                                       np.random.default_rng((s, 7)))
                hits += int(0 in matched)
            return hits / n

        lo, hi = match_rate(big), match_rate(small_support)
        assert lo <= hi + 3 * binom_sigma(0.5, 6000) * 2


class TestGreedy:
    def test_picks_largest_gain(self):
        inst = build_instance([("u0", 1), ("u1", 1)], [("v0", 1.0)],
                              [("e0", "u0", "v0"), ("e1", "u1", "v0")],
                              horizon=1)
        obj = LinearObjective([3.0, 2.0])
        _, matched = run_trial(make_policy("greedy", inst, obj), inst, obj,
                               ArrivalSequence(np.array([0])),
                               np.random.default_rng(0))
        assert matched == [0]

    def test_skips_when_exhausted(self):
        inst = build_instance([("u0", 1)], [("v0", 1.0)],
                              [("e0", "u0", "v0")], horizon=2)
        obj = LinearObjective([1.0])
        value, matched = run_trial(make_policy("greedy", inst, obj), inst, obj,
                                   ArrivalSequence(np.array([0, 0])),
                                   np.random.default_rng(0))
        assert value == 1.0 and matched == [0]

    def test_saturated_budget_still_matches_lowest_index(self):
        inst = build_instance(
            [("u0", 1), ("u1", 1), ("u2", 1)],
            [("v0", 1.0), ("v1", 1.0)],
            [("e0", "u0", "v0"), ("e1", "u1", "v1"), ("e2", "u2", "v1")],
            horizon=2)
        obj = BudgetAdditiveObjective([5.0, 4.0, 3.0], budget=5.0)
        _, matched = run_trial(make_policy("greedy", inst, obj), inst, obj,
                               ArrivalSequence(np.array([0, 1])),
                               np.random.default_rng(0))
        # budget saturated after e0; ties at zero gain break to lowest u index
        assert matched == [0, 1]

    def test_eta_fills_distinct_vertices(self):
        inst = build_instance(
            [("u0", 2), ("u1", 1)], [("v0", 1.0)],
            [("e0", "u0", "v0"), ("e1", "u1", "v0")], horizon=1, eta=3)
        obj = LinearObjective([1.0, 2.0])
        _, matched = run_trial(make_policy("greedy", inst, obj), inst, obj,
                               ArrivalSequence(np.array([0])),
                               np.random.default_rng(0))
        # distinct offline vertices only: one use of each, despite eta=3
        assert sorted(matched) == [0, 1]


class TestDependentRoundingPolicy:
    def test_empty_menu_skips(self):
        inst = perfect_matching_instance(2)
        obj = LinearObjective(np.ones(2))
        m = simulate(inst, obj, "dependent-rounding", x_star=np.zeros(2),
                     trials=100, seed=7)
        assert m.mean == 0.0

    def test_single_menu_edge_matches_deterministically(self):
        inst = perfect_matching_instance(1)
        obj = LinearObjective([1.0])
        m = simulate(inst, obj, "dependent-rounding", x_star=np.ones(1),
                     trials=200, seed=8)
        assert m.mean == 1.0

    def test_reproducible_across_batches(self, rng):
        inst = small_instance(rng, integral=True)
        obj = small_objective("coverage", inst.n_edges, rng)
        x, lp_value, _ = solve_offline_lp(inst, obj)
        a = simulate(inst, obj, "dependent-rounding", x_star=x, trials=2500,
                     seed=100, benchmark=("lp", lp_value))
        b = simulate(inst, obj, "dependent-rounding", x_star=x, trials=2500,
                     seed=4200, benchmark=("lp", lp_value))
        gap = 3 * math.hypot(a.ratio_std_error, b.ratio_std_error)
        assert abs(a.ratio - b.ratio) <= gap


class TestSimulator:
    def test_matched_sets_feasible_every_trial(self, rng):
        for name in ("marginal-sampling", "contention-resolution", "greedy",
                     "dependent-rounding"):
            inst = small_instance(rng, integral=True)
            obj = small_objective("coverage", inst.n_edges, rng)
            x, _, _ = solve_offline_lp(inst, obj)
            m = simulate(inst, obj, name, x_star=x, trials=200, seed=11,
                         keep_matches=True)
            for matched in m.matches:
                used = np.zeros(inst.n_offline, dtype=int)
                for e in matched:
                    used[inst.edge_u[e]] += 1
                assert np.all(used <= inst.capacity_array)

    @pytest.mark.parametrize("picks, at, arrivals, eta, message", [
        ([2], None, [0], 2, "non-incident edge"),
        ([0, 1], None, [0], 1, "more than eta edges"),
        ([0, 0], None, [0], 2, "repeated an offline vertex"),
        ([1], None, [0, 0], 2, "saturated offline vertex"),
        ([0], [-1], [0, 0], 2, "faulty matched outside the block's arrivals"),
        ([0], [2], [0, 0], 2, "faulty matched outside the block's arrivals"),
        ([3], [0], [0, 0], 2, "faulty matched an unknown edge"),
        ([-1], [0], [1, 1], 2, "faulty matched an unknown edge"),
    ], ids=["non_incident", "over_eta", "repeated_vertex", "over_capacity",
            "negative_position", "position_past_the_arrivals",
            "edge_past_the_edges", "negative_edge"])
    def test_faulty_policy_fails_the_trial_audit(self, picks, at, arrivals, eta,
                                                 message):
        # v0 has e0 -> u0 (capacity 2) and e1 -> u1 (capacity 1); e2 joins
        # u0 to v1.  Each faulty policy breaks exactly one rule.  Without
        # ``at`` it makes the same picks on every arrival; with it, it makes
        # them at those flat arrivals, of which the block has 2.  Edge -1
        # would read e2, incident to these arrivals of v1.
        inst = build_instance(
            [("u0", 2), ("u1", 1)], [("v0", 1.0), ("v1", 1.0)],
            [("e0", "u0", "v0"), ("e1", "u1", "v0"), ("e2", "u0", "v1")],
            horizon=2, eta=eta)
        obj = LinearObjective(np.ones(3))

        class Faulty(OnlinePolicy):
            name = "faulty"
            needs_guide = False

            def replay_block(self, block):
                if at is not None:
                    return at, picks
                n = len(block.v)
                return [i for i in range(n) for _ in picks], picks * n

        with pytest.raises(RuntimeError, match=message):
            run_trial(Faulty(inst, obj), inst, obj,
                      ArrivalSequence(np.array(arrivals)), np.random.default_rng(0))

    @pytest.mark.parametrize("arrivals, message", [
        ([4], "matched outside the block's arrivals"),
        ([-1], "matched outside the block's arrivals"),
        ([2, 0], "returned matches out of arrival order"),
        ([1, 0], "returned matches out of arrival order"),
    ], ids=["past_the_block", "negative", "out_of_order", "within_a_trial"])
    def test_matches_out_of_trial_order_fail_the_audit(self, arrivals, message):
        # a two-trial block, flat arrivals 0-1 and 2-3, whose matches are
        # each fine in its own trial; within_a_trial keeps trial order, and
        # only its arrival order is wrong
        inst = build_instance([("u0", 2)], [("v0", 1.0)], [("e0", "u0", "v0")],
                              horizon=2)
        obj = LinearObjective(np.ones(1))

        class OutOfOrder(OnlinePolicy):
            name = "out-of-order"
            needs_guide = False

            def replay_block(self, block):
                return arrivals, [0] * len(arrivals)

        seq = ArrivalSequence(np.array([0, 0]))
        with pytest.raises(RuntimeError, match=f"out-of-order {message}"):
            online_mod._replay(OutOfOrder(inst, obj),
                               online_mod._Block(inst, [None, None], [seq, seq]))

    def test_run_trial_scores_only_audited_picks(self):
        # picks straight from a policy skip the audit, so run_trial refuses
        # them; the block audit's own are scored as given
        inst = build_instance([("u0", 1)], [("v0", 1.0)], [("e0", "u0", "v0")],
                              horizon=2)
        obj = LinearObjective(np.ones(1))
        policy = make_policy("greedy", inst, obj)
        seq = ArrivalSequence(np.array([0, 0]))
        with pytest.raises(TypeError, match="only picks the block audit accepted"):
            run_trial(policy, inst, obj, seq, picks=(np.array([0]),))
        (picks,) = online_mod._replay(policy, online_mod._Block(inst, [None], [seq]))
        assert run_trial(policy, inst, obj, seq, picks=picks) == (1.0, [0])

    @pytest.mark.parametrize("fault, eta, message", [
        ("outside", 2, "faulty matched outside the block's arrivals"),
        ("over_eta", 1, "more than eta edges"),
        ("non_incident", 2, "non-incident edge"),
        ("repeated_vertex", 2, "repeated an offline vertex"),
        ("over_capacity", 1, "saturated offline vertex"),
    ], ids=["outside", "over_eta", "non_incident", "repeated_vertex",
            "over_capacity"])
    def test_simulate_audits_every_trial_of_a_block(self, monkeypatch, fault, eta,
                                                    message):
        # Every round has an arrival; u0 (capacity 1) serves v0 by e0 and v1
        # by e2.  Only trial 2 of a 4-trial block breaks the rule, so an
        # audit that skips the block, or reads only its first trial, passes
        # the block.  Its matches are at flat arrivals of trial 2, except
        # outside's, which is one past the block's last arrival.
        inst = build_instance(
            [("u0", 1), ("u1", 1)], [("v0", 1.0), ("v1", 1.0)],
            [("e0", "u0", "v0"), ("e1", "u1", "v0"), ("e2", "u0", "v1")],
            horizon=2, eta=eta)
        obj = LinearObjective(np.ones(3))
        to_u0 = [0, 2]  # the edge joining each type to u0

        class FaultyInOneTrial(OnlinePolicy):
            name = "faulty"
            needs_guide = False

            def replay_block(self, block):
                f = int(block.first[2])
                v = block.v[f:f + block.count[2]].tolist()
                edges, at = {
                    "outside": ([to_u0[v[0]]], [len(block.v)]),
                    "over_eta": ([to_u0[v[0]]] * 2, [f, f]),
                    "non_incident": ([to_u0[1 - v[0]]], [f]),
                    "repeated_vertex": ([to_u0[v[0]]] * 2, [f, f]),
                    "over_capacity": ([to_u0[v[0]], to_u0[v[1]]], [f, f + 1]),
                }[fault]
                return at, edges

        blocks = []
        trial_block = online_mod._trial_block
        monkeypatch.setattr(online_mod, "_trial_block",
                            lambda *a: blocks.append(len(a[2])) or trial_block(*a))
        monkeypatch.setattr(online_mod, "make_policy",
                            lambda name, inst, obj, *a, **k: FaultyInOneTrial(inst, obj))
        with pytest.raises(RuntimeError, match=message):
            simulate(inst, obj, "faulty", trials=4, seed=0)
        assert blocks == [4]

    def test_simulate_scores_each_trial_through_one_run_trial_call(self, rng,
                                                                   monkeypatch):
        # perfbench's tracer reads (policy, inst, objective, seq) positionally
        # from one run_trial call per trial
        inst = small_instance(rng, integral=True).with_eta(2)
        obj = small_objective("budget_additive", inst.n_edges, rng)
        x, _, _ = solve_offline_lp(inst, obj)
        calls = []
        score = online_mod.run_trial
        monkeypatch.setattr(online_mod, "run_trial", lambda *a, **k:
                            calls.append((a, k)) or score(*a, **k))
        for policy in POLICY_NAMES:
            del calls[:]
            m = simulate(inst, obj, policy, x_star=x, trials=30, seed=8,
                         keep_matches=True)
            assert len(calls) == 30
            for i, (args, kwargs) in enumerate(calls):
                pol, cell, objective, seq = args
                assert pol.name == policy and cell is inst and objective is obj
                assert np.array_equal(seq.slots, sample_arrivals(inst, 8 + i).slots)
                assert list(kwargs) == ["picks"]
                assert kwargs["picks"][0].tolist() == m.matches[i]

    def test_only_drawing_policies_get_generators(self, rng, monkeypatch):
        # greedy draws nothing, so its trials get None; every other policy
        # gets one generator per trial
        inst = small_instance(rng, integral=True)
        obj = small_objective("budget_additive", inst.n_edges, rng)
        x, _, _ = solve_offline_lp(inst, obj)
        seen = []
        replay = online_mod._replay
        monkeypatch.setattr(online_mod, "_replay", lambda policy, block:
                            seen.append((policy.name, block.rngs)) or replay(policy, block))
        for policy in POLICY_NAMES:
            simulate(inst, obj, policy, x_star=x, trials=5, seed=1)
        assert sorted(name for name, _ in seen) == sorted(POLICY_NAMES)
        for name, rngs in seen:
            assert len(rngs) == 5
            assert all((g is None) == (name == "greedy") for g in rngs)

    def test_load_recount_catches_overcommit_with_consistent_bookkeeping(self):
        # u0 (capacity 1) serves v0 by e0 and v1 by e1.  The faulty policy
        # books capacity per edge instead of per offline vertex, so its own
        # counts never go negative while u0 takes two matches.
        inst = build_instance(
            [("u0", 1)], [("v0", 1.0), ("v1", 1.0)],
            [("e0", "u0", "v0"), ("e1", "u0", "v1")], horizon=2)
        obj = LinearObjective(np.ones(2))

        class PerEdgeBooking(OnlinePolicy):
            name = "per-edge-booking"
            needs_guide = False

            def replay_block(self, block):
                self.remaining = [inst.capacities[u] for u in inst.edge_u]
                matched, arrival_of = [], []
                for a, v in enumerate(block.v.tolist()):
                    for e in inst.edges_at_v[v].tolist():
                        if self.remaining[e] > 0:
                            self.remaining[e] -= 1
                            matched.append(e)
                            arrival_of.append(a)
                return arrival_of, matched

        policy = PerEdgeBooking(inst, obj)
        with pytest.raises(RuntimeError, match="saturated offline vertex"):
            run_trial(policy, inst, obj, ArrivalSequence(np.array([0, 1])),
                      np.random.default_rng(0))
        assert min(policy.remaining) == 0  # its own bookkeeping looked fine

    def test_golden_values_and_matches(self):
        # budget recipe at b in {1, 5} and eta in {1, 2}
        assert (recipe_digest("budget_additive", (1, 5), (1, 2))
                == SIMULATE_GOLDEN), golden_note("SIMULATE_GOLDEN")

    def test_coverage_golden_values_and_matches(self):
        # coverage reaches greedy's incremental coverage evaluator, which
        # the budget recipe does not
        assert (recipe_digest("coverage", (1, 5), (1,))
                == COVERAGE_GOLDEN), golden_note("COVERAGE_GOLDEN")

    def test_greedy_single_edge_ratio_one(self):
        inst = build_instance([("u0", 1)], [("v0", 1.0)],
                              [("e0", "u0", "v0")], horizon=1)
        obj = LinearObjective([1.0])
        e_opt, _ = expected_opt(inst, obj, mode="exact")
        m = simulate(inst, obj, "greedy", trials=64, seed=12,
                     benchmark=("brute", e_opt))
        assert m.ratio == 1.0

    def test_identical_seed_identical_metrics(self, rng):
        inst = small_instance(rng, integral=True)
        obj = small_objective("budget_additive", inst.n_edges, rng)
        x, _, _ = solve_offline_lp(inst, obj)
        a = simulate(inst, obj, "contention-resolution", x_star=x, trials=300,
                     seed=13)
        b = simulate(inst, obj, "contention-resolution", x_star=x, trials=300,
                     seed=13)
        assert np.array_equal(a.values, b.values)

    def test_worker_count_does_not_change_results(self, rng):
        inst = small_instance(rng, integral=True)
        obj = small_objective("coverage", inst.n_edges, rng)
        x, _, _ = solve_offline_lp(inst, obj)
        serial = simulate(inst, obj, "marginal-sampling", x_star=x,
                          trials=120, seed=14)
        parallel = simulate(inst, obj, "marginal-sampling", x_star=x,
                            trials=120, seed=14, workers=3)
        assert np.array_equal(serial.values, parallel.values)
        shared = simulate(inst, obj, "marginal-sampling", x_star=x, trials=120,
                          seed=14, workers=3, streams=ArrivalStreams(inst, 14, 120))
        assert np.array_equal(serial.values, shared.values)

    def test_pool_tasks_carry_only_their_blocks_streams(self, rng, monkeypatch):
        inst = small_instance(rng, integral=True)
        obj = small_objective("linear", inst.n_edges, rng)
        tasks = []

        class SerialPool:  # records each task's arguments, runs it here
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                tasks.extend(zip(*args))
                return map(fn, *args)

        monkeypatch.setattr(online_mod, "ProcessPoolExecutor", SerialPool)
        streams = ArrivalStreams(inst, 5, 40)
        m = simulate(inst, obj, "greedy", trials=40, seed=5, workers=2,
                     streams=streams)
        assert np.array_equal(m.values, simulate(inst, obj, "greedy", trials=40,
                                                 seed=5).values)
        assert len(tasks) == 8  # blocks of ceil(40 / (2 workers * 4))
        for seeds, held in tasks:
            assert len(held) == len(seeds) == 5
            assert all(np.array_equal(seq.slots, sample_arrivals(inst, s).slots)
                       for seq, s in zip(held, seeds))

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_shared_streams_do_not_change_results(self, rng, policy):
        inst = small_instance(rng, integral=True)
        obj = small_objective("budget_additive", inst.n_edges, rng)
        streams = ArrivalStreams(inst, 21, 60)
        for b, eta in ((1, 1), (2, 2)):  # one set serves every cell
            cell = inst.with_capacities(b).with_eta(eta)
            x, _, _ = solve_offline_lp(cell, obj)
            run = dict(x_star=x, trials=60, seed=21, keep_matches=True)
            own = simulate(cell, obj, policy, **run)
            shared = simulate(cell, obj, policy, streams=streams, **run)
            assert np.array_equal(own.values, shared.values)
            assert own.matches == shared.matches

    def test_streams_for_another_run_are_rejected(self, rng):
        inst = small_instance(rng, integral=True)
        obj = small_objective("linear", inst.n_edges, rng)
        streams = ArrivalStreams(inst, 3, 20)
        other_rates = build_instance(
            [(u, 1) for u in inst.offline_ids],
            [(v, 0.5) for v in inst.online_ids],
            list(zip(inst.edge_ids, inst.edge_offline, inst.edge_online)),
            horizon=inst.horizon)
        for cell, seed, trials, what in (
                (inst, 4, 20, "seed"), (inst, 3, 21, "trial count"),
                (dataclasses.replace(inst, horizon=inst.horizon + 1), 3, 20, "horizon"),
                (other_rates, 3, 20, "rates")):
            with pytest.raises(ValueError, match=f"another {what}"):
                simulate(cell, obj, "greedy", trials=trials, seed=seed,
                         streams=streams)

    def test_stream_set_memory_is_bounded(self):
        # a 100,000-trial run holds streams only within STREAM_CELLS; the
        # rest are drawn when their block runs
        inst = perfect_matching_instance(3)
        streams = ArrivalStreams(inst, 0, 100_000)
        held = len(streams.held(range(0, 100_000)))
        assert held == online_mod.STREAM_CELLS // (2 * 3 + 64) < 100_000
        assert len(streams.held(range(held - 2, held + 5))) == 2

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_blocking_does_not_change_results(self, rng, monkeypatch, policy):
        inst = small_instance(rng, integral=True).with_capacities(2).with_eta(2)
        obj = small_objective("coverage", inst.n_edges, rng)
        x, _, _ = solve_offline_lp(inst, obj)
        run = dict(x_star=x, trials=40, seed=17, keep_matches=True,
                   allow_fractional_cr=True)
        one_block = simulate(inst, obj, policy, **run)
        blocks = []
        trial_block = online_mod._trial_block
        monkeypatch.setattr(online_mod, "_trial_block",
                            lambda *a: blocks.append(a) or trial_block(*a))
        for cells in (1, 3000):  # one trial per block, then a few
            monkeypatch.setattr(online_mod, "BLOCK_CELLS", cells)
            del blocks[:]
            blocked = simulate(inst, obj, policy, **run)
            assert len(blocks) > 2
            assert np.array_equal(blocked.values, one_block.values)
            assert blocked.matches == one_block.matches

    def test_benchmark_cells_run_in_one_block(self, monkeypatch):
        # perfbench's budget-sweep (eta 2, 170 trials) and coverage sweep
        # (eta 1, 50 trials) cells each fit one block
        sizes = []
        monkeypatch.setattr(online_mod, "_trial_block", lambda policy, keep, seeds, held:
                            sizes.append(len(seeds)) or [(0.0, None)] * len(seeds))
        for kind, eta, trials in (("budget_additive", 2, 170), ("coverage", 1, 50)):
            problem = generate_synthetic(kind, 11)
            simulate(problem.instance.with_capacities(15).with_eta(eta),
                     build_objective(problem), "greedy", trials=trials)
        assert sizes == [170, 50]

    def test_benchmark_kinds(self, rng):
        inst = small_instance(rng, n_offline=3, n_online=2, horizon=3)
        obj = small_objective("coverage", inst.n_edges, rng)
        x, lp_value, _ = solve_offline_lp(inst, obj)
        by_lp = simulate(inst, obj, "greedy", trials=400, seed=15,
                         benchmark="lp")
        assert by_lp.benchmark_value == pytest.approx(lp_value)
        by_brute = simulate(inst, obj, "greedy", trials=400, seed=15,
                            benchmark="brute")
        assert by_brute.benchmark_value <= lp_value + 1e-9
        scaled = simulate(inst, obj, "marginal-sampling", x_star=x, trials=50,
                          seed=15, benchmark="guide-scaled")
        assert scaled.benchmark_value > 0
        # greedy ignores the guide, but the benchmark still scales the caller's x
        by_greedy = simulate(inst, obj, "greedy", x_star=x, trials=50,
                             seed=15, benchmark="guide-scaled")
        assert by_greedy.benchmark_value == scaled.benchmark_value
        with pytest.raises(ValueError, match="needs edge marginals"):
            simulate(inst, obj, "greedy", x_star=x[:-1], trials=5,
                     benchmark="guide-scaled")

    def test_guide_scaled_rejects_a_guide_outside_the_polytope(self, rng):
        # greedy takes no guide, so only the benchmark can check it:
        # F(x) * e/(e-1) bounds E[OPT] only for an x in P
        inst = small_instance(rng, n_offline=3, n_online=2, horizon=3)
        obj = small_objective("budget_additive", inst.n_edges, rng)
        with pytest.raises(ValueError, match=re.escape(
                "infeasible guide-scaled guide: not in the b-matching polytope")):
            simulate(inst, obj, "greedy", x_star=np.full(inst.n_edges, 5.0),
                     trials=5, benchmark="guide-scaled")

    @pytest.mark.parametrize("name", ["marginal-sampling", "contention-resolution",
                                      "dependent-rounding"])
    @pytest.mark.parametrize("x", [[0.7, 0.0, 0.4],    # star u0 above b_u = 1
                                   [0.0, 0.7, 0.4],    # type v1 above eta * rate = 1
                                   [-0.2, 0.5, 0.5]],  # an entry outside [0, 1]
                             ids=["star", "type", "box"])
    def test_a_guide_outside_the_polytope_is_rejected(self, name, x):
        # every guided policy checks its guide once, at construction
        inst = build_instance([("u0", 1), ("u1", 1)], [("v0", 1.0), ("v1", 1.0)],
                              [("e0", "u0", "v0"), ("e1", "u1", "v1"),
                               ("x0", "u0", "v1")], horizon=2)
        obj = LinearObjective(np.ones(3))
        make_policy(name, inst, obj, np.full(3, 0.5))  # u0 and v1 exactly full
        with pytest.raises(ValueError, match=re.escape(
                f"infeasible {name} guide: not in the b-matching polytope")):
            make_policy(name, inst, obj, np.array(x))

    def test_ratio_never_exceeds_one_plus_noise(self, rng):
        for _ in range(5):
            inst = small_instance(rng, n_offline=3, n_online=2, horizon=3)
            obj = small_objective("linear", inst.n_edges, rng)
            m = simulate(inst, obj, "greedy", trials=500, seed=16,
                         benchmark="brute")
            assert m.ratio <= 1.0 + 3 * m.ratio_std_error / max(m.ratio, 1e-9)


# -- the scalar reference ----------------------------------------------------
# The per-trial replay loops that the block engine replaced, one trial at a
# time over Python lists and floats, kept as the reference it must equal.

class ReferenceEvaluator:
    """Greedy's incremental gains for one trial, in Python floats."""

    def __init__(self, objective):
        self.objective = objective
        self.members = set()
        self.raw = 0.0
        if isinstance(objective, CoverageObjective):
            self.covered = np.zeros(objective.n_features, dtype=bool)

    def gain(self, e):
        obj = self.objective
        if e in self.members:
            return 0.0
        if isinstance(obj, BudgetAdditiveObjective):
            w = obj.weights.tolist()[e]
            return min(obj.budget, self.raw + w) - min(obj.budget, self.raw)
        if isinstance(obj, CoverageObjective):
            q = obj.edge_features[e]
            return float(obj.feature_weights[q[~self.covered[q]]].sum())
        return float(obj.weights[e])

    def add(self, e):
        if e not in self.members:
            if isinstance(self.objective, CoverageObjective):
                self.covered[self.objective.edge_features[e]] = True
            elif isinstance(self.objective, BudgetAdditiveObjective):
                self.raw += self.objective.weights.tolist()[e]
            self.members.add(e)


def arrival_pairs(seq):
    """(round, online type index) pairs of an arrival sequence, in time order."""
    ts = seq.arrival_times
    return list(zip(ts.tolist(), seq.slots[ts].tolist()))


def reference_replay(policy, trial, seq):
    """(matched edges, arrival positions) of one trial."""
    inst, eta = policy.inst, policy.inst.eta
    edge_u = inst.edge_u.tolist()
    remaining = list(inst.capacities)
    matched, arrival_of = [], []
    if policy.name == "marginal-sampling":
        cum = [np.cumsum(policy.x_star[edges] / (eta * rate)).tolist()
               for edges, rate in zip(inst.edges_at_v, inst.rates)]
        draws = iter(trial.random(eta * len(seq.arrival_times)).tolist())
        for i, (_, v) in enumerate(arrival_pairs(seq)):
            used_u = []
            for r in islice(draws, eta):
                k = bisect_right(cum[v], r)
                if k >= len(cum[v]):
                    continue  # leftover mass: skip this draw
                e = int(inst.edges_at_v[v][k])
                u = edge_u[e]
                if u in used_u or remaining[u] <= 0:
                    continue
                used_u.append(u)
                remaining[u] -= 1
                matched.append(e)
                arrival_of.append(i)
    elif policy.name == "contention-resolution":
        support, rng = trial
        present = inst.edges_by_v[support.X[inst.edges_by_v]]
        k = np.bincount(inst.edge_v[present], minlength=inst.n_online)
        first = np.cumsum(k) - k
        vs = seq.slots[seq.arrival_times]
        drawn = np.flatnonzero(k[vs] > 0)
        picks = present[first[vs[drawn]] + rng.integers(0, k[vs[drawn]])]
        kept = support.Y[picks]
        for i, e in zip(drawn[kept].tolist(), picks[kept].tolist()):
            if remaining[edge_u[e]] > 0:
                remaining[edge_u[e]] -= 1
                matched.append(e)
                arrival_of.append(i)
    elif policy.name == "greedy":
        evaluator = ReferenceEvaluator(policy.objective)
        by_u = [sorted((edge_u[e], e) for e in edges.tolist())
                for edges in inst.edges_at_v]
        for i, (_, v) in enumerate(arrival_pairs(seq)):
            used_u = []
            for _ in range(eta):
                best_e, best_u, best_gain = -1, -1, -1.0
                for u, e in by_u[v]:
                    if u in used_u or remaining[u] <= 0:
                        continue
                    g = evaluator.gain(e)
                    if g > best_gain:
                        best_gain, best_e, best_u = g, e, u
                if best_e < 0:
                    break
                evaluator.add(best_e)
                used_u.append(best_u)
                remaining[best_u] -= 1
                matched.append(best_e)
                arrival_of.append(i)
    else:
        chosen, rng = trial
        menu = [[e for e in edges.tolist() if chosen[e]] for edges in inst.edges_at_v]
        for i, (_, v) in enumerate(arrival_pairs(seq)):
            used_u = []
            for _ in range(eta):
                avail = [e for e in menu[v]
                         if edge_u[e] not in used_u and remaining[edge_u[e]] > 0]
                if not avail:
                    break
                e = avail[int(rng.integers(len(avail)))]
                used_u.append(edge_u[e])
                remaining[edge_u[e]] -= 1
                matched.append(e)
                arrival_of.append(i)
    return matched, arrival_of


def trial_rngs(seeds):
    return [np.random.default_rng((s, 1)) for s in seeds]


def reference_trials(policy, rngs):
    """Each trial's start for ``reference_replay``: its generator, after
    contention resolution's sampled support (one call per trial) or dependent
    rounding's rounded edge set (a batched call, whose rows equal one-trial
    calls: ``TestBatchedStart``), drawn here by the rounding module itself."""
    if policy.name == "contention-resolution":
        starts = [sample_support(policy.x_star, policy.inst, rng) for rng in rngs]
    elif policy.name == "dependent-rounding":
        starts = dependent_round_stars(policy.x_star, policy.inst, rngs)
    else:
        return rngs
    return list(zip(starts, rngs))


def assert_engine_matches_reference(policy, seqs, seeds, sizes=(None,)):
    """Replay ``seqs`` in blocks of each size (None: all in one block) and
    compare every trial's picks, and its generator's state after, with the
    reference loop's."""
    ref_rngs = trial_rngs(seeds)
    expected = [reference_replay(policy, t, seq)
                for t, seq in zip(reference_trials(policy, ref_rngs), seqs)]
    ref_states = [rng.bit_generator.state for rng in ref_rngs]
    for size in sizes:
        size = size or len(seqs)
        rngs, got = trial_rngs(seeds), []
        for i in range(0, len(seqs), size):
            block = online_mod._Block(policy.inst, rngs[i:i + size], seqs[i:i + size])
            a, e = policy.replay_block(block)
            assert np.all(np.diff(a) >= 0)  # arrival by arrival
            t = np.repeat(np.arange(len(block.count)), block.count)[a]
            got += [(e[t == j], a[t == j] - block.first[j]) for j in range(len(block.count))]
        for (e, at), (ref_e, ref_at) in zip(got, expected):
            assert np.asarray(e).tolist() == ref_e
            assert np.asarray(at).tolist() == ref_at
        assert [rng.bit_generator.state for rng in rngs] == ref_states


def tie_instance(b, eta):
    """Three offline vertices, every type joined to every one.  Type j lists
    its edges from u_j on, so edge order is not offline order."""
    offline = [(f"u{i}", b) for i in range(3)]
    online = [(f"v{j}", 1.0) for j in range(3)]
    edges = [(f"e{3 * j + k}", f"u{(j + k) % 3}", f"v{j}")
             for j in range(3) for k in range(3)]
    return build_instance(offline, online, edges, horizon=3, eta=eta)


class TestBlockEngine:
    @pytest.mark.parametrize("kind", ["budget_additive", "coverage"])
    @pytest.mark.parametrize("b, eta", [(1, 1), (1, 2), (5, 1), (5, 2)])
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_recipe_matches_reference(self, kind, b, eta, policy):
        problem = generate_synthetic(kind, 11)
        inst = problem.instance.with_capacities(b).with_eta(eta)
        pol = make_policy(policy, inst, build_objective(problem),
                          recipe_guide(inst, b, eta), allow_fractional_cr=True)
        seeds = range(11, 19)
        assert_engine_matches_reference(
            pol, [sample_arrivals(inst, s) for s in seeds], seeds, sizes=(1, 3, None))

    @pytest.mark.parametrize("kind", ["linear", "budget_additive", "coverage"])
    @pytest.mark.parametrize("b, eta", [(1, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_ties_match_reference(self, kind, b, eta, policy):
        # every gain ties, and the budget saturates after two edges
        inst = tie_instance(b, eta)
        obj = {"linear": LinearObjective(np.ones(9)),
               "budget_additive": BudgetAdditiveObjective(np.ones(9), budget=2.0),
               "coverage": CoverageObjective([frozenset({0})] * 9, [1.0])}[kind]
        x = np.full(9, min(b, eta) / 3.0)
        pol = make_policy(policy, inst, obj, x)
        seeds = range(40)
        assert_engine_matches_reference(
            pol, [sample_arrivals(inst, s) for s in seeds], seeds, sizes=(1, 3, None))

    @pytest.mark.parametrize("eta", [1, 2, 3])
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_per_vertex_capacities_match_reference(self, policy, eta):
        # u0, u1 and u2 hold 1, 2 and 3: the rank rule's b_u differs by vertex
        inst = tie_instance(1, eta).with_capacities([1, 2, 3])
        obj = LinearObjective(np.ones(9))
        pol = make_policy(policy, inst, obj, np.full(9, 1 / 3))
        seeds = range(60)
        assert_engine_matches_reference(
            pol, [sample_arrivals(inst, s) for s in seeds], seeds, sizes=(1, 7, None))

    @pytest.mark.parametrize("kind", ["budget_additive", "coverage"])
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_recipe_mixed_capacities_eta_3_match_reference(self, kind, policy):
        problem = generate_synthetic(kind, 11)
        n = problem.instance.n_offline
        inst = problem.instance.with_capacities(np.resize([1, 2, 3, 5], n)).with_eta(3)
        x = recipe_guide(inst, inst.capacity_array[inst.edge_u], 3)
        pol = make_policy(policy, inst, build_objective(problem), x,
                          allow_fractional_cr=True)
        seeds = range(11, 17)
        assert_engine_matches_reference(
            pol, [sample_arrivals(inst, s) for s in seeds], seeds, sizes=(1, None))

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_trial_without_arrivals(self, policy):
        inst = tie_instance(1, 2)
        obj = LinearObjective(np.ones(9))
        pol = make_policy(policy, inst, obj, np.full(9, 1 / 3))
        empty = ArrivalSequence(np.full(3, -1))
        seqs = [sample_arrivals(inst, 0), empty, sample_arrivals(inst, 2)]
        assert_engine_matches_reference(pol, seqs, range(3), sizes=(1, None))
        a, e = pol.replay_block(online_mod._Block(inst, [np.random.default_rng(0)], [empty]))
        assert len(a) == len(e) == 0
        value, matched = run_trial(pol, inst, obj, empty, np.random.default_rng(0))
        assert value == 0.0 and matched == []

    @pytest.mark.parametrize("kind", ["budget_additive", "coverage"])
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_lone_trial_matches_its_block_trial(self, kind, policy):
        # run_trial without picks replays a block of one; trial i of a run
        # must read the same from it as from the run's blocks
        problem = generate_synthetic(kind, 11)
        obj, seed, trials = build_objective(problem), 11, 4
        for b in (1, 5):
            for eta in (1, 2):
                inst = problem.instance.with_capacities(b).with_eta(eta)
                x = recipe_guide(inst, b, eta)
                m = simulate(inst, obj, policy, x_star=x, trials=trials, seed=seed,
                             keep_matches=True, allow_fractional_cr=True)
                pol = make_policy(policy, inst, obj, x, allow_fractional_cr=True)
                for i in range(trials):
                    value, matched = run_trial(
                        pol, inst, obj, sample_arrivals(inst, seed + i),
                        np.random.default_rng((seed + i, 1)))
                    assert value == m.values[i]
                    assert matched == m.matches[i]
