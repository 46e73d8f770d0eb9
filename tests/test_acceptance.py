"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantities.

Statistical checks run at pinned seeds, so outcomes are deterministic.
Criteria 5 and 6 encode target orderings between policies at a fixed
experiment scale.

Criterion 5 keeps two sub-checks that fail at that scale and are asserted
anyway rather than weakened: on the budget-additive recipe greedy meets the
budget, which is also the certified LP bound, so no policy can beat it by
3 standard errors; and contention resolution runs there on fractional
rates, where its 0.63 level is not promised.  The test prints greedy's mean
and minimum trial value against the bound, and the rate regime, at every b.

Criterion 6 checks that greedy leads marginal sampling at b = 1 and that
the lead narrows once capacity is slack (b >= 3).  The lead does not close:
the guide puts most of each type's mass on one edge, so marginal sampling
re-draws already matched type-edges, which are worth nothing; this is a
structural sampling loss that no trial count closes, and the remaining
separation is printed beside each sub-check.
"""

import math
import os
import tempfile

import numpy as np

from conftest import small_instance, small_objective
from osbm.instances import (
    build_instance,
    generate_synthetic,
    ingest_ratings,
    sample_arrivals,
)
from osbm.lp import (
    LinearProgram,
    reference_solve,
    solve,
    solve_offline_lp,
)
from osbm.objectives import (
    LinearObjective,
    build_objective,
    multilinear_exact,
)
from osbm.offline import continuous_greedy, expected_opt
from osbm.online import make_policy, run_trial, simulate
from osbm.rounding import dependent_round_stars, pipage_round

ONE_MINUS_1_OVER_E = 1.0 - 1.0 / math.e
CR_FLOOR = 0.5 * (1.0 - math.exp(-0.5)) * ONE_MINUS_1_OVER_E
MMP_FLOOR = ONE_MINUS_1_OVER_E ** 2


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


def separation(a, b):
    """(a.ratio - b.ratio) in combined standard errors."""
    spread = math.hypot(a.ratio_std_error, b.ratio_std_error)
    return (a.ratio - b.ratio) / max(spread, 1e-12)


def integral_suite(n, seed):
    """Small instances with rate 1 per type and one type per round."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        T = int(rng.integers(3, 8))  # branch count T stays within the gate
        inst = small_instance(rng, n_offline=int(rng.integers(2, 9)),
                              n_online=T, integral=True)
        out.append((inst, rng))
    return out


def test_criterion_1_tight_instance_ratio():
    T = 100
    inst = build_instance(
        offline=[(f"u{i}", 1) for i in range(T)],
        online=[(f"v{i}", 1.0) for i in range(T)],
        edges=[(f"e{i}", f"u{i}", f"v{i}") for i in range(T)],
        horizon=T)
    obj = LinearObjective(np.ones(T))
    metrics = simulate(inst, obj, "marginal-sampling", x_star=np.ones(T),
                       trials=10_000, seed=101, benchmark=("lp", float(T)))
    target = 1.0 - (1.0 - 1.0 / T) ** T
    gap = abs(metrics.ratio - target)
    ok = gap <= 0.015
    assert report(1, ok,
                  f"tight instance: ratio={metrics.ratio:.4f} "
                  f"target={target:.4f} |gap|={gap:.4f} tol=0.015")


def test_criterion_2_contention_resolution_floor():
    rng = np.random.default_rng(202)
    worst = math.inf
    cells = 0
    for idx in range(20):
        T = int(rng.integers(3, 8))
        inst = small_instance(rng, n_offline=int(rng.integers(2, 9)),
                              n_online=T, integral=True)
        for kind in ("linear", "coverage", "budget_additive"):
            obj = small_objective(kind, inst.n_edges, rng)
            x, _, _ = solve_offline_lp(inst, obj)
            e_opt, _ = expected_opt(inst, obj, mode="exact")
            if e_opt <= 0:
                continue
            metrics = simulate(inst, obj, "contention-resolution", x_star=x,
                               trials=1500, seed=1000 + idx,
                               benchmark=("brute", e_opt))
            margin = metrics.ratio - 3 * metrics.ratio_std_error
            worst = min(worst, margin)
            cells += 1
            assert margin >= CR_FLOOR, (
                f"instance {idx} kind {kind}: {margin:.4f} < {CR_FLOOR:.4f}")
    assert report(2, True,
                  f"{cells} instance/objective cells, worst ratio-3se "
                  f"{worst:.4f} >= floor {CR_FLOOR:.4f}")


def test_criterion_3_marginal_sampling_floor():
    rng = np.random.default_rng(303)
    worst = math.inf
    cells = 0
    for idx in range(20):
        nv = int(rng.integers(2, 6))
        inst = small_instance(rng, n_offline=int(rng.integers(2, 9)),
                              n_online=nv, horizon=200)
        # keep total arrival mass modest so per-sequence search stays small
        inst = build_instance(
            offline=list(zip(inst.offline_ids, inst.capacities)),
            online=[(v, 0.1 + 0.5 * rng.random()) for v in inst.online_ids],
            edges=list(zip(inst.edge_ids, inst.edge_offline, inst.edge_online)),
            horizon=200)
        for kind in ("linear", "coverage", "budget_additive"):
            obj = small_objective(kind, inst.n_edges, rng)
            sol = continuous_greedy(obj, inst, steps=60, grad_samples=100,
                                    seed=idx)
            e_opt, opt_se = expected_opt(inst, obj, mode="mc", trials=800,
                                         seed=5000 + idx)
            metrics = simulate(inst, obj, "marginal-sampling", x_star=sol.x,
                               trials=2000, seed=2000 + idx,
                               benchmark=("brute", e_opt))
            combined = metrics.ratio * math.hypot(
                metrics.std_error / max(metrics.mean, 1e-12),
                opt_se / e_opt)
            margin = metrics.ratio - 3 * combined
            worst = min(worst, margin)
            cells += 1
            assert margin >= MMP_FLOOR, (
                f"instance {idx} kind {kind}: {margin:.4f} < {MMP_FLOOR:.4f}")
    assert report(3, True,
                  f"{cells} cells at T=200, worst ratio-3se {worst:.4f} >= "
                  f"floor {MMP_FLOOR:.4f}")


def test_criterion_4_offline_ascent_guarantee():
    rng = np.random.default_rng(404)
    floor_factor = ONE_MINUS_1_OVER_E - 0.05
    worst = math.inf
    for idx in range(20):
        kind = ("coverage", "budget_additive", "linear")[idx % 3]
        while True:
            inst = small_instance(rng, n_offline=int(rng.integers(2, 5)),
                                  n_online=int(rng.integers(2, 5)),
                                  horizon=int(rng.integers(3, 6)))
            if inst.n_edges <= 12:
                break
        obj = small_objective(kind, inst.n_edges, rng)
        sol = continuous_greedy(obj, inst, steps=100, grad_samples=200,
                                seed=idx)
        achieved = multilinear_exact(obj, sol.x)
        e_opt, _ = expected_opt(inst, obj, mode="exact")
        ratio = achieved / e_opt if e_opt > 0 else math.inf
        worst = min(worst, ratio)
        assert achieved >= floor_factor * e_opt, (
            f"instance {idx} kind {kind}: F={achieved:.4f} < "
            f"{floor_factor:.4f} * {e_opt:.4f}")
    assert report(4, True,
                  f"20 instances, worst F(x*)/E[OPT] = {worst:.4f} >= "
                  f"{floor_factor:.4f}")


def run_sweep(problem, algorithms, b_values, trials, seed):
    obj = build_objective(problem)
    table = {}
    for b in b_values:
        inst = problem.instance.with_capacities(b)
        x, lp_value, _ = solve_offline_lp(inst, obj)
        for name in algorithms:
            table[(name, b)] = simulate(
                inst, obj, name, x_star=x, trials=trials, seed=seed,
                benchmark=("lp", lp_value), allow_fractional_cr=True)
    return table


B_SWEEP = (1, 2, 3, 5, 10, 15)


def test_criterion_5_budget_additive_reproduction():
    problem = generate_synthetic("budget_additive", seed=11)
    table = run_sweep(problem, ("marginal-sampling", "contention-resolution",
                                "greedy", "dependent-rounding"),
                      B_SWEEP, trials=500, seed=55)
    checks = []
    for name in ("marginal-sampling", "contention-resolution"):
        wins = sum(
            1 for b in B_SWEEP
            if separation(table[(name, b)], table[("greedy", b)]) >= 3
            and separation(table[(name, b)],
                           table[("dependent-rounding", b)]) >= 3)
        checks.append((f"{name} beats both heuristics by 3se in >=5/6 b",
                       wins >= 5, f"wins={wins}/6"))
        above = sum(1 for b in B_SWEEP if table[(name, b)].ratio > 0.63)
        checks.append((f"{name} ratio > 0.63 at every b", above == 6,
                       f"above={above}/6"))
    for label, ok, detail in checks:
        print(f"  criterion 5 sub-check [{'PASS' if ok else 'FAIL'}] "
              f"{label} ({detail})")
    # why the failing sub-checks fail: greedy at the certified bound, and
    # contention resolution outside the integral-rate regime it is stated for
    inst = problem.instance
    integral = (all(abs(r - 1.0) <= 1e-9 for r in inst.rates)
                and inst.n_online == inst.horizon)
    budget = build_objective(problem).budget
    for b in B_SWEEP:
        greedy = table[("greedy", b)]
        print(f"  criterion 5 b={b}: greedy mean {greedy.mean:.3f}, min trial "
              f"{greedy.values.min():.3f} vs certified bound "
              f"{greedy.benchmark_value:.3f} (budget {budget:.3f}); "
              f"contention-resolution ratio "
              f"{table[('contention-resolution', b)].ratio:.3f} on "
              f"{'integral' if integral else 'fractional'} rates")
    at_bound = sum(
        1 for b in B_SWEEP
        if table[("greedy", b)].ratio
        + 3 * table[("greedy", b)].ratio_std_error >= 1.0)
    print(f"  criterion 5 causes: greedy is within 3se of the certified bound "
          f"at {at_bound}/6 b, and no policy's mean exceeds that bound; "
          f"contention-resolution runs on "
          f"{'integral' if integral else 'fractional'} rates, and its 0.63 "
          f"level is stated for integral rates only")
    ratios = {k: round(v.ratio, 3) for k, v in table.items()}
    all_ok = all(ok for _, ok, _ in checks)
    report(5, all_ok, f"ratios={ratios}")
    assert all_ok


def test_criterion_6_coverage_reproduction():
    problem = generate_synthetic("coverage", seed=11)
    table = run_sweep(problem, ("marginal-sampling", "greedy"),
                      B_SWEEP, trials=500, seed=66)
    greedy_first = (table[("greedy", 1)].ratio
                    >= table[("marginal-sampling", 1)].ratio)
    print(f"  criterion 6 sub-check [{'PASS' if greedy_first else 'FAIL'}] "
          f"greedy >= marginal-sampling at b=1 "
          f"({table[('greedy', 1)].ratio:.3f} vs "
          f"{table[('marginal-sampling', 1)].ratio:.3f})")
    lead_1 = table[("greedy", 1)].ratio - table[("marginal-sampling", 1)].ratio
    se_1 = math.hypot(table[("greedy", 1)].ratio_std_error,
                      table[("marginal-sampling", 1)].ratio_std_error)
    narrower = True
    for b in (3, 5, 10, 15):
        greedy, ms = table[("greedy", b)], table[("marginal-sampling", b)]
        lead = greedy.ratio - ms.ratio
        se = math.hypot(greedy.ratio_std_error, ms.ratio_std_error)
        shrink = (lead_1 - lead) / max(math.hypot(se_1, se), 1e-12)
        ok = shrink >= 3
        narrower = narrower and ok
        print(f"  criterion 6 sub-check [{'PASS' if ok else 'FAIL'}] "
              f"greedy's lead over marginal-sampling at b={b} is below its "
              f"lead at b=1 by >= 3se (lead {lead:.3f} vs {lead_1:.3f}, "
              f"{shrink:.1f} se; separation={separation(greedy, ms):.1f} se)")
    all_ok = greedy_first and narrower
    ratios = {k: round(v.ratio, 3) for k, v in table.items()}
    report(6, all_ok, f"ratios={ratios}")
    assert all_ok


def test_criterion_7_rounding_property_suite():
    # star-wise dependent rounding: exact marginals and degree pinning
    inst = build_instance(
        offline=[("u0", 2)],
        online=[(f"v{j}", 1.0) for j in range(5)],
        edges=[(f"e{j}", "u0", f"v{j}") for j in range(5)],
        horizon=5)
    x = np.array([0.15, 0.7, 0.35, 0.55, 0.2])
    n = 10_000
    counts = np.zeros(5)
    degree_ok = True
    for s in range(n):
        chosen = dependent_round_stars(x, inst, seed=s)
        counts += chosen
        degree_ok = degree_ok and chosen.sum() in (1, 2)
    marginal_ok = all(
        abs(counts[e] / n - x[e]) <= 3 * math.sqrt(x[e] * (1 - x[e]) / n)
        for e in range(5))

    # pipage on a 4-edge cycle: marginals and expected-value preservation
    inst2 = build_instance(
        offline=[("u0", 1), ("u1", 1)],
        online=[("v0", 1.0), ("v1", 1.0)],
        edges=[("e0", "u0", "v0"), ("e1", "u1", "v0"), ("e2", "u0", "v1"),
               ("e3", "u1", "v1")],
        horizon=2)
    rng = np.random.default_rng(77)
    obj = small_objective("coverage", 4, rng)
    x2 = np.array([0.3, 0.45, 0.55, 0.2])
    target = multilinear_exact(obj, x2)
    counts2 = np.zeros(4)
    vals = np.empty(n)
    for s in range(n):
        out = pipage_round(x2, inst2, seed=s)
        counts2 += out
        vals[s] = obj.value(np.flatnonzero(out))
    pipage_marginal_ok = all(
        abs(counts2[e] / n - x2[e]) <= 3 * math.sqrt(x2[e] * (1 - x2[e]) / n)
        for e in range(4))
    se = vals.std(ddof=1) / math.sqrt(n)
    value_ok = vals.mean() >= target - 3 * se
    ok = degree_ok and marginal_ok and pipage_marginal_ok and value_ok
    assert report(
        7, ok,
        f"dependent rounding: marginals {'ok' if marginal_ok else 'off'}, "
        f"degrees {'ok' if degree_ok else 'off'}; pipage: marginals "
        f"{'ok' if pipage_marginal_ok else 'off'}, E[f]={vals.mean():.4f} vs "
        f"F(x)={target:.4f} (-3se allowed)")


def test_criterion_8_single_star_distribution():
    T = 500
    rates = [0.9, 0.8, 0.7, 0.5]
    x = np.array([0.4, 0.25, 0.2, 0.1])
    inst = build_instance(
        offline=[("u0", 1)],
        online=[(f"v{j}", r) for j, r in enumerate(rates)],
        edges=[(f"e{j}", "u0", f"v{j}") for j in range(4)],
        horizon=T)
    obj = LinearObjective(np.ones(4))
    policy = make_policy("marginal-sampling", inst, obj, x)
    n = 10_000
    unmatched = 0
    hits = np.zeros(4)
    for s in range(n):
        seq = sample_arrivals(inst, s)
        rng = np.random.default_rng((s, 1))
        _, matched = run_trial(policy, inst, obj, seq, rng)
        if matched:
            hits[matched[0]] += 1
        else:
            unmatched += 1
    x_u = float(x.sum())
    p0 = math.exp(-x_u)
    sd0 = math.sqrt(p0 * (1 - p0) / n)
    idle_ok = abs(unmatched / n - p0) <= 3 * sd0
    matched_n = n - unmatched
    share_ok = True
    for e in range(4):
        share = x[e] / x_u
        sd = math.sqrt(share * (1 - share) / matched_n)
        share_ok = share_ok and abs(hits[e] / matched_n - share) <= 3 * sd
    ok = idle_ok and share_ok
    assert report(
        8, ok,
        f"idle freq {unmatched / n:.4f} vs exp(-x_u)={p0:.4f} (3sd={3 * sd0:.4f}); "
        f"conditional shares {'ok' if share_ok else 'off'}")


def test_criterion_9_solver_exactness():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        lp = LinearProgram(
            c=np.round(rng.uniform(-1, 1, n), 3),
            A=np.round(rng.uniform(-1, 1, (m, n)), 3),
            b=np.round(rng.uniform(0, 2, m), 3),
            upper=np.round(rng.uniform(0.5, 2.0, n), 3),
        )
        s = solve(lp)
        assert s.status == "optimal"
        ref = float(reference_solve(lp))
        err = abs(s.value - ref) / max(1.0, abs(ref))
        worst = max(worst, err)
        assert err <= 1e-9
    assert report(9, True,
                  f"1000 random programs, worst relative error {worst:.2e} "
                  f"<= 1e-9")


# -- recommendation-scale checks on generated ratings fixtures --------------


def write_natural_ratings(directory, seed):
    """Dense random ratings: 220 users x 110 movies at ~88% fill, 12 genres."""
    rng = np.random.default_rng(seed)
    rpath = os.path.join(directory, "ratings.csv")
    gpath = os.path.join(directory, "genres.csv")
    with open(rpath, "w", encoding="utf-8") as fh:
        for u in range(220):
            for m in range(110):
                if rng.random() < 0.88:
                    fh.write(f"user{u},m{m},{1 + 4 * rng.random():.2f}\n")
    with open(gpath, "w", encoding="utf-8") as fh:
        for m in range(110):
            for g in rng.choice(12, size=int(rng.integers(1, 4)),
                                replace=False):
                fh.write(f"m{m},g{g}\n")
    return rpath, gpath


def write_contention_ratings(directory, seed, niche_rating=20.0):
    """Ratings whose induced weights put most value on scarce niche movies.

    Mainstream users slightly prefer the few niche movies over their own
    mainstream options, so a myopic policy burns the scarce capacity that
    niche users depend on; the offline program routes it correctly.
    """
    rng = np.random.default_rng(seed)
    rpath = os.path.join(directory, "ratings.csv")
    gpath = os.path.join(directory, "genres.csv")
    with open(gpath, "w", encoding="utf-8") as fh:
        for m in range(88):
            fh.write(f"mm{m},ga{m % 8}\n")
        for m in range(22):
            fh.write(f"nm{m},gb{m % 4}\n")
    with open(rpath, "w", encoding="utf-8") as fh:
        for u in range(176):
            unrated = set(rng.choice(88, size=8, replace=False).tolist())
            for m in range(88):
                if m not in unrated:
                    fh.write(f"mu{u},mm{m},2.0\n")
            for m in rng.choice(22, size=2, replace=False):
                fh.write(f"mu{u},nm{m},2.4\n")
        for u in range(44):
            for m in range(88):
                fh.write(f"nu{u},mm{m},0.5\n")
            for m in rng.choice(22, size=11, replace=False):
                fh.write(f"nu{u},nm{m},{niche_rating}\n")
    return rpath, gpath


def test_criterion_10_ratings_fixture_integral_rates():
    with tempfile.TemporaryDirectory() as d:
        problem = ingest_ratings(*write_natural_ratings(d, seed=99),
                                 num_users=200, num_movies=100,
                                 rates_mode="integral", seed=0)
    obj = build_objective(problem)
    x, lp_value, _ = solve_offline_lp(problem.instance, obj)
    natural = {
        name: simulate(problem.instance, obj, name, x_star=x, trials=300,
                       seed=10, benchmark=("lp", lp_value))
        for name in ("marginal-sampling", "contention-resolution", "greedy")
    }
    natural_floor_ok = all(
        natural[n].ratio - 3 * natural[n].ratio_std_error >= MMP_FLOOR
        for n in ("marginal-sampling", "contention-resolution"))
    sane_ok = all(m.ratio <= 1.0 + 1e-9 for m in natural.values())

    with tempfile.TemporaryDirectory() as d:
        problem2 = ingest_ratings(*write_contention_ratings(d, seed=1),
                                  num_users=200, num_movies=100,
                                  rates_mode="integral", seed=0)
    obj2 = build_objective(problem2)
    x2, lp2, _ = solve_offline_lp(problem2.instance, obj2)
    contested = {
        name: simulate(problem2.instance, obj2, name, x_star=x2, trials=300,
                       seed=20, benchmark=("lp", lp2))
        for name in ("marginal-sampling", "contention-resolution", "greedy")
    }
    cr_beats_greedy = separation(contested["contention-resolution"],
                                 contested["greedy"]) >= 3
    mmp_beats_greedy = separation(contested["marginal-sampling"],
                                  contested["greedy"]) >= 3
    ok = natural_floor_ok and sane_ok and cr_beats_greedy and mmp_beats_greedy
    nat = {k: round(v.ratio, 3) for k, v in natural.items()}
    con = {k: round(v.ratio, 3) for k, v in contested.items()}
    assert report(
        10, ok,
        f"integral-rate fixtures at 100x200: natural={nat} (guided floors "
        f"{'ok' if natural_floor_ok else 'off'}), contention={con} "
        f"(contention-resolution >= greedy by "
        f"{separation(contested['contention-resolution'], contested['greedy']):.1f} se)")
