"""Simplex solver, program builders, rational cross-check."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    dense_program,
    golden_note,
    lp_audit,
    reference_solve,
    small_instance,
    small_objective,
)
from osbm import lp as lpmod
from osbm.instances import build_instance, generate_synthetic, save_problem
from osbm.lp import (
    LinearProgram,
    LpSolution,
    build_matching_lmo,
    build_special_lp,
    feasible_for_matching,
    saturate_marginals,
    solve,
    solve_offline_lp,
)
from osbm.objectives import (
    BudgetAdditiveObjective,
    CoverageObjective,
    LinearObjective,
    PerUserCoverageObjective,
    build_objective,
)
from osbm.offline import expected_opt

# sha256 of x, duals, reduced costs and pivot counts of the programs in
# TestSolve.test_golden_digest, recorded before the in-place pivot update
SOLVE_GOLDEN = "137f8dfb84d54c1f9fed5e832c5df2f946bc2d6db7a13fbb61db609fc16563d1"


# sha256 of c, A, b and upper of the presolved coverage-recipe programs at
# b = 1 and 5 (the programs carry no column or row names)
PRESOLVE_GOLDEN = "32c304ee38d29d12e6b0d4fe0bed0a9dcc32aff3cd5f20d373b08fdc4c6e1994"


def reference_covering(objective) -> dict[int, set[int]]:
    """Per-edge inversion of the coverage incidence: feature -> its edges."""
    covering: dict[int, set[int]] = {}
    for e, feats in enumerate(objective.edge_features):
        for z in feats:
            covering.setdefault(int(z), set()).add(e)
    return covering


def raw_epigraph_lp(inst, objective):
    """The coverage epigraph program without presolve: one epigraph column
    and one link row per positive-weight covered feature."""
    lmo = build_matching_lmo(inst, np.zeros(inst.n_edges))
    A_match, b_match = lmo.A, lmo.b
    covering = reference_covering(objective)
    active = [z for z in sorted(covering) if objective.feature_weights[z] > 0]
    m, k0 = inst.n_edges, A_match.shape[0]
    A = np.zeros((k0 + len(active), m + len(active)))
    A[:k0, :m] = A_match
    c = np.zeros(m + len(active))
    for k, z in enumerate(active):
        A[k0 + k, sorted(covering[z])] = -1.0
        A[k0 + k, m + k] = 1.0
        c[m + k] = objective.feature_weights[z]
    return dense_program(c=c, A=A, b=np.concatenate([b_match, np.zeros(len(active))]),
                         upper=np.ones(m + len(active)))


def random_lp(rng, max_vars=6, max_rows=5):
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    return dense_program(
        c=np.round(rng.uniform(-1, 1, n), 3),
        A=np.round(rng.uniform(-1, 1, (m, n)), 3),
        b=np.round(rng.uniform(0, 2, m), 3),
        upper=np.round(rng.uniform(0.5, 2.0, n), 3),
    )


LOWER, UPPER, BASIC = 0, 1, 2


def reference_tableau_solve(lp: LinearProgram) -> LpSolution:
    """The full-tableau simplex: `solve` on [A | I], every basic column kept.

    `solve` keeps only the nonbasic columns and must equal this bit for bit.
    """
    m, n = lp.A.shape
    if np.any(lp.b < 0):
        raise ValueError("negative right-hand side; generated programs keep b >= 0")
    N = n + m
    M = np.hstack([lp.A, np.eye(m)])  # hstack and astype copy: lp is not written
    beta = lp.b.astype(float)
    d = np.concatenate([lp.c, np.zeros(m)])
    upper = np.concatenate([lp.upper, np.full(m, np.inf)])
    vstat = np.full(N, LOWER, dtype=np.int8)
    vstat[n:] = BASIC
    basis = np.arange(n, N)
    fixed = upper <= 0.0  # zero-width box: never eligible to enter
    scratch = np.empty(N)
    max_iterations = 200 * (N + m) + 10_000

    iterations = 0
    degenerate = 0
    degenerate_run = 0
    while True:
        enter_mask = (
            ((vstat == LOWER) & (d > lpmod.PIVOT_TOL))
            | ((vstat == UPPER) & (d < -lpmod.PIVOT_TOL))
        ) & ~fixed
        cand = np.flatnonzero(enter_mask)
        if cand.size == 0:
            break
        if degenerate_run < lpmod.DEGENERATE_LIMIT:
            j = int(cand[np.argmax(np.abs(d[cand]))])  # Dantzig
        else:
            j = int(cand[0])  # Bland: lowest index enters
        sigma = 1.0 if vstat[j] == LOWER else -1.0
        col = M[:, j]
        v = sigma * col

        # ratio test: basic hits lower bound, basic hits upper bound, or the
        # entering variable flips to its own opposite bound
        dec_rows = np.flatnonzero(v > lpmod.PIVOT_TOL)
        t_dec = np.maximum(beta[dec_rows] / v[dec_rows], 0.0)
        inc_rows = np.flatnonzero(v < -lpmod.PIVOT_TOL)
        inc_rows = inc_rows[np.isfinite(upper[basis[inc_rows]])]
        t_inc = np.maximum(
            (upper[basis[inc_rows]] - beta[inc_rows]) / (-v[inc_rows]), 0.0
        )
        all_rows = np.concatenate([dec_rows, inc_rows])
        all_t = np.concatenate([t_dec, t_inc])
        best_t = upper[j]
        leave_var = j
        leave_row = -1
        if all_rows.size:
            t_min = float(all_t.min())
            if t_min <= best_t + 1e-15:
                tied = all_rows[all_t <= t_min + 1e-15]
                # Bland: lowest variable index leaves; the entering variable's
                # own bound flip competes under its own index
                pick = tied[np.argmin(basis[tied])]
                if t_min < best_t - 1e-15 or basis[pick] < leave_var:
                    best_t, leave_var, leave_row = t_min, int(basis[pick]), int(pick)

        if not np.isfinite(best_t):
            return LpSolution(status="unbounded", x=None, value=np.inf,
                              iterations=iterations,
                              degenerate_pivots=degenerate)

        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("simplex iteration limit exceeded")
        if best_t == 0.0:
            degenerate += 1
            degenerate_run += 1
        else:
            degenerate_run = 0

        if leave_row < 0:
            # bound flip, no basis change
            beta -= sigma * best_t * col
            vstat[j] = UPPER if vstat[j] == LOWER else LOWER
            continue

        beta -= sigma * best_t * col
        entering_value = best_t if sigma > 0 else upper[j] - best_t
        old_var = basis[leave_row]
        # which bound did the leaving variable hit
        vstat[old_var] = LOWER if v[leave_row] > 0 else UPPER
        vstat[j] = BASIC
        basis[leave_row] = j
        piv = M[leave_row, j]
        M[leave_row, :] /= piv
        pivot_row = M[leave_row, :]
        colj = M[:, j].copy()
        colj[leave_row] = 0.0
        for i in np.flatnonzero(colj):
            np.multiply(pivot_row, colj[i], out=scratch)
            np.subtract(M[i], scratch, out=M[i])
        d -= d[j] * pivot_row
        beta[leave_row] = entering_value

    x_full = np.where(vstat == UPPER, np.where(np.isfinite(upper), upper, 0.0), 0.0)
    x_full[basis] = beta
    x = x_full[:n]
    np.clip(x, 0.0, None, out=x)
    finite = np.isfinite(lp.upper)
    x[finite] = np.minimum(x[finite], lp.upper[finite])
    value = float(lp.c @ x)
    duals = -d[n:]
    return LpSolution(status="optimal", x=x, value=value, duals=duals,
                      reduced_costs=d[:n].copy(), iterations=iterations,
                      degenerate_pivots=degenerate)


def assert_same_solution(got: LpSolution, want: LpSolution):
    """Status, counts, value and the bytes of x, duals and reduced costs."""
    assert (got.status, got.iterations, got.degenerate_pivots) == (
        want.status, want.iterations, want.degenerate_pivots)
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    for a, b in ((got.x, want.x), (got.duals, want.duals),
                 (got.reduced_costs, want.reduced_costs)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestSolve:
    def test_box_maximum(self):
        lp = dense_program(c=[1.0, 1.0], A=np.zeros((1, 2)), b=[5.0],
                           upper=[1.0, 1.0])
        s = solve(lp)
        assert s.status == "optimal"
        assert s.value == pytest.approx(2.0)

    def test_negative_rhs_rejected(self):
        lp = dense_program(c=[1.0], A=[[1.0]], b=[-1.0], upper=[1.0])
        with pytest.raises(ValueError, match="right-hand side"):
            solve(lp)

    def test_unbounded_detected(self):
        lp = dense_program(c=[1.0], A=[[-1.0]], b=[1.0], upper=[np.inf])
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
            assert lp_audit(s, lp) == []

    def test_degenerate_ties_are_stable(self):
        # identical rows and costs: tied reduced costs enter by lowest index,
        # every pivot after the first is degenerate, and the solve must
        # terminate on the rational optimum
        lp = dense_program(
            c=[1.0, 1.0, 1.0],
            A=[[1.0, 1.0, 1.0]] * 3,
            b=[1.0, 1.0, 1.0],
            upper=[1.0, 1.0, 1.0],
        )
        s = solve(lp)
        assert s.value == pytest.approx(1.0)
        assert float(reference_solve(lp)) == pytest.approx(1.0)

    def test_golden_digest(self):
        # pins the float path bit for bit: recipe-size matching LMOs with
        # weights drawn from a fixed stream, and the unpresolved coverage
        # epigraph at b=5 (107 degenerate pivots) from the test-local
        # builder, so a presolve or pricing-input change cannot move them
        rng = np.random.default_rng(11)
        programs = []
        for kind in ("coverage", "budget_additive"):
            inst = generate_synthetic(kind, 11).instance
            for b in (1, 5):
                programs.append(build_matching_lmo(inst.with_capacities(b),
                                                   rng.random(inst.n_edges)))
        problem = generate_synthetic("coverage", 11)
        programs.append(raw_epigraph_lp(problem.instance.with_capacities(5),
                                        build_objective(problem)))
        digest = hashlib.sha256()
        for lp in programs:
            s = solve(lp)
            for arr in (s.x, s.duals, s.reduced_costs):
                digest.update(arr.tobytes())
            digest.update(f"{s.iterations} {s.degenerate_pivots};".encode())
        assert digest.hexdigest() == SOLVE_GOLDEN, golden_note("SOLVE_GOLDEN")


def beale_lp():
    """Beale's (1955) program, on which largest-coefficient pricing cycles."""
    return dense_program(
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
        assert lp_audit(a, lp) == []
        assert np.array_equal(a.x, b.x)

    def test_beale_cycles_without_the_bland_fallback(self, monkeypatch):
        monkeypatch.setattr(lpmod, "DEGENERATE_LIMIT", 10**9)
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve(beale_lp())

    def test_degenerate_pivots_counted_on_beale(self):
        s = solve(beale_lp())
        assert 0 < s.degenerate_pivots <= s.iterations

    def test_nondegenerate_box_has_no_degenerate_pivots(self):
        lp = dense_program(c=[1.0, 2.0, 3.0], A=[[1.0, 1.0, 1.0]], b=[10.0],
                           upper=[1.0, 1.0, 1.0])
        s = solve(lp)
        assert s.value == pytest.approx(6.0)
        assert s.iterations > 0
        assert s.degenerate_pivots == 0


def with_objective(lp: LinearProgram, c) -> LinearProgram:
    """A program with lp's constraints and objective c."""
    return LinearProgram(c, (lp.rows, lp.cols, lp.values), lp.b, lp.upper)


class TestRepricedStart:
    """`solve(lp, start=sol)` starts from sol's optimal dictionary,
    re-priced for lp.c; it reaches the cold solve's optimum."""

    def test_chains_match_the_cold_optimum(self, rng):
        for _ in range(150):
            lp = random_lp(rng)
            sol = solve(lp)
            for _ in range(4):
                nxt = with_objective(lp, np.round(rng.uniform(-1, 1, len(lp.c)), 3))
                warm, cold = solve(nxt, start=sol), solve(nxt)
                assert warm.status == "optimal"
                assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
                assert abs(warm.value - float(reference_solve(nxt))) <= 1e-9
                assert lp_audit(warm, nxt) == []
                sol = warm

    def test_restart_at_an_optimum_pivots_nowhere(self, rng):
        lp = random_lp(rng, max_vars=8, max_rows=6)
        cold = solve(lp)
        warm = solve(lp, start=solve(lp))
        assert warm.iterations == 0
        assert warm.x.tobytes() == cold.x.tobytes()

    def test_start_moves_its_dictionary(self, rng):
        lp = random_lp(rng)
        sol = solve(lp)
        again = solve(lp, start=sol)
        assert sol.dictionary is None and again.dictionary is not None
        with pytest.raises(ValueError, match="no optimal dictionary"):
            solve(lp, start=sol)

    def test_start_over_other_constraints_is_refused(self):
        inst = generate_synthetic("coverage", 11).instance
        w = np.random.default_rng(1).random(inst.n_edges)
        lmo = build_matching_lmo(inst, w)
        others = [build_matching_lmo(inst.with_capacities(2), w),      # b
                  LinearProgram(w, (lmo.rows, lmo.cols, 2 * lmo.values), lmo.b,
                                lmo.upper),                           # A's values
                  LinearProgram(w, (lmo.rows, lmo.cols, lmo.values), lmo.b,
                                np.full(len(w), 2.0))]                # bounds
        for other in others:
            sol = solve(lmo)
            with pytest.raises(ValueError, match="over other constraints"):
                solve(other, start=sol)
            assert sol.dictionary is not None  # a refused start keeps it
        sol = solve(lmo)
        lmo.c = np.append(w, 1.0)  # one variable more
        with pytest.raises(ValueError, match="over other constraints"):
            solve(lmo, start=sol)

    def test_epigraph_path_keeps_no_tableau(self, rng):
        inst = small_instance(rng)
        obj = small_objective("coverage", inst.n_edges, rng)
        assert solve_offline_lp(inst, obj)[2].dictionary is None
        assert solve(build_special_lp(inst, obj)).dictionary is not None


class TestCondensedTableau:
    """`solve` keeps only the nonbasic columns; the full tableau is the
    reference it must equal byte for byte."""

    @staticmethod
    def grid_program(rng, n, m):
        """Entries from small grids, so that ties, degenerate right-hand
        sides, zero-width and infinite boxes and unbounded programs are all
        common; 0.37 makes some pivots inexact."""
        return dense_program(
            c=rng.choice([-1.0, -0.3, -0.0, 0.0, 0.5, 0.7, 1.0, 2.0], n),
            A=rng.choice([-2.0, -1.0, -0.5, 0.0, 0.0, 0.37, 0.5, 1.0, 3.0], (m, n)),
            b=rng.choice([0.0, 0.0, 0.5, 1.0, 2.0], m),
            upper=rng.choice([0.0, 0.5, 1.0, 2.0, np.inf], n))

    def test_equals_the_full_tableau_on_random_programs(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.integers(1, 7), st.integers(0, 6),
                          st.sampled_from([lpmod.DEGENERATE_LIMIT, 0, 1, 3]),
                          st.integers(0, 2**32 - 1))
        def check(n, m, limit, seed):
            lp = self.grid_program(np.random.default_rng(seed), n, m)
            monkeypatch.setattr(lpmod, "DEGENERATE_LIMIT", limit)
            assert_same_solution(solve(lp), reference_tableau_solve(lp))

        check()

    def test_equals_the_full_tableau_on_a_seeded_sweep(self, monkeypatch):
        # a fixed sweep reaches the rare branches (an exact Dantzig tie after
        # columns swapped, a ratio clamped at 0, a bound flip tied with a
        # leaving row) on every run; each shows in about 1 program of 300
        rng = np.random.default_rng(2)
        limits = [lpmod.DEGENERATE_LIMIT, 0, 1, 3]
        for _ in range(2000):
            n, m = int(rng.integers(1, 8)), int(rng.integers(0, 7))
            lp = self.grid_program(rng, n, m)
            monkeypatch.setattr(lpmod, "DEGENERATE_LIMIT", int(rng.choice(limits)))
            assert_same_solution(solve(lp), reference_tableau_solve(lp))

    @pytest.mark.parametrize("limit", [0, 1, 2, 5])
    def test_equals_the_full_tableau_under_blands_rule(self, monkeypatch, limit):
        # Beale's program is degenerate from the first pivot, so a lowered
        # limit hands entering to Bland's rule
        monkeypatch.setattr(lpmod, "DEGENERATE_LIMIT", limit)
        s = solve(beale_lp())
        assert s.degenerate_pivots > limit
        assert s.value == pytest.approx(1.25, rel=1e-12)
        assert_same_solution(s, reference_tableau_solve(beale_lp()))

    def test_peak_memory_is_one_copy_of_the_constraint_matrix(self):
        # the full tableau [A | I] needs m x (n + m) floats and an m x m
        # identity temporary, 1.97 x A's bytes on this program
        problem = generate_synthetic("coverage", 11)
        lp = build_special_lp(problem.instance.with_capacities(1),
                              build_objective(problem))
        tracemalloc.start()
        try:
            solve(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * lp.A.nbytes


class TestNonzeroProgram:
    """A program holds A as its nonzero entries; the tableau is the one
    dense copy."""

    def test_dense_matrix_reads_back_bit_for_bit(self):
        M = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, 0.0], [2.0, -3.25, -0.0]])
        lp = dense_program(c=np.ones(3), A=M, b=np.ones(3), upper=np.ones(3))
        assert len(lp.values) == 6  # the three -0.0 entries are kept, no +0.0
        A = lp.A
        assert A.dtype == M.dtype and A.shape == M.shape
        assert A.tobytes() == M.tobytes()
        A[0, 2] = 9.0  # each read is a fresh array
        assert lp.A.tobytes() == M.tobytes()

    @pytest.mark.parametrize("b", [1, 5])
    def test_entries_and_dense_hold_the_same_program(self, b):
        problem = generate_synthetic("coverage", 11)
        lp = build_special_lp(problem.instance.with_capacities(b),
                              build_objective(problem))
        dense = dense_program(c=lp.c, A=lp.A, b=lp.b, upper=lp.upper)
        for arr in ("rows", "cols", "values"):
            assert getattr(dense, arr).tobytes() == getattr(lp, arr).tobytes()

    @pytest.mark.parametrize("entries,match", [
        (([0, 0], [1, 1], [1.0, 2.0]), "repeated"),
        (([2], [0], [1.0]), "outside"),
        (([0], [-1], [1.0]), "outside"),
        (([0], [0, 1], [1.0]), "lengths")])
    def test_malformed_entries_rejected(self, entries, match):
        with pytest.raises(ValueError, match=match):
            LinearProgram(c=[1.0, 1.0], entries=entries, b=[1.0, 1.0],
                          upper=[1.0, 1.0])

    def test_one_upper_bound_per_variable(self):
        with pytest.raises(ValueError, match="^upper bound vector length mismatch$"):
            LinearProgram(c=[1.0, 1.0], entries=([0], [0], [1.0]), b=[1.0, 1.0],
                          upper=[1.0])

    def test_offline_solve_peaks_at_one_dense_copy(self):
        # with a dense A held beside the tableau the peak was 2.02 x A's bytes
        problem = generate_synthetic("coverage", 11)
        inst, obj = problem.instance.with_capacities(1), build_objective(problem)
        tracemalloc.start()
        try:
            solve_offline_lp(inst, obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * build_special_lp(inst, obj).A.nbytes

    @pytest.mark.parametrize("program", ["special", "lmo"])
    def test_program_holds_its_nonzeros(self, program):
        problem = generate_synthetic("coverage", 11)
        inst, obj = problem.instance.with_capacities(1), build_objective(problem)
        w = np.random.default_rng(3).random(inst.n_edges)
        build = ((lambda: build_special_lp(inst, obj)) if program == "special"
                 else (lambda: build_matching_lmo(inst, w)))
        build()  # the objective's cover sets are built once, not traced
        tracemalloc.start()
        try:
            lp = build()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 0.05 * lp.A.nbytes


def highs_value(lp):
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.linprog(
        -lp.c, A_ub=lp.A, b_ub=lp.b,
        bounds=np.column_stack([np.zeros(len(lp.c)), lp.upper]),
        method="highs")
    assert res.status == 0
    return -res.fun


class TestHighsCrossCheck:
    """Recipe-size programs against scipy's HiGHS (test-only dependency)."""

    @staticmethod
    def assert_matches_highs(lp, raw=None):
        """solve(lp) is optimal and audited, and its value matches HiGHS on
        lp and, when given, on the unpresolved program raw."""
        s = solve(lp)
        assert s.status == "optimal"
        assert s.value == pytest.approx(highs_value(lp), rel=1e-7)
        if raw is not None:
            assert s.value == pytest.approx(highs_value(raw), rel=1e-7)
        assert lp_audit(s, lp) == []

    @pytest.mark.parametrize("b", [1, 5])
    def test_coverage_epigraph_lp(self, b):
        problem = generate_synthetic("coverage", 11)
        inst = problem.instance.with_capacities(b)
        obj = build_objective(problem)
        self.assert_matches_highs(build_special_lp(inst, obj),
                                  raw=raw_epigraph_lp(inst, obj))

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

    def test_nan_is_not_feasible(self):
        inst = build_instance([("u1", 1)], [("v1", 1.0), ("v2", 1.0)],
                              [("e1", "u1", "v1"), ("e2", "u1", "v2")],
                              horizon=2)
        assert feasible_for_matching(inst, [0.5, 0.5])
        assert not feasible_for_matching(inst, [np.nan, 0.5])
        assert not feasible_for_matching(inst, [0.5, np.nan])


class TestSpecialPrograms:
    def test_budget_additive_clamps_at_budget(self):
        inst = build_instance([("u1", 1), ("u2", 1)],
                              [("v1", 1.0), ("v2", 1.0)],
                              [("e1", "u1", "v1"), ("e2", "u2", "v2")],
                              horizon=2)
        obj = BudgetAdditiveObjective([3.0, 4.0], budget=5.0)
        _, value, _ = solve_offline_lp(inst, obj)
        assert value == pytest.approx(5.0)
        with pytest.raises(ValueError, match="no closed-form program"):
            build_special_lp(inst, obj)

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
        _, value, _ = solve_offline_lp(inst, obj)
        s_match = solve(build_matching_lmo(inst, w))
        assert value == pytest.approx(s_match.value, rel=1e-9)

    def test_presolve_shape_on_the_coverage_recipe(self):
        # 736 features have 557 distinct cover sets; 13 of those (20 features)
        # are a single edge, which leaves 544 link rows beside 240 degree rows
        problem = generate_synthetic("coverage", 11)
        inst = problem.instance.with_capacities(1)
        obj = build_objective(problem)
        assert raw_epigraph_lp(inst, obj).A.shape == (976, 1802)
        lp = build_special_lp(inst, obj)
        assert lp.A.shape == (784, 1610)
        assert inst.n_edges == 1066

    def test_presolve_golden_digest(self):
        problem = generate_synthetic("coverage", 11)
        obj = build_objective(problem)
        digest = hashlib.sha256()
        for b in (1, 5):
            lp = build_special_lp(problem.instance.with_capacities(b), obj)
            for arr in (lp.c, lp.A, lp.b, lp.upper):
                digest.update(arr.tobytes())
        assert digest.hexdigest() == PRESOLVE_GOLDEN, golden_note("PRESOLVE_GOLDEN")

    @pytest.mark.parametrize("kind", ["coverage", "per_user_coverage"])
    def test_presolve_keeps_the_rational_optimum(self, kind, rng):
        # feature pairs (2k, 2k+1) share every cover set, and each edge has
        # a private pair only it covers: both presolve rules fire each time
        for _ in range(6):
            inst = small_instance(rng, n_offline=3, n_online=3, horizon=4)
            blocks = [rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
                      for _ in range(inst.n_edges)]
            if kind == "coverage":
                sets = [frozenset([2 * k for k in q] + [2 * k + 1 for k in q]
                                  + [6 + 2 * e, 7 + 2 * e])
                        for e, q in enumerate(blocks)]
                obj = CoverageObjective(sets, 0.3 + rng.random(6 + 2 * inst.n_edges))
            else:
                # per-type genres: features (v, 2k), (v, 2k+1) always pair up
                sets = [frozenset([2 * k for k in q] + [2 * k + 1 for k in q])
                        for q in blocks]
                obj = PerUserCoverageObjective(inst.edge_v, sets,
                                               0.3 + rng.random((inst.n_online, 6)))
            raw = raw_epigraph_lp(inst, obj)
            lp = build_special_lp(inst, obj)
            assert lp.A.shape[0] < raw.A.shape[0]
            s = solve(lp)
            assert lp_audit(s, lp) == []
            ref = float(reference_solve(raw))
            assert s.value == pytest.approx(ref, rel=1e-9)
            assert float(reference_solve(lp)) == pytest.approx(ref, rel=1e-12)

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
        with pytest.raises(ValueError, match="^weight vector length mismatch$"):
            build_matching_lmo(inst, obj.weights)

    def test_lp_value_dominates_expected_opt(self, rng):
        # the epigraph optimum upper-bounds the expected hindsight optimum
        for trial in range(6):
            inst = small_instance(rng, n_offline=3, n_online=2, horizon=3)
            for kind in ("linear", "coverage", "budget_additive"):
                obj = small_objective(kind, inst.n_edges, rng)
                _, lp_value, _ = solve_offline_lp(inst, obj)
                e_opt, _ = expected_opt(inst, obj, mode="exact")
                assert lp_value >= e_opt - 1e-9


class TestCoverageIncidence:
    @pytest.mark.parametrize("kind", ["coverage", "per_user_coverage", "recipe"])
    def test_covering_edges_invert_the_incidence(self, kind, rng):
        # edge 2 covers nothing; feature 5 (coverage) and online type 3's
        # features (per-user coverage) are covered by no edge
        sets = [frozenset({0, 1}), frozenset({1, 2, 4}), frozenset(),
                frozenset({0, 3, 4})]
        if kind == "coverage":
            obj = CoverageObjective(sets, rng.random(6))
        elif kind == "per_user_coverage":
            obj = PerUserCoverageObjective([0, 0, 1, 2], sets, rng.random((4, 5)))
        else:
            obj = build_objective(generate_synthetic("coverage", 11))
        covering = obj.covering_edges()
        reference = reference_covering(obj)
        assert len(covering) == obj.n_features
        assert any(len(edges) == 0 for edges in covering)
        for z, edges in enumerate(covering):
            assert edges.tolist() == sorted(reference.get(z, ()))


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


def test_lp_solve_leaves_numpy_random_unloaded(tmp_path):
    # numpy.random and numpy.ma (about 6 MiB resident) load only when a run
    # first draws, so they add nothing to the peak of an LP solved before;
    # the exact rational arithmetic (fractions, decimal) is the tests' alone
    path = tmp_path / "coverage.txt"
    save_problem(generate_synthetic("coverage", 11), path)
    script = (
        "import sys, osbm\n"
        "from osbm.instances import load_problem\n"
        "from osbm.objectives import build_objective\n"
        f"problem = load_problem({str(path)!r})\n"
        "osbm.solve_offline_lp(problem.instance, build_objective(problem))\n"
        "print(sorted({'numpy.random', 'numpy.ma', 'fractions', 'decimal'}\n"
        "             & set(sys.modules)))\n")
    src = str(Path(lpmod.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
