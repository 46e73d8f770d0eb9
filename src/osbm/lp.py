"""Exact linear programming over the b-matching polytope.

One dense primal simplex serves both the linear maximization oracle inside
the fractional ascent and the special-case offline programs.  The entering
variable is the eligible one with the largest reduced cost |d_j| (Dantzig
pricing, lowest index on ties); after DEGENERATE_LIMIT consecutive degenerate
pivots it is the lowest eligible index instead (Bland's rule) until the next
nondegenerate pivot, so the solver cannot cycle.  The leaving variable is
always the lowest variable index among minimum ratios.  Variable upper
bounds are handled implicitly (nonbasic variables may sit at either bound),
so the tableau has one row per row of A.  It keeps only the n nonbasic
columns of [A | I] (the dictionary form, Chvatal 1983, ch. 2 and 8): the
basic columns are unit vectors, and a pivot swaps the entering and leaving
variables' columns.  All generated programs have nonnegative right-hand
sides, so the all-slack basis is always primal feasible and no phase-1 is
needed.  A pivot updates the rows with a nonzero entry in the entering
column in place, one row at a time, with the float operations [A | I] would
perform on its nonbasic entries, so every result is bit for bit the full
tableau's.

The coverage epigraph program is presolved exactly before it reaches the
solver (see `build_special_lp`): features with identical covering-edge sets
share one epigraph row, and features covered by a single edge need none.

A separate rational-arithmetic tableau (`reference_solve`) provides an
independent exact optimum for auditing the float path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .instances import Instance

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
# consecutive degenerate pivots before entering switches to Bland's rule
DEGENERATE_LIMIT = 50


@dataclass
class LinearProgram:
    """max c.x  s.t.  A x <= b,  0 <= x <= upper (componentwise)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    upper: np.ndarray
    n_edge_vars: int | None = None  # leading columns that map to instance edges

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.A.shape != (len(self.b), len(self.c)):
            raise ValueError("inconsistent LP dimensions")
        if len(self.upper) != len(self.c):
            raise ValueError("upper bound vector length mismatch")


@dataclass
class LpSolution:
    status: str                  # optimal | unbounded | infeasible
    x: np.ndarray | None
    value: float
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0
    degenerate_pivots: int = 0   # pivots whose step length is zero

    def audit(self, lp: LinearProgram) -> list[str]:
        """Primal feasibility, dual sign, and complementary slackness checks,
        each to FEAS_TOL relative to the program's scale."""
        problems: list[str] = []
        if self.status != "optimal":
            return [f"status {self.status}"]
        scale = 1.0 + max(1.0, float(np.abs(lp.b).max(initial=0.0)),
                          float(np.abs(lp.upper[np.isfinite(lp.upper)]).max(initial=0.0)))
        x, tol = self.x, FEAS_TOL * scale
        if np.any(x < -tol):
            problems.append("negative variable value")
        finite = np.isfinite(lp.upper)
        if np.any(x[finite] > lp.upper[finite] + tol):
            problems.append("variable above upper bound")
        slack = lp.b - lp.A @ x
        if np.any(slack < -tol):
            problems.append("row violated")
        if self.duals is not None:
            if np.any(self.duals < -tol):
                problems.append("negative dual on a <= row")
            comp = np.abs(self.duals * slack)
            if comp.size and comp.max() > tol * 10:
                problems.append("complementary slackness violated")
        return problems


def solve(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Dense bounded-variable primal simplex on the condensed tableau.

    Column k of T holds nonbasic variable nb[k], row r the basic variable
    basis[r].  Dantzig pricing enters the eligible variable with the largest
    |d_j|; a run of DEGENERATE_LIMIT degenerate pivots switches entering to
    Bland's lowest index until a pivot moves the objective.  Both rules and
    the lowest-index leaving rule break ties by variable index, so the result
    is a deterministic function of the program.
    """
    m, n = lp.A.shape
    if np.any(lp.b < 0):
        raise ValueError("negative right-hand side; generated programs keep b >= 0")
    T = lp.A.copy()  # lp is not written
    beta = lp.b.astype(float)
    d = lp.c.copy()
    upper = np.concatenate([lp.upper, np.full(m, np.inf)])
    nb = np.arange(n)
    basis = np.arange(n, n + m)
    # +1 at the lower bound, -1 at the upper, 0 for a zero-width box (never enters)
    side = np.where(lp.upper <= 0.0, 0.0, 1.0)
    ub_row = np.full(m, np.inf)
    ratio = np.empty(m)
    scratch = np.empty(n)
    if max_iterations is None:
        max_iterations = 200 * (n + 2 * m) + 10_000

    iterations = 0
    degenerate = 0
    degenerate_run = 0
    while True:
        score = side * d
        best = score.max(initial=0.0)
        if best <= PIVOT_TOL:
            break
        if degenerate_run < DEGENERATE_LIMIT:
            cand = np.flatnonzero(score == best)  # Dantzig
        else:
            cand = np.flatnonzero(score > PIVOT_TOL)  # Bland
        q = int(cand[np.argmin(nb[cand])])
        j = int(nb[q])
        sigma = side[q]
        col = T[:, q]
        v = sigma * col

        # ratio test: a basic variable hits either bound, or the entering one
        # flips to its other bound; no finite ratio leaves best_t infinite
        ratio.fill(np.inf)
        np.divide(beta, v, out=ratio, where=v > PIVOT_TOL)
        np.divide(ub_row - beta, -v, out=ratio, where=v < -PIVOT_TOL)
        np.maximum(ratio, 0.0, out=ratio)
        best_t = upper[j]
        r = -1
        t_min = float(ratio.min(initial=np.inf))
        if np.isfinite(t_min) and t_min <= best_t + 1e-15:
            tied = np.flatnonzero(ratio <= t_min + 1e-15)
            # Bland: lowest variable index leaves; the entering variable's
            # own bound flip competes under its own index
            pick = int(tied[np.argmin(basis[tied])])
            if t_min < best_t - 1e-15 or basis[pick] < j:
                best_t, r = t_min, pick

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

        beta -= sigma * best_t * col
        if r < 0:
            side[q] = -sigma  # bound flip, no basis change
            continue

        entering_value = best_t if sigma > 0 else upper[j] - best_t
        # the leaving variable takes column q at the bound it hit; its
        # entries are those a full tableau would compute from its unit column
        nb[q], basis[r] = basis[r], j
        side[q] = 1.0 if v[r] > 0 else -1.0
        ub_row[r] = upper[j]
        piv = T[r, q]
        colj = col.copy()
        colj[r] = 0.0
        T[r] /= piv
        T[:, q] = 0.0
        T[r, q] = 1.0 / piv
        pivot_row = T[r]
        for i in np.flatnonzero(colj):
            np.multiply(pivot_row, colj[i], out=scratch)
            np.subtract(T[i], scratch, out=T[i])
        dj = d[q]
        d[q] = 0.0
        d -= dj * pivot_row
        beta[r] = entering_value

    x_full = np.zeros(n + m)
    at_upper = nb[side < 0]
    x_full[at_upper] = upper[at_upper]
    x_full[basis] = beta
    x = x_full[:n]
    np.clip(x, 0.0, None, out=x)
    finite = np.isfinite(lp.upper)
    x[finite] = np.minimum(x[finite], lp.upper[finite])
    value = float(lp.c @ x)
    d_full = np.zeros(n + m)  # a basic variable's reduced cost is 0
    d_full[nb] = d
    return LpSolution(status="optimal", x=x, value=value, duals=-d_full[n:],
                      reduced_costs=d_full[:n], iterations=iterations,
                      degenerate_pivots=degenerate)


def reference_solve(lp: LinearProgram) -> Fraction:
    """Exact optimum via a rational standard-form tableau (independent of
    the float path: explicit bound rows, no implicit-bound bookkeeping).

    Intended for auditing on small programs; cost grows quickly with size.
    """
    m, n = lp.A.shape
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        rows.append([Fraction(lp.A[i, j]) for j in range(n)])
        rhs.append(Fraction(lp.b[i]))
    for j in range(n):
        if np.isfinite(lp.upper[j]):
            row = [Fraction(0)] * n
            row[j] = Fraction(1)
            rows.append(row)
            rhs.append(Fraction(lp.upper[j]))
    mm = len(rows)
    if any(r < 0 for r in rhs):
        raise ValueError("negative right-hand side")
    # tableau columns: n structural + mm slacks
    T = [row + [Fraction(1) if k == i else Fraction(0) for k in range(mm)]
         for i, row in enumerate(rows)]
    beta = rhs[:]
    d = [Fraction(lp.c[j]) for j in range(n)] + [Fraction(0)] * mm
    basis = list(range(n, n + mm))
    guard = 0
    while True:
        j = next((k for k, dk in enumerate(d) if dk > 0), None)
        if j is None:
            break
        ratios = [(beta[i] / T[i][j], basis[i], i)
                  for i in range(mm) if T[i][j] > 0]
        if not ratios:
            raise RuntimeError("reference LP unbounded")
        t_min = min(r[0] for r in ratios)
        leave = min((var, i) for t, var, i in ratios if t == t_min)
        r = leave[1]
        piv = T[r][j]
        T[r] = [val / piv for val in T[r]]
        beta[r] /= piv
        for i in range(mm):
            if i != r and T[i][j] != 0:
                factor = T[i][j]
                T[i] = [a - factor * b for a, b in zip(T[i], T[r])]
                beta[i] -= factor * beta[r]
        dj = d[j]
        d = [a - dj * b for a, b in zip(d, T[r])]
        basis[r] = j
        guard += 1
        if guard > 10_000:
            raise RuntimeError("reference simplex iteration limit exceeded")
    x = [Fraction(0)] * (n + mm)
    for i, var in enumerate(basis):
        x[var] = beta[i]
    return sum(Fraction(lp.c[j]) * x[j] for j in range(n))


# -- program builders -------------------------------------------------------

def matching_rows(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Degree rows of the b-matching polytope over edge variables:
    per offline vertex sum <= capacity, per online type sum <= eta * rate.
    """
    m = inst.n_edges
    A = np.zeros((inst.n_offline + inst.n_online, m))
    A[inst.edge_u, np.arange(m)] = 1.0
    A[inst.n_offline + inst.edge_v, np.arange(m)] = 1.0
    b = np.concatenate([inst.capacity_array, inst.eta * inst.rate_array])
    return A, b


def build_matching_lmo(inst: Instance, weights) -> LinearProgram:
    """Linear maximization oracle over the b-matching polytope.

    Negative weights are allowed; the zero lower bound simply keeps those
    edges out of an optimal basis.
    """
    w = np.asarray(weights, dtype=float)
    if len(w) != inst.n_edges:
        raise ValueError("weight vector length mismatch")
    A, b = matching_rows(inst)
    return LinearProgram(
        c=w, A=A, b=b, upper=np.ones(inst.n_edges),
        n_edge_vars=inst.n_edges,
    )


def build_special_lp(inst: Instance, objective) -> LinearProgram:
    """Epigraph-form offline program for the closed-form objective kinds.

    linear: the matching LMO itself.
    coverage / per_user_coverage: max sum_z w_z gamma_z with
    gamma_z <= sum of the x_e covering z and gamma_z <= 1, after an exact
    presolve (Andersen & Andersen 1995) over `objective.covering_edges()`:
      - features with identical covering-edge sets share one epigraph
        column and one link row, weighted by the sum of their weights, in
        the order of their lowest feature ids;
      - a feature covered by a single edge e gets no row: x_e <= 1 makes
        gamma_z = min(x_e, 1) = x_e, so its weight moves into c_e.
    The optimum is that of the unpresolved program; the leading edge columns
    keep their meaning.  Other kinds (budget_additive) raise ValueError.
    """
    kind, m = objective.kind, inst.n_edges
    if objective.n_edges != m:
        raise ValueError("objective ground set does not match the instance")

    if kind == "linear":
        return build_matching_lmo(inst, objective.weights)

    if kind in ("coverage", "per_user_coverage"):
        w = objective.feature_weights
        # cover set -> its positive-weight features, in feature-id order
        merged: dict[tuple[int, ...], list[int]] = {}
        for z, cover in enumerate(objective.covering_edges()):
            if len(cover) and w[z] > 0:
                merged.setdefault(tuple(cover.tolist()), []).append(z)
        links = [(cover, feats) for cover, feats in merged.items() if len(cover) > 1]
        A_match, b_match = matching_rows(inst)
        k0, n = A_match.shape[0], m + len(links)
        A = np.zeros((k0 + len(links), n))
        A[:k0, :m] = A_match
        c = np.zeros(n)
        for cover, feats in merged.items():
            if len(cover) == 1:  # gamma_z = min(x_e, 1) = x_e
                c[cover[0]] = w[feats].sum()
        for k, (cover, feats) in enumerate(links):
            A[k0 + k, list(cover)] = -1.0
            A[k0 + k, m + k] = 1.0
            c[m + k] = w[feats].sum()
        return LinearProgram(
            c=c, A=A, b=np.concatenate([b_match, np.zeros(len(links))]),
            upper=np.ones(n),
            n_edge_vars=m,
        )

    raise ValueError(f"objective kind {kind!r} has no closed-form program")


def saturate_marginals(inst: Instance, x, priority) -> np.ndarray:
    """Water-fill leftover polytope slack into x, highest-priority edge first
    (ties by index).  The result dominates x componentwise and stays inside
    the b-matching polytope.
    """
    x = np.asarray(x, dtype=float).copy()
    load_u, load_v = inst.loads(x)
    slack_u = inst.capacity_array - load_u
    slack_v = inst.eta * inst.rate_array - load_v
    order = np.lexsort((np.arange(inst.n_edges), -np.asarray(priority, dtype=float)))
    for e in order:
        u, v = inst.edge_u[e], inst.edge_v[e]
        room = min(1.0 - x[e], slack_u[u], slack_v[v])
        if room > 1e-12:
            x[e] += room
            slack_u[u] -= room
            slack_v[v] -= room
    return np.clip(x, 0.0, 1.0)


def solve_offline_lp(inst: Instance, objective) -> tuple[np.ndarray, float, LpSolution]:
    """Solve the closed-form offline program; returns (edge marginals x,
    optimum value, full solution).

    The optimal face of these programs is typically degenerate: once an
    epigraph variable caps (a covered feature saturates, the budget binds),
    extra edge mass is unrewarded, and a vertex-following solver returns the
    sparsest optimum.  More mass only helps the online phase, so the
    returned marginals are water-filled by singleton value: the result still
    attains the optimum (a feasible dominating point cannot exceed it, and
    monotonicity keeps the epigraph variables at their optimal caps) but
    carries maximal guidance mass.  For budget-additive objectives the
    starting point is the max-weight-matching solution, always on the
    optimal face; the reported optimum is min(budget, max weight).
    """
    budget_additive = objective.kind == "budget_additive"
    lp = (build_matching_lmo(inst, objective.weights) if budget_additive
          else build_special_lp(inst, objective))
    sol = solve(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"offline program not optimal: {sol.status}")
    value = min(objective.budget, sol.value) if budget_additive else sol.value
    singleton = objective.coordinate_gains(np.zeros(inst.n_edges, dtype=bool))
    x = saturate_marginals(inst, sol.x[:lp.n_edge_vars], singleton)
    return x, value, sol


def feasible_for_matching(inst: Instance, x) -> bool:
    """Check x against the b-matching polytope (degree rows and box), to
    FEAS_TOL.  Raises ValueError unless x has one entry per edge."""
    x = np.asarray(x, dtype=float)
    load_u, load_v = inst.loads(x)
    # written as "all within", so a NaN anywhere fails
    return bool(np.all((x >= -FEAS_TOL) & (x <= 1.0 + FEAS_TOL))
                and np.all(load_u <= inst.capacity_array + FEAS_TOL)
                and np.all(load_v <= inst.eta * inst.rate_array + FEAS_TOL))
