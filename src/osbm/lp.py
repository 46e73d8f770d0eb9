"""Exact linear programming over the b-matching polytope.

One dense primal simplex serves both the linear maximization oracle inside
the fractional ascent and the special-case offline programs.  The entering
variable is the eligible one with the largest reduced cost |d_j| (Dantzig
pricing, lowest index on ties); after DEGENERATE_LIMIT consecutive degenerate
pivots it is the lowest eligible index instead (Bland's rule) until the next
nondegenerate pivot, so the solver cannot cycle.  The leaving variable is
always the lowest variable index among minimum ratios.  Variable upper
bounds are handled implicitly (nonbasic variables may sit at either bound),
which keeps the tableau at one row per graph constraint.  All generated
programs have nonnegative right-hand sides, so the all-slack basis is always
primal feasible and no phase-1 is needed.

A separate rational-arithmetic tableau (`reference_solve`) provides an
independent exact optimum for auditing the float path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .instances import Instance

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
# consecutive degenerate pivots before entering switches to Bland's rule
DEGENERATE_LIMIT = 50

LOWER, UPPER, BASIC = 0, 1, 2


@dataclass
class LinearProgram:
    """max c.x  s.t.  A x <= b,  0 <= x <= upper (componentwise)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    upper: np.ndarray
    col_names: tuple[str, ...] | None = None
    row_names: tuple[str, ...] | None = None
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

    def audit(self, lp: LinearProgram, tol: float = FEAS_TOL) -> list[str]:
        """Primal feasibility, dual sign, and complementary slackness checks."""
        problems: list[str] = []
        if self.status != "optimal":
            return [f"status {self.status}"]
        scale = 1.0 + max(1.0, float(np.abs(lp.b).max(initial=0.0)),
                          float(np.abs(lp.upper[np.isfinite(lp.upper)]).max(initial=0.0)))
        x = self.x
        if np.any(x < -tol * scale):
            problems.append("negative variable value")
        finite = np.isfinite(lp.upper)
        if np.any(x[finite] > lp.upper[finite] + tol * scale):
            problems.append("variable above upper bound")
        slack = lp.b - lp.A @ x
        if np.any(slack < -tol * scale):
            problems.append("row violated")
        if self.duals is not None:
            if np.any(self.duals < -tol * scale):
                problems.append("negative dual on a <= row")
            comp = np.abs(self.duals * slack)
            if comp.size and comp.max() > tol * scale * 10:
                problems.append("complementary slackness violated")
        return problems


def solve(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Dense bounded-variable primal simplex.

    Dantzig pricing enters the eligible variable with the largest |d_j|;
    a run of DEGENERATE_LIMIT degenerate pivots switches entering to Bland's
    lowest index until a pivot moves the objective.  Both rules and the
    lowest-index leaving rule break ties by index, so the result is a
    deterministic function of the program.
    """
    m, n = lp.A.shape
    if np.any(lp.b < 0):
        raise ValueError("negative right-hand side; generated programs keep b >= 0")
    N = n + m
    M = np.hstack([lp.A.copy(), np.eye(m)])
    beta = lp.b.astype(float).copy()
    d = np.concatenate([lp.c, np.zeros(m)])
    upper = np.concatenate([lp.upper, np.full(m, np.inf)])
    vstat = np.full(N, LOWER, dtype=np.int8)
    vstat[n:] = BASIC
    basis = np.arange(n, N)
    fixed = upper <= 0.0  # zero-width box: never eligible to enter
    if max_iterations is None:
        max_iterations = 200 * (N + m) + 10_000

    iterations = 0
    degenerate = 0
    degenerate_run = 0
    while True:
        enter_mask = (
            ((vstat == LOWER) & (d > PIVOT_TOL))
            | ((vstat == UPPER) & (d < -PIVOT_TOL))
        ) & ~fixed
        cand = np.flatnonzero(enter_mask)
        if cand.size == 0:
            break
        if degenerate_run < DEGENERATE_LIMIT:
            j = int(cand[np.argmax(np.abs(d[cand]))])  # Dantzig
        else:
            j = int(cand[0])  # Bland: lowest index enters
        sigma = 1.0 if vstat[j] == LOWER else -1.0
        col = M[:, j]
        v = sigma * col

        # ratio test: basic hits lower bound, basic hits upper bound, or the
        # entering variable flips to its own opposite bound
        dec_rows = np.flatnonzero(v > PIVOT_TOL)
        t_dec = np.maximum(beta[dec_rows] / v[dec_rows], 0.0)
        inc_rows = np.flatnonzero(v < -PIVOT_TOL)
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
        nz = np.flatnonzero(colj)
        if nz.size:
            M[nz] -= np.outer(colj[nz], pivot_row)
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

def matching_rows(inst: Instance) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Degree rows of the b-matching polytope over edge variables:
    per offline vertex sum <= capacity, per online type sum <= eta * rate.
    """
    m = inst.n_edges
    n_rows = inst.n_offline + inst.n_online
    A = np.zeros((n_rows, m))
    b = np.empty(n_rows)
    names = []
    for ui in range(inst.n_offline):
        A[ui, inst.edges_at_u[ui]] = 1.0
        b[ui] = float(inst.capacities[ui])
        names.append(f"cap_{inst.offline_ids[ui]}")
    for vi in range(inst.n_online):
        row = inst.n_offline + vi
        A[row, inst.edges_at_v[vi]] = 1.0
        b[row] = inst.eta * inst.rates[vi]
        names.append(f"rate_{inst.online_ids[vi]}")
    return A, b, tuple(names)


def build_matching_lmo(inst: Instance, weights) -> LinearProgram:
    """Linear maximization oracle over the b-matching polytope.

    Negative weights are allowed; the zero lower bound simply keeps those
    edges out of an optimal basis.
    """
    w = np.asarray(weights, dtype=float)
    if len(w) != inst.n_edges:
        raise ValueError("weight vector length mismatch")
    A, b, row_names = matching_rows(inst)
    return LinearProgram(
        c=w, A=A, b=b, upper=np.ones(inst.n_edges),
        col_names=tuple(inst.edge_ids), row_names=row_names,
        n_edge_vars=inst.n_edges,
    )


def build_special_lp(inst: Instance, objective) -> LinearProgram:
    """Epigraph-form offline program for the closed-form objective kinds.

    linear: the matching LMO itself.
    budget_additive: one auxiliary gamma with gamma <= sum w_e x_e and
    gamma <= budget (upper bound).
    coverage / per_user_coverage: one gamma per active feature with
    gamma_z <= sum of covering x_e and gamma_z <= 1.
    """
    kind = getattr(objective, "kind", None)
    m = inst.n_edges
    if getattr(objective, "n_edges", m) != m:
        raise ValueError("objective ground set does not match the instance")
    A_match, b_match, row_names = matching_rows(inst)

    if kind == "linear":
        return build_matching_lmo(inst, objective.weights)

    if kind == "budget_additive":
        n = m + 1
        A = np.zeros((A_match.shape[0] + 1, n))
        A[:-1, :m] = A_match
        A[-1, :m] = -objective.weights
        A[-1, m] = 1.0
        b = np.concatenate([b_match, [0.0]])
        c = np.zeros(n)
        c[m] = 1.0
        upper = np.concatenate([np.ones(m), [objective.budget]])
        return LinearProgram(
            c=c, A=A, b=b, upper=upper,
            col_names=tuple(inst.edge_ids) + ("gamma",),
            row_names=row_names + ("budget_link",),
            n_edge_vars=m,
        )

    if kind in ("coverage", "per_user_coverage"):
        w = objective.feature_weights
        covering: dict[int, list[int]] = {}
        for e, feats in enumerate(objective.edge_features):
            for z in feats:
                covering.setdefault(int(z), []).append(e)
        active = sorted(z for z, edges in covering.items() if w[z] > 0 and edges)
        n = m + len(active)
        A = np.zeros((A_match.shape[0] + len(active), n))
        A[: A_match.shape[0], :m] = A_match
        b = np.concatenate([b_match, np.zeros(len(active))])
        c = np.zeros(n)
        names = list(inst.edge_ids)
        rnames = list(row_names)
        for k, z in enumerate(active):
            col = m + k
            row = A_match.shape[0] + k
            A[row, covering[z]] = -1.0
            A[row, col] = 1.0
            c[col] = w[z]
            names.append(f"cover_{z}")
            rnames.append(f"link_{z}")
        upper = np.ones(n)
        return LinearProgram(
            c=c, A=A, b=b, upper=upper,
            col_names=tuple(names), row_names=tuple(rnames), n_edge_vars=m,
        )

    raise ValueError(f"objective kind {kind!r} has no closed-form program")


def saturate_marginals(inst: Instance, x, priority) -> np.ndarray:
    """Water-fill leftover polytope slack into x, highest-priority edge first
    (ties by index).  The result dominates x componentwise and stays inside
    the b-matching polytope.
    """
    x = np.asarray(x, dtype=float).copy()
    slack_u = inst.capacity_array.astype(float) - np.array(
        [x[inst.edges_at_u[u]].sum() for u in range(inst.n_offline)])
    slack_v = inst.eta * inst.rate_array - np.array(
        [x[inst.edges_at_v[v]].sum() for v in range(inst.n_online)])
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
    if getattr(objective, "kind", None) == "budget_additive":
        lmo = build_matching_lmo(inst, objective.weights)
        sol = solve(lmo)
        if sol.status != "optimal":
            raise RuntimeError(f"offline program not optimal: {sol.status}")
        x, value = sol.x.copy(), min(objective.budget, sol.value)
    else:
        lp = build_special_lp(inst, objective)
        sol = solve(lp)
        if sol.status != "optimal":
            raise RuntimeError(f"offline program not optimal: {sol.status}")
        n_x = lp.n_edge_vars if lp.n_edge_vars is not None else inst.n_edges
        x, value = sol.x[:n_x].copy(), sol.value
    singleton = objective.coordinate_gains(np.zeros(inst.n_edges, dtype=bool))
    x = saturate_marginals(inst, x, singleton)
    return x, value, sol


def feasible_for_matching(inst: Instance, x, tol: float = FEAS_TOL) -> bool:
    """Check x against the b-matching polytope (degree rows and box)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        return False
    for ui in range(inst.n_offline):
        if x[inst.edges_at_u[ui]].sum() > inst.capacities[ui] + tol:
            return False
    for vi in range(inst.n_online):
        if x[inst.edges_at_v[vi]].sum() > inst.eta * inst.rates[vi] + tol:
            return False
    return True


# -- text dump ---------------------------------------------------------------

def write_mps(lp: LinearProgram, path) -> None:
    """Fixed-column MPS-style dump with full 17-significant-digit echo.

    Field offsets follow the classic section layout but are widened so the
    exact numeric echo fits; modern free-format MPS readers accept it.
    """
    def num(x: float) -> str:
        return format(float(x), ".17g")

    cols = lp.col_names or tuple(f"X{j:07d}" for j in range(len(lp.c)))
    rows = lp.row_names or tuple(f"R{i:07d}" for i in range(len(lp.b)))
    out = ["NAME          OSBM_LP", "ROWS", " N  OBJ"]
    for r in rows:
        out.append(f" L  {r}")
    out.append("COLUMNS")
    for j, cname in enumerate(cols):
        if lp.c[j] != 0.0:
            out.append(f"    {cname:<24}  OBJ                       {num(lp.c[j])}")
        for i in np.flatnonzero(lp.A[:, j] != 0.0):
            out.append(f"    {cname:<24}  {rows[i]:<24}  {num(lp.A[i, j])}")
    out.append("RHS")
    for i, r in enumerate(rows):
        if lp.b[i] != 0.0:
            out.append(f"    RHS                       {r:<24}  {num(lp.b[i])}")
    out.append("BOUNDS")
    for j, cname in enumerate(cols):
        if np.isfinite(lp.upper[j]):
            out.append(f" UP BND                       {cname:<24}  {num(lp.upper[j])}")
    out.append("ENDATA")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
