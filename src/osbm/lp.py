"""Exact linear programming over the b-matching polytope.

One dense primal simplex serves both the linear maximization oracle inside
the fractional ascent and the special-case offline programs.  Entering is
priced by devex (Harris 1973; a cheap form of the steepest edge of Forrest
and Goldfarb 1992): the eligible variable with the largest |d_j| / norm_j
enters, lowest index on ties.  The reference norms start at 1.0 in every
solve; a pivot on T[r,q] sets norm_k = max(norm_k, |T[r,k] / T[r,q]| norm_q)
and gives the leaving variable max(norm_q / |T[r,q]|, 1).  On the coverage
epigraph devex enters sparser columns, so its pivots update fewer rows.  On
a totally unimodular program, such as every matching LMO, each tableau entry
is 0 or +-1, so every norm stays 1.0 and devex walks the largest-|d_j|
(Dantzig) path bit for bit.  After DEGENERATE_LIMIT consecutive degenerate
pivots entering is the lowest eligible index instead (Bland's rule) until
the next nondegenerate pivot, so the solver cannot cycle.  The leaving
variable is always the lowest variable index among minimum ratios.  Variable
upper bounds are handled implicitly (nonbasic variables may sit at either
bound), so the tableau has one row per row of A.  It keeps only the n
nonbasic columns of [A | I] (the dictionary form, Chvatal 1983, ch. 2 and
8): the basic columns are unit vectors, and a pivot swaps the entering and
leaving variables' columns.  All generated programs have nonnegative
right-hand sides, so the all-slack basis is always primal feasible and no
phase-1 is needed.  A pivot updates the rows with a nonzero entry in the
entering column in place, one row at a time, with the float operations
[A | I] would perform on its nonbasic entries, so every result is bit for
bit the full tableau's.

A solve may start from the optimal dictionary of an earlier solve of a
program with the same constraints and another objective: only the reduced
costs are re-priced, and the same loop and rules run from there.  The
fractional ascent re-solves its one LMO this way from step to step.

A program holds its constraint matrix as its nonzero entries (see
`LinearProgram`); `build_matching_lmo` and `build_special_lp` emit entries
and never a dense matrix, and `solve` scatters them into its tableau, so
the tableau is the one dense m x n array alive during a solve.

The coverage epigraph program is presolved exactly before it reaches the
solver (see `build_special_lp`): features with identical covering-edge sets
share one epigraph row, and features covered by a single edge need none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instances import Instance

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
# consecutive degenerate pivots before entering switches to Bland's rule
DEGENERATE_LIMIT = 50


class LinearProgram:
    """max c.x  s.t.  A x <= b,  0 <= x <= upper (componentwise).

    A is given as its entries (rows, cols, values), A[rows[k], cols[k]] =
    values[k], each (row, column) at most once and +0.0 everywhere else.
    The program holds those whose bits are not +0.0 (a -0.0 is kept), in
    row-major order; each read of `A` returns a fresh dense array.  `solve`
    reads it once, as its tableau.
    """

    def __init__(self, c, entries, b, upper):
        self.c = np.asarray(c, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if len(self.upper) != len(self.c):
            raise ValueError("upper bound vector length mismatch")
        m, n = len(self.b), len(self.c)
        rows, cols, values = (np.asarray(a, dtype=t).ravel()
                              for a, t in zip(entries, (np.intp, np.intp, float)))
        if not len(rows) == len(cols) == len(values):
            raise ValueError("entry arrays of different lengths")
        if np.any((rows < 0) | (rows >= m) | (cols < 0) | (cols >= n)):
            raise ValueError("entry outside the constraint matrix")
        key = rows * n + cols
        nonzero = np.flatnonzero(values.view(np.uint64))  # +0.0 is all-zero bits
        order = nonzero[np.argsort(key[nonzero], kind="stable")]
        if np.any(np.diff(key[order]) == 0):
            raise ValueError("repeated constraint matrix entry")
        # int32 indices: an entry takes 16 bytes, not 24
        self.rows, self.cols = rows[order].astype(np.int32), cols[order].astype(np.int32)
        self.values = values[order]

    @property
    def A(self) -> np.ndarray:
        """The constraint matrix, dense: a fresh m x n array on each read."""
        A = np.zeros((len(self.b), len(self.c)))
        A[self.rows, self.cols] = self.values
        return A


class _Dictionary:
    """A simplex dictionary over one program's constraints: the condensed
    tableau T (column k for nonbasic variable nb[k], row r for basic
    variable basis[r]), the basic values beta, each nonbasic variable's
    side and each row's basic upper bound.  It holds the constraint arrays
    of the program it was built over, so a start over others is refused."""

    def __init__(self, lp: LinearProgram):
        m, n = len(lp.b), len(lp.c)
        self.T = lp.A  # a fresh dense copy of A: the solve's one dense m x n array
        self.beta = lp.b.astype(float)
        self.nb = np.arange(n)
        self.basis = np.arange(n, n + m)
        # +1 at the lower bound, -1 at the upper, 0 for a zero-width box (never enters)
        self.side = np.where(lp.upper <= 0.0, 0.0, 1.0)
        self.ub_row = np.full(m, np.inf)
        self.constraints = (lp.rows, lp.cols, lp.values, lp.b, lp.upper)

    def over(self, lp: LinearProgram) -> bool:
        """Whether ``lp`` has the constraints this dictionary was built over."""
        return len(lp.c) == len(self.nb) and all(
            np.array_equal(mine, theirs) for mine, theirs in
            zip(self.constraints, (lp.rows, lp.cols, lp.values, lp.b, lp.upper)))

    def prices(self, c: np.ndarray) -> np.ndarray:
        """The reduced costs d = c_N - c_B T of objective c here (a slack
        costs 0), summed by einsum's own loop, the same on any BLAS."""
        c_full = np.concatenate([c, np.zeros(len(self.basis))])
        return c_full[self.nb] - np.einsum("r,rk->k", c_full[self.basis], self.T)


@dataclass
class LpSolution:
    status: str                  # optimal | unbounded | infeasible
    x: np.ndarray | None
    value: float
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0
    degenerate_pivots: int = 0   # pivots whose step length is zero
    # an optimal solve's final dictionary, until a solve started from this
    # solution takes it
    dictionary: _Dictionary | None = field(default=None, repr=False, compare=False)


def solve(lp: LinearProgram, start: LpSolution | None = None) -> LpSolution:
    """Dense bounded-variable primal simplex on the condensed tableau.

    Column k of T holds nonbasic variable nb[k], row r the basic variable
    basis[r].  Devex pricing with its Bland fallback (see the module
    docstring) chooses entering; it and the lowest-index leaving rule break
    ties by variable index, so the result is a deterministic function of
    the program and the start.

    Without ``start`` the solve starts from the all-slack basis.  With it,
    the optimal solution of an earlier solve of a program with the same
    constraints (A, b and bounds; c may differ), it starts from that
    solve's optimal dictionary, which stays primal feasible, re-priced for
    ``lp.c``, and takes the dictionary over: the result holds it, ``start``
    no longer does.  A start over other constraints, or one whose
    dictionary is gone, raises ValueError.
    """
    m, n = len(lp.b), len(lp.c)
    if np.any(lp.b < 0):
        raise ValueError("negative right-hand side; generated programs keep b >= 0")
    if start is None:
        state = _Dictionary(lp)
        d = lp.c.copy()
    else:
        state = start.dictionary
        if state is None:
            raise ValueError("start holds no optimal dictionary")
        if not state.over(lp):
            raise ValueError("start is a dictionary over other constraints")
        start.dictionary = None
        d = state.prices(lp.c)
    T, beta, nb, basis = state.T, state.beta, state.nb, state.basis
    side, ub_row = state.side, state.ub_row
    upper = np.concatenate([lp.upper, np.full(m, np.inf)])
    ratio = np.empty(m)
    scratch, priced = np.empty(n), np.empty(n)
    max_iterations = 200 * (n + 2 * m) + 10_000

    norm = np.ones(n)  # devex: each column's reference norm, the root of its weight
    iterations = 0
    degenerate = 0
    degenerate_run = 0
    while True:
        score = side * d
        np.divide(score, norm, out=priced)
        best = priced.max(initial=-np.inf)
        if best <= PIVOT_TOL:  # an eligible column may price below the tolerance
            priced[score <= PIVOT_TOL] = -np.inf
            if (best := priced.max(initial=-np.inf)) == -np.inf:
                break
        if degenerate_run < DEGENERATE_LIMIT:
            cand = np.flatnonzero(priced == best)  # devex
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
        norm_q = norm[q]
        np.multiply(np.abs(pivot_row, out=scratch), norm_q, out=scratch)
        np.maximum(norm, scratch, out=norm)
        norm[q] = max(norm_q / abs(piv), 1.0)  # the leaving variable's slot
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
                      degenerate_pivots=degenerate, dictionary=state)


# -- program builders -------------------------------------------------------

def matching_rows(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree rows of the b-matching polytope over edge variables:
    per offline vertex sum <= capacity, per online type sum <= eta * rate.

    Returns the row and the column of each 1.0 entry (every edge's offline
    vertex row, then every edge's type row), and the right-hand side.
    """
    m = inst.n_edges
    rows = np.concatenate([inst.edge_u, inst.n_offline + inst.edge_v])
    cols = np.tile(np.arange(m), 2)
    b = np.concatenate([inst.capacity_array, inst.eta * inst.rate_array])
    return rows, cols, b


def build_matching_lmo(inst: Instance, weights) -> LinearProgram:
    """Linear maximization oracle over the b-matching polytope.

    Negative weights are allowed; the zero lower bound simply keeps those
    edges out of an optimal basis.
    """
    w = np.asarray(weights, dtype=float)
    if len(w) != inst.n_edges:
        raise ValueError("weight vector length mismatch")
    rows, cols, b = matching_rows(inst)
    return LinearProgram(c=w, entries=(rows, cols, np.ones(len(rows))),
                         b=b, upper=np.ones(inst.n_edges))


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
        rows, cols, b_match = matching_rows(inst)
        rows, cols = rows.tolist(), cols.tolist()
        values = [1.0] * len(rows)
        k0, n = len(b_match), m + len(links)
        c = np.zeros(n)
        for cover, feats in merged.items():
            if len(cover) == 1:  # gamma_z = min(x_e, 1) = x_e
                c[cover[0]] = w[feats].sum()
        # link row k: gamma_k - (sum of the x_e covering it) <= 0
        for k, (cover, feats) in enumerate(links):
            rows += [k0 + k] * (len(cover) + 1)
            cols += [*cover, m + k]
            values += [-1.0] * len(cover) + [1.0]
            c[m + k] = w[feats].sum()
        return LinearProgram(
            c=c, entries=(rows, cols, values),
            b=np.concatenate([b_match, np.zeros(len(links))]), upper=np.ones(n))

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
    sol.dictionary = None  # nothing re-solves the epigraph program: free its tableau
    if sol.status != "optimal":
        raise RuntimeError(f"offline program not optimal: {sol.status}")
    value = min(objective.budget, sol.value) if budget_additive else sol.value
    closed = objective._multilinear(np.zeros(inst.n_edges))  # at 0, F's gradient is f({e})
    singleton = closed[1] if closed else objective.coordinate_gains(np.zeros(inst.n_edges, bool))
    x = saturate_marginals(inst, sol.x[:inst.n_edges], singleton)
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
