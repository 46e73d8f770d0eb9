"""Shared builders for small randomized test instances, and the LP's
test-only oracles: a dense program builder, an optimality audit and an
exact rational simplex."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from osbm.instances import build_instance
from osbm.lp import FEAS_TOL, LinearProgram, LpSolution
from osbm.objectives import (
    BudgetAdditiveObjective,
    CoverageObjective,
    LinearObjective,
    PerUserCoverageObjective,
)


GOLDEN_NUMPY = "2.4.6"  # the numpy release every golden digest was recorded on

try:
    from hypothesis import settings
except ImportError:  # the property tests skip without hypothesis
    pass
else:
    # `--hypothesis-profile=ci`: a failing property prints the
    # @reproduce_failure blob that replays its example
    settings.register_profile("ci", print_blob=True)


def golden_note(name: str) -> str:
    """The failure message of a golden-digest check."""
    return (f"{name} differs from the digest recorded on numpy {GOLDEN_NUMPY} "
            f"(this run: numpy {np.__version__}); the digests cover sums made "
            "by numpy's own reductions, whose order another release may change")


def small_instance(rng: np.random.Generator, n_offline=None, n_online=None,
                   horizon=None, integral=False, max_degree=3):
    """Random bipartite instance small enough for exact oracles."""
    n_offline = n_offline or int(rng.integers(2, 7))
    n_online = n_online or int(rng.integers(2, 6))
    if integral:
        horizon = n_online
        rates = [1.0] * n_online
    else:
        horizon = horizon or int(rng.integers(n_online, 2 * n_online + 3))
        rates = (0.15 + 0.8 * rng.random(n_online)).tolist()
    edges = []
    k = 0
    for j in range(n_online):
        deg = int(rng.integers(1, min(max_degree, n_offline) + 1))
        for ui in sorted(rng.choice(n_offline, size=deg, replace=False).tolist()):
            edges.append((f"e{k}", f"u{ui}", f"v{j}"))
            k += 1
    return build_instance(
        offline=[(f"u{i}", 1) for i in range(n_offline)],
        online=list(zip((f"v{j}" for j in range(n_online)), rates)),
        edges=edges,
        horizon=horizon,
    )


def small_objective(kind: str, n_edges: int, rng: np.random.Generator,
                    n_features: int = 6):
    if kind == "linear":
        return LinearObjective(0.2 + rng.random(n_edges))
    if kind == "budget_additive":
        w = 0.2 + rng.random(n_edges)
        return BudgetAdditiveObjective(w, float(w.sum()) * 0.5)
    if kind in ("coverage", "per_user_coverage"):
        sets = [
            frozenset(rng.choice(n_features,
                                 size=int(rng.integers(1, min(4, n_features) + 1)),
                                 replace=False).tolist())
            for _ in range(n_edges)
        ]
        if kind == "coverage":
            return CoverageObjective(sets, 0.3 + rng.random(n_features))
        # three online types, each edge at a random one; features are genres
        return PerUserCoverageObjective(rng.integers(0, 3, size=n_edges), sets,
                                        0.3 + rng.random((3, n_features)))
    raise ValueError(kind)


def dense_program(c, A, b, upper) -> LinearProgram:
    """The program with the dense constraint matrix A: every entry whose bits
    are not +0.0 is held, so a -0.0 is kept."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape != (np.size(b), np.size(c)):
        raise ValueError("inconsistent LP dimensions")
    rows, cols = np.nonzero(A.view(np.uint64))  # any bits but +0.0
    return LinearProgram(c, (rows, cols, A[rows, cols]), b, upper)


def lp_audit(sol: LpSolution, lp: LinearProgram) -> list[str]:
    """Primal feasibility, dual sign, and complementary slackness checks of
    `sol`, each to FEAS_TOL relative to the program's scale."""
    problems: list[str] = []
    if sol.status != "optimal":
        return [f"status {sol.status}"]
    scale = 1.0 + max(1.0, float(np.abs(lp.b).max(initial=0.0)),
                      float(np.abs(lp.upper[np.isfinite(lp.upper)]).max(initial=0.0)))
    x, tol = sol.x, FEAS_TOL * scale
    if np.any(x < -tol):
        problems.append("negative variable value")
    finite = np.isfinite(lp.upper)
    if np.any(x[finite] > lp.upper[finite] + tol):
        problems.append("variable above upper bound")
    slack = lp.b - lp.A @ x
    if np.any(slack < -tol):
        problems.append("row violated")
    if sol.duals is not None:
        if np.any(sol.duals < -tol):
            problems.append("negative dual on a <= row")
        comp = np.abs(sol.duals * slack)
        if comp.size and comp.max() > tol * 10:
            problems.append("complementary slackness violated")
    return problems


def reference_solve(lp: LinearProgram) -> Fraction:
    """Exact optimum via a rational standard-form tableau (independent of
    the float path: explicit bound rows, no implicit-bound bookkeeping).

    Intended for auditing on small programs; cost grows quickly with size.
    """
    A = lp.A  # one dense read
    m, n = A.shape
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        rows.append([Fraction(a) for a in A[i].tolist()])
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
