"""Offline phase: the guides that steer the online policies and the upper
bounds that judge them.

`lp_guide` solves the epigraph program of a closed-form objective, whose
optimum, the ``lp`` bound, maximizes a concave relaxation L(x) >= F(x);
`continuous_greedy` ascends the multilinear extension F toward the best
vertex of its gradient and records the ``guide-scaled`` bound F(x) *
e/(e-1).  Each returns an `OfflineSolution`, marginals with their bound.
`expected_opt` is the ``brute`` bound, E[hindsight optimum], on tiny
instances; `compute_benchmark` makes any of the three as the ``(kind,
value)`` pair `online.simulate` takes.  Every F(x*) is
``multilinear_estimate(objective, x*, seed)``: one guide and seed, one value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .instances import (ArrivalSequence, Instance, Record, num, read_table,
                        sample_arrivals, the_one, write_table)
from .objectives import SubmodularObjective, batch_gradient, mean_se, multilinear_estimate

SOLUTION_HEADER = "osbm-solution/1"
HINDSIGHT_NODE_BUDGET = 10_000_000
EXACT_SEQUENCE_BUDGET = 1_000_000


@dataclass
class OfflineSolution:
    """Feasible edge marginals plus solver diagnostics."""

    x: np.ndarray
    objective_estimate: float
    estimate_std_error: float
    solver: str
    seed: int | None = None
    steps: int | None = None
    grad_samples: int | None = None
    benchmark_kind: str | None = None
    benchmark_value: float | None = None


def _project_into_polytope(x: np.ndarray, inst: Instance) -> np.ndarray:
    """Restore strict feasibility after float drift: shrink by a hair, then
    rescale any still-violated degree row proportionally (shrinking a row
    never pushes another row up)."""
    x = np.clip(x * (1.0 - 1e-9), 0.0, 1.0)
    for side, groups, rhs in ((0, inst.edges_at_u, inst.capacity_array),
                              (1, inst.edges_at_v, inst.eta * inst.rate_array)):
        load = inst.loads(x)[side]
        for k in np.flatnonzero(load > rhs):
            x[groups[k]] *= rhs[k] / load[k]
    return x


def continuous_greedy(
    objective: SubmodularObjective,
    inst: Instance,
    steps: int = 100,
    grad_samples: int = 100,
    seed: int = 0,
) -> OfflineSolution:
    """Fractional ascent on the multilinear extension over the matching
    polytope: x accumulates `steps` equal-weight LMO vertices, each chosen
    against the gradient of F at x (`batch_gradient`: the closed form for
    linear and coverage objectives, else ``grad_samples`` shared subset draws
    from ``seed``).  The LMO is built once; each step re-prices it for the
    new gradient and solves from the previous step's optimal dictionary.  The
    solution carries its ``guide-scaled`` bound, from
    ``multilinear_estimate(objective, x, seed)``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    m = inst.n_edges
    x = np.zeros(m)
    lmo = lpmod.build_matching_lmo(inst, np.zeros(m))
    sol = None
    for _ in range(steps):
        lmo.c = batch_gradient(objective, x, grad_samples, rng)
        sol = lpmod.solve(lmo, start=sol)
        if sol.status != "optimal":
            raise RuntimeError(f"linear oracle returned {sol.status}")
        x = x + sol.x / steps
    x = _project_into_polytope(x, inst)
    est, se = multilinear_estimate(objective, x, seed)
    return OfflineSolution(
        x=x, objective_estimate=est, estimate_std_error=se,
        solver="continuous-greedy", seed=seed, steps=steps,
        grad_samples=grad_samples, benchmark_kind="guide-scaled",
        benchmark_value=guide_scaled(est),
    )


def lp_guide(objective: SubmodularObjective, inst: Instance, seed: int = 0) -> OfflineSolution:
    """The epigraph program's optimizer with its ``lp`` bound, and F from
    ``multilinear_estimate(objective, x, seed)``."""
    x, value, _ = lpmod.solve_offline_lp(inst, objective)
    est, se = multilinear_estimate(objective, x, seed)
    return OfflineSolution(x=x, objective_estimate=est, estimate_std_error=se, solver="lp",
                           seed=seed, benchmark_kind="lp", benchmark_value=value)


# -- hindsight optimum -------------------------------------------------------


def hindsight_optimal(
    inst: Instance, seq: ArrivalSequence, objective: SubmodularObjective
) -> tuple[float, tuple[int, ...]]:
    """Exact best matching for one realized arrival sequence.

    Each arrival may take up to eta of its (distinct-vertex, capacity-
    feasible) neighbors or skip.  The optimum depends only on per-type
    arrival counts, so the search enumerates, per online type with k
    arrivals, every edge subset of size at most k * eta; capacities couple
    the types and are tracked along the depth-first search.
    """
    return _best_for_counts(inst, seq.counts(inst.n_online), objective)


def _best_for_counts(inst: Instance, counts, objective: SubmodularObjective
                     ) -> tuple[float, tuple[int, ...]]:
    """``hindsight_optimal`` for the per-type arrival counts ``counts``."""
    # Python ints: exact, with no float overflow past the budget
    choices = math.prod((len(g) + 1) ** int(k) for g, k in zip(inst.edges_at_v, counts))
    if choices > HINDSIGHT_NODE_BUDGET:
        raise ValueError("hindsight search space exceeds the enumeration budget")
    groups = [
        (vi, int(k)) for vi, k in enumerate(counts) if k > 0
    ]
    remaining = list(inst.capacities)
    best_value = 0.0
    best_edges: tuple[int, ...] = ()
    chosen: list[int] = []

    def dfs(gi: int, members: set[int]) -> None:
        nonlocal best_value, best_edges
        if gi == len(groups):
            value = objective.value(members)
            if value > best_value:
                best_value = value
                best_edges = tuple(chosen)
            return
        vi, k = groups[gi]
        avail = [int(e) for e in inst.edges_at_v[vi]
                 if remaining[inst.edge_u[e]] > 0]
        max_pick = min(len(avail), k * inst.eta)
        for size in range(max_pick + 1):
            for subset in itertools.combinations(avail, size):
                for e in subset:
                    remaining[inst.edge_u[e]] -= 1
                chosen.extend(subset)
                dfs(gi + 1, members | set(subset))
                del chosen[len(chosen) - len(subset):]
                for e in subset:
                    remaining[inst.edge_u[e]] += 1

    dfs(0, set())
    return best_value, best_edges


def expected_opt(
    inst: Instance,
    objective: SubmodularObjective,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Expectation of the hindsight optimum over arrival sequences.

    ``exact`` enumerates arrival-count multisets with their multinomial
    probabilities (the hindsight value is order-invariant); the sequence
    space (#nonzero-probability branches)**T must stay within the
    enumeration budget.  ``mc`` averages over sampled sequences and also
    returns the standard error.
    """
    if mode == "exact":
        probs = inst.arrival_probs
        p_none = max(0.0, 1.0 - probs.sum())
        if p_none <= 1e-12:
            p_none = 0.0
        branches = int(np.count_nonzero(probs > 0)) + (1 if p_none > 0 else 0)
        if branches ** inst.horizon > EXACT_SEQUENCE_BUDGET:  # exact int
            raise ValueError("exact mode exceeds the sequence enumeration budget")
        n = inst.n_online
        T = inst.horizon
        total = 0.0
        log_fact = [math.lgamma(k + 1) for k in range(T + 1)]

        def rec(vi: int, left: int, counts: list[int]) -> None:
            nonlocal total
            if vi == n:
                log_p = log_fact[T] - log_fact[left]
                log_p += left * (math.log(p_none) if p_none > 0 else
                                 (-math.inf if left else 0.0))
                for kk, vv in zip(counts, probs):
                    if kk:
                        log_p += kk * math.log(vv) - log_fact[kk]
                    # kk == 0 contributes nothing
                if log_p == -math.inf:
                    return
                value, _ = _best_for_counts(inst, counts, objective)
                total += math.exp(log_p) * value
                return
            upper = left if probs[vi] > 0 else 0
            for k in range(upper + 1):
                counts.append(k)
                rec(vi + 1, left - k, counts)
                counts.pop()

        rec(0, T, [])
        return total, 0.0

    if mode == "mc":
        return mean_se([hindsight_optimal(inst, sample_arrivals(inst, seed + i), objective)[0]
                        for i in range(trials)])

    raise ValueError(f"unknown mode {mode!r}")


def guide_scaled(f_value: float) -> float:
    """The ``guide-scaled`` bound F(x*) * e/(e-1) from an estimate of F(x*)."""
    return f_value * math.e / (math.e - 1.0)


def compute_benchmark(kind: str, inst: Instance,
                      objective: SubmodularObjective,
                      x_star: np.ndarray | None = None,
                      seed: int = 0) -> tuple[str, float]:
    """Upper bounds on the expected hindsight optimum, as the ``(kind,
    value)`` pair `online.simulate` takes.

    ``lp``: optimum of the closed-form offline program (valid by concavity
    of the epigraph relaxation).  ``brute``: exact expectation, tiny
    instances only.  ``guide-scaled``: F(x_star) * e/(e-1), valid for
    marginals produced by the fractional ascent, so x_star must lie in the
    b-matching polytope, as a guided policy's must.
    """
    if kind == "lp":
        _, value, _ = lpmod.solve_offline_lp(inst, objective)
        return "lp", value
    if kind == "brute":
        value, _ = expected_opt(inst, objective, mode="exact")
        return "brute", value
    if kind == "guide-scaled":
        if x_star is None or len(x_star) != inst.n_edges:
            raise ValueError("guide-scaled benchmark needs edge marginals")
        if not lpmod.feasible_for_matching(inst, x_star):
            raise ValueError("infeasible guide-scaled guide: not in the b-matching polytope")
        est, _ = multilinear_estimate(objective, x_star, seed)
        return "guide-scaled", guide_scaled(est)
    raise ValueError(f"unknown benchmark kind {kind!r}")


# -- solution artifact --------------------------------------------------------


class SolutionError(ValueError):
    """Raised when a marginals artifact cannot guide the given instance."""


def _finite_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite value {text!r}")
    return value


# the records of a solution file, in the order save_solution writes them
SOLUTION_RECORDS = {
    "solver": Record(lambda t: (t[0],), 0, None, lambda _, s: [str(s.solver)]),
    "objective-estimate": Record(lambda t: (float(t[0]),), 0, None,
                                 lambda _, s: [num(s.objective_estimate)]),
    "estimate-std-error": Record(lambda t: (float(t[0]),), 0, None,
                                 lambda _, s: [num(s.estimate_std_error)]),
    "seed": Record(lambda t: (int(t[0]),), 0, None, lambda _, s: [s.seed]),
    "steps": Record(lambda t: (int(t[0]),), 0, None, lambda _, s: [s.steps]),
    "grad-samples": Record(lambda t: (int(t[0]),), 0, None, lambda _, s: [s.grad_samples]),
    "benchmark": Record(lambda t: (t[0], _finite_float(t[1])), 0, None, lambda _, s: [
        None if s.benchmark_kind is None else f"{s.benchmark_kind} {num(s.benchmark_value)}"]),
    "x": Record(lambda t: (t[0], _finite_float(t[1])), 1, "edge", lambda inst, s: (
        f"{eid} {num(v)}" for eid, v in zip(inst.edge_ids, s.x))),
}


def save_solution(path, inst: Instance, solution: OfflineSolution) -> None:
    """Write edge marginals (17 significant digits) plus solver metadata.

    Raises SolutionError where `load_solution` would misread or reject the
    file: a solver or benchmark kind that is not one token, or a non-finite
    benchmark value (a benchmark divides every ratio)."""
    for what, text in (("solver", solution.solver), ("benchmark kind", solution.benchmark_kind)):
        if text is not None and (not text or any(ch.isspace() for ch in text)):
            raise SolutionError(f"{path}: {what} {text!r} is empty or has whitespace")
    if solution.benchmark_kind is not None and not math.isfinite(solution.benchmark_value):
        raise SolutionError(f"{path}: benchmark value "
                            f"{num(solution.benchmark_value)} is not finite")
    write_table(path, SOLUTION_HEADER, SOLUTION_RECORDS, inst, solution)


def load_solution(path, inst: Instance) -> OfflineSolution:
    """Read a marginals artifact written by `save_solution` for `inst`.

    Raises SolutionError, naming the file, on non-UTF-8 text, a record that
    breaks README's record table, edge ids that differ from the instance's,
    or an x outside the instance's b-matching polytope.
    """
    found = read_table(path, SOLUTION_HEADER, SolutionError, "a solution file", SOLUTION_RECORDS)
    values = found["x"]
    if len(values) != inst.n_edges or any((eid,) not in values for eid in inst.edge_ids):
        raise SolutionError(f"{path}: edge marginals do not match the instance")
    x = np.array([values[eid,][1] for eid in inst.edge_ids])
    if not lpmod.feasible_for_matching(inst, x):
        raise SolutionError(
            f"{path}: edge marginals lie outside the instance's b-matching polytope")
    benchmark_kind, benchmark_value = found["benchmark"].get((), (None, None))
    return OfflineSolution(
        x=x,
        objective_estimate=the_one(found["objective-estimate"], math.nan),
        estimate_std_error=the_one(found["estimate-std-error"], math.nan),
        solver=the_one(found["solver"], "unknown"),
        seed=the_one(found["seed"]),
        steps=the_one(found["steps"]),
        grad_samples=the_one(found["grad-samples"]),
        benchmark_kind=benchmark_kind,
        benchmark_value=benchmark_value,
    )
