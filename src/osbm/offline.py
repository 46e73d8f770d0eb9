"""Offline phase: fractional ascent over the matching polytope, randomized
pipage rounding to integral matchings, and brute-force optima for tiny
instances.

`continuous_greedy` maximizes the multilinear extension over the b-matching
polytope by repeatedly estimating its gradient and stepping toward the best
vertex (linear maximization oracle); the resulting marginals guide the
online policies.  `expected_opt` computes or estimates the expectation of
the hindsight optimum over arrival sequences, the denominator of empirical
competitive ratios on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lp as lpmod
from .instances import ArrivalSequence, Instance, sample_arrivals
from .objectives import SubmodularObjective, batch_gradient, multilinear_mc

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
    trajectory: list[tuple[float, float]] = field(default_factory=list)


def _project_into_polytope(x: np.ndarray, inst: Instance) -> np.ndarray:
    """Restore strict feasibility after float drift: shrink by a hair, then
    rescale any still-violated degree row proportionally (shrinking a row
    never pushes another row up)."""
    x = np.clip(x * (1.0 - 1e-9), 0.0, 1.0)
    for ui in range(inst.n_offline):
        edges = inst.edges_at_u[ui]
        s = x[edges].sum()
        if s > inst.capacities[ui]:
            x[edges] *= inst.capacities[ui] / s
    for vi in range(inst.n_online):
        edges = inst.edges_at_v[vi]
        rhs = inst.eta * inst.rates[vi]
        s = x[edges].sum()
        if s > rhs:
            x[edges] *= rhs / s
    return x


def continuous_greedy(
    objective: SubmodularObjective,
    inst: Instance,
    steps: int = 100,
    grad_samples: int = 100,
    seed: int = 0,
    estimate_samples: int = 2000,
    track_trajectory: bool = False,
) -> OfflineSolution:
    """Fractional ascent on the multilinear extension over the matching
    polytope: x accumulates `steps` equal-weight LMO vertices, each chosen
    against a Monte Carlo gradient estimate sharing one batch of subset
    draws across coordinates.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    m = inst.n_edges
    x = np.zeros(m)
    trajectory: list[tuple[float, float]] = []
    for _ in range(steps):
        grad = batch_gradient(objective, x, grad_samples, rng)
        sol = lpmod.solve(lpmod.build_matching_lmo(inst, grad))
        if sol.status != "optimal":
            raise RuntimeError(f"linear oracle returned {sol.status}")
        x = x + sol.x / steps
        if track_trajectory:
            est, se = multilinear_mc(objective, np.clip(x, 0.0, 1.0),
                                     max(200, grad_samples), rng)
            trajectory.append((est, se))
    x = _project_into_polytope(x, inst)
    est, se = multilinear_mc(objective, x, estimate_samples, rng)
    return OfflineSolution(
        x=x, objective_estimate=est, estimate_std_error=se,
        solver="continuous-greedy", seed=seed, steps=steps,
        grad_samples=grad_samples, trajectory=trajectory,
    )


# -- pipage rounding ---------------------------------------------------------


def _fractional_walk(adj: dict[int, list[int]], edge_ends, frac_edges: set[int]):
    """Find a cycle or a maximal path in the fractional support.

    Returns a list of edge indices forming the walk.  Vertices are encoded
    as ints (offline as-is, online offset); `adj` maps vertex -> incident
    fractional edges (kept current by the caller).
    """
    # prefer an endpoint of a path: a vertex of fractional degree one
    start = None
    for vert in sorted(adj):
        if len(adj[vert]) == 1:
            start = vert
            break
    if start is None:
        start = min(adj)
    walk_edges: list[int] = []
    seen_at: dict[int, int] = {start: 0}
    current = start
    prev_edge = -1
    while True:
        nxt = None
        for e in adj[current]:
            if e != prev_edge:
                nxt = e
                break
        if nxt is None:
            return walk_edges  # maximal path
        a, b = edge_ends[nxt]
        current = b if a == current else a
        walk_edges.append(nxt)
        prev_edge = nxt
        if current in seen_at:
            return walk_edges[seen_at[current]:]  # cycle slice
        seen_at[current] = len(walk_edges)


def pipage_round(x, inst: Instance, seed) -> np.ndarray:
    """Randomized pipage rounding of feasible marginals to an integral
    matching: shift mass along alternating paths/cycles of the fractional
    support with the two-sided probabilities that preserve per-edge
    marginals, until integral.  Offline degrees never exceed capacities;
    online degrees never exceed the ceiling of their fractional bound.
    """
    x = np.asarray(x, dtype=float).copy()
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    n_u = inst.n_offline
    edge_ends = [(int(u), n_u + int(v)) for u, v in zip(inst.edge_u, inst.edge_v)]

    def is_frac(val: float) -> bool:
        return 1e-12 < val < 1.0 - 1e-12

    frac_edges = {e for e in range(inst.n_edges) if is_frac(x[e])}
    while frac_edges:
        adj: dict[int, list[int]] = {}
        for e in frac_edges:
            a, b = edge_ends[e]
            adj.setdefault(a, []).append(e)
            adj.setdefault(b, []).append(e)
        for lst in adj.values():
            lst.sort()
        walk = _fractional_walk(adj, edge_ends, frac_edges)
        sign = np.empty(len(walk))
        sign[::2] = 1.0
        sign[1::2] = -1.0
        vals = x[walk]
        up = np.where(sign > 0, 1.0 - vals, vals).min()      # room along +sign
        down = np.where(sign > 0, vals, 1.0 - vals).min()    # room along -sign
        if rng.random() < down / (up + down):
            x[walk] = vals + up * sign
        else:
            x[walk] = vals - down * sign
        for e in walk:
            if x[e] <= 1e-12:
                x[e] = 0.0
            elif x[e] >= 1.0 - 1e-12:
                x[e] = 1.0
            if not is_frac(x[e]):
                frac_edges.discard(e)
    return x > 0.5


# -- hindsight optimum -------------------------------------------------------


def _choice_space(counts: np.ndarray, inst: Instance) -> float:
    size = 1.0
    for vi, k in enumerate(counts):
        if k:
            deg = len(inst.edges_at_v[vi])
            size *= float(deg + 1) ** int(k)
    return size


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
    counts = seq.counts(inst.n_online)
    if _choice_space(counts, inst) > HINDSIGHT_NODE_BUDGET:
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
        if float(branches) ** inst.horizon > EXACT_SEQUENCE_BUDGET:
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
                prob = math.exp(log_p)
                slots = np.concatenate([
                    np.repeat(np.arange(n), counts),
                    np.full(left, -1, dtype=np.int64),
                ]).astype(np.int64)
                value, _ = hindsight_optimal(inst, ArrivalSequence(slots), objective)
                total += prob * value
                return
            upper = left if probs[vi] > 0 else 0
            for k in range(upper + 1):
                counts.append(k)
                rec(vi + 1, left - k, counts)
                counts.pop()

        rec(0, T, [])
        return total, 0.0

    if mode == "mc":
        vals = np.empty(trials)
        for i in range(trials):
            seq = sample_arrivals(inst, seed + i)
            vals[i], _ = hindsight_optimal(inst, seq, objective)
        se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        return float(vals.mean()), se

    raise ValueError(f"unknown mode {mode!r}")


# -- solution artifact --------------------------------------------------------


def save_solution(path, inst: Instance, solution: OfflineSolution) -> None:
    """Write edge marginals (17 significant digits) plus solver metadata."""
    def num(v: float) -> str:
        return format(float(v), ".17g")

    lines = [SOLUTION_HEADER,
             f"solver {solution.solver}",
             f"objective-estimate {num(solution.objective_estimate)}",
             f"estimate-std-error {num(solution.estimate_std_error)}"]
    if solution.seed is not None:
        lines.append(f"seed {solution.seed}")
    if solution.steps is not None:
        lines.append(f"steps {solution.steps}")
    if solution.grad_samples is not None:
        lines.append(f"grad-samples {solution.grad_samples}")
    if solution.benchmark_kind is not None:
        lines.append(f"benchmark {solution.benchmark_kind} {num(solution.benchmark_value)}")
    for eid, val in zip(inst.edge_ids, solution.x):
        lines.append(f"x {eid} {num(val)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class SolutionError(ValueError):
    """Raised when a marginals artifact cannot guide the given instance."""


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def load_solution(path, inst: Instance) -> OfflineSolution:
    """Read a marginals artifact written by `save_solution` for `inst`.

    Raises SolutionError, naming the file, on a short or unparsable record,
    a non-finite number, edge ids that differ from the instance's, or an x
    outside the instance's b-matching polytope.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or lines[0][1] != SOLUTION_HEADER:
        raise SolutionError(f"{path}: not a solution file (missing {SOLUTION_HEADER!r})")
    meta: dict[str, str] = {}
    values: dict[str, float] = {}
    benchmark_kind = None
    benchmark_value = None
    for lineno, line in lines[1:]:
        tok = line.split()
        try:
            if tok[0] == "x":
                values[tok[1]] = _finite_float(tok[2])
            elif tok[0] == "benchmark":
                benchmark_kind, benchmark_value = tok[1], _finite_float(tok[2])
            else:
                meta[tok[0]] = tok[1]
        except (IndexError, ValueError):
            raise SolutionError(
                f"{path}: bad record at line {lineno}: {line!r}") from None
    missing = [eid for eid in inst.edge_ids if eid not in values]
    if missing or len(values) != inst.n_edges:
        raise SolutionError(f"{path}: edge marginals do not match the instance")
    x = np.array([values[eid] for eid in inst.edge_ids])
    if not lpmod.feasible_for_matching(inst, x):
        raise SolutionError(
            f"{path}: edge marginals lie outside the instance's b-matching polytope")
    try:
        return OfflineSolution(
            x=x,
            objective_estimate=float(meta.get("objective-estimate", "nan")),
            estimate_std_error=float(meta.get("estimate-std-error", "nan")),
            solver=meta.get("solver", "unknown"),
            seed=int(meta["seed"]) if "seed" in meta else None,
            steps=int(meta["steps"]) if "steps" in meta else None,
            grad_samples=int(meta["grad-samples"]) if "grad-samples" in meta else None,
            benchmark_kind=benchmark_kind,
            benchmark_value=benchmark_value,
        )
    except ValueError as exc:
        raise SolutionError(f"{path}: bad metadata: {exc}") from None
