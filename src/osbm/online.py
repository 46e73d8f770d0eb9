"""Online policies and the seeded trial simulator.

A policy sees arrivals one at a time and must commit immediately and
irrevocably to at most ``eta`` edges incident to the arriving type, each
going to a distinct offline vertex with remaining capacity.  Four policies
are provided:

* ``marginal-sampling`` - on each arrival of ``v``, draw an incident edge
  with probability ``x_e / (eta * r_v)`` (repeated ``eta`` times) and match
  it exactly when its offline endpoint still has capacity.  Works for any
  rates.
* ``contention-resolution`` - pre-sample the guide's support ``X`` edge by
  edge, thin each offline star to a uniform subset ``Y`` of at most ``b_u``
  of its sampled edges (one edge per star at capacity 1), and on each
  arrival match a uniform ``X``-edge of ``v`` only if its ``Y`` bit is set.
  Stated for integral rates (rate 1 per type and one type per round).
* ``greedy`` - match the neighbor(s) with the largest marginal gain.
* ``dependent-rounding`` - pre-round the guide star-by-star into a
  semi-matching and serve arrivals uniformly from it.

Policies only propose picks from the remaining capacities; ``run_trial``
commits them and audits each trial once against that rule.  ``simulate``
replays a policy over independent arrival sequences and reports per-trial
objective values, their mean and standard error, and the empirical ratio
against a chosen benchmark upper bound.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import lp as lpmod
from .instances import ArrivalSequence, Instance, sample_arrivals
from .objectives import (
    SubmodularObjective,
    multilinear_exact,
    multilinear_mc,
)
from .offline import expected_opt
from .rounding import dependent_round_stars, sample_support

POLICY_NAMES = ("marginal-sampling", "contention-resolution", "greedy",
                "dependent-rounding")

E_OVER_E_MINUS_1 = math.e / (math.e - 1.0)


class OnlinePolicy:
    """Shared immutable preparation; per-trial state (the trial's generator
    by default) comes from ``start_trial``, and ``on_arrival`` proposes the
    picks for an arrival of ``v`` that ``run_trial`` commits."""

    name = "abstract"
    needs_guide = True

    def __init__(self, inst: Instance, objective: SubmodularObjective,
                 x_star: np.ndarray | None = None):
        self.inst = inst
        self.objective = objective
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        if self.needs_guide:
            if self.x_star is None:
                raise ValueError(f"{self.name} needs offline edge marginals")
            if len(self.x_star) != inst.n_edges:
                raise ValueError("edge marginal vector length mismatch")

    def start_trial(self, rng: np.random.Generator):
        return rng

    def on_arrival(self, trial, remaining: list[int], v: int) -> list[int]:
        raise NotImplementedError


class MarginalSamplingPolicy(OnlinePolicy):
    name = "marginal-sampling"

    def __init__(self, inst, objective, x_star):
        super().__init__(inst, objective, x_star)
        self._cum: list[np.ndarray] = []
        self._edges: list[np.ndarray] = []
        eta = inst.eta
        for vi in range(inst.n_online):
            edges = inst.edges_at_v[vi]
            probs = self.x_star[edges] / (eta * inst.rates[vi])
            total = probs.sum()
            if total > 1.0 + 1e-9:
                raise ValueError(
                    f"infeasible marginals at type {inst.online_ids[vi]!r}: "
                    f"sampling mass {total:.6g} > 1"
                )
            self._edges.append(edges)
            self._cum.append(np.cumsum(probs))

    def on_arrival(self, trial, remaining, v):
        cum = self._cum[v]
        edges = self._edges[v]
        picks: list[int] = []
        used_u: set[int] = set()
        edge_u = self.inst.edge_u
        for _ in range(self.inst.eta):
            r = trial.random()
            k = int(np.searchsorted(cum, r, side="right"))
            if k >= len(edges):
                continue  # leftover mass: skip this draw
            e = int(edges[k])
            u = int(edge_u[e])
            if u in used_u or remaining[u] <= 0:
                continue
            used_u.add(u)
            picks.append(e)
        return picks


class ContentionResolutionPolicy(OnlinePolicy):
    name = "contention-resolution"

    def __init__(self, inst, objective, x_star, allow_fractional: bool = False):
        super().__init__(inst, objective, x_star)
        integral = (
            all(abs(r - 1.0) <= 1e-9 for r in inst.rates)
            and inst.n_online == inst.horizon
        )
        if not integral and not allow_fractional:
            raise ValueError(
                "contention-resolution assumes integral rates (rate 1 per type, "
                "one type per round); enable the fractional-rate override to "
                "run it anyway"
            )

    def start_trial(self, rng):
        support = sample_support(self.x_star, self.inst, rng)
        return (support, rng)

    def on_arrival(self, trial, remaining, v):
        support, rng = trial
        candidates = support.x_edges_at(self.inst.edges_at_v[v])
        if len(candidates) == 0:
            return []
        e = int(candidates[rng.integers(len(candidates))])
        if not support.Y[e]:
            return []
        u = int(self.inst.edge_u[e])
        if remaining[u] <= 0:
            return []
        return [e]


class GreedyPolicy(OnlinePolicy):
    name = "greedy"
    needs_guide = False

    def __init__(self, inst, objective, x_star=None):
        super().__init__(inst, objective, None)
        # candidate order fixes ties: lowest offline index wins
        self._by_u: list[list[tuple[int, int]]] = []
        for vi in range(inst.n_online):
            pairs = sorted(
                (int(inst.edge_u[e]), int(e)) for e in inst.edges_at_v[vi]
            )
            self._by_u.append(pairs)

    def start_trial(self, rng):
        return self.objective.evaluator()

    def on_arrival(self, trial, remaining, v):
        evaluator = trial
        picks: list[int] = []
        used_u: set[int] = set()
        for _ in range(self.inst.eta):
            best_e = -1
            best_u = -1
            best_gain = -1.0
            for u, e in self._by_u[v]:
                if u in used_u or remaining[u] <= 0:
                    continue
                g = evaluator.gain(e)
                if g > best_gain:
                    best_gain, best_e, best_u = g, e, u
            if best_e < 0:
                break
            evaluator.add(best_e)
            used_u.add(best_u)
            picks.append(best_e)
        return picks


class DependentRoundingPolicy(OnlinePolicy):
    name = "dependent-rounding"

    def start_trial(self, rng):
        chosen = dependent_round_stars(self.x_star, self.inst, rng)
        menu = [
            [int(e) for e in self.inst.edges_at_v[vi] if chosen[e]]
            for vi in range(self.inst.n_online)
        ]
        return (menu, rng)

    def on_arrival(self, trial, remaining, v):
        menu, rng = trial
        picks: list[int] = []
        used_u: set[int] = set()
        edge_u = self.inst.edge_u
        for _ in range(self.inst.eta):
            avail = [e for e in menu[v]
                     if int(edge_u[e]) not in used_u and remaining[edge_u[e]] > 0]
            if not avail:
                break
            e = avail[int(rng.integers(len(avail)))]
            used_u.add(int(edge_u[e]))
            picks.append(e)
        return picks


def make_policy(name: str, inst: Instance, objective: SubmodularObjective,
                x_star=None, allow_fractional_cr: bool = False) -> OnlinePolicy:
    if name == "marginal-sampling":
        return MarginalSamplingPolicy(inst, objective, x_star)
    if name == "contention-resolution":
        return ContentionResolutionPolicy(inst, objective, x_star,
                                          allow_fractional=allow_fractional_cr)
    if name == "greedy":
        return GreedyPolicy(inst, objective)
    if name == "dependent-rounding":
        return DependentRoundingPolicy(inst, objective, x_star)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


def run_trial(policy: OnlinePolicy, inst: Instance,
              objective: SubmodularObjective, seq: ArrivalSequence,
              rng: np.random.Generator) -> tuple[float, list[int]]:
    """Replay one arrival sequence; returns (objective value, matched edges).

    The only code that commits a match.  ``matched`` keeps repeats of a
    type-edge; the objective scores the set.
    """
    trial = policy.start_trial(rng)
    remaining = list(inst.capacities)
    matched: list[int] = []
    arrival_of: list[int] = []  # position in the sequence of each match
    edge_u = inst.edge_u
    for i, (_, v) in enumerate(seq.arrivals):
        for e in policy.on_arrival(trial, remaining, v):
            remaining[edge_u[e]] -= 1
            matched.append(e)
            arrival_of.append(i)
    if matched:  # one audit of the whole trial against the online rule
        e, at = np.asarray(matched), np.asarray(arrival_of)
        if np.bincount(at).max() > inst.eta:
            raise RuntimeError(f"{policy.name} returned more than eta edges")
        if np.any(inst.edge_v[e] != seq.slots[seq.arrival_times[at]]):
            raise RuntimeError(f"{policy.name} matched a non-incident edge")
        if len(np.unique(at * inst.n_offline + edge_u[e])) < len(e):
            raise RuntimeError(f"{policy.name} repeated an offline vertex")
        if min(remaining) < 0:
            raise RuntimeError("matched into a saturated offline vertex")
    return objective.value(matched), matched


@dataclass
class RunMetrics:
    """Per-trial objective values with their benchmark-relative summary."""

    policy: str
    objective_kind: str
    trials: int
    values: np.ndarray
    mean: float
    std: float
    std_error: float
    benchmark_kind: str | None
    benchmark_value: float | None
    ratio: float
    ratio_std_error: float
    matches: list[list[int]] | None = None


def compute_benchmark(kind: str, inst: Instance,
                      objective: SubmodularObjective,
                      x_star: np.ndarray | None = None,
                      seed: int = 0) -> tuple[str, float]:
    """Upper bounds on the expected hindsight optimum.

    ``lp``: optimum of the closed-form offline program (valid by concavity
    of the epigraph relaxation).  ``brute``: exact expectation, tiny
    instances only.  ``guide-scaled``: estimated F(x_star) * e/(e-1), valid
    for marginals produced by the fractional ascent.
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
        if inst.n_edges <= 20:
            est = multilinear_exact(objective, x_star)
        else:
            est, _ = multilinear_mc(objective, x_star, samples=4000, seed=seed)
        return "guide-scaled", est * E_OVER_E_MINUS_1
    raise ValueError(f"unknown benchmark kind {kind!r}")


def _trial(policy, inst, objective, keep, trial_seed):
    seq = sample_arrivals(inst, trial_seed)
    rng = np.random.default_rng((trial_seed, 1))
    value, matched = run_trial(policy, inst, objective, seq, rng)
    return value, matched if keep else None


def simulate(
    inst: Instance,
    objective: SubmodularObjective,
    policy: str,
    x_star: np.ndarray | None = None,
    trials: int = 100,
    seed: int = 0,
    benchmark: str | tuple[str, float] | None = None,
    workers: int = 1,
    allow_fractional_cr: bool = False,
    keep_matches: bool = False,
) -> RunMetrics:
    """Run independent seeded trials of one policy and summarize.

    Trial ``i`` derives its seed as ``seed + i`` (arrival stream and policy
    randomness split off that), so results are identical for any worker
    count and any scheduling order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    policy = make_policy(policy, inst, objective, x_star,
                         allow_fractional_cr=allow_fractional_cr)
    if isinstance(benchmark, str):
        benchmark_kind, benchmark_value = compute_benchmark(
            benchmark, inst, objective, x_star=x_star, seed=seed)
    elif benchmark is None:
        benchmark_kind, benchmark_value = None, None
    else:
        benchmark_kind, benchmark_value = benchmark

    one = partial(_trial, policy, inst, objective, keep_matches)
    seeds = range(seed, seed + trials)
    if workers > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, seeds,
                                    chunksize=math.ceil(trials / (workers * 4))))
    else:
        results = list(map(one, seeds))
    values = np.array([value for value, _ in results], dtype=float)
    matches = [m for _, m in results] if keep_matches else None

    mean = float(values.mean())
    std = float(values.std(ddof=1)) if trials > 1 else 0.0
    std_error = std / math.sqrt(trials) if trials > 1 else 0.0
    if benchmark_value:
        ratio = mean / benchmark_value
        ratio_se = std_error / benchmark_value
    else:
        ratio = math.nan
        ratio_se = math.nan
    return RunMetrics(
        policy=policy.name,
        objective_kind=getattr(objective, "kind", "unknown"),
        trials=trials,
        values=values,
        mean=mean,
        std=std,
        std_error=std_error,
        benchmark_kind=benchmark_kind,
        benchmark_value=benchmark_value,
        ratio=ratio,
        ratio_std_error=ratio_se,
        matches=matches,
    )
