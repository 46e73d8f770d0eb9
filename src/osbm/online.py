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

``simulate`` replays a policy over independent arrival sequences and
reports per-trial objective values, their mean and standard error, and the
empirical ratio against a chosen benchmark upper bound.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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


class MatchState:
    """Mutable per-trial state: capacities only decrease, matches only grow."""

    __slots__ = ("remaining", "matched", "matched_set")

    def __init__(self, inst: Instance):
        self.remaining = list(inst.capacities)
        self.matched: list[int] = []
        self.matched_set: set[int] = set()

    def commit(self, e: int, u: int) -> None:
        if self.remaining[u] <= 0:
            raise RuntimeError("matched into a saturated offline vertex")
        self.remaining[u] -= 1
        self.matched.append(e)
        self.matched_set.add(e)


class OnlinePolicy:
    """Shared immutable preparation; per-trial randomness lives in the state
    object returned by ``start_trial``."""

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
        return None

    def on_arrival(self, trial, match: MatchState, v: int, t: int) -> list[int]:
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

    def on_arrival(self, trial, match, v, t):
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
            if u in used_u or match.remaining[u] <= 0:
                continue
            used_u.add(u)
            picks.append(e)
        return picks

    def start_trial(self, rng):
        return rng


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

    def on_arrival(self, trial, match, v, t):
        support, rng = trial
        candidates = support.x_edges_at(self.inst.edges_at_v[v])
        if len(candidates) == 0:
            return []
        e = int(candidates[rng.integers(len(candidates))])
        if not support.Y[e]:
            return []
        u = int(self.inst.edge_u[e])
        if match.remaining[u] <= 0:
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

    def on_arrival(self, trial, match, v, t):
        evaluator = trial
        picks: list[int] = []
        used_u: set[int] = set()
        for _ in range(self.inst.eta):
            best_e = -1
            best_u = -1
            best_gain = -1.0
            for u, e in self._by_u[v]:
                if u in used_u or match.remaining[u] <= 0:
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

    def on_arrival(self, trial, match, v, t):
        menu, rng = trial
        picks: list[int] = []
        used_u: set[int] = set()
        edge_u = self.inst.edge_u
        for _ in range(self.inst.eta):
            avail = [e for e in menu[v]
                     if int(edge_u[e]) not in used_u and match.remaining[edge_u[e]] > 0]
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
    """Replay one arrival sequence; returns (objective value, matched edges)."""
    trial = policy.start_trial(rng)
    match = MatchState(inst)
    edge_v = inst.edge_v
    edge_u = inst.edge_u
    eta = inst.eta
    for t, v in seq.arrivals:
        picks = policy.on_arrival(trial, match, v, t)
        if len(picks) > eta:
            raise RuntimeError(f"{policy.name} returned more than eta edges")
        seen_u: set[int] = set()
        for e in picks:
            u = int(edge_u[e])
            if int(edge_v[e]) != v:
                raise RuntimeError(f"{policy.name} matched a non-incident edge")
            if u in seen_u:
                raise RuntimeError(f"{policy.name} repeated an offline vertex")
            seen_u.add(u)
            match.commit(e, u)
    return objective.value(match.matched_set), match.matched


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
        if x_star is None:
            raise ValueError("guide-scaled benchmark needs edge marginals")
        if inst.n_edges <= 20:
            est = multilinear_exact(objective, x_star)
        else:
            est, _ = multilinear_mc(objective, x_star, samples=4000, seed=seed)
        return "guide-scaled", est * E_OVER_E_MINUS_1
    raise ValueError(f"unknown benchmark kind {kind!r}")


def _trial_block(args):
    policy, inst, objective, seed, lo, hi, keep = args
    vals = np.empty(hi - lo)
    matches: list[list[int]] | None = [] if keep else None
    for i in range(lo, hi):
        trial_seed = seed + i
        seq = sample_arrivals(inst, trial_seed)
        rng = np.random.default_rng((trial_seed, 1))
        value, matched = run_trial(policy, inst, objective, seq, rng)
        vals[i - lo] = value
        if keep:
            matches.append(matched)
    return lo, vals, matches


def simulate(
    inst: Instance,
    objective: SubmodularObjective,
    policy: str | OnlinePolicy,
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
    if isinstance(policy, str):
        policy = make_policy(policy, inst, objective, x_star,
                             allow_fractional_cr=allow_fractional_cr)
    if isinstance(benchmark, str):
        benchmark_kind, benchmark_value = compute_benchmark(
            benchmark, inst, objective, x_star=policy.x_star, seed=seed)
    elif benchmark is None:
        benchmark_kind, benchmark_value = None, None
    else:
        benchmark_kind, benchmark_value = benchmark

    values = np.empty(trials)
    matches: list[list[int]] | None = [None] * trials if keep_matches else None
    if workers > 1 and trials > 1:
        blocks = []
        step = max(1, math.ceil(trials / (workers * 4)))
        for lo in range(0, trials, step):
            blocks.append((policy, inst, objective, seed, lo,
                           min(lo + step, trials), keep_matches))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for lo, vals, block_matches in pool.map(_trial_block, blocks):
                values[lo: lo + len(vals)] = vals
                if keep_matches:
                    matches[lo: lo + len(vals)] = block_matches
    else:
        _, values[:], block_matches = _trial_block(
            (policy, inst, objective, seed, 0, trials, keep_matches))
        if keep_matches:
            matches = block_matches

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
