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

A trial runs in two parts.  ``start_trials`` prepares the per-trial state
of a whole batch at once (one ``sample_support`` or ``dependent_round_stars``
call with one generator per trial); ``replay`` then runs one trial's
arrivals over plain Python lists, drawing up front what has a known count
(marginal sampling's ``eta`` uniforms per arrival, contention resolution's
one index per arrival with candidates).  ``run_trial`` is the one place
that accepts a trial's matches: it audits them once, recounting each
offline vertex's load from the matches instead of trusting the policy's own
capacity bookkeeping, and scores them.

``simulate`` replays a policy over independent arrival sequences and reports
per-trial objective values, their mean and standard error, and the
empirical ratio against a chosen benchmark upper bound.  Trial ``i`` of a
run with seed ``s`` draws its arrivals from seed ``s + i`` and its policy
randomness from ``default_rng((s + i, 1))``; every batched step makes
exactly the draws of the one-trial-at-a-time loop, so values do not depend
on batching or on the worker count.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import lp as lpmod
from .instances import ArrivalSequence, Instance, sample_arrivals, split_groups
from .objectives import (EXACT_ENUMERATION_LIMIT, SubmodularObjective,
                         multilinear_exact, multilinear_mc)
from .offline import expected_opt
from .rounding import dependent_round_stars, sample_support

POLICY_NAMES = ("marginal-sampling", "contention-resolution", "greedy",
                "dependent-rounding")

E_OVER_E_MINUS_1 = math.e / (math.e - 1.0)


class OnlinePolicy:
    """Shared immutable preparation.  ``start_trials`` prepares the state of
    a batch of trials in one call, one generator per trial (by default the
    state is the trial's generator); ``replay`` runs one trial's arrival
    sequence from its state and returns the picks that ``run_trial``
    audits and scores."""

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

    def start_trials(self, rngs: list[np.random.Generator]) -> list:
        return list(rngs)

    def start_trial(self, rng: np.random.Generator):
        return self.start_trials([rng])[0]

    def replay(self, trial, seq: ArrivalSequence) -> tuple[list[int], list[int]]:
        """Match along the arrivals of ``seq``: returns the matched edges in
        commit order and, for each, its position in ``seq.arrivals``.  The
        policy keeps its own remaining capacities."""
        raise NotImplementedError


class MarginalSamplingPolicy(OnlinePolicy):
    name = "marginal-sampling"

    def __init__(self, inst, objective, x_star):
        super().__init__(inst, objective, x_star)
        # per type: cumulative sampling mass and (edge, offline vertex) pairs
        self._cum: list[list[float]] = []
        self._pairs: list[list[tuple[int, int]]] = []
        eta = inst.eta
        mass = inst.loads(self.x_star)[1] / (eta * inst.rate_array)
        over = np.flatnonzero(mass > 1.0 + 1e-9)
        if len(over):
            raise ValueError(
                f"infeasible marginals at type {inst.online_ids[over[0]]!r}: "
                f"sampling mass {mass[over[0]]:.6g} > 1"
            )
        for edges, rate in zip(inst.edges_at_v, inst.rates):
            self._cum.append(np.cumsum(self.x_star[edges] / (eta * rate)).tolist())
            self._pairs.append(list(zip(edges.tolist(), inst.edge_u[edges].tolist())))

    def replay(self, rng, seq):
        eta, arrivals = self.inst.eta, seq.arrivals
        # eta draws per arrival, whether or not they match
        draws = iter(rng.random(eta * len(arrivals)).tolist())
        remaining = list(self.inst.capacities)
        matched: list[int] = []
        arrival_of: list[int] = []
        for i, (_, v) in enumerate(arrivals):
            cum, pairs = self._cum[v], self._pairs[v]
            used_u: list[int] = []
            for r in islice(draws, eta):
                k = bisect_right(cum, r)
                if k >= len(pairs):
                    continue  # leftover mass: skip this draw
                e, u = pairs[k]
                if u in used_u or remaining[u] <= 0:
                    continue
                used_u.append(u)
                remaining[u] -= 1
                matched.append(e)
                arrival_of.append(i)
        return matched, arrival_of


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

    def start_trials(self, rngs):
        supports = sample_support(self.x_star, self.inst, list(rngs))
        return list(zip(supports, rngs))

    def replay(self, trial, seq):
        support, rng = trial
        inst = self.inst
        # X-edges grouped by type; an arrival of v draws one of its k_v
        # X-edges uniformly, and an arrival with none draws nothing
        present = inst.edges_by_v[support.X[inst.edges_by_v]]
        k = np.bincount(inst.edge_v[present], minlength=inst.n_online)
        first = np.cumsum(k) - k
        vs = seq.slots[seq.arrival_times]
        drawn = np.flatnonzero(k[vs] > 0)
        picks = present[first[vs[drawn]] + rng.integers(0, k[vs[drawn]])]
        kept = support.Y[picks]
        remaining = list(inst.capacities)
        matched: list[int] = []
        arrival_of: list[int] = []
        for i, e, u in zip(drawn[kept].tolist(), picks[kept].tolist(),
                           inst.edge_u[picks[kept]].tolist()):
            if remaining[u] > 0:
                remaining[u] -= 1
                matched.append(e)
                arrival_of.append(i)
        return matched, arrival_of


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

    def start_trials(self, rngs):
        return [self.objective.evaluator() for _ in rngs]

    def replay(self, evaluator, seq):
        remaining = list(self.inst.capacities)
        matched: list[int] = []
        arrival_of: list[int] = []
        for i, (_, v) in enumerate(seq.arrivals):
            used_u: list[int] = []
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
                used_u.append(best_u)
                remaining[best_u] -= 1
                matched.append(best_e)
                arrival_of.append(i)
        return matched, arrival_of


class DependentRoundingPolicy(OnlinePolicy):
    name = "dependent-rounding"

    def __init__(self, inst, objective, x_star):
        super().__init__(inst, objective, x_star)
        self._edge_u = inst.edge_u.tolist()

    def start_trials(self, rngs):
        chosen = dependent_round_stars(self.x_star, self.inst, list(rngs))
        return list(zip(chosen, rngs))

    def replay(self, trial, seq):
        chosen, rng = trial
        inst = self.inst
        # the rounded edges of each type, in index order; built here, not
        # at the start, so a block holds one trial's lists at a time
        kept = inst.edges_by_v[chosen[inst.edges_by_v]]
        menu = split_groups(kept.tolist(), inst.edge_v[kept], inst.n_online)
        edge_u = self._edge_u
        remaining = list(self.inst.capacities)
        matched: list[int] = []
        arrival_of: list[int] = []
        for i, (_, v) in enumerate(seq.arrivals):
            used_u: list[int] = []
            for _ in range(self.inst.eta):
                avail = [e for e in menu[v]
                         if edge_u[e] not in used_u and remaining[edge_u[e]] > 0]
                if not avail:
                    break
                # the bound depends on capacity, so each draw is made here
                e = avail[int(rng.integers(len(avail)))]
                used_u.append(edge_u[e])
                remaining[edge_u[e]] -= 1
                matched.append(e)
                arrival_of.append(i)
        return matched, arrival_of


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
              rng: np.random.Generator | None = None,
              trial=None) -> tuple[float, list[int]]:
    """Replay one arrival sequence; returns (objective value, matched edges).

    The trial starts from ``policy.start_trial(rng)``, or from ``trial``, a
    state made by ``policy.start_trials``.  This is the only code that
    accepts a trial's matches: it audits the whole trial once against the
    online rule, recounting each offline vertex's load from the matches
    rather than trusting the policy's own bookkeeping.  ``matched`` keeps
    repeats of a type-edge; the objective scores the set.
    """
    if trial is None:
        trial = policy.start_trial(rng)
    matched, arrival_of = policy.replay(trial, seq)
    if matched:
        e, at = np.asarray(matched), np.asarray(arrival_of)
        if np.bincount(at).max() > inst.eta:
            raise RuntimeError(f"{policy.name} returned more than eta edges")
        if np.any(inst.edge_v[e] != seq.slots[seq.arrival_times[at]]):
            raise RuntimeError(f"{policy.name} matched a non-incident edge")
        if len(np.unique(at * inst.n_offline + inst.edge_u[e])) < len(e):
            raise RuntimeError(f"{policy.name} repeated an offline vertex")
        load = np.bincount(inst.edge_u[e], minlength=inst.n_offline)
        if np.any(load > inst.capacity_array):
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
        if inst.n_edges <= EXACT_ENUMERATION_LIMIT:
            est = multilinear_exact(objective, x_star)
        else:
            est, _ = multilinear_mc(objective, x_star, samples=4000, seed=seed)
        return "guide-scaled", est * E_OVER_E_MINUS_1
    raise ValueError(f"unknown benchmark kind {kind!r}")


# Trials started together.  A block stays within BLOCK_CELLS 8-byte cells
# (16 MiB): each trial takes one per edge for its dependent-rounding draws,
# and about 256 (2 KiB, measured) for its generator and start state, which
# bounds the block on small instances too.
BLOCK_CELLS = 1 << 21


def _trial_block(policy, inst, objective, keep, seeds):
    """One batched start for the block's trials, then one replay each."""
    states = policy.start_trials([np.random.default_rng((s, 1)) for s in seeds])
    results = []
    for s, state in zip(seeds, states):
        value, matched = run_trial(policy, inst, objective,
                                   sample_arrivals(inst, s), trial=state)
        results.append((value, matched if keep else None))
    return results


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

    block = max(1, BLOCK_CELLS // (inst.n_edges + 256))
    if workers > 1 and trials > 1:
        block = min(block, math.ceil(trials / (workers * 4)))
    seeds = range(seed, seed + trials)
    blocks = [seeds[i:i + block] for i in range(0, trials, block)]
    one = partial(_trial_block, policy, inst, objective, keep_matches)
    if workers > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for rs in pool.map(one, blocks) for r in rs]
    else:
        results = [r for b in blocks for r in one(b)]
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
