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

Trials run in blocks, in three parts.  ``start_trials`` prepares the state
of the whole block at once (one ``sample_support`` or ``dependent_round_stars``
call with one generator per trial).  ``replay_block`` then advances every
trial of the block together, arrival by arrival: step k serves each trial's
k-th arrival with one numpy step over the trials for each of up to ``eta``
picks, on state held as arrays (remaining capacities, trials x offline
vertices; greedy's evaluator rows; the rounded edge sets).  What has a known
count is drawn up front per trial (marginal sampling's ``eta`` uniforms per
arrival, contention resolution's one index per arrival with candidates);
dependent rounding draws each pick from the trial's own generator, and only
when more than one edge is open.  ``run_trial`` is the one place that
accepts a trial's matches: it audits them once per trial, recounting each
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import lp as lpmod
from .instances import ArrivalSequence, Instance, sample_arrivals
from .objectives import (EXACT_ENUMERATION_LIMIT, SubmodularObjective,
                         multilinear_exact, multilinear_mc)
from .offline import expected_opt
from .rounding import dependent_round_stars, sample_support

POLICY_NAMES = ("marginal-sampling", "contention-resolution", "greedy",
                "dependent-rounding")

E_OVER_E_MINUS_1 = math.e / (math.e - 1.0)


class OnlinePolicy:
    """Shared immutable preparation and the trial engine.

    ``start_trials`` prepares the state of a block of trials in one call,
    one generator per trial (by default the state is the trial's generator).
    ``replay_block`` then advances all trials of the block together, arrival
    by arrival: step k serves each trial's k-th arrival, in up to ``eta``
    rounds of one numpy step over the trials.  A policy sets its candidate
    table ``_table`` (a row of edges per type, -1 pads) and, through
    ``_begin`` and ``_choose``, picks among the open candidates of each
    round: those whose offline vertex has capacity left and has not served
    this arrival.  ``run_trial`` audits and scores the picks.
    """

    name = "abstract"
    needs_guide = True
    _table: np.ndarray

    def __init__(self, inst: Instance, objective: SubmodularObjective,
                 x_star: np.ndarray | None = None):
        self.inst = inst
        self.objective = objective
        # the offline vertex of each edge, and at [-1] that of the -1 pad:
        # vertex n_offline, which never has capacity
        self._edge_u = np.append(inst.edge_u, inst.n_offline)
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

    def replay_block(self, states: list, seqs: list[ArrivalSequence]) -> list:
        """Match along each trial's arrival sequence: for trial i, the edges
        matched in commit order and, for each, its position in
        ``seqs[i].arrivals`` (two int arrays).  The policy keeps its own
        remaining capacities."""
        block = _Block(self.inst, seqs)
        run = self._begin(states, block)
        # a table with no columns: no type has an edge, nothing to match
        for k, rows in block.steps() if self._table.shape[1] else ():
            v = block.types[rows, k]
            cand = self._table[v]
            us = self._edge_u[cand]
            open_ = block.remaining[rows[:, None], us] > 0
            for j in range(self.inst.eta):
                hit, col = self._choose(run, k, j, rows, v, cand, open_)
                if not len(hit):
                    continue
                block.commit(k, rows[hit], cand[hit, col], us[hit, col])
                open_[hit, col] = False
        return block.picks()

    def replay(self, trial, seq: ArrivalSequence) -> tuple:
        """One trial's picks: a block of one."""
        return self.replay_block([trial], [seq])[0]

    def _begin(self, states: list, block: "_Block"):
        """The policy's own state for a block, passed to each round."""
        raise NotImplementedError

    def _choose(self, run, k: int, j: int, rows: np.ndarray, v: np.ndarray,
                cand: np.ndarray, open_: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Round j of step k, over the stepping trials ``rows`` with arrival
        types ``v``: (index into rows of each trial that picks, the column of
        ``cand`` it picks, an open one).  Every pick returned is matched."""
        raise NotImplementedError


class _Block:
    """A block of trials stepped together: each trial's arrival types (a
    row of ``types``, -1 past its last arrival), its remaining capacities,
    and the edges it matched in commit order, with their arrival positions.
    """

    def __init__(self, inst: Instance, seqs: list[ArrivalSequence]):
        n = len(seqs)
        self.count = np.array([len(seq.arrival_times) for seq in seqs], dtype=np.int64)
        self.types = np.full((n, int(self.count.max(initial=0))), -1, dtype=np.int64)
        for row, seq in zip(self.types, seqs):
            row[:len(seq.arrival_times)] = seq.slots[seq.arrival_times]
        # column n_offline is the vertex of the -1 pad: it has no capacity
        self.remaining = np.zeros((n, inst.n_offline + 1), dtype=np.int64)
        self.remaining[:, :-1] = inst.capacity_array
        self.matched = np.empty((n, inst.eta * self.types.shape[1]), dtype=np.int64)
        self.position = np.empty_like(self.matched)
        self.n_matched = np.zeros(n, dtype=np.int64)

    def steps(self):
        """(k, the trials with a k-th arrival) for each step k."""
        for k in range(self.types.shape[1]):
            yield k, np.flatnonzero(self.count > k)

    def commit(self, k: int, rows: np.ndarray, edges: np.ndarray, us: np.ndarray):
        self.remaining[rows, us] -= 1
        slot = self.n_matched[rows]
        self.matched[rows, slot] = edges
        self.position[rows, slot] = k
        self.n_matched[rows] += 1

    def picks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(m[:c], p[:c]) for m, p, c in zip(
            self.matched, self.position, self.n_matched.tolist())]


def _open_picks(col: np.ndarray, hit: np.ndarray, open_: np.ndarray):
    """The trials of ``hit`` whose column ``col[hit]`` is open, and those columns."""
    hit = hit[open_[hit, col[hit]]]
    return hit, col[hit]


class MarginalSamplingPolicy(OnlinePolicy):
    name = "marginal-sampling"

    def __init__(self, inst, objective, x_star):
        super().__init__(inst, objective, x_star)
        eta = inst.eta
        mass = inst.loads(self.x_star)[1] / (eta * inst.rate_array)
        over = np.flatnonzero(mass > 1.0 + 1e-9)
        if len(over):
            raise ValueError(
                f"infeasible marginals at type {inst.online_ids[over[0]]!r}: "
                f"sampling mass {mass[over[0]]:.6g} > 1"
            )
        # per type: cumulative sampling mass over its edges in index order
        self._table = inst.edge_table_v
        self._cum = np.cumsum(np.where(self._table >= 0, self.x_star[self._table], 0.0)
                              / (eta * inst.rate_array[:, None]), axis=1)
        self._degree = (self._table >= 0).sum(axis=1)

    def _begin(self, rngs, block):
        # eta uniforms per arrival, drawn up front, whether or not they match
        m = self.inst.eta * block.count
        draws = np.zeros((len(rngs), int(m.max(initial=0))))
        for row, rng, mt in zip(draws, rngs, m.tolist()):
            row[:mt] = rng.random(mt)
        return draws

    def _bisect_right(self, v: np.ndarray, r: np.ndarray) -> np.ndarray:
        """``bisect_right`` of each r in the cumulative row of its type v,
        as one binary search over all of them (exact for any row)."""
        lo, hi = np.zeros(len(r), dtype=np.int64), self._degree[v]
        while (live := lo < hi).any():
            mid = (lo + hi) // 2
            right = live & ~(r < self._cum[v, np.where(live, mid, 0)])
            lo, hi = np.where(right, mid + 1, lo), np.where(live & ~right, mid, hi)
        return lo

    def _choose(self, draws, k, j, rows, v, cand, open_):
        col = self._bisect_right(v, draws[rows, self.inst.eta * k + j])
        # a draw past the type's mass is skipped
        return _open_picks(col, np.flatnonzero(col < self._degree[v]), open_)


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
        self._table = inst.edge_table_v
        self._column = np.zeros(inst.n_edges, dtype=np.int64)  # in its type's row
        self._column[self._table[self._table >= 0]] = np.nonzero(self._table >= 0)[1]

    def start_trials(self, rngs):
        supports = sample_support(self.x_star, self.inst, list(rngs))
        return list(zip(supports, rngs))

    def _begin(self, states, block):
        """Each arrival's candidate column up front, -1 for none: the
        arrival of v draws one of its k_v X-edges uniformly (an arrival
        with none draws nothing), and keeps it if its Y bit is set."""
        inst = self.inst
        cols = np.full(block.types.shape, -1, dtype=np.int64)
        for row, types, n, (support, rng) in zip(cols, block.types,
                                                block.count.tolist(), states):
            # X-edges grouped by type, each type's in index order
            present = inst.edges_by_v[support.X[inst.edges_by_v]]
            k = np.bincount(inst.edge_v[present], minlength=inst.n_online)
            first = np.cumsum(k) - k
            vs = types[:n]
            drawn = np.flatnonzero(k[vs] > 0)
            picks = present[first[vs[drawn]] + rng.integers(0, k[vs[drawn]])]
            kept = support.Y[picks]
            row[drawn[kept]] = self._column[picks[kept]]
        return cols

    def _choose(self, cols, k, j, rows, v, cand, open_):
        if j:  # one candidate per arrival
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        col = cols[rows, k]
        return _open_picks(col, np.flatnonzero(col >= 0), open_)


class GreedyPolicy(OnlinePolicy):
    name = "greedy"
    needs_guide = False

    def __init__(self, inst, objective, x_star=None):
        super().__init__(inst, objective, None)
        # candidate order fixes ties: lowest offline index wins
        table = inst.edge_table_v
        order = np.argsort(self._edge_u[table], axis=1, kind="stable")
        self._table = np.take_along_axis(table, order, axis=1)

    def _begin(self, states, block):
        return self.objective.evaluator(len(states))

    def _choose(self, evaluator, k, j, rows, v, cand, open_):
        r, c = np.nonzero(open_)
        gain = np.full(cand.shape, -1.0)
        gain[r, c] = evaluator.row_gains(rows[r], cand[r, c])
        # closed candidates read -1.0; of equal gains the first column, the
        # lowest offline index, wins
        col = gain.argmax(axis=1)
        hit = np.flatnonzero(gain[np.arange(len(rows)), col] > -1.0)
        evaluator.row_add(rows[hit], cand[hit, col[hit]])
        return hit, col[hit]


class DependentRoundingPolicy(OnlinePolicy):
    name = "dependent-rounding"

    def __init__(self, inst, objective, x_star):
        super().__init__(inst, objective, x_star)
        self._table = inst.edge_table_v  # serve the rounded edges in index order

    def start_trials(self, rngs):
        chosen = dependent_round_stars(self.x_star, self.inst, list(rngs))
        return list(zip(chosen, rngs))

    def _begin(self, states, block):
        chosen = np.zeros((len(states), self.inst.n_edges + 1), dtype=bool)  # [-1]: pad
        chosen[:, :-1] = [c for c, _ in states]
        return chosen, [rng for _, rng in states]

    def _choose(self, run, k, j, rows, v, cand, open_):
        chosen, rngs = run
        avail = open_ & chosen[rows[:, None], cand]
        n = avail.sum(axis=1)
        hit = np.flatnonzero(n)
        # the bound depends on capacity, so each draw is made here; one
        # open edge needs none (integers(1) draws nothing)
        pick = np.zeros(len(hit), dtype=np.int64)
        need = np.flatnonzero(n[hit] > 1)
        for i, t, m in zip(need.tolist(), rows[hit[need]].tolist(), n[hit[need]].tolist()):
            pick[i] = rngs[t].integers(m)
        return hit, (avail[hit].cumsum(axis=1) > pick[:, None]).argmax(axis=1)


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
              picks: tuple | None = None) -> tuple[float, list[int]]:
    """Audit and score one trial; returns (objective value, matched edges).

    ``picks`` is the trial's (matched edges, arrival positions) from
    ``policy.replay_block``; without it the trial is replayed alone from
    ``policy.start_trial(rng)``.  This is the only code that accepts a
    trial's matches: it audits the whole trial once against the online
    rule, recounting each offline vertex's load from the matches rather
    than trusting the policy's own bookkeeping.  ``matched`` keeps repeats
    of a type-edge; the objective scores the set.
    """
    if picks is None:
        picks = policy.replay(policy.start_trial(rng), seq)
    e, at = (np.asarray(p, dtype=np.int64) for p in picks)
    matched = e.tolist()
    if matched:
        if np.bincount(at).max() > inst.eta:
            raise RuntimeError(f"{policy.name} returned more than eta edges")
        if np.any(inst.edge_v[e] != seq.slots[seq.arrival_times[at]]):
            raise RuntimeError(f"{policy.name} matched a non-incident edge")
        pairs = np.sort(at * inst.n_offline + inst.edge_u[e])
        if np.any(pairs[1:] == pairs[:-1]):
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


# Trials run together.  A block stays within BLOCK_CELLS 8-byte cells
# (16 MiB).  Each trial takes one per edge (its dependent-rounding draws,
# support or membership masks); at most 6 * eta per round of the horizon
# for its arrival stream and the engine's rows (its arrival types, marginal
# sampling's uniforms, its matched edges and their positions); and about
# 384 (3 KiB, measured) for its generator, start state, sequence object and
# picks, which bounds the block on small instances too.
BLOCK_CELLS = 1 << 21


def _trial_block(policy, inst, objective, keep, seeds):
    """One batched start and one block replay for the block's trials, then
    the audit and score of each."""
    states = policy.start_trials([np.random.default_rng((s, 1)) for s in seeds])
    seqs = [sample_arrivals(inst, s) for s in seeds]
    results = []
    for seq, picks in zip(seqs, policy.replay_block(states, seqs)):
        value, matched = run_trial(policy, inst, objective, seq, picks=picks)
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

    block = max(1, BLOCK_CELLS // (inst.n_edges + 6 * inst.eta * inst.horizon + 384))
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
