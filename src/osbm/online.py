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

Trials run in blocks through one entry, ``replay_block(block)``: a
``_Block`` holds one generator and one arrival sequence per trial, its
arrivals laid out flat.  A policy's ``_begin`` prepares the whole block at
once (greedy's evaluator rows; one ``dependent_round_stars`` call over the
block's generators; contention resolution's ``sample_support`` per trial, in
the loop that draws that trial's picks), and the block is then matched in
one of two ways.  Marginal sampling's and contention resolution's picks
depend on no state, so each draws all of a trial's picks up front (``eta``
uniforms per arrival; one index per arrival with candidates) and the block
resolves them by rank, with one stable sort over (trial, offline vertex): a
pick commits iff it is among the first b_u picks of its offline vertex u,
after dropping a pick whose u already served the same arrival.  Greedy's and
dependent rounding's picks depend on what was matched, so they step through
``_choose``: step k serves each trial's k-th arrival with one numpy step over
the trials for each of up to ``eta`` picks, on state held as arrays
(remaining capacities, trials x offline vertices; greedy's evaluator rows;
the rounded edge sets); dependent rounding draws each pick from the trial's
own generator, and only when more than one edge is open.  A block returns
its matches as (arrival, edge) arrays, each arrival a flat index into the
block's arrivals, which names its trial.  ``_replay`` is the one place that
accepts matches: it audits each block once, in one numpy pass over those
arrays, recounting each offline vertex's load from the matches instead of
trusting the policy's own capacity bookkeeping.  ``run_trial`` then scores
each trial from its int64 edge array.  A lone trial is a block of one.

``simulate`` replays a policy over independent arrival sequences and reports
per-trial objective values, their mean and standard error, and the
empirical ratio against a chosen benchmark upper bound.  Trial ``i`` of a
run with seed ``s`` draws its arrivals from seed ``s + i`` and its policy
randomness from ``default_rng((s + i, 1))`` (greedy draws none, so its
trials get no generator); every batched step makes
exactly the draws of the one-trial-at-a-time loop, so values do not depend
on batching or on the worker count.  The arrivals depend only on the rates,
the horizon and the seed, so a sweep draws them once (``ArrivalStreams``)
and every cell and policy replays the same streams.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import lp as lpmod
from .instances import ArrivalSequence, Instance, sample_arrivals
from .objectives import SubmodularObjective, mean_se, multilinear_estimate
from .offline import expected_opt
from .rounding import dependent_round_stars, sample_support

POLICY_NAMES = ("marginal-sampling", "contention-resolution", "greedy",
                "dependent-rounding")


class OnlinePolicy:
    """Shared immutable preparation and the trial engine.

    ``replay_block(block)`` is the engine's one entry: it plays a ``_Block``
    of trials, one generator and one arrival sequence each, and returns the
    block's matches flat, as (arrival, edge) arrays.  A policy adds
    ``_begin``, which prepares the block's state from its generators, and,
    if it steps, ``_choose``.  Stepping advances all trials of the block
    together, arrival by arrival: step k serves each trial's k-th arrival,
    in up to ``eta`` rounds of one numpy step over the trials.  A stepping
    policy sets its candidate table ``_table`` (a row of edges per type, -1
    pads) and ``_choose`` picks among the open candidates of each round:
    those whose offline vertex has capacity left and has not served this
    arrival.  A policy whose picks depend on no state derives from
    ``PredrawnPolicy`` instead: it is not stepped, and the block resolves
    its picks by rank.  ``_replay`` audits the block's picks, and
    ``run_trial`` scores each trial.
    """

    name = "abstract"
    needs_guide = True
    draws = True  # False: the policy draws nothing, so its trials get None
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
            if not lpmod.feasible_for_matching(inst, self.x_star):
                raise ValueError(f"infeasible {self.name} guide: not in the b-matching polytope")

    def replay_block(self, block: "_Block") -> tuple:
        """Match along each trial's arrival sequence, trial i drawing from
        ``block.rngs[i]``.  Returns the block's matches as two int arrays,
        (arrival, edge), in commit order: a match at flat arrival a is made
        on the arrival of type ``block.v[a]``.  The policy keeps its own
        remaining capacities."""
        run = self._begin(block)
        eta = self.inst.eta
        # column n_offline is the vertex of the -1 pad: it has no capacity
        remaining = np.zeros((len(block.count), self.inst.n_offline + 1), dtype=np.int64)
        remaining[:, :-1] = self.inst.capacity_array
        # round r at flat arrival a writes its match to cell (a, r), so the
        # matches read in commit order, row by row, -1 where none was made
        matched = np.full((len(block.v), eta), -1, dtype=np.int64)
        # a table with no columns: no type has an edge, nothing to match
        for k in range(int(block.count.max(initial=0))) if self._table.shape[1] else ():
            rows = np.flatnonzero(block.count > k)
            a = block.first[rows] + k
            cand = self._table[block.v[a]]
            us = self._edge_u[cand]
            open_ = remaining[rows[:, None], us] > 0
            for r in range(eta):
                hit, col = self._choose(run, rows, cand, open_)
                if not len(hit):
                    continue
                remaining[rows[hit], us[hit, col]] -= 1
                open_[hit, col] = False
                matched[a[hit], r] = cand[hit, col]
        kept = matched >= 0
        e = matched[kept]
        del matched
        a = np.flatnonzero(kept)
        a //= eta  # cell (a, r) is flat cell eta * a + r
        return a, e

    def _begin(self, block: "_Block"):
        """The policy's own state for a block, from its generators, one per
        trial; a stepping policy's is passed to each round."""
        raise NotImplementedError

    def _choose(self, run, rows: np.ndarray, cand: np.ndarray,
                open_: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One round of a step, over the stepping trials ``rows`` and their
        arrivals' candidates ``cand``: (index into rows of each trial that
        picks, the column of ``cand`` it picks, an open one).  Every pick
        returned is matched."""
        raise NotImplementedError


class PredrawnPolicy(OnlinePolicy):
    """A policy whose picks depend on no state: every pick of a block is
    drawn before the block runs, so the block resolves them by rank instead
    of stepping.  ``_begin`` returns the picks as (arrival, edge) arrays,
    arrivals indexing ``_Block.v``, in the order the policy makes them."""

    def replay_block(self, block):
        return block.resolve(*self._begin(block))


class _Block:
    """A block of trials replayed together: ``rngs`` holds each trial's
    generator (None if the policy draws nothing), and its arrivals are laid
    out flat, trial by trial and each trial's in time order: ``v`` holds each
    arrival's type, ``count`` each trial's number of arrivals and ``first``
    the flat index of its first, so a flat index names its trial."""

    def __init__(self, inst: Instance, rngs: list[np.random.Generator | None],
                 seqs: list[ArrivalSequence]):
        self.inst, self.rngs = inst, rngs
        self.count = np.array([len(seq.arrival_times) for seq in seqs], dtype=np.int64)
        self.v = np.concatenate([seq.slots[seq.arrival_times] for seq in seqs]
                                + [np.empty(0, dtype=np.int64)])
        self.first = np.cumsum(self.count) - self.count

    def resolve(self, a: np.ndarray, e: np.ndarray) -> tuple:
        """The block's (arrival, edge) matches from picks drawn
        before the block ran: pick i offers edge ``e[i]`` at flat
        arrival ``a[i]``, in (arrival, round) order, at most ``eta`` per
        arrival.  Within each trial a pick is dropped if its offline vertex
        u took an earlier pick of the same arrival, and is committed iff it
        is among the first b_u remaining picks of u.  This is what stepping
        the picks would commit: a type's edges go to distinct offline
        vertices, so within an arrival only an earlier pick of the same u
        closes one."""
        inst = self.inst
        u = inst.edge_u[e]
        if inst.eta > 1:
            dup = np.zeros(len(a), dtype=bool)
            for d in range(1, inst.eta):
                dup[d:] |= (a[d:] == a[:-d]) & (u[d:] == u[:-d])
            a, e, u = a[~dup], e[~dup], u[~dup]
        t = np.repeat(np.arange(len(self.count)), self.count)[a]
        # rank each pick among its (trial, u) group, one stable sort
        key = t * inst.n_offline + u
        order = np.argsort(key, kind="stable")
        key = key[order]
        start = np.flatnonzero(np.diff(key, prepend=-1))
        rank = np.arange(len(key)) - np.repeat(start, np.diff(start, append=len(key)))
        won = np.empty(len(a), dtype=bool)
        won[order] = rank < inst.capacity_array[u[order]]
        return a[won], e[won]


class MarginalSamplingPolicy(PredrawnPolicy):
    name = "marginal-sampling"

    def __init__(self, inst, objective, x_star):
        super().__init__(inst, objective, x_star)
        eta = inst.eta
        # per type: cumulative sampling mass over its edges in index order
        self._table = inst.edge_table_v
        self._cum = np.cumsum(np.where(self._table >= 0, self.x_star[self._table], 0.0)
                              / (eta * inst.rate_array[:, None]), axis=1)
        self._degree = (self._table >= 0).sum(axis=1)

    def _begin(self, block):
        """``eta`` uniforms per arrival, drawn whether or not they match;
        each picks the edge whose slice of its type's mass it falls in, and
        one past the type's mass is skipped."""
        eta = self.inst.eta
        r = np.concatenate([rng.random(m) for rng, m in
                            zip(block.rngs, (eta * block.count).tolist())])
        v = np.repeat(block.v, eta)  # draw i is made at flat arrival i // eta
        col = self._bisect_right(v, r)
        hit = np.flatnonzero(col < self._degree[v])
        return hit // eta, self._table[v[hit], col[hit]]

    def _bisect_right(self, v: np.ndarray, r: np.ndarray) -> np.ndarray:
        """``bisect_right`` of each r in the cumulative row of its type v,
        as one binary search over all of them (exact for any row)."""
        lo, hi = np.zeros(len(r), dtype=np.int64), self._degree[v]
        while (live := lo < hi).any():
            mid = (lo + hi) // 2
            right = live & ~(r < self._cum[v, np.where(live, mid, 0)])
            lo, hi = np.where(right, mid + 1, lo), np.where(live & ~right, mid, hi)
        return lo


class ContentionResolutionPolicy(PredrawnPolicy):
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

    def _begin(self, block):
        """Per trial, its support (X, Y), then each arrival's pick up front:
        the arrival of v draws one of its k_v X-edges uniformly (an arrival
        with none draws nothing), and offers it if its Y bit is set."""
        inst = self.inst
        arrivals, edges = [], []
        for start, n, rng in zip(block.first.tolist(), block.count.tolist(), block.rngs):
            support = sample_support(self.x_star, inst, rng)
            # X-edges grouped by type, each type's in index order
            present = inst.edges_by_v[support.X[inst.edges_by_v]]
            k = np.bincount(inst.edge_v[present], minlength=inst.n_online)
            first = np.cumsum(k) - k
            vs = block.v[start:start + n]
            drawn = np.flatnonzero(k[vs] > 0)
            picks = present[first[vs[drawn]] + rng.integers(0, k[vs[drawn]])]
            kept = support.Y[picks]
            arrivals.append(start + drawn[kept])
            edges.append(picks[kept])
        return np.concatenate(arrivals), np.concatenate(edges)


class GreedyPolicy(OnlinePolicy):
    name = "greedy"
    needs_guide = False
    draws = False

    def __init__(self, inst, objective):
        super().__init__(inst, objective, None)
        # candidate order fixes ties: lowest offline index wins
        table = inst.edge_table_v
        order = np.argsort(self._edge_u[table], axis=1, kind="stable")
        self._table = np.take_along_axis(table, order, axis=1)

    def _begin(self, block):
        return self.objective.evaluator(len(block.count))

    def _choose(self, evaluator, rows, cand, open_):
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

    def _begin(self, block):
        # a -1 pad reads the last edge's bit, but open_ is False there
        return dependent_round_stars(self.x_star, self.inst, block.rngs), block.rngs

    def _choose(self, run, rows, cand, open_):
        chosen, rngs = run
        avail = open_ & chosen[rows[:, None], cand]
        n = avail.sum(axis=1)
        hit = np.flatnonzero(n)
        # the bound depends on capacity, so each draw is made here; one
        # open edge needs none (integers(1) draws nothing)
        pick = np.zeros(len(hit), dtype=np.int64)
        need = np.flatnonzero(n[hit] > 1)
        pick[need] = [rngs[t].integers(m) for t, m in
                      zip(rows[hit[need]].tolist(), n[hit[need]].tolist())]
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


class _Accepted(tuple):
    """A trial's (matched edges,), as ``_replay`` accepts them: the only
    picks ``run_trial`` scores."""


def _replay(policy: OnlinePolicy, block: _Block) -> list[_Accepted]:
    """Replay a block of trials and accept its matches: for each trial, its
    matched edges in commit order, as an int64 array.

    This is the only code that accepts matches.  It audits the whole block
    once, over its flat (arrival, edge) matches, against the online rule,
    instead of trusting the policy's own bookkeeping: each arrival is one of
    the block's, arrivals never decrease (so the matches come trial by
    trial), each edge is one of the instance's, an arrival takes at most
    ``eta`` matches, each incident to its type and to distinct offline
    vertices, and each offline vertex's load in each trial, recounted from
    the matches, stays within its capacity.  A violation raises RuntimeError
    naming the first of these rules that any trial of the block breaks.
    """
    inst, n_offline = policy.inst, policy.inst.n_offline
    a, e = (np.asarray(p, dtype=np.int64) for p in policy.replay_block(block))
    if np.any((a < 0) | (a >= len(block.v))):
        raise RuntimeError(f"{policy.name} matched outside the block's arrivals")
    if np.any(np.diff(a) < 0):
        raise RuntimeError(f"{policy.name} returned matches out of arrival order")
    if np.any((e < 0) | (e >= inst.n_edges)):
        raise RuntimeError(f"{policy.name} matched an unknown edge")
    if np.bincount(a).max(initial=0) > inst.eta:
        raise RuntimeError(f"{policy.name} returned more than eta edges")
    if np.any(inst.edge_v[e] != block.v[a]):
        raise RuntimeError(f"{policy.name} matched a non-incident edge")
    # each match's trial: the last whose first arrival is at or before it
    t = np.searchsorted(block.first, a, side="right") - 1
    ends = np.cumsum(np.bincount(t, minlength=len(block.count))).tolist()
    del block
    u = inst.edge_u[e]
    # with one match per arrival, no arrival repeats a vertex
    if inst.eta > 1:
        a *= n_offline
        a += u
        a.sort()
        if np.any(a[1:] == a[:-1]):
            raise RuntimeError(f"{policy.name} repeated an offline vertex")
    del a
    # each (trial, offline vertex) load is its run length in one sort
    key = t * n_offline
    del t  # its per-trial ends are counted
    key += u
    del u
    key.sort()
    first = np.flatnonzero(np.diff(key, prepend=-1))
    if np.any(np.diff(first, append=len(key)) > inst.capacity_array[key[first] % n_offline]):
        raise RuntimeError("matched into a saturated offline vertex")
    return [_Accepted((e[i:j],)) for i, j in zip([0] + ends[:-1], ends)]


def run_trial(policy: OnlinePolicy, inst: Instance,
              objective: SubmodularObjective, seq: ArrivalSequence,
              rng: np.random.Generator | None = None,
              picks: _Accepted | None = None) -> tuple[float, list[int]]:
    """Score one trial; returns (objective value, matched edges).

    ``picks`` is the trial's audited (matched edges,), as ``_replay``
    accepts them for its block; they are scored as given, and any other
    picks raise TypeError.  Without them the trial is replayed and audited
    alone, as a block of one drawing from ``rng``.  ``matched`` keeps
    repeats of a type-edge; the objective scores the set.
    """
    if picks is None:
        (picks,) = _replay(policy, _Block(policy.inst, [rng], [seq]))
    elif not isinstance(picks, _Accepted):
        raise TypeError("run_trial scores only picks the block audit accepted")
    e = picks[0]
    return objective.value(e), e.tolist()


@dataclass
class RunMetrics:
    """Per-trial objective values with their benchmark-relative summary."""

    policy: str
    trials: int
    values: np.ndarray
    mean: float
    std_error: float
    benchmark_kind: str | None
    benchmark_value: float | None
    ratio: float
    ratio_std_error: float
    matches: list[list[int]] | None = None


def guide_scaled(f_value: float) -> float:
    """The ``guide-scaled`` bound F(x*) * e/(e-1) from an estimate of F(x*)."""
    return f_value * math.e / (math.e - 1.0)


def compute_benchmark(kind: str, inst: Instance,
                      objective: SubmodularObjective,
                      x_star: np.ndarray | None = None,
                      seed: int = 0) -> tuple[str, float]:
    """Upper bounds on the expected hindsight optimum.

    ``lp``: optimum of the closed-form offline program (valid by concavity
    of the epigraph relaxation).  ``brute``: exact expectation, tiny
    instances only.  ``guide-scaled``: estimated F(x_star) * e/(e-1), valid
    for marginals produced by the fractional ascent, so x_star must lie in
    the b-matching polytope, as a guided policy's must.
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
        est, _ = multilinear_estimate(objective, x_star, samples=4000, seed=seed)
        return "guide-scaled", guide_scaled(est)
    raise ValueError(f"unknown benchmark kind {kind!r}")


# Trials run together.  A block stays within BLOCK_CELLS 8-byte cells
# (16 MiB).  Each trial takes one per edge (its dependent-rounding draws,
# support or membership masks); at most 6 + 8 * eta per round of the horizon
# for its arrival stream and the engine's arrays (measured with tracemalloc
# as the rise of one block's peak over its replay, audit and scores from
# horizon 200 to 600, with an arrival every round and every draw on an edge:
# the step loop's (arrival, round) table, then the audit's flat matches and
# sort keys, 7.1, 11.3 and 15.4 at eta 1, 2 and 3; marginal sampling's
# uniforms and binary search, and the rank resolve's picks, sort keys and
# ranks, 12.1, 21.0 and 28.6; contention resolution's 12.1, 14.3 and 14.3);
# and about 384 (3 KiB, measured) for its generator, start state, sequence
# object and picks, which bounds the block on small instances too.
BLOCK_CELLS = 1 << 21

# An ArrivalStreams set holds its streams within STREAM_CELLS cells (8 MiB):
# a held stream takes one per round for its slots and at most one per round
# for its arrival times, and 64 (512 bytes, measured) for its objects.
STREAM_CELLS = 1 << 20


class ArrivalStreams:
    """The arrival streams of a run's trials: trial i's is
    ``sample_arrivals(inst, seed + i)``.  A stream depends only on the
    rates, the horizon and the seed, so one set serves every cell (b, eta)
    and every policy of a sweep.  The set draws and holds the streams of the
    first trials, as many as STREAM_CELLS allows; the stream of a later
    trial is drawn when its block runs, each time it runs.
    """

    def __init__(self, inst: Instance, seed: int, trials: int):
        self.seed, self.trials = seed, trials
        self.horizon, self.rates = inst.horizon, inst.rates
        held = min(trials, STREAM_CELLS // (2 * inst.horizon + 64))
        self._held = [sample_arrivals(inst, seed + i) for i in range(held)]

    def check(self, inst: Instance, seed: int, trials: int) -> None:
        """Raise ValueError unless the set was built for this run."""
        for what, mine, theirs in (
                ("seed", self.seed, seed), ("trial count", self.trials, trials),
                ("horizon", self.horizon, inst.horizon),
                ("rates", self.rates, inst.rates)):
            if mine != theirs:
                raise ValueError(f"arrival streams built for another {what}")

    def held(self, seeds: range) -> list[ArrivalSequence]:
        """The held streams of a block of trials: those of its first trials."""
        return self._held[seeds.start - self.seed:seeds.stop - self.seed]


def _trial_block(policy, keep, seeds, held):
    """One block replay and audit for the block's trials, then the score of
    each.  ``held`` are the streams of the block's first trials; the others
    are drawn here."""
    inst, objective = policy.inst, policy.objective
    rngs = [np.random.default_rng((s, 1)) if policy.draws else None for s in seeds]
    seqs = list(held) + [sample_arrivals(inst, s) for s in seeds[len(held):]]
    results = []
    for seq, picks in zip(seqs, _replay(policy, _Block(inst, rngs, seqs))):
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
    streams: ArrivalStreams | None = None,
) -> RunMetrics:
    """Run independent seeded trials of one policy and summarize.

    Trial ``i`` derives its seed as ``seed + i`` (arrival stream and policy
    randomness split off that), so results are identical for any worker
    count and any scheduling order.  ``streams``, built for the same seed,
    trial count, horizon and rates, shares the arrival streams of a sweep.
    Without it every block draws its own streams: a run alone draws each
    stream once either way, so holding them would only add memory.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    policy = make_policy(policy, inst, objective, x_star,
                         allow_fractional_cr=allow_fractional_cr)
    if streams is not None:
        streams.check(inst, seed, trials)
    if isinstance(benchmark, str):
        benchmark_kind, benchmark_value = compute_benchmark(
            benchmark, inst, objective, x_star=x_star, seed=seed)
    elif benchmark is None:
        benchmark_kind, benchmark_value = None, None
    else:
        benchmark_kind, benchmark_value = benchmark

    block = max(1, BLOCK_CELLS // (inst.n_edges + (6 + 8 * inst.eta) * inst.horizon
                                   + 384))
    if workers > 1 and trials > 1:
        block = min(block, math.ceil(trials / (workers * 4)))
    seeds = range(seed, seed + trials)
    blocks = [seeds[i:i + block] for i in range(0, trials, block)]
    # a pool task carries only its own block's streams
    held = [streams.held(b) if streams is not None else [] for b in blocks]
    one = partial(_trial_block, policy, keep_matches)
    if workers > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for rs in pool.map(one, blocks, held) for r in rs]
    else:
        results = [r for rs in map(one, blocks, held) for r in rs]
    values = np.array([value for value, _ in results], dtype=float)
    matches = [m for _, m in results] if keep_matches else None

    mean, std_error = mean_se(values)
    if benchmark_value:
        ratio = mean / benchmark_value
        ratio_se = std_error / benchmark_value
    else:
        ratio = math.nan
        ratio_se = math.nan
    return RunMetrics(
        policy=policy.name,
        trials=trials,
        values=values,
        mean=mean,
        std_error=std_error,
        benchmark_kind=benchmark_kind,
        benchmark_value=benchmark_value,
        ratio=ratio,
        ratio_std_error=ratio_se,
        matches=matches,
    )
