"""Monotone submodular objectives over edge subsets, with multilinear tools.

Objectives expose value-oracle access (``value``) plus a few hooks the
solvers lean on: incremental evaluators for repeated marginal-gain queries
and vectorized coordinate gains for gradient estimation on the multilinear
extension F(x) = E[f(R_x)], where R_x includes each edge ``e`` independently
with probability ``x_e``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .instances import Problem, split_groups

EXACT_ENUMERATION_LIMIT = 20


class SubmodularObjective:
    """Base value oracle over a ground set of ``n_edges`` edges."""

    kind = "abstract"

    def __init__(self, n_edges: int):
        self.n_edges = int(n_edges)

    # subclasses override
    def value(self, edges) -> float:
        raise NotImplementedError

    def _check_edges(self, edges) -> list[int]:
        out = []
        for e in edges:
            e = int(e)
            if not (0 <= e < self.n_edges):
                raise ValueError(f"unknown edge id {e}")
            out.append(e)
        return out

    def gain(self, edges, e: int) -> float:
        """Marginal value of adding ``e`` to the set ``edges`` (requires e not in set)."""
        members = set(self._check_edges(edges))
        e = int(e)
        if e in members:
            raise ValueError(f"edge {e} already in the set")
        if not (0 <= e < self.n_edges):
            raise ValueError(f"unknown edge id {e}")
        return self.value(members | {e}) - self.value(members)

    def evaluator(self) -> "Evaluator":
        return Evaluator(self)

    def coordinate_gains(self, member: np.ndarray) -> np.ndarray:
        """f(R + e) - f(R - e) for every edge, R given as a boolean mask."""
        member = np.asarray(member, dtype=bool)
        base = set(np.flatnonzero(member).tolist())
        out = np.empty(self.n_edges)
        for e in range(self.n_edges):
            with_e = base | {e}
            without_e = base - {e}
            out[e] = self.value(with_e) - self.value(without_e)
        return out


class Evaluator:
    """Mutable accumulator for one greedy/search run: O(f) marginal queries.

    The base class owns membership and the running value: a member gains 0
    and adding it again changes nothing.  Concrete objectives plug in their
    own ``_gain`` for a non-member and ``_absorb`` for the state update when
    it joins; the generic fallback recomputes through the value oracle.
    """

    def __init__(self, objective: SubmodularObjective):
        self._objective = objective
        self._members: set[int] = set()
        self.value = 0.0

    def gain(self, e: int) -> float:
        if e in self._members:
            return 0.0
        return self._gain(e)

    def add(self, e: int) -> float:
        if e in self._members:
            return 0.0
        g = self._gain(e)
        self._absorb(e)
        self._members.add(e)
        self.value += g
        return g

    def _gain(self, e: int) -> float:
        return self._objective.value(self._members | {e}) - self.value

    def _absorb(self, e: int) -> None:
        pass


class LinearObjective(SubmodularObjective):
    """f(S) = sum of edge weights over the (deduplicated) set S."""

    kind = "linear"

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        super().__init__(len(w))
        self.weights = w

    def value(self, edges) -> float:
        idx = self._check_edges(edges)
        if not idx:
            return 0.0
        return float(self.weights[np.unique(idx)].sum())

    def coordinate_gains(self, member) -> np.ndarray:
        return self.weights.copy()

    def evaluator(self):
        return _LinearEvaluator(self)


class _LinearEvaluator(Evaluator):
    def _gain(self, e: int) -> float:
        return float(self._objective.weights[e])


class BudgetAdditiveObjective(SubmodularObjective):
    """f(S) = min(budget, sum of edge weights over S)."""

    kind = "budget_additive"

    def __init__(self, weights, budget: float):
        w = np.asarray(weights, dtype=float)
        super().__init__(len(w))
        self.weights = w
        self.budget = float(budget)

    def value(self, edges) -> float:
        idx = self._check_edges(edges)
        if not idx:
            return 0.0
        return float(min(self.budget, self.weights[np.unique(idx)].sum()))

    def coordinate_gains(self, member) -> np.ndarray:
        member = np.asarray(member, dtype=bool)
        total = float(self.weights[member].sum())
        # without e: total - w_e if e in R else total; clamped at the budget
        base = np.where(member, total - self.weights, total)
        return np.minimum(self.budget, base + self.weights) - np.minimum(self.budget, base)

    @cached_property
    def weight_list(self) -> list[float]:
        return self.weights.tolist()

    def evaluator(self):
        return _BudgetEvaluator(self)


class _BudgetEvaluator(Evaluator):
    def __init__(self, objective):
        super().__init__(objective)
        self._raw = 0.0
        # Python floats: the same float64 sums, without numpy scalar calls
        self._weights = objective.weight_list

    def _gain(self, e: int) -> float:
        b = self._objective.budget
        return min(b, self._raw + self._weights[e]) - min(b, self._raw)

    def _absorb(self, e: int) -> None:
        self._raw += self._weights[e]


class CoverageObjective(SubmodularObjective):
    """Weighted coverage: f(S) = total weight of features covered by S.

    The one owner of the coverage incidence: ``edge_features`` per edge, the
    flat (edge, feature) pairs in edge order, and their inverse
    `covering_edges` (read by the LP presolve).
    """

    kind = "coverage"

    def __init__(self, feature_sets, feature_weights, n_edges: int | None = None):
        if n_edges is None:
            n_edges = len(feature_sets)
        super().__init__(n_edges)
        self.feature_weights = np.asarray(feature_weights, dtype=float)
        self.n_features = len(self.feature_weights)
        self.edge_features = tuple(np.array(sorted(q), dtype=np.int64)
                                   for q in feature_sets)
        self._flat_feat = np.concatenate((np.empty(0, np.int64),) + self.edge_features)
        self._flat_edge = np.repeat(np.arange(len(self.edge_features)),
                                    [len(q) for q in self.edge_features])

    def covering_edges(self) -> tuple[np.ndarray, ...]:
        """The edges covering each feature, in increasing index order."""
        order = np.argsort(self._flat_feat, kind="stable")
        return split_groups(self._flat_edge[order], self._flat_feat, self.n_features)

    def _covered(self, edges) -> np.ndarray:
        """Mask of the features that the edge set covers."""
        covered = np.zeros(self.n_features, dtype=bool)
        for e in self._check_edges(edges):
            covered[self.edge_features[e]] = True
        return covered

    def value(self, edges) -> float:
        return float(self.feature_weights[self._covered(edges)].sum())

    def coordinate_gains(self, member) -> np.ndarray:
        member = np.asarray(member, dtype=bool)
        active = member[self._flat_edge]
        counts = np.bincount(self._flat_feat[active], minlength=self.n_features)
        # weight newly covered by e: features with no cover outside e
        zero_w = np.where(counts == 0, self.feature_weights, 0.0)
        one_w = np.where(counts == 1, self.feature_weights, 0.0)
        gain_if_out = np.bincount(self._flat_edge, weights=zero_w[self._flat_feat],
                                  minlength=self.n_edges)
        gain_if_sole = np.bincount(self._flat_edge, weights=one_w[self._flat_feat],
                                   minlength=self.n_edges)
        return gain_if_out + np.where(member, gain_if_sole, 0.0)

    def evaluator(self):
        return _CoverageEvaluator(self)


class _CoverageEvaluator(Evaluator):
    def __init__(self, objective):
        super().__init__(objective)
        self._covered = np.zeros(objective.n_features, dtype=bool)

    def _gain(self, e: int) -> float:
        q = self._objective.edge_features[e]
        fresh = q[~self._covered[q]]
        return float(self._objective.feature_weights[fresh].sum())

    def _absorb(self, e: int) -> None:
        self._covered[self._objective.edge_features[e]] = True


class PerUserCoverageObjective(CoverageObjective):
    """Sum over online types of that type's weighted genre coverage.

    Implemented as plain weighted coverage over the product feature space
    (type, genre): an edge (u, v) with genre set q covers {(v, z) : z in q}.
    The genre-level structure is kept around for per-user reporting.
    """

    kind = "per_user_coverage"

    def __init__(self, edge_online, genre_sets, user_weights):
        edge_online = np.asarray(edge_online, dtype=np.int64)
        user_weights = np.asarray(user_weights, dtype=float)
        n_users, n_genres = user_weights.shape
        flat_sets = [
            frozenset(int(v) * n_genres + z for z in q)
            for v, q in zip(edge_online, genre_sets)
        ]
        super().__init__(flat_sets, user_weights.reshape(-1),
                         n_edges=len(flat_sets))
        self.n_users = n_users
        self.n_genres = n_genres
        self.user_weights = user_weights
        self.edge_online = edge_online

    def user_cover_fractions(self, edges) -> np.ndarray:
        """Per-user covered weight as a fraction of that user's total weight."""
        covered_w = (self.feature_weights * self._covered(edges)).reshape(
            self.n_users, self.n_genres).sum(axis=1)
        totals = self.user_weights.sum(axis=1)
        out = np.zeros(self.n_users)
        nz = totals > 0
        out[nz] = covered_w[nz] / totals[nz]
        return out


def build_objective(problem: Problem) -> SubmodularObjective:
    """Instantiate the value oracle described by a problem record."""
    if missing := problem.missing_payloads():
        raise ValueError(missing)
    feats = problem.features
    if problem.kind == "linear":
        return LinearObjective(feats.edge_weights)
    if problem.kind == "budget_additive":
        return BudgetAdditiveObjective(feats.edge_weights, problem.budget)
    if problem.kind == "coverage":
        return CoverageObjective(feats.feature_sets, feats.feature_weights,
                                 n_edges=problem.instance.n_edges)
    if problem.kind == "per_user_coverage":
        return PerUserCoverageObjective(problem.instance.edge_v,
                                        feats.feature_sets, feats.user_weights)
    raise ValueError(f"unknown objective kind {problem.kind!r}")


# -- multilinear extension -------------------------------------------------

def _point(objective: SubmodularObjective, x) -> np.ndarray:
    """x as a float vector with one entry per edge of the ground set."""
    x = np.asarray(x, dtype=float)
    if len(x) != objective.n_edges:
        raise ValueError("x length does not match the ground set")
    return x


def multilinear_exact(objective: SubmodularObjective, x) -> float:
    """F(x) by full subset enumeration; only for small ground sets."""
    x = _point(objective, x)
    m = len(x)
    if m > EXACT_ENUMERATION_LIMIT:
        raise ValueError(
            f"exact enumeration limited to {EXACT_ENUMERATION_LIMIT} edges (got {m})"
        )
    probs = np.ones(1)
    for e in range(m):
        probs = np.concatenate([probs * (1.0 - x[e]), probs * x[e]])
    total = 0.0
    for mask in range(1 << m):
        p = probs[mask]
        if p == 0.0:
            continue
        members = [e for e in range(m) if (mask >> e) & 1]
        total += p * objective.value(members)
    return total


def multilinear_mc(objective: SubmodularObjective, x, samples: int, seed) -> tuple[float, float]:
    """Monte Carlo estimate of F(x); returns (estimate, standard error)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = _point(objective, x)
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    for i in range(samples):
        mask = rng.random(len(x)) < x
        vals[i] = objective.value(np.flatnonzero(mask))
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return est, se


def partial_derivative(objective: SubmodularObjective, x, e: int,
                       samples: int, seed) -> tuple[float, float]:
    """Estimate dF/dx_e = F(x | x_e=1) - F(x | x_e=0) with common random draws
    on the other coordinates; returns (estimate, standard error).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = _point(objective, x)
    rng = np.random.default_rng(seed)
    m = len(x)
    diffs = np.empty(samples)
    for i in range(samples):
        mask = rng.random(m) < x
        mask[e] = False
        base = np.flatnonzero(mask)
        diffs[i] = objective.value(np.append(base, e)) - objective.value(base)
    est = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return est, se


def batch_gradient(objective: SubmodularObjective, x, samples: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Estimate the full multilinear gradient, sharing one batch of subset
    draws across all coordinates (unbiased; cuts oracle calls by a factor m).
    """
    x = np.asarray(x, dtype=float)
    m = len(x)
    acc = np.zeros(m)
    for _ in range(samples):
        mask = rng.random(m) < x
        acc += objective.coordinate_gains(mask)
    return acc / samples
