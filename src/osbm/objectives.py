"""Monotone submodular objectives over edge subsets, with multilinear tools.

Each objective is one class: its value oracle (``value``), its vectorized
coordinate gains for gradient estimation on the multilinear extension
F(x) = E[f(R_x)], where R_x includes each edge ``e`` independently with
probability ``x_e``, and its marginal-gain hooks over many edge sets at once,
as greedy runs them.  The hooks are ``_row_state(rows)``, the per-set state,
``_gains(ev, rows, edges)``, the gains of edges not yet in their sets, and
``_absorb(ev, rows, edges)``, the state update when they join; the one
`Evaluator` calls them behind ``row_gains`` and ``row_add``.  One hook,
``_multilinear(x)``, gives (F(x), its gradient) in closed form, or None (as
for budget-additive); `batch_gradient` and `multilinear_estimate`, every F(x*)
a guide or bound reports, draw only without it.
"""

from __future__ import annotations

import math

import numpy as np

from .instances import Problem, group_sums, split_groups

EXACT_ENUMERATION_LIMIT = 20
F_SAMPLES = 2000  # the draws of every Monte Carlo F(x*)


class SubmodularObjective:
    """Base value oracle over a ground set of ``n_edges`` edges.  Its gain
    hooks are the value-oracle fallbacks: no row state, the gain
    value(S + e) - value(S), and nothing to absorb."""

    kind = "abstract"

    def __init__(self, n_edges: int):
        self.n_edges = int(n_edges)

    def value(self, edges) -> float:
        raise NotImplementedError

    def _multilinear(self, x: np.ndarray) -> tuple[float, np.ndarray] | None:
        """(F(x), the gradient of F at x) in closed form, or None."""
        return None

    def _check_edges(self, edges) -> list[int]:
        """The edge ids as a list; raises on the first unknown id."""
        ids = edges.tolist() if isinstance(edges, np.ndarray) else list(edges)
        if ids and (min(ids) < 0 or max(ids) >= self.n_edges):
            bad = next(e for e in ids if not 0 <= e < self.n_edges)
            raise ValueError(f"unknown edge id {bad}")
        return ids

    def _edge_set(self, edges) -> np.ndarray:
        """The set of ``edges`` as a mask over the ground set.  An int64
        array of known ids indexes it as it is, with no list in between (read
        as unsigned, a negative id exceeds every known one)."""
        member = np.zeros(self.n_edges, dtype=bool)
        if not (isinstance(edges, np.ndarray) and edges.dtype == np.int64
                and edges.view(np.uint64).max(initial=0) < self.n_edges):
            edges = self._check_edges(edges)
        member[edges] = True
        return member

    def _row_state(self, rows: int):
        return None

    def _gains(self, ev: "Evaluator", rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
        sets = [set(np.flatnonzero(ev.members[r]).tolist()) for r in rows.tolist()]
        return np.array([self.value(s | {e}) - self.value(s)
                         for s, e in zip(sets, edges.tolist())], dtype=float)

    def _absorb(self, ev: "Evaluator", rows: np.ndarray, edges: np.ndarray) -> None:
        pass

    def coordinate_gains(self, member: np.ndarray) -> np.ndarray:
        """f(R + e) - f(R - e) for every edge, R given as a boolean mask."""
        base = set(np.flatnonzero(np.asarray(member, dtype=bool)).tolist())
        return np.array([self.value(base | {e}) - self.value(base - {e})
                         for e in range(self.n_edges)], dtype=float)


class Evaluator:
    """Marginal gains for ``rows`` independent greedy runs, one edge set each.

    The only gain protocol: ``row_gains`` reads the gains of (row, edge)
    pairs and ``row_add`` adds edges to rows.  It owns each row's membership
    mask: a member gains 0 and adding it again changes nothing.  For
    non-members it calls the objective's ``_gains`` and, when they join,
    ``_absorb``, both over aligned (row, edge) arrays and both reading
    ``members`` and the objective's row ``state``.
    """

    def __init__(self, objective: SubmodularObjective, rows: int):
        self.objective = objective
        self.members = np.zeros((rows, objective.n_edges), dtype=bool)
        self.state = objective._row_state(rows)

    def row_gains(self, rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """The gain of adding ``edges[i]`` to row ``rows[i]``, for each i."""
        out = np.zeros(len(edges))
        new = ~self.members[rows, edges]
        out[new] = self.objective._gains(self, rows[new], edges[new])
        return out

    def row_add(self, rows: np.ndarray, edges: np.ndarray) -> None:
        """Add ``edges[i]`` to row ``rows[i]``, for each i (rows distinct)."""
        new = ~self.members[rows, edges]
        self.objective._absorb(self, rows[new], edges[new])
        self.members[rows, edges] = True


class LinearObjective(SubmodularObjective):
    """f(S) = sum of edge weights over the (deduplicated) set S."""

    kind = "linear"

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        super().__init__(len(w))
        self.weights = w

    def value(self, edges) -> float:
        return float(self.weights[self._edge_set(edges)].sum())

    def coordinate_gains(self, member) -> np.ndarray:
        return self.weights.copy()

    def _multilinear(self, x):
        return float(self.weights @ x), self.weights.copy()

    def _gains(self, ev, rows, edges):
        return self.weights[edges]


class BudgetAdditiveObjective(SubmodularObjective):
    """f(S) = min(budget, sum of edge weights over S).  A greedy row's state
    is its unclamped weight sum."""

    kind = "budget_additive"

    def __init__(self, weights, budget: float):
        w = np.asarray(weights, dtype=float)
        super().__init__(len(w))
        self.weights = w
        self.budget = float(budget)

    def value(self, edges) -> float:
        member = self._edge_set(edges)
        if not np.count_nonzero(member):
            return 0.0
        return float(min(self.budget, self.weights[member].sum()))

    def coordinate_gains(self, member) -> np.ndarray:
        member = np.asarray(member, dtype=bool)
        total = float(self.weights[member].sum())
        # without e: total - w_e if e in R else total; clamped at the budget
        base = np.where(member, total - self.weights, total)
        return np.minimum(self.budget, base + self.weights) - np.minimum(self.budget, base)

    def _row_state(self, rows):
        return np.zeros(rows)

    def _gains(self, ev, rows, edges):
        raw = ev.state[rows]
        return np.minimum(self.budget, raw + self.weights[edges]) - np.minimum(self.budget, raw)

    def _absorb(self, ev, rows, edges):
        ev.state[rows] += self.weights[edges]


class CoverageObjective(SubmodularObjective):
    """Weighted coverage: f(S) = total weight of features covered by S, over
    the ground set of edges ``0 .. len(feature_sets) - 1``.

    The one owner of the coverage incidence: ``edge_features`` per edge, the
    flat (edge, feature) pairs in edge order, and their inverse
    `covering_edges` (read by the LP presolve).  A greedy row's state is its
    covered-feature mask.
    """

    kind = "coverage"

    def __init__(self, feature_sets, feature_weights):
        super().__init__(len(feature_sets))
        self.feature_weights = np.asarray(feature_weights, dtype=float)
        self.n_features = len(self.feature_weights)
        self.edge_features = tuple(np.array(sorted(q), dtype=np.int64)
                                   for q in feature_sets)
        self._flat_feat = np.concatenate((np.empty(0, np.int64),) + self.edge_features)
        counts = np.array([len(q) for q in self.edge_features], dtype=np.int64)
        self._flat_edge = np.repeat(np.arange(len(counts)), counts)
        self._feat_start = np.cumsum(counts) - counts  # each edge's run in _flat_feat
        self._feat_count = counts

    def covering_edges(self) -> tuple[np.ndarray, ...]:
        """The edges covering each feature, in increasing index order."""
        order = np.argsort(self._flat_feat, kind="stable")
        return split_groups(self._flat_edge[order], self._flat_feat, self.n_features)

    def _incidence(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position in ``edges``, feature) for each feature of each of
        ``edges``, in that order: one edge's features after another's."""
        count = self._feat_count[edges]
        owner = np.repeat(np.arange(len(edges)), count)
        shift = self._feat_start[edges] - (np.cumsum(count) - count)
        return owner, self._flat_feat[np.arange(len(owner)) + shift[owner]]

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

    def _row_state(self, rows):
        return np.zeros((rows, self.n_features), dtype=bool)

    def _gains(self, ev, rows, edges):
        # the weight of each edge's features its row has not covered yet
        owner, feat = self._incidence(edges)
        fresh = ~ev.state[rows[owner], feat]
        return group_sums(self.feature_weights[feat[fresh]],
                          np.bincount(owner[fresh], minlength=len(edges)))

    def _absorb(self, ev, rows, edges):
        owner, feat = self._incidence(edges)
        ev.state[rows[owner], feat] = True

    def _multilinear(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """The exact F(x) = sum_z w_z (1 - prod_{e covers z} (1 - x_e)) and
        its gradient dF/dx_e = sum_{z in q_e} w_z prod_{e' != e covers z}
        (1 - x_e'), in one pass over the (edge, feature) pairs.  A factor
        1 - x_e = 0 is counted per feature, not multiplied in, so each
        leave-one-out product divides by nothing."""
        feat = self._flat_feat
        miss = 1.0 - x[self._flat_edge]
        zero = miss == 0.0
        n_zero = np.bincount(feat[zero], minlength=self.n_features)
        prod = np.ones(self.n_features)  # each feature's nonzero factors
        np.multiply.at(prod, feat[~zero], miss[~zero])
        uncovered = np.where(n_zero == 0, prod, 0.0)
        value = float((self.feature_weights * (1.0 - uncovered)).sum())
        rest = prod[feat]
        np.divide(rest, miss, out=rest, where=~zero)  # all factors but the pair's own
        rest[n_zero[feat] > zero] = 0.0  # another of the feature's factors is zero
        grad = np.bincount(self._flat_edge, weights=self.feature_weights[feat] * rest,
                           minlength=self.n_edges)
        return value, grad.astype(float, copy=False)  # int64 when there are no pairs


class PerUserCoverageObjective(CoverageObjective):
    """Sum over online types of that type's weighted genre coverage.

    Implemented as plain weighted coverage over the product feature space
    (type, genre): an edge (u, v) with genre set q covers {(v, z) : z in q}.
    The genre-level structure is kept around for per-user reporting.
    """

    kind = "per_user_coverage"

    def __init__(self, edge_online, genre_sets, user_weights):
        user_weights = np.asarray(user_weights, dtype=float)
        n_users, n_genres = user_weights.shape
        flat_sets = [
            frozenset(int(v) * n_genres + z for z in q)
            for v, q in zip(edge_online, genre_sets)
        ]
        super().__init__(flat_sets, user_weights.reshape(-1))
        self.n_users = n_users
        self.n_genres = n_genres
        self.user_weights = user_weights

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
        return CoverageObjective(feats.feature_sets, feats.feature_weights)
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


def _draws(objective: SubmodularObjective, x, samples: int, rng: np.random.Generator):
    """Yield ``samples`` draws of R ~ x, each a boolean mask over the ground
    set made from one ``rng.random`` vector of its length."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = _point(objective, x)
    for _ in range(samples):
        yield rng.random(len(x)) < x


def mean_se(values) -> tuple[float, float]:
    """(mean, standard error of the mean) of ``values``; the error of one
    value is 0.  Raises ValueError on no values."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        raise ValueError("mean_se needs at least one value")
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), se


def multilinear_mc(objective: SubmodularObjective, x, samples: int, seed) -> tuple[float, float]:
    """Monte Carlo estimate of F(x); returns (estimate, standard error)."""
    draws = _draws(objective, x, samples, np.random.default_rng(seed))
    return mean_se([objective.value(np.flatnonzero(mask)) for mask in draws])


def multilinear_estimate(objective: SubmodularObjective, x, seed) -> tuple[float, float]:
    """(F(x), standard error): the objective's closed form, else enumeration
    on ground sets of up to EXACT_ENUMERATION_LIMIT edges, both with error 0,
    else `multilinear_mc` with F_SAMPLES draws from ``(seed, 2)``, a stream
    no gradient and no trial draws from."""
    if (closed := objective._multilinear(_point(objective, x))) is not None:
        return closed[0], 0.0
    if objective.n_edges <= EXACT_ENUMERATION_LIMIT:
        return multilinear_exact(objective, x), 0.0
    return multilinear_mc(objective, x, F_SAMPLES, (seed, 2))


def batch_gradient(objective: SubmodularObjective, x, samples: int,
                   rng: np.random.Generator) -> np.ndarray:
    """The full multilinear gradient: the objective's closed form, which
    draws nothing, else estimated from one batch of subset draws shared
    across all coordinates (unbiased; cuts oracle calls by a factor m).
    ``samples`` must be at least 1 either way.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if (closed := objective._multilinear(_point(objective, x))) is not None:
        return closed[1]
    return sum(objective.coordinate_gains(mask)
               for mask in _draws(objective, x, samples, rng)) / samples
