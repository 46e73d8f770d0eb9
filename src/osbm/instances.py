"""Instance model for online bipartite b-matching under known-i.i.d. arrivals.

An instance couples a bipartite graph (offline vertices with capacities,
online types with arrival rates) with a time horizon ``T`` and a per-arrival
match budget ``eta``.  Each online type ``v`` arrives in any given round with
probability ``rate_v / T``, independently across rounds; with the remaining
probability the round sees no arrival.

Vertex and edge ids are opaque strings externally; all algorithmic code works
on dense integer indices derived lazily from the id records.  Edge payloads
(weights, feature sets, per-type feature weights) live in ``EdgeFeatures``;
an instance plus its features plus an objective kind forms a ``Problem``,
the unit that serializes to disk.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

SCHEMA_HEADER = "osbm-instance/1"

# what each objective kind reads: EdgeFeatures payloads, and the Problem's budget
OBJECTIVE_PAYLOADS = {
    "linear": ("edge_weights",),
    "coverage": ("feature_sets", "feature_weights"),
    "budget_additive": ("edge_weights", "budget"),
    "per_user_coverage": ("feature_sets", "user_weights"),
}

RATE_TOL = 1e-9


def fmt(x: float) -> str:
    """Decimal echo that round-trips float64 exactly."""
    return repr(float(x))


def num(x: float) -> str:
    """17-significant-digit echo, for artifacts and CLI reports."""
    return format(float(x), ".17g")


class IngestError(ValueError):
    """Raised when a ratings/genre file cannot be turned into an instance."""


class InstanceError(ValueError):
    """Raised when an instance file cannot be read into a problem."""


@dataclass(frozen=True)
class Instance:
    """Bipartite b-matching instance with known-i.i.d. arrival rates.

    ``offline_ids[i]`` may be matched up to ``capacities[i]`` times.
    ``rates[j]`` is the expected number of arrivals of ``online_ids[j]`` over
    the horizon; the per-round arrival probability is ``rates[j] / horizon``.
    ``eta`` bounds how many edges a policy may match on a single arrival.

    It owns the b-matching polytope that guides and policies work over: the
    edges grouped by offline vertex (`edges_by_u`, cut into `edges_at_u`)
    and by type (`edges_by_v`, `edges_at_v`, padded into `edge_table_v`),
    and the degree sums `loads`.
    """

    offline_ids: tuple[str, ...]
    capacities: tuple[int, ...]
    online_ids: tuple[str, ...]
    rates: tuple[float, ...]
    edge_ids: tuple[str, ...]
    edge_offline: tuple[str, ...]
    edge_online: tuple[str, ...]
    horizon: int
    eta: int = 1

    # -- dense views ------------------------------------------------------

    @cached_property
    def n_offline(self) -> int:
        return len(self.offline_ids)

    @cached_property
    def n_online(self) -> int:
        return len(self.online_ids)

    @cached_property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @cached_property
    def offline_index(self) -> dict[str, int]:
        return {uid: i for i, uid in enumerate(self.offline_ids)}

    @cached_property
    def online_index(self) -> dict[str, int]:
        return {vid: i for i, vid in enumerate(self.online_ids)}

    @cached_property
    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (offline, online) endpoint index per edge, built after the
        structural check, so the check runs once per instance."""
        problems = _structural_violations(self)
        if problems:
            raise ValueError(
                "instance has structural violations: " + "; ".join(problems)
            )
        u_idx, v_idx = self.offline_index, self.online_index
        return (np.array([u_idx[uid] for uid in self.edge_offline], dtype=np.int64),
                np.array([v_idx[vid] for vid in self.edge_online], dtype=np.int64))

    @cached_property
    def edge_u(self) -> np.ndarray:
        """Dense offline endpoint index per edge."""
        return self._endpoints[0]

    @cached_property
    def edge_v(self) -> np.ndarray:
        """Dense online endpoint index per edge."""
        return self._endpoints[1]

    @cached_property
    def edges_by_u(self) -> np.ndarray:
        """All edges grouped by offline vertex, each star in index order."""
        return np.argsort(self.edge_u, kind="stable")

    @cached_property
    def edges_by_v(self) -> np.ndarray:
        """All edges grouped by online type, each type's edges in index order."""
        return np.argsort(self.edge_v, kind="stable")

    @cached_property
    def edges_at_u(self) -> tuple[np.ndarray, ...]:
        """The star of each offline vertex: its slice of `edges_by_u`."""
        return split_groups(self.edges_by_u, self.edge_u, self.n_offline)

    @cached_property
    def edges_at_v(self) -> tuple[np.ndarray, ...]:
        """The edges of each online type: its slice of `edges_by_v`."""
        return split_groups(self.edges_by_v, self.edge_v, self.n_online)

    @cached_property
    def edge_table_v(self) -> np.ndarray:
        """`edges_at_v` as one (n_online x max degree) table: row v holds
        the edges of type v in index order, then -1 pads."""
        deg = np.bincount(self.edge_v, minlength=self.n_online)
        table = np.full((self.n_online, int(deg.max(initial=0))), -1, dtype=np.int64)
        v = self.edge_v[self.edges_by_v]
        table[v, np.arange(self.n_edges) - (np.cumsum(deg) - deg)[v]] = self.edges_by_v
        return table

    def loads(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Sums of the edge vector x over each offline star and each type:
        the polytope's degree rows, <= b_u and <= eta * rate_v.  Each is a
        `group_sums` run, with the bits of ``x[edges].sum()``: one
        ``bincount`` sums in another order, which moves last bits and so the
        LP guides.  Raises ValueError unless x has one entry per edge."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_edges,):
            raise ValueError(f"edge vector of shape {x.shape} for {self.n_edges} edges")
        return (group_sums(x[self.edges_by_u],
                           np.bincount(self.edge_u, minlength=self.n_offline)),
                group_sums(x[self.edges_by_v],
                           np.bincount(self.edge_v, minlength=self.n_online)))

    @cached_property
    def rate_array(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=float)

    @cached_property
    def capacity_array(self) -> np.ndarray:
        return np.asarray(self.capacities, dtype=np.int64)

    @cached_property
    def arrival_probs(self) -> np.ndarray:
        """Per-round arrival probability of each online type."""
        return self.rate_array / float(self.horizon)

    # -- derived instances ------------------------------------------------

    def with_capacities(self, b) -> "Instance":
        """Replace offline capacities (scalar broadcast or per-vertex)."""
        if np.isscalar(b):
            caps = tuple(int(b) for _ in self.offline_ids)
        else:
            caps = tuple(int(c) for c in b)
            if len(caps) != self.n_offline:
                raise ValueError("capacity vector length mismatch")
        return replace(self, capacities=caps)

    def with_eta(self, eta: int) -> "Instance":
        return replace(self, eta=int(eta))


def build_instance(
    offline: Sequence[tuple[str, int]],
    online: Sequence[tuple[str, float]],
    edges: Sequence[tuple[str, str, str]],
    horizon: int,
    eta: int = 1,
) -> Instance:
    """Convenience constructor from (id, payload) record lists."""
    return Instance(
        offline_ids=tuple(uid for uid, _ in offline),
        capacities=tuple(int(c) for _, c in offline),
        online_ids=tuple(vid for vid, _ in online),
        rates=tuple(float(r) for _, r in online),
        edge_ids=tuple(eid for eid, _, _ in edges),
        edge_offline=tuple(u for _, u, _ in edges),
        edge_online=tuple(v for _, _, v in edges),
        horizon=int(horizon),
        eta=int(eta),
    )


def split_groups(order, keys: np.ndarray, n: int) -> tuple:
    """Cut `order`, edges sorted by `keys` in [0, n), into one slice per key."""
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    return tuple(order[a:b] for a, b in zip([0] + ends[:-1], ends))


def group_sums(w: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of each consecutive run of ``counts`` entries of ``w``.

    Each sum is numpy's own (pairwise) ``w[run].sum()``: runs of one length
    are summed together as the rows of one matrix, which reduces each row as
    that sum does.  Zero-padding the runs to one length would change the
    pairwise blocking, and so the last bits.
    """
    out = np.zeros(len(counts))
    starts = np.cumsum(counts) - counts
    # the run lengths in use, ascending (np.unique's first call would
    # import numpy.ma, about 1 MiB more resident memory)
    for c in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        runs = np.flatnonzero(counts == c)
        out[runs] = w[starts[runs, None] + np.arange(c)].sum(axis=1)
    return out


def _structural_violations(inst: Instance) -> list[str]:
    problems: list[str] = []
    if len(set(inst.offline_ids)) != len(inst.offline_ids):
        problems.append("duplicate offline vertex id")
    if len(set(inst.online_ids)) != len(inst.online_ids):
        problems.append("duplicate online type id")
    if len(set(inst.edge_ids)) != len(inst.edge_ids):
        problems.append("duplicate edge id")
    u_ids = set(inst.offline_ids)
    v_ids = set(inst.online_ids)
    seen_pairs: set[tuple[str, str]] = set()
    for eid, u, v in zip(inst.edge_ids, inst.edge_offline, inst.edge_online):
        if u not in u_ids or v not in v_ids:
            problems.append(f"dangling endpoint on edge {eid!r}")
            continue
        if (u, v) in seen_pairs:
            problems.append(f"duplicate (u, v) pair on edge {eid!r}")
        seen_pairs.add((u, v))
    return problems


def validate(inst: Instance) -> list[str]:
    """Return every invariant violation (empty list means the instance is ok).

    Violations are data, not failures: callers decide whether to proceed.
    """
    problems = _structural_violations(inst) + _value_violations(inst)
    for vid, r in zip(inst.online_ids, inst.rates):
        if 1.0 + RATE_TOL < r < math.inf:  # _value_violations flags inf
            problems.append(f"rate of {vid!r} out of range (0, 1]: got {fmt(r)}")
    for id_group, label in (
        (inst.offline_ids, "offline vertex"),
        (inst.online_ids, "online type"),
        (inst.edge_ids, "edge"),
    ):
        for the_id in id_group:
            if not the_id or any(ch.isspace() for ch in the_id):
                problems.append(f"{label} id {the_id!r} is empty or has whitespace")
    return problems


def _value_violations(inst: Instance) -> list[str]:
    """The checks of `validate` that an instance file must pass to load."""
    problems = []
    if len(inst.capacities) != len(inst.offline_ids):
        problems.append("capacity list length mismatch")
    if len(inst.rates) != len(inst.online_ids):
        problems.append("rate list length mismatch")
    if inst.horizon < 1:
        problems.append("horizon must be >= 1")
    if inst.eta < 1:
        problems.append("eta must be >= 1")
    for uid, cap in zip(inst.offline_ids, inst.capacities):
        if cap < 1:
            problems.append(f"capacity of {uid!r} must be >= 1 (got {cap})")
    for vid, r in zip(inst.online_ids, inst.rates):
        if not 0.0 < r < math.inf:
            problems.append(f"rate of {vid!r} out of range (0, 1]: got {fmt(r)}")
    total_rate = sum(inst.rates)
    if total_rate > inst.horizon * (1.0 + RATE_TOL) + RATE_TOL:
        problems.append(
            f"rates exceed horizon: sum of rates {fmt(total_rate)} > T = {inst.horizon}"
        )
    return problems


@dataclass(frozen=True, eq=False)
class ArrivalSequence:
    """Realized arrival stream: one entry per round, -1 meaning no arrival."""

    slots: np.ndarray  # int64, length T, values in {-1} | [0, n_online)

    @cached_property
    def arrival_times(self) -> np.ndarray:
        return np.flatnonzero(self.slots >= 0)

    def counts(self, n_online: int) -> np.ndarray:
        """Number of arrivals per online type."""
        arrived = self.slots[self.slots >= 0]
        return np.bincount(arrived, minlength=n_online)


def sample_arrivals(inst: Instance, seed) -> ArrivalSequence:
    """Draw one arrival sequence: each round independently samples type ``v``
    with probability ``rate_v / T`` and no arrival with the leftover mass.
    """
    rng = np.random.default_rng(seed)
    probs = inst.arrival_probs
    cum = np.cumsum(probs)
    if cum.size and cum[-1] > 1.0 + RATE_TOL:
        raise ValueError("arrival probabilities exceed 1; instance is invalid")
    u = rng.random(inst.horizon)
    slots = np.searchsorted(cum, u, side="right")
    slots = np.where(slots >= inst.n_online, -1, slots).astype(np.int64)
    return ArrivalSequence(slots=slots)


@dataclass(frozen=True, eq=False)
class EdgeFeatures:
    """Per-edge payloads backing the submodular objectives.

    ``edge_weights`` feeds linear and budget-additive objectives;
    ``feature_sets`` (dense feature indices in ``[0, n_features)``) plus
    ``feature_weights`` feed coverage; ``user_weights`` (n_online x
    n_features) feeds the per-user coverage sum.  Unused payloads are None.
    """

    n_features: int = 0
    edge_weights: np.ndarray | None = None
    feature_sets: tuple[frozenset[int], ...] | None = None
    feature_weights: np.ndarray | None = None
    user_weights: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None

    def validate(self, n_edges: int) -> list[str]:
        problems = []
        if self.edge_weights is not None:
            w = np.asarray(self.edge_weights)
            if len(w) != n_edges:
                problems.append("edge weight vector length mismatch")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                problems.append("edge weights must be finite and >= 0")
        if self.feature_sets is not None:
            if len(self.feature_sets) != n_edges:
                problems.append("feature set list length mismatch")
            for q in self.feature_sets:
                for z in q:
                    if not (0 <= z < self.n_features):
                        problems.append(f"feature index {z} outside [0, {self.n_features})")
        if self.feature_weights is not None and len(self.feature_weights) != self.n_features:
            problems.append("feature weight vector length mismatch")
        if self.feature_names is not None:
            # one `fn` record per feature, so no file holds an empty list
            if not self.feature_names or len(self.feature_names) != self.n_features:
                problems.append("feature names must name each of at least one feature")
            for name in self.feature_names:
                if not name or any(ch.isspace() for ch in name):
                    problems.append(f"feature name {name!r} is empty or has whitespace")
        for name, arr in (("feature", self.feature_weights), ("user", self.user_weights)):
            if arr is not None:
                a = np.asarray(arr)
                if not np.all(np.isfinite(a)) or np.any(a < 0):
                    problems.append(f"{name} weights must be finite and >= 0")
        return problems


@dataclass(frozen=True, eq=False)
class Problem:
    """Instance + edge features + objective kind: the on-disk unit."""

    instance: Instance
    features: EdgeFeatures
    kind: str
    budget: float | None = None

    def validate(self) -> list[str]:
        return validate(self.instance) + self._payload_violations()

    def missing_payloads(self) -> str | None:
        """What this problem's kind reads (`OBJECTIVE_PAYLOADS`: features
        fields, or the budget) and lacks, as a message; None if nothing."""
        missing = [name for name in OBJECTIVE_PAYLOADS.get(self.kind, ())
                   if getattr(self.features, name, self.budget) is None]
        return f"{self.kind} objective needs {' and '.join(missing)}" if missing else None

    def _payload_violations(self) -> list[str]:
        problems = self.features.validate(self.instance.n_edges)
        uw = self.features.user_weights
        if uw is not None and np.shape(uw) != (self.instance.n_online, self.features.n_features):
            problems.append("user weight matrix shape mismatch")
        if self.kind not in OBJECTIVE_PAYLOADS:
            problems.append(f"unknown objective kind {self.kind!r}")
        if missing := self.missing_payloads():
            problems.append(missing)
        if self.kind == "coverage" and not self.features.n_features:
            # the file format has no record for an empty weight vector
            problems.append("coverage objective needs at least one feature")
        if self.kind == "budget_additive" and self.budget is not None and not (
                0 <= self.budget < math.inf):
            problems.append("budget_additive requires a finite, nonnegative budget")
        return problems


# -- synthetic generators --------------------------------------------------

COVERAGE_RECIPE = dict(n_offline=40, n_online=200, horizon=1000,
                       n_features=1000, max_degree=10, max_features=10)
BUDGET_RECIPE = dict(n_offline=100, n_online=200, horizon=200,
                     budget=50.0, max_degree=10)


def _capacity_one_instance(offline_ids: Sequence[str], online: Sequence[tuple[str, float]],
                           pairs, horizon: int) -> Instance:
    """Capacity-1 offline vertices, (type id, rate) pairs, and edge ``e<k>``
    joining ``offline_ids[ui]`` to ``online[vi]`` for the k-th pair (ui, vi)."""
    edges = [(f"e{k}", offline_ids[ui], online[vi][0]) for k, (ui, vi) in enumerate(pairs)]
    return build_instance([(uid, 1) for uid in offline_ids], online, edges, horizon)


def _recipe_graph(rng: np.random.Generator, p: dict) -> tuple[Instance, list]:
    """A recipe's graph and its (offline, type) index pairs, type-major.
    Draws the rates, uniform on (0, 1] and not normalized, then each type's
    1..max_degree distinct neighbours."""
    rates = (1.0 - rng.random(p["n_online"])).tolist()
    pairs = []
    for vi in range(p["n_online"]):
        deg = int(rng.integers(1, p["max_degree"] + 1))
        chosen = rng.choice(p["n_offline"], size=min(deg, p["n_offline"]),
                            replace=False)
        pairs.extend((ui, vi) for ui in np.sort(chosen).tolist())
    return _capacity_one_instance([f"u{i}" for i in range(p["n_offline"])],
                                  [(f"v{j}", r) for j, r in enumerate(rates)],
                                  pairs, p["horizon"]), pairs


def generate_synthetic(kind: str, seed: int) -> Problem:
    """Build a synthetic problem of the given objective kind.

    Both recipes first draw `_recipe_graph`'s capacity-1 graph: arrival
    rates uniform on (0, 1] (fractional rates), each type linked to 1..10
    random offline vertices.

    ``coverage``: 40 offline vertices, 200 online types, T=1000; every
    vertex carries a random feature subset (size <= 10) of a 1000-feature
    universe and an edge covers the union of its endpoints' features;
    feature weights are uniform on [0, 1].

    ``budget_additive``: 100 offline vertices, 200 online types, T=200;
    edge weights uniform on [0, 1]; budget 50.
    """
    rng = np.random.default_rng(seed)
    if kind == "coverage":
        p = COVERAGE_RECIPE
        inst, pairs = _recipe_graph(rng, p)
        vert_feats = []  # the offline vertices' sets, then the types'
        for _ in range(p["n_offline"] + p["n_online"]):
            size = int(rng.integers(1, p["max_features"] + 1))
            vert_feats.append(frozenset(rng.choice(p["n_features"], size=size,
                                                   replace=False).tolist()))
        q_sets = tuple(vert_feats[ui] | vert_feats[p["n_offline"] + vi] for ui, vi in pairs)
        feats = EdgeFeatures(n_features=p["n_features"], feature_sets=q_sets,
                             feature_weights=rng.random(p["n_features"]))
        return Problem(instance=inst, features=feats, kind="coverage")

    if kind == "budget_additive":
        p = BUDGET_RECIPE
        inst, _ = _recipe_graph(rng, p)
        feats = EdgeFeatures(edge_weights=rng.random(inst.n_edges))
        return Problem(instance=inst, features=feats, kind="budget_additive",
                       budget=p["budget"])

    raise ValueError(f"unknown synthetic recipe kind {kind!r}")


# -- ratings ingestion -----------------------------------------------------

def _read_delimited(path, n_cols: int, what: str) -> list[tuple[str, ...]]:
    """Rows of ``n_cols`` non-empty fields, each ``(line number, *fields)``.
    Fields become ids in the space-separated instance format, so a field
    holding whitespace is malformed."""
    rows = []
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                fields = tuple(field.strip() for field in row)
                if len(fields) != n_cols:
                    problem = f"expected {n_cols} fields, got {len(fields)}"
                elif any(not f or any(c.isspace() for c in f) for f in fields):
                    problem = "empty field or whitespace inside a field"
                else:
                    rows.append((lineno, *fields))
                    continue
                raise IngestError(
                    f"{what} file {path}: malformed row {lineno}: {problem}")
    except UnicodeDecodeError:
        raise IngestError(f"{what} file {path}: not UTF-8 text") from None
    return rows


def ingest_ratings(
    ratings_path,
    genres_path,
    num_users: int,
    num_movies: int,
    *,
    horizon: int | None = None,
    rates_mode: str = "normalized",
    seed: int = 0,
) -> Problem:
    """Build a per-user coverage problem from completed ratings and genres.

    ``ratings_path`` holds ``user,movie,rating`` rows (finite ratings >= 0,
    completed by whatever predictor the caller used); ``genres_path`` holds
    ``movie,genre`` rows.  The ``num_users`` most prolific raters become the
    online side and ``num_movies`` movies sampled at random become the
    offline side.  An edge joins movie ``m`` to user ``u`` exactly when ``u``
    has no rating for ``m``; the edge covers the genres of ``m``.  A user's
    weight for genre ``z`` is the mean of their ratings over movies carrying
    ``z``.

    ``rates_mode="normalized"`` draws per-user arrival probabilities
    uniformly and rescales them to sum to one (this can push individual
    rates above 1 when the horizon is large; ``validate`` reports those).
    ``rates_mode="integral"`` gives every user rate exactly 1 with
    ``horizon = num_users``.
    """
    rating_rows = _read_delimited(ratings_path, 3, "ratings")
    genre_rows = _read_delimited(genres_path, 2, "genres")

    ratings: dict[tuple[str, str], float] = {}
    user_counts: dict[str, int] = {}
    movie_set: set[str] = set()
    for lineno, user, movie, value in rating_rows:
        try:
            r = float(value)
        except ValueError:
            r = math.nan
        if not 0.0 <= r < math.inf:  # a genre weight is a mean rating, >= 0
            raise IngestError(f"ratings file {ratings_path}: malformed row "
                              f"{lineno}: bad rating {value!r}")
        if (user, movie) in ratings:
            raise IngestError(f"ratings file {ratings_path}: malformed row "
                              f"{lineno}: {user} rates {movie} again")
        ratings[(user, movie)] = r
        user_counts[user] = user_counts.get(user, 0) + 1
        movie_set.add(movie)

    genre_names = sorted({g for _, _, g in genre_rows})
    genre_index = {g: z for z, g in enumerate(genre_names)}
    movie_genres: dict[str, set[int]] = {}
    for _, movie, genre in genre_rows:
        movie_genres.setdefault(movie, set()).add(genre_index[genre])

    if len(user_counts) < num_users:
        raise IngestError(
            f"requested {num_users} users but ratings file has only "
            f"{len(user_counts)}"
        )
    if len(movie_set) < num_movies:
        raise IngestError(
            f"requested {num_movies} movies but ratings file has only "
            f"{len(movie_set)}"
        )

    # most-rated users first, ties by id for determinism
    users = sorted(user_counts, key=lambda u: (-user_counts[u], u))[:num_users]
    rng = np.random.default_rng(seed)
    movie_pool = sorted(movie_set)
    movies = [movie_pool[i] for i in
              sorted(rng.choice(len(movie_pool), size=num_movies, replace=False))]

    g = len(genre_names)
    user_weights = np.zeros((len(users), g))
    for vi, user in enumerate(users):
        sums = np.zeros(g)
        counts = np.zeros(g)
        for movie in movie_pool:  # a set's order varies with the hash seed
            r = ratings.get((user, movie))
            if r is None:
                continue
            for z in movie_genres.get(movie, ()):
                sums[z] += r
                counts[z] += 1
        nz = counts > 0
        user_weights[vi, nz] = sums[nz] / counts[nz]

    # one edge per unrated (movie, user) pair, user-major
    pairs = [(ui, vi) for vi, user in enumerate(users)
             for ui, movie in enumerate(movies) if (user, movie) not in ratings]

    n_users = len(users)
    if rates_mode == "integral":
        horizon = n_users
        rates = tuple(1.0 for _ in users)
    elif rates_mode == "normalized":
        if horizon is None:
            horizon = n_users
        raw = 1.0 - rng.random(n_users)
        probs = raw / raw.sum()
        rates = tuple((probs * horizon).tolist())
    else:
        raise IngestError(f"unknown rates mode {rates_mode!r}")

    inst = _capacity_one_instance(movies, list(zip(users, rates)), pairs, horizon)
    feats = EdgeFeatures(
        n_features=g,
        feature_sets=tuple(frozenset(movie_genres.get(movies[ui], ()))
                           for ui, _ in pairs),
        user_weights=user_weights,
        feature_names=tuple(genre_names),
    )
    return Problem(instance=inst, features=feats, kind="per_user_coverage")


# -- serialization ---------------------------------------------------------

def read_records(path, header: str, error: type, what: str) -> list[tuple[int, str]]:
    """(line number, line) for each non-blank line of a UTF-8 record file
    after its `header`; raises `error` on non-UTF-8 text or no header."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise error(f"{path}: not {what} (not UTF-8 text)") from None
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or lines[0][1] != header:
        raise error(f"{path}: not {what} (missing {header!r})")
    return lines[1:]


class RepeatedRecord(ValueError):
    """A record that sets what an earlier record of the file already set."""


def put_once(table: dict, key, value) -> None:
    """``table[key] = value``; raises RepeatedRecord if ``key`` is set."""
    if key in table:
        raise RepeatedRecord(key)
    table[key] = value


def record_error(error: type, path, lineno: int, line: str, exc: Exception) -> Exception:
    """``error`` naming the file, line and record at which ``exc`` was raised."""
    what = "repeated" if isinstance(exc, RepeatedRecord) else "bad"
    return error(f"{path}: {what} record at line {lineno}: {line!r}")


def _feature_count(tokens: list[str]) -> tuple[int]:
    if (n := int(tokens[0])) < 0:
        raise ValueError("negative feature count")
    return (n,)


def the_one(found: dict, default=None):
    """The first field of a tag's one record, or `default` without one."""
    return found.get((), (default,))[0]


# One row of README's record table: `parse` turns the tokens after the tag
# into fields (too few raise IndexError; tokens it does not read are ignored),
# the first `key` of which name what the record sets, for `put_once` (0: once
# per file, None: a list); `needs` is "one", "feature", "edge" or None; and
# `write(*objects)` yields each record's text after the tag (None: left out).
Record = namedtuple("Record", "parse key needs write")


def write_table(path, header: str, records: dict, *objects) -> None:
    """Write `header`, then the records of each tag in table order."""
    lines = [header] + [f"{tag} {fields}" for tag, rec in records.items()
                        for fields in rec.write(*objects) if fields is not None]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_table(path, header: str, error: type, what: str, records: dict) -> dict:
    """Each tag's records of a file written by `write_table`, parsed by its
    `Record`: tag -> {key: fields}, in file order.  Raises `error`, naming the
    file, on an unknown tag, a short, unparsable or repeated or missing record."""
    found = {tag: {} for tag in records}
    for lineno, line in read_records(path, header, error, what):
        tok = line.split()
        try:
            rec = records[tok[0]]
            fields = rec.parse(tok[1:])
            put_once(found[tok[0]], lineno if rec.key is None else fields[:rec.key], fields)
        except (LookupError, ValueError) as exc:
            raise record_error(error, path, lineno, line, exc) from None
    required = [tag for tag, rec in records.items() if rec.needs == "one"]
    if not all(found[tag] for tag in required):
        raise error(f"{path}: missing {' or '.join(required)} record")
    return found


def _each(values) -> Sequence:
    return () if values is None else values


def _edge_records(p: Problem):
    inst, weights = p.instance, p.features.edge_weights
    edges = map(" ".join, zip(inst.edge_ids, inst.edge_offline, inst.edge_online))
    return edges if weights is None else (f"{e} {fmt(w)}" for e, w in zip(edges, weights))


# the records of an instance file, in the order save_problem writes them
PROBLEM_RECORDS = {
    "T": Record(lambda t: (int(t[0]),), 0, "one", lambda p: [p.instance.horizon]),
    "eta": Record(lambda t: (int(t[0]),), 0, "one", lambda p: [p.instance.eta]),
    "objective": Record(lambda t: (t[0],), 0, None, lambda p: [str(p.kind)]),
    "budget": Record(lambda t: (float(t[0]),), 0, None,
                     lambda p: [None if p.budget is None else fmt(p.budget)]),
    "features": Record(_feature_count, 0, None, lambda p: [p.features.n_features or None]),
    "fn": Record(lambda t: (int(t[0]), t[1]), 1, "feature", lambda p: (
        f"{z} {name}" for z, name in enumerate(_each(p.features.feature_names)))),
    "u": Record(lambda t: (t[0], int(t[1])), None, None, lambda p: (
        f"{uid} {cap}" for uid, cap in zip(p.instance.offline_ids, p.instance.capacities))),
    "v": Record(lambda t: (t[0], float(t[1])), None, None, lambda p: (
        f"{vid} {fmt(rate)}" for vid, rate in zip(p.instance.online_ids, p.instance.rates))),
    "e": Record(lambda t: (t[0], t[1], t[2], float(t[3]) if len(t) > 3 else None), None, None,
                _edge_records),  # the weight is optional
    "q": Record(lambda t: (t[0], frozenset(map(int, t[1:]))), 1, None, lambda p: (
        f"{eid} {' '.join(map(str, sorted(q)))}"
        for eid, q in zip(p.instance.edge_ids, _each(p.features.feature_sets)) if q)),
    "fw": Record(lambda t: (int(t[0]), float(t[1])), 1, "feature", lambda p: (
        f"{z} {fmt(w)}" for z, w in enumerate(_each(p.features.feature_weights)))),
    "uw": Record(lambda t: (t[0], int(t[1]), float(t[2])), 2, None, lambda p: (
        f"{vid} {z} {fmt(w)}"  # zero weights are omitted
        for vid, row in zip(p.instance.online_ids, _each(p.features.user_weights))
        for z, w in enumerate(row) if w != 0.0)),
}


def save_problem(problem: Problem, path) -> None:
    """Write a problem to its line-record text format (lossless round-trip)."""
    write_table(path, SCHEMA_HEADER, PROBLEM_RECORDS, problem)


def load_problem(path) -> Problem:
    """Read a problem written by :func:`save_problem`.

    Raises InstanceError, naming the file, where the file breaks README's
    record table, on a ``uw`` or ``q`` record for an unknown type or edge, on a
    structural violation such as a dangling edge endpoint, or on a value
    that `Problem.validate` rejects, except a rate above 1.  Omitted ``q``
    and ``uw`` records load as empty sets and zero weights.
    """
    found = read_table(path, SCHEMA_HEADER, InstanceError, "an instance file", PROBLEM_RECORDS)
    kind, n = the_one(found["objective"], "linear"), the_one(found["features"], 0)
    reads = OBJECTIVE_PAYLOADS.get(kind, ())
    edges = list(found["e"].values())
    inst = build_instance(found["u"].values(), found["v"].values(), [e[:3] for e in edges],
                          the_one(found["T"]), the_one(found["eta"]))
    try:
        inst.edge_u  # builds the dense endpoints after the structural check
    except ValueError as exc:
        raise InstanceError(f"{path}: {exc}") from None
    weighted = [e[3] is not None for e in edges]
    if any(weighted) and not all(weighted):
        eid = edges[weighted.index(False)][0]
        raise InstanceError(f"{path}: edge {eid} has no weight but other edges have one")
    for tag in ("fn", "fw", "uw"):  # the records keyed by a feature index
        if bad := [key[-1] for key in found[tag] if not 0 <= key[-1] < n]:
            raise InstanceError(f"{path}: {tag} feature index {bad[0]} outside [0, {n})")
        if PROBLEM_RECORDS[tag].needs == "feature" and found[tag] and (
                missing := [z for z in range(n) if (z,) not in found[tag]]):
            raise InstanceError(f"{path}: feature {missing[0]} has no {tag} record")
    uw = np.zeros((inst.n_online, n)) if found["uw"] or "user_weights" in reads else None
    for vid, z, w in found["uw"].values():  # save omits zero weights
        if vid not in inst.online_index:
            raise InstanceError(f"{path}: uw record for unknown online type {vid!r}")
        uw[inst.online_index[vid], z] = w
    # with no edges there is no record to carry a weight: a kind that reads
    # weights gets the empty vector
    ew = any(weighted) or not edges and "edge_weights" in reads
    if ghost := found["q"].keys() - {(eid,) for eid in inst.edge_ids}:
        raise InstanceError(f"{path}: q record for unknown edge {min(ghost)[0]!r}")
    fs = found["q"] or "feature_sets" in reads
    q_sets = (found["q"].get((eid,), (eid, frozenset()))[1] for eid in inst.edge_ids)
    fw, names = ([found[tag][z,][1] for z in range(n)] if found[tag] else None
                 for tag in ("fw", "fn"))
    feats = EdgeFeatures(
        n_features=n, edge_weights=np.array([e[3] for e in edges]) if ew else None,
        feature_sets=tuple(q_sets) if fs else None, user_weights=uw,
        feature_weights=None if fw is None else np.array(fw),
        feature_names=None if names is None else tuple(names))
    problem = Problem(inst, feats, kind, the_one(found["budget"]))
    # Problem.validate's checks but the structural one (run above), the ids
    # (split on whitespace) and a rate above 1 (`ingest` warns and writes it)
    problems = _value_violations(inst) + problem._payload_violations()
    if problems:
        raise InstanceError(f"{path}: " + "; ".join(problems))
    return problem
