"""Randomized rounding primitives feeding the online policies.

Four seeded operations: independent per-edge sampling, uniform thinning of
each offline star to at most its capacity, star-wise dependent rounding,
and pipage rounding of a whole fractional b-matching.

The last two share one pairing step, `_shift`: a two-sided mass shift
along an alternating walk that preserves every edge's marginal.  Dependent
rounding (after Gandhi, Khuller, Parthasarathy and Srinivasan, JACM 2006)
shifts between consecutive fractional edges of one star, which pins each
star's degree to the floor or ceiling of its fractional degree and makes
edges of a star negatively correlated.  Pipage rounding (after Ageev and
Sviridenko, 2004) shifts along paths and cycles of the whole fractional
support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import Instance

SNAP_TOL = 1e-12


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True, eq=False)
class SampledSupport:
    """Sampled edge support X and its per-star thinned selection Y <= X."""

    X: np.ndarray  # bool per edge
    Y: np.ndarray  # bool per edge; at most b_u true edges in the star of u

    def x_edges_at(self, edge_list: np.ndarray) -> np.ndarray:
        return edge_list[self.X[edge_list]]


def independent_sample(x, seed) -> np.ndarray:
    """Include each edge independently with probability x_e."""
    x = np.asarray(x, dtype=float)
    rng = _as_rng(seed)
    return rng.random(len(x)) < x


def select_per_star(X, inst: Instance, seed) -> np.ndarray:
    """Thin X star by star: at every offline vertex u with k sampled incident
    edges, keep a uniform subset of min(b_u, k) of them; selections are
    independent across stars.

    At b_u = 1 this is the one-edge-per-star selection of contention
    resolution.  For b_u > 1 it is its direct b-matching analogue (the
    source documents state only the capacity-1 form), so each present edge
    survives with probability min(b_u, k)/k.  Randomness is drawn only in
    stars with k > b_u, and at b_u = 1 the draws are one ``integers(k)``
    per such star.
    """
    X = np.asarray(X, dtype=bool)
    rng = _as_rng(seed)
    Y = np.zeros_like(X)
    for ui, cap in enumerate(inst.capacities):
        star = inst.edges_at_u[ui]
        present = star[X[star]]
        k = len(present)
        if k <= cap:
            Y[present] = True
        elif cap == 1:
            Y[present[rng.integers(k)]] = True
        else:
            Y[present[rng.permutation(k)[:cap]]] = True
    return Y


def sample_support(x, inst: Instance, seed) -> SampledSupport:
    rng = _as_rng(seed)
    X = independent_sample(x, rng)
    Y = select_per_star(X, inst, rng)
    return SampledSupport(X=X, Y=Y)


def _fractional(v: float) -> bool:
    return SNAP_TOL < v < 1.0 - SNAP_TOL


def _shift(p, walk, rng: np.random.Generator) -> None:
    """The pairing step: move mass along an alternating walk of edges,
    keeping every edge's marginal, and update `p` in place.

    With probability down/(up+down) the even positions of `walk` rise by
    `up` and the odd ones fall by `up`; otherwise they move the other way
    by `down`.  `up` and `down` are the largest moves that keep every value
    in [0, 1], so the expected move is zero and each step settles at least
    one edge.  Values within SNAP_TOL of 0 or 1 are snapped there.
    """
    even, odd = walk[::2], walk[1::2]
    up = min([1.0 - p[e] for e in even] + [p[e] for e in odd])
    down = min([p[e] for e in even] + [1.0 - p[e] for e in odd])
    step = up if rng.random() < down / (up + down) else -down
    for k, e in enumerate(walk):
        v = p[e] - step if k % 2 else p[e] + step
        p[e] = 0.0 if v <= SNAP_TOL else 1.0 if v >= 1.0 - SNAP_TOL else v


def dependent_round_stars(x, inst: Instance, seed) -> np.ndarray:
    """Round x star-by-star at each offline vertex into an integral edge set.

    One pass over each star's edges in index order: every fractional edge
    is paired with the fractional edge carried from the previous step (a
    walk of two edges), and an edge left over at the end of the star is
    settled alone (a walk of one).

    Requires the fractional degree of every star to fit its capacity.  Every
    run lands each star's degree in {floor(sum), ceil(sum)}; per-edge
    inclusion probability equals x_e exactly.
    """
    x = np.asarray(x, dtype=float)
    rng = _as_rng(seed)
    degree = np.bincount(inst.edge_u, weights=x, minlength=inst.n_offline)
    over = np.flatnonzero(degree > inst.capacity_array + 1e-9)
    if len(over):
        raise ValueError(
            f"fractional degree exceeds capacity at {inst.offline_ids[over[0]]!r}"
        )
    p = x.tolist()
    for star in inst.edges_at_u:
        carried: list[int] = []
        for e in star.tolist():
            if _fractional(p[e]):
                carried.append(e)
                if len(carried) == 2:
                    _shift(p, carried, rng)
                    carried = [f for f in carried if _fractional(p[f])]
        if carried:
            _shift(p, carried, rng)
    return np.array(p) > 0.5


def _fractional_walk(adj: dict[int, list[int]], edge_ends) -> list[int]:
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
    matching: apply the pairing step along alternating paths/cycles of the
    fractional support until integral.  Offline degrees never exceed
    capacities; online degrees never exceed the ceiling of their fractional
    bound.
    """
    x = np.array(x, dtype=float)
    rng = _as_rng(seed)
    n_u = inst.n_offline
    edge_ends = [(int(u), n_u + int(v)) for u, v in zip(inst.edge_u, inst.edge_v)]
    frac_edges = {e for e in range(inst.n_edges) if _fractional(x[e])}
    while frac_edges:
        adj: dict[int, list[int]] = {}
        for e in frac_edges:
            a, b = edge_ends[e]
            adj.setdefault(a, []).append(e)
            adj.setdefault(b, []).append(e)
        for lst in adj.values():
            lst.sort()
        walk = _fractional_walk(adj, edge_ends)
        _shift(x, walk, rng)
        frac_edges.difference_update(e for e in walk if not _fractional(x[e]))
    return x > 0.5
