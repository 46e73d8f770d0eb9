"""Randomized rounding primitives feeding the online policies.

Four seeded operations: independent per-edge sampling, uniform thinning of
each offline star to at most its capacity, star-wise dependent rounding,
and pipage rounding of a whole fractional b-matching.  Each takes a seed or
a Generator, which ``np.random.default_rng`` passes through unchanged, so
one generator can feed several operations in turn; dependent rounding also
takes a list of generators, one per trial of a batch.

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


def _as_rngs(seed) -> tuple[list[np.random.Generator], bool]:
    """The trials of a `dependent_round_stars` call: a list of generators is
    a batch, one generator each; any other seed is a single trial.  Returns
    the generators and whether the call was batched."""
    if isinstance(seed, list) and all(isinstance(g, np.random.Generator)
                                      for g in seed):
        return seed, True
    return [np.random.default_rng(seed)], False


@dataclass(frozen=True, eq=False)
class SampledSupport:
    """Sampled edge support X and its per-star thinned selection Y <= X."""

    X: np.ndarray  # bool per edge
    Y: np.ndarray  # bool per edge; at most b_u true edges in the star of u


def independent_sample(x, seed) -> np.ndarray:
    """Include each edge independently with probability x_e."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    return rng.random(len(x)) < x


def select_per_star(X, inst: Instance, seed) -> np.ndarray:
    """Thin X star by star: at every offline vertex u with k sampled incident
    edges, keep a uniform subset of min(b_u, k) of them; selections are
    independent across stars.

    At b_u = 1 this is the one-edge-per-star selection of contention
    resolution.  For b_u > 1 it is its direct b-matching analogue (the
    source documents state only the capacity-1 form), so each present edge
    survives with probability min(b_u, k)/k.  Randomness is drawn only in
    stars with k > b_u, in star order: one ``integers(k)`` per such star at
    b_u = 1, otherwise one ``permutation(k)``.
    """
    X = np.asarray(X, dtype=bool)
    rng = np.random.default_rng(seed)
    # present edges grouped by star, each star's edges in index order
    present = inst.edges_by_u[X[inst.edges_by_u]]
    k = np.bincount(inst.edge_u[present], minlength=inst.n_offline)
    first = np.cumsum(k) - k  # position of each star's first present edge
    cap = inst.capacity_array
    Y = X & (k <= cap)[inst.edge_u]
    for u in np.flatnonzero(k > cap).tolist():
        chosen = rng.permutation(k[u])[:cap[u]] if cap[u] > 1 \
            else rng.integers(k[u])
        Y[present[first[u] + chosen]] = True
    return Y


def sample_support(x, inst: Instance, seed) -> SampledSupport:
    """Sample X edge by edge, then thin it star by star into Y, both from
    one generator: X's ``random(m)`` first, then Y's thinning draws."""
    rng = np.random.default_rng(seed)
    X = independent_sample(x, rng)
    return SampledSupport(X=X, Y=select_per_star(X, inst, rng))


def _fractional(v: float) -> bool:
    return SNAP_TOL < v < 1.0 - SNAP_TOL


def _shift(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The pairing step: move mass along alternating walks of edges,
    keeping every edge's marginal.

    Row i of `p` holds the values of one walk's edges in walk order and
    r[i] is its uniform draw; all rows have the same length.  With
    probability down/(up+down) the even positions of a walk rise by `up`
    and the odd ones fall by `up`; otherwise they move the other way by
    `down`.  `up` and `down` are the largest moves that keep every value in
    [0, 1], so the expected move is zero and each step settles at least one
    edge.  Values within SNAP_TOL of 0 or 1 are snapped there.  Returns the
    shifted values.
    """
    even, odd = p[:, ::2], p[:, 1::2]
    up = np.minimum((1.0 - even).min(axis=1), odd.min(axis=1, initial=1.0))
    down = np.minimum(even.min(axis=1), (1.0 - odd).min(axis=1, initial=1.0))
    step = np.where(r < down / (up + down), up, -down)[:, None]
    q = p.copy()
    q[:, ::2] += step
    q[:, 1::2] -= step
    return np.where(q <= SNAP_TOL, 0.0, np.where(q >= 1.0 - SNAP_TOL, 1.0, q))


def dependent_round_stars(x, inst: Instance, seed) -> np.ndarray:
    """Round x star-by-star at each offline vertex into an integral edge set.

    One pass over each star's edges in index order: every fractional edge
    is paired with the fractional edge carried from the previous step (a
    walk of two edges), and an edge left over at the end of the star is
    settled alone (a walk of one).  Each walk draws one ``random()``.

    A list of generators rounds one trial per generator in one pass with a
    trials axis and returns a (trials, edges) mask.  Row i and generator
    i's state afterwards equal those of the call with generator i alone:
    each trial's draws are taken up front (at most one per fractional
    edge), and its generator is then rewound to just past the draws it used.

    Requires one entry of x per edge (else ValueError, from
    `Instance.loads`) and the fractional degree of every star to fit its
    capacity.  Every run lands each star's degree in {floor(sum),
    ceil(sum)}; per-edge inclusion probability equals x_e exactly.
    """
    x = np.asarray(x, dtype=float)
    rngs, batched = _as_rngs(seed)
    over = np.flatnonzero(inst.loads(x)[0] > inst.capacity_array + 1e-9)
    if len(over):
        raise ValueError(
            f"fractional degree exceeds capacity at {inst.offline_ids[over[0]]!r}"
        )
    stars = [[e for e in star.tolist() if _fractional(x[e])]
             for star in inst.edges_at_u]
    n, n_frac = len(rngs), sum(map(len, stars))
    states = [rng.bit_generator.state for rng in rngs]
    draws = np.empty((n, n_frac))
    for rng, row in zip(rngs, draws):
        rng.random(out=row)
    used = np.zeros(n, dtype=np.int64)  # draws taken by each trial
    rows = np.arange(n)
    chosen = np.tile(x > 0.5, (n, 1))

    def walk(p):
        # One walk per trial.  A trial whose carried edge has settled (to 0
        # or 1) makes a no-op walk that takes no draw: its step is 0 for
        # any draw, so the other edge keeps its value exactly.
        real = (p[:, 0] > 0.0) & (p[:, 0] < 1.0)
        q = _shift(p, draws[rows, used])
        used[real] += 1
        return q

    for star in stars:
        if not star:
            continue
        # each trial's carried edge and its current value; a settled edge's
        # entry in `chosen` is final, an unsettled one is rewritten later
        carried = np.full(n, star[0])
        value = np.full(n, x[star[0]])
        for e in star[1:]:
            q = walk(np.column_stack((value, np.full(n, x[e]))))
            chosen[rows, carried] = q[:, 0] > 0.5
            chosen[:, e] = q[:, 1] > 0.5
            keep = (q[:, 0] > 0.0) & (q[:, 0] < 1.0)
            carried = np.where(keep, carried, e)
            value = np.where(keep, q[:, 0], q[:, 1])
        chosen[rows, carried] = walk(value[:, None])[:, 0] > 0.5
    for rng, state, k in zip(rngs, states, used.tolist()):
        rng.bit_generator.state = state
        rng.random(k)
    return chosen if batched else chosen[0]


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
    rng = np.random.default_rng(seed)
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
        x[walk] = _shift(x[None, walk], rng.random(1))[0]
        frac_edges.difference_update(e for e in walk if not _fractional(x[e]))
    return x > 0.5
