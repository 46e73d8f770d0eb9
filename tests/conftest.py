"""Shared builders for small randomized test instances."""

from __future__ import annotations

import numpy as np
import pytest

from osbm.instances import build_instance
from osbm.objectives import (
    BudgetAdditiveObjective,
    CoverageObjective,
    LinearObjective,
    PerUserCoverageObjective,
)


GOLDEN_NUMPY = "2.4.6"  # the numpy release every golden digest was recorded on

try:
    from hypothesis import settings
except ImportError:  # the property tests skip without hypothesis
    pass
else:
    # `--hypothesis-profile=ci`: a failing property prints the
    # @reproduce_failure blob that replays its example
    settings.register_profile("ci", print_blob=True)


def golden_note(name: str) -> str:
    """The failure message of a golden-digest check."""
    return (f"{name} differs from the digest recorded on numpy {GOLDEN_NUMPY} "
            f"(this run: numpy {np.__version__}); the digests cover sums made "
            "by numpy's own reductions, whose order another release may change")


def small_instance(rng: np.random.Generator, n_offline=None, n_online=None,
                   horizon=None, integral=False, max_degree=3):
    """Random bipartite instance small enough for exact oracles."""
    n_offline = n_offline or int(rng.integers(2, 7))
    n_online = n_online or int(rng.integers(2, 6))
    if integral:
        horizon = n_online
        rates = [1.0] * n_online
    else:
        horizon = horizon or int(rng.integers(n_online, 2 * n_online + 3))
        rates = (0.15 + 0.8 * rng.random(n_online)).tolist()
    edges = []
    k = 0
    for j in range(n_online):
        deg = int(rng.integers(1, min(max_degree, n_offline) + 1))
        for ui in sorted(rng.choice(n_offline, size=deg, replace=False).tolist()):
            edges.append((f"e{k}", f"u{ui}", f"v{j}"))
            k += 1
    return build_instance(
        offline=[(f"u{i}", 1) for i in range(n_offline)],
        online=list(zip((f"v{j}" for j in range(n_online)), rates)),
        edges=edges,
        horizon=horizon,
    )


def small_objective(kind: str, n_edges: int, rng: np.random.Generator,
                    n_features: int = 6):
    if kind == "linear":
        return LinearObjective(0.2 + rng.random(n_edges))
    if kind == "budget_additive":
        w = 0.2 + rng.random(n_edges)
        return BudgetAdditiveObjective(w, float(w.sum()) * 0.5)
    if kind in ("coverage", "per_user_coverage"):
        sets = [
            frozenset(rng.choice(n_features,
                                 size=int(rng.integers(1, min(4, n_features) + 1)),
                                 replace=False).tolist())
            for _ in range(n_edges)
        ]
        if kind == "coverage":
            return CoverageObjective(sets, 0.3 + rng.random(n_features))
        # three online types, each edge at a random one; features are genres
        return PerUserCoverageObjective(rng.integers(0, 3, size=n_edges), sets,
                                        0.3 + rng.random((3, n_features)))
    raise ValueError(kind)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
