"""Online submodular bipartite matching under known-i.i.d. arrivals.

Offline phase: maximize the multilinear extension of a monotone submodular
edge objective over the bipartite b-matching polytope (fractional ascent
with a built-in simplex oracle, or, for the closed-form objective kinds,
an epigraph program of a concave relaxation).  Online phase: guided and
heuristic policies replayed over seeded arrival streams, with empirical
competitive ratios against certified benchmark upper bounds.
"""

from .instances import (
    ArrivalSequence,
    EdgeFeatures,
    Instance,
    Problem,
    build_instance,
    generate_synthetic,
    ingest_ratings,
    load_problem,
    sample_arrivals,
    save_problem,
    validate,
)
from .objectives import (
    BudgetAdditiveObjective,
    CoverageObjective,
    LinearObjective,
    PerUserCoverageObjective,
    SubmodularObjective,
    build_objective,
    multilinear_exact,
    multilinear_mc,
)
from .lp import (
    LinearProgram,
    LpSolution,
    build_matching_lmo,
    build_special_lp,
    saturate_marginals,
    solve,
    solve_offline_lp,
)
from .offline import (
    OfflineSolution,
    compute_benchmark,
    continuous_greedy,
    expected_opt,
    hindsight_optimal,
)
from .rounding import (
    SampledSupport,
    dependent_round_stars,
    independent_sample,
    pipage_round,
    sample_support,
    select_per_star,
)
from .online import (
    RunMetrics,
    make_policy,
    run_trial,
    simulate,
)

__version__ = "0.1.0"
