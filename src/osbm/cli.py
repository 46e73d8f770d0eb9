"""Command-line front end: generate/ingest an instance, solve the offline
phase into a reusable marginals artifact, simulate policies, and sweep
(b, eta) grids into CSV reports.

Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags or
missing/malformed input files).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import lp as lpmod
from .instances import (
    IngestError,
    Problem,
    generate_synthetic,
    ingest_ratings,
    load_problem,
    save_problem,
)
from .objectives import build_objective, multilinear_exact, multilinear_mc
from .offline import (
    OfflineSolution,
    SolutionError,
    continuous_greedy,
    load_solution,
    save_solution,
)
from .online import POLICY_NAMES, simulate

# reference lines echoed in experiment reports: online-phase guarantee
# factors of the guided policies relative to the offline guide value
MARGINAL_SAMPLING_REFERENCE = 1.0 - 1.0 / math.e
CONTENTION_RESOLUTION_REFERENCE = 0.5 * (1.0 - math.exp(-0.5))


class UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _existing_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"file not found: {p}")
    return p


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _load(path: str) -> Problem:
    return load_problem(_existing_file(path))


def _kind_token(kind: str) -> str:
    return kind.replace("-", "_")


def cmd_generate(args) -> int:
    problem = generate_synthetic(_kind_token(args.kind), args.seed)
    save_problem(problem, args.out)
    inst = problem.instance
    print(f"wrote {args.out}: |U|={inst.n_offline} |V|={inst.n_online} "
          f"m={inst.n_edges} T={inst.horizon} objective={problem.kind}")
    return 0


def cmd_ingest(args) -> int:
    problem = ingest_ratings(
        _existing_file(args.ratings),
        _existing_file(args.genres),
        num_users=args.users,
        num_movies=args.movies,
        horizon=args.horizon,
        rates_mode=args.rates,
        seed=args.seed,
    )
    violations = problem.validate()
    for v in violations:
        print(f"warning: {v}", file=sys.stderr)
    save_problem(problem, args.out)
    inst = problem.instance
    print(f"wrote {args.out}: |U|={inst.n_offline} |V|={inst.n_online} "
          f"m={inst.n_edges} T={inst.horizon} objective={problem.kind}")
    return 0


def _solve_offline(problem: Problem, solver: str, steps: int, grad_samples: int,
                   seed: int) -> OfflineSolution:
    inst = problem.instance
    objective = build_objective(problem)
    if solver == "auto":
        solver = "lp"
    if solver == "lp":
        x, value, _ = lpmod.solve_offline_lp(inst, objective)
        if problem.kind == "linear":
            est, se = float(objective.weights @ x), 0.0
        elif inst.n_edges <= 20:
            est, se = multilinear_exact(objective, x), 0.0
        else:
            est, se = multilinear_mc(
                objective, x, samples=min(2000, 200 + inst.n_edges), seed=seed)
        return OfflineSolution(
            x=x, objective_estimate=est, estimate_std_error=se, solver="lp",
            seed=seed, benchmark_kind="lp", benchmark_value=value,
        )
    if solver == "continuous-greedy":
        sol = continuous_greedy(objective, inst, steps=steps,
                                grad_samples=grad_samples, seed=seed)
        sol.benchmark_kind = "guide-scaled"
        sol.benchmark_value = sol.objective_estimate * math.e / (math.e - 1.0)
        return sol
    raise UsageError(f"unknown solver {solver!r}")


def cmd_offline(args) -> int:
    problem = _load(args.instance)
    sol = _solve_offline(problem, args.solver, args.steps, args.grad_samples,
                         args.seed)
    save_solution(args.out, problem.instance, sol)
    print(f"wrote {args.out}: solver={sol.solver} "
          f"objective-estimate={_num(sol.objective_estimate)} "
          f"benchmark={sol.benchmark_kind}:{_num(sol.benchmark_value)}")
    return 0


def cmd_simulate(args) -> int:
    problem = _load(args.instance)
    inst = problem.instance
    objective = build_objective(problem)
    x_star = None
    benchmark: str | tuple[str, float] = args.benchmark
    if args.x_star is not None:
        sol = load_solution(_existing_file(args.x_star), inst)
        x_star = sol.x
        if args.benchmark == sol.benchmark_kind and sol.benchmark_value is not None:
            benchmark = (sol.benchmark_kind, sol.benchmark_value)
    metrics = simulate(
        inst, objective, args.algorithm, x_star=x_star, trials=args.trials,
        seed=args.seed, benchmark=benchmark, workers=args.workers,
        allow_fractional_cr=args.allow_fractional_cr,
    )
    print(f"{metrics.policy}: mean={_num(metrics.mean)} "
          f"std_error={_num(metrics.std_error)} "
          f"benchmark={metrics.benchmark_kind}:{_num(metrics.benchmark_value)} "
          f"ratio={_num(metrics.ratio)}")
    return 0


CSV_COLUMNS = ("algorithm", "objective", "b", "eta", "trials", "mean",
               "std_error", "benchmark_kind", "benchmark_value", "ratio", "error")


def cmd_experiment(args) -> int:
    problem = _load(args.instance)
    objective = build_objective(problem)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algorithms:
        if a not in POLICY_NAMES:
            raise UsageError(f"unknown algorithm {a!r}; choose from {POLICY_NAMES}")
    b_values = [int(b) for b in args.b.split(",")]
    eta_values = [int(h) for h in args.eta.split(",")]
    if any(b <= 0 for b in b_values) or any(h <= 0 for h in eta_values):
        raise UsageError("b and eta values must be positive")

    rows: list[dict] = []
    hist_rows: list[dict] = []
    for eta in eta_values:
        for b in b_values:
            inst = problem.instance.with_capacities(b).with_eta(eta)
            try:
                x_star, benchmark_value, _ = lpmod.solve_offline_lp(inst, objective)
            except Exception as exc:  # record the cell, keep sweeping
                for name in algorithms:
                    rows.append(dict(algorithm=name, objective=problem.kind, b=b,
                                     eta=eta, trials=0, mean="", std_error="",
                                     benchmark_kind="lp", benchmark_value="",
                                     ratio="", error=str(exc)))
                continue
            for name in algorithms:
                try:
                    metrics = simulate(
                        inst, objective, name, x_star=x_star, trials=args.trials,
                        seed=args.seed, benchmark=("lp", benchmark_value),
                        workers=args.workers, allow_fractional_cr=True,
                        keep_matches=args.coverage_hist is not None,
                    )
                    rows.append(dict(
                        algorithm=name, objective=problem.kind, b=b, eta=eta,
                        trials=args.trials, mean=_num(metrics.mean),
                        std_error=_num(metrics.std_error), benchmark_kind="lp",
                        benchmark_value=_num(benchmark_value),
                        ratio=_num(metrics.ratio), error="",
                    ))
                    if args.coverage_hist is not None and hasattr(
                            objective, "user_cover_fractions"):
                        hist_rows.extend(_coverage_histogram_rows(
                            objective, metrics, name, b, eta))
                except Exception as exc:
                    rows.append(dict(algorithm=name, objective=problem.kind, b=b,
                                     eta=eta, trials=args.trials, mean="",
                                     std_error="", benchmark_kind="lp",
                                     benchmark_value=_num(benchmark_value),
                                     ratio="", error=str(exc)))

    header_lines = [
        f"# reference marginal-sampling {_num(MARGINAL_SAMPLING_REFERENCE)}",
        f"# reference contention-resolution {_num(CONTENTION_RESOLUTION_REFERENCE)}",
    ]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")

    if args.coverage_hist is not None:
        with open(args.coverage_hist, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=("algorithm", "b", "eta", "bucket_lo", "bucket_hi",
                                "mean_user_count"), lineterminator="\n")
            writer.writeheader()
            writer.writerows(hist_rows)
        print(f"wrote {args.coverage_hist}: {len(hist_rows)} rows")
    return 0


def _coverage_histogram_rows(objective, metrics, name: str, b: int, eta: int,
                             buckets: int = 10) -> list[dict]:
    """Mean per-bucket user counts of covered-weight fractions over trials."""
    counts = np.zeros(buckets)
    for matched in metrics.matches:
        fractions = objective.user_cover_fractions(matched)
        idx = np.minimum((fractions * buckets).astype(int), buckets - 1)
        counts += np.bincount(idx, minlength=buckets)
    counts /= len(metrics.matches)
    return [
        dict(algorithm=name, b=b, eta=eta, bucket_lo=_num(k / buckets),
             bucket_hi=_num((k + 1) / buckets), mean_user_count=_num(counts[k]))
        for k in range(buckets)
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osbm",
        description="Online submodular bipartite matching: offline solvers, "
                    "online policies, experiment reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic instance file")
    p.add_argument("--kind", required=True,
                   choices=["coverage", "budget-additive"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="build an instance from ratings/genres files")
    p.add_argument("--ratings", required=True)
    p.add_argument("--genres", required=True)
    p.add_argument("--users", type=_positive_int, required=True)
    p.add_argument("--movies", type=_positive_int, required=True)
    p.add_argument("--horizon", type=_positive_int, default=None)
    p.add_argument("--rates", choices=["normalized", "integral"],
                   default="normalized")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("offline", help="solve the offline phase into a marginals artifact")
    p.add_argument("--instance", required=True)
    p.add_argument("--solver", choices=["auto", "lp", "continuous-greedy"],
                   default="auto")
    p.add_argument("--steps", type=_positive_int, default=100)
    p.add_argument("--grad-samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("simulate", help="replay one policy over seeded trials")
    p.add_argument("--instance", required=True)
    p.add_argument("--x-star", default=None,
                   help="marginals artifact from the offline step")
    p.add_argument("--algorithm", required=True, choices=list(POLICY_NAMES))
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--benchmark", choices=["lp", "brute", "guide-scaled"],
                   default="lp")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--allow-fractional-cr", action="store_true",
                   help="run contention-resolution despite non-integral rates")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="sweep (algorithm, b, eta) cells into CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithms", default=",".join(POLICY_NAMES))
    p.add_argument("--b", default="1,2,3,5,10,15")
    p.add_argument("--eta", default="1")
    p.add_argument("--trials", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--coverage-hist", default=None,
                   help="also write per-user coverage histogram CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, IngestError, SolutionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
