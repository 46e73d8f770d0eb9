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
    InstanceError,
    Problem,
    generate_synthetic,
    ingest_ratings,
    load_problem,
    num,
    save_problem,
)
from .objectives import build_objective
from .offline import (
    SolutionError,
    compute_benchmark,
    continuous_greedy,
    load_solution,
    lp_guide,
    save_solution,
)
from .online import POLICY_NAMES, ArrivalStreams, simulate

# reference lines echoed in experiment reports: online-phase guarantee
# factors of the guided policies relative to the offline guide value
MARGINAL_SAMPLING_REFERENCE = 1.0 - 1.0 / math.e
CONTENTION_RESOLUTION_REFERENCE = 0.5 * (1.0 - math.exp(-0.5))


class UsageError(Exception):
    pass


def _int_at_least(low: int, what: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(1, "a positive integer", text)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(0, "a non-negative integer", text)


def _positive_int_list(text: str) -> list[int]:
    return [_positive_int(t) for t in text.split(",")]


def _algorithm_list(text: str) -> list[str]:
    names = [a.strip() for a in text.split(",")]
    for a in names:
        if a not in POLICY_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {a!r}; choose from {POLICY_NAMES}")
    return names


def _existing_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"file not found: {p}")
    return p


def _load(path: str) -> Problem:
    return load_problem(_existing_file(path))


def _kind_token(kind: str) -> str:
    return kind.replace("-", "_")


def _save(problem: Problem, out: str) -> int:
    save_problem(problem, out)
    inst = problem.instance
    print(f"wrote {out}: |U|={inst.n_offline} |V|={inst.n_online} "
          f"m={inst.n_edges} T={inst.horizon} objective={problem.kind}")
    return 0


def cmd_generate(args) -> int:
    return _save(generate_synthetic(_kind_token(args.kind), args.seed), args.out)


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
    return _save(problem, args.out)


def cmd_offline(args) -> int:
    problem = _load(args.instance)
    inst, objective = problem.instance, build_objective(problem)
    # the guide and its bound, as `offline` makes them; argparse's choices
    # leave continuous-greedy beside auto and lp
    sol = (lp_guide(objective, inst, seed=args.seed) if args.solver in ("auto", "lp")
           else continuous_greedy(objective, inst, steps=args.steps,
                                  grad_samples=args.grad_samples, seed=args.seed))
    save_solution(args.out, inst, sol)
    print(f"wrote {args.out}: solver={sol.solver} "
          f"objective-estimate={num(sol.objective_estimate)} "
          f"benchmark={sol.benchmark_kind}:{num(sol.benchmark_value)}")
    return 0


def cmd_simulate(args) -> int:
    problem = _load(args.instance)
    inst, objective = problem.instance, build_objective(problem)
    x_star, benchmark = None, None
    if args.x_star is not None:
        sol = load_solution(_existing_file(args.x_star), inst)
        x_star = sol.x
        if args.benchmark == sol.benchmark_kind:  # the guide's own bound
            benchmark = (sol.benchmark_kind, sol.benchmark_value)
    elif args.algorithm != "greedy":  # every other policy is guided
        raise UsageError(f"{args.algorithm} needs offline edge marginals")
    elif args.benchmark == "guide-scaled":
        raise UsageError("guide-scaled benchmark needs edge marginals")
    if benchmark is None:
        benchmark = compute_benchmark(args.benchmark, inst, objective, x_star=x_star,
                                      seed=args.seed)
    metrics = simulate(
        inst, objective, args.algorithm, x_star=x_star, trials=args.trials,
        seed=args.seed, benchmark=benchmark, workers=args.workers,
        allow_fractional_cr=args.allow_fractional_cr,
    )
    print(f"{metrics.policy}: mean={num(metrics.mean)} "
          f"std_error={num(metrics.std_error)} "
          f"benchmark={metrics.benchmark_kind}:{num(metrics.benchmark_value)} "
          f"ratio={num(metrics.ratio)}")
    return 0


CSV_COLUMNS = ("algorithm", "objective", "b", "eta", "trials", "mean",
               "std_error", "benchmark_kind", "benchmark_value", "ratio", "error")


def _report_row(algorithm: str, objective: str, b: int, eta: int, trials: int,
                benchmark_value: str = "", metrics=None, error: str = "") -> dict:
    """One experiment report row; without metrics, mean, std_error and ratio
    are empty."""
    stats = [""] * 3 if metrics is None else [
        num(metrics.mean), num(metrics.std_error), num(metrics.ratio)]
    return dict(algorithm=algorithm, objective=objective, b=b, eta=eta,
                trials=trials, mean=stats[0], std_error=stats[1],
                benchmark_kind="lp", benchmark_value=benchmark_value,
                ratio=stats[2], error=error)


def cmd_experiment(args) -> int:
    problem = _load(args.instance)
    objective = build_objective(problem)
    rows: list[dict] = []
    hist_rows: list[dict] = []
    streams = None  # the trials' arrival streams, drawn once for the sweep
    # matches are kept only for the histogram rows an objective can give
    hist = args.coverage_hist is not None and hasattr(objective, "user_cover_fractions")
    for eta in args.eta:
        for b in args.b:
            inst = problem.instance.with_capacities(b).with_eta(eta)
            try:
                x_star, benchmark_value, _ = lpmod.solve_offline_lp(inst, objective)
            except Exception as exc:  # record the cell, keep sweeping
                rows += [_report_row(name, problem.kind, b, eta, 0, error=str(exc))
                         for name in args.algorithms]
                continue
            for name in args.algorithms:
                try:
                    if streams is None:
                        streams = ArrivalStreams(inst, args.seed, args.trials)
                    metrics = simulate(
                        inst, objective, name, x_star=x_star, trials=args.trials,
                        seed=args.seed, benchmark=("lp", benchmark_value),
                        workers=args.workers, allow_fractional_cr=True,
                        keep_matches=hist, streams=streams,
                    )
                    rows.append(_report_row(name, problem.kind, b, eta, args.trials,
                                            num(benchmark_value), metrics))
                    if hist:
                        hist_rows.extend(_coverage_histogram_rows(
                            objective, metrics, name, b, eta))
                except Exception as exc:
                    rows.append(_report_row(name, problem.kind, b, eta, args.trials,
                                            num(benchmark_value), error=str(exc)))

    header_lines = [
        f"# reference marginal-sampling {num(MARGINAL_SAMPLING_REFERENCE)}",
        f"# reference contention-resolution {num(CONTENTION_RESOLUTION_REFERENCE)}",
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


def _coverage_histogram_rows(objective, metrics, name: str, b: int, eta: int) -> list[dict]:
    """Mean per-bucket user counts of covered-weight fractions over trials."""
    buckets = 10
    counts = np.zeros(buckets)
    for matched in metrics.matches:
        fractions = objective.user_cover_fractions(matched)
        idx = np.minimum((fractions * buckets).astype(int), buckets - 1)
        counts += np.bincount(idx, minlength=buckets)
    counts /= len(metrics.matches)
    return [
        dict(algorithm=name, b=b, eta=eta, bucket_lo=num(k / buckets),
             bucket_hi=num((k + 1) / buckets), mean_user_count=num(counts[k]))
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
    p.add_argument("--seed", type=_nonnegative_int, default=0)
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
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("offline", help="solve the offline phase into a marginals artifact")
    p.add_argument("--instance", required=True)
    p.add_argument("--solver", choices=["auto", "lp", "continuous-greedy"],
                   default="auto")
    p.add_argument("--steps", type=_positive_int, default=100)
    p.add_argument("--grad-samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("simulate", help="replay one policy over seeded trials")
    p.add_argument("--instance", required=True)
    p.add_argument("--x-star", default=None,
                   help="marginals artifact from the offline step")
    p.add_argument("--algorithm", required=True, choices=list(POLICY_NAMES))
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--benchmark", choices=["lp", "brute", "guide-scaled"],
                   default="lp")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--allow-fractional-cr", action="store_true",
                   help="run contention-resolution despite non-integral rates")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="sweep (algorithm, b, eta) cells into CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithms", type=_algorithm_list,
                   default=",".join(POLICY_NAMES))
    p.add_argument("--b", type=_positive_int_list, default="1,2,3,5,10,15")
    p.add_argument("--eta", type=_positive_int_list, default="1")
    p.add_argument("--trials", type=_positive_int, default=500)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
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
    except (UsageError, IngestError, InstanceError, SolutionError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
