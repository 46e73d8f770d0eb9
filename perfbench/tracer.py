"""Span tracer for the benchmark's traced run, and the per-layer metrics
computed from its spans.

The tracer wraps the public functions of each osbm module by replacing the
module attribute (and the same object wherever another osbm module imported
it by name), so nothing under ``src/`` changes.  Spans are kept in memory and
written out as JSON lines when the traced command ends.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

POLICIES = ("marginal-sampling", "contention-resolution", "greedy",
            "dependent-rounding")
ETAS = (1, 2)
LAYERS = ("lp", "objectives", "offline", "rounding", "online", "instances", "cli")
TIME_UNITS = ("s", "ms", "us", "1/s")
# Times of calls that every workload makes.  A layer a workload skips (the
# ascent's `offline`, `objectives.batch_gradient` and `multilinear_mc` on
# budget-sweep) reads exactly 0 s on every run of it, so the result line
# carries those layers as shares of the traced time and as call counts; their
# times are printed only.
RESULT_TIMES = frozenset({
    "trace.total_s", "lp.self_s", "objectives.self_s", "rounding.self_s", "online.self_s",
    "instances.self_s", "cli.self_s",
    "lp.solve.s", "lp.solve.s_p50", "lp.solve.s_max", "lp.solve.us_per_pivot",
    "lp.build.s", "objectives.coordinate_gains.s", "objectives.value.s",
    "rounding.dependent_round_stars.s", "rounding.sample_support.s",
    "instances.generate_synthetic.s", "instances.load_problem.s",
    "instances.sample_arrivals.s",
    *(f"online.{m}.{p}" for m in ("trials_per_s", "arrivals_per_s") for p in POLICIES),
    *(f"online.run_trial.ms_p50.{p}.eta1" for p in POLICIES),
})


def _note_solve(args, kwargs, result):
    rows, cols = args[0].A.shape
    return {"pivots": int(result.iterations), "status": result.status,
            "rows": int(rows), "cols": int(cols)}


def _note_simulate(args, kwargs, result):
    return {"policy": result.policy, "trials": int(result.trials)}


def _note_trial(args, kwargs, result):
    policy, inst, _objective, seq = args[:4]
    matched = result[1]
    return {"policy": policy.name, "eta": int(inst.eta),
            "arrivals": int(len(seq.arrival_times)),
            "commits": len(matched), "repeats": len(matched) - len(set(matched))}


def _note_arrivals(args, kwargs, result):
    return {"arrivals": int(len(result.arrival_times))}


# (module, attribute, span name, note taken from the call and its result)
FUNCTIONS = (
    ("osbm.lp", "solve", "lp.solve", _note_solve),
    ("osbm.lp", "build_special_lp", "lp.build", None),
    ("osbm.lp", "build_matching_lmo", "lp.build", None),
    ("osbm.lp", "saturate_marginals", "lp.saturate_marginals", None),
    ("osbm.lp", "solve_offline_lp", "lp.solve_offline_lp", None),
    ("osbm.objectives", "batch_gradient", "objectives.batch_gradient", None),
    ("osbm.objectives", "multilinear_mc", "objectives.multilinear_mc", None),
    ("osbm.offline", "continuous_greedy", "offline.continuous_greedy", None),
    ("osbm.offline", "save_solution", "offline.save_solution", None),
    ("osbm.rounding", "dependent_round_stars", "rounding.dependent_round_stars", None),
    ("osbm.rounding", "sample_support", "rounding.sample_support", None),
    ("osbm.online", "simulate", "online.simulate", _note_simulate),
    ("osbm.online", "run_trial", "online.run_trial", _note_trial),
    ("osbm.instances", "generate_synthetic", "instances.generate_synthetic", None),
    ("osbm.instances", "load_problem", "instances.load_problem", None),
    ("osbm.instances", "sample_arrivals", "instances.sample_arrivals", _note_arrivals),
)
# methods wrapped on every objectives class that defines them
METHODS = (
    ("osbm.objectives", "value", "objectives.value"),
    ("osbm.objectives", "coordinate_gains", "objectives.coordinate_gains"),
)


class Tracer:
    """Records spans as [name, start, end, parent index, notes]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                rec[4] = {"raised": True}
                raise
            rec[2] = clock()
            stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, note in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(name, original, note)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("osbm") and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
        for module_name, attr, name in METHODS:
            mod = importlib.import_module(module_name)
            for cls in vars(mod).values():
                if isinstance(cls, type) and attr in cls.__dict__:
                    setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, notes) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run": self.run_id}
                if notes:
                    rec.update(notes)
                fh.write(json.dumps(rec) + "\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run."""
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            child_time[s["parent"]] += d
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    def calls(name):
        return len(by_name[name])

    def total(name, outermost=False):
        # outermost: skip spans nested in a span of the same name
        return sum(dur[i] for i in by_name[name]
                   if not (outermost and spans[i]["parent"] >= 0
                           and spans[spans[i]["parent"]]["name"] == name))

    out: dict[str, tuple[float, str]] = {}

    traced_s = sum(d for s, d in zip(spans, dur) if s["parent"] < 0)
    out["trace.total_s"] = (traced_s, "s")
    for layer in LAYERS:
        self_s = sum(dur[i] - child_time[i] for i, s in enumerate(spans)
                     if s["name"].split(".")[0] == layer)
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.self_share"] = (self_s / traced_s, "ratio")

    solves = [spans[i] for i in by_name["lp.solve"]]
    solve_s = [dur[i] for i in by_name["lp.solve"]]
    pivots = sum(s.get("pivots", 0) for s in solves)
    out["lp.solve.calls"] = (len(solves), "count")
    out["lp.solve.s"] = (sum(solve_s), "s")
    out["lp.solve.s_p50"] = (quantile(solve_s, 0.5), "s")
    out["lp.solve.s_max"] = (max(solve_s, default=0.0), "s")
    out["lp.solve.pivots"] = (pivots, "count")
    out["lp.solve.us_per_pivot"] = (1e6 * sum(solve_s) / pivots if pivots else 0.0, "us")
    out["lp.solve.nonoptimal"] = (sum(s.get("status") != "optimal" for s in solves), "count")
    out["lp.solve.tableau_mb_max"] = (max(
        (s["rows"] * (s["cols"] + s["rows"]) * 8 / 1e6 for s in solves
         if "rows" in s), default=0.0), "MB")
    out["lp.build.s"] = (total("lp.build", outermost=True), "s")
    for name in ("lp.saturate_marginals", "lp.solve_offline_lp"):
        out[f"{name}.s"] = (total(name), "s")

    for name in ("objectives.batch_gradient", "objectives.coordinate_gains",
                 "objectives.multilinear_mc", "objectives.value",
                 "rounding.dependent_round_stars", "rounding.sample_support",
                 "instances.sample_arrivals"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (total(name, outermost=True), "s")

    greedy_runs = by_name["offline.continuous_greedy"]
    out["offline.continuous_greedy.s"] = (total("offline.continuous_greedy"), "s")
    out["offline.continuous_greedy.steps"] = (sum(
        1 for i in by_name["lp.solve"] if spans[i]["parent"] in greedy_runs), "count")
    out["offline.save_solution.s"] = (total("offline.save_solution"), "s")

    trials = [spans[i] | {"ms": 1e3 * dur[i]} for i in by_name["online.run_trial"]]
    sim_s = defaultdict(float)
    for i in by_name["online.simulate"]:
        sim_s[spans[i].get("policy")] += dur[i]
    for policy in POLICIES:
        mine = [t for t in trials if t["policy"] == policy]
        secs = sim_s[policy]
        out[f"online.simulate.s.{policy}"] = (secs, "s")
        out[f"online.simulate.share.{policy}"] = (secs / traced_s, "ratio")
        out[f"online.trials_per_s.{policy}"] = (len(mine) / secs if secs else 0.0, "1/s")
        out[f"online.arrivals_per_s.{policy}"] = (
            sum(t["arrivals"] for t in mine) / secs if secs else 0.0, "1/s")
        for eta in ETAS:
            ms = [t["ms"] for t in mine if t["eta"] == eta]
            key = f"{policy}.eta{eta}"
            out[f"online.run_trial.samples.{key}"] = (len(ms), "count")
            out[f"online.run_trial.ms_p50.{key}"] = (quantile(ms, 0.50), "ms")
            out[f"online.run_trial.ms_p99.{key}"] = (quantile(ms, 0.99), "ms")
    commits = sum(t["commits"] for t in trials)
    out["online.commits"] = (commits, "count")
    out["online.repeat_commit_share"] = (
        sum(t["repeats"] for t in trials) / commits if commits else 0.0, "ratio")

    out["instances.generate_synthetic.s"] = (total("instances.generate_synthetic"), "s")
    out["instances.load_problem.s"] = (total("instances.load_problem"), "s")
    out["instances.arrivals"] = (sum(
        spans[i].get("arrivals", 0) for i in by_name["instances.sample_arrivals"]), "count")
    return out


def result_metrics(metrics: dict) -> dict:
    """The subset of layer_metrics the result line carries: every count,
    size and share, and the times in RESULT_TIMES."""
    return {k: v for k, v in metrics.items()
            if v[1] not in TIME_UNITS or k in RESULT_TIMES}
