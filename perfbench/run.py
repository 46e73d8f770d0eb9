"""osbm benchmark: one workload per call, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload budget-sweep --seed 1 --seconds 60 --trace 0

Each repetition runs the workload's osbm commands, one after another, in a
fresh single-threaded process (``perfbench/worker.py``) through
``osbm.cli.main``.  Repetitions run in rounds: one per CPU at once, each
pinned to its CPU, so every timed repetition sees the same load.  With
``--trace 0`` rounds run back to back until ``--seconds`` is spent (at least
one) and the end-to-end metrics are medians over all repetitions.  With
``--trace 1`` one untraced and one traced round run, and the per-layer
metrics come from a traced repetition's spans.  Every repetition's outputs
are checked against an independent HiGHS solve after the timed rounds.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

The recipe instance is fixed (recipe seed 11, the ROADMAP baseline); --seed
drives the trial streams and gradient samples.  A fixed instance keeps the
work per run constant: the coverage epigraph LP at b=1 takes from 8 s to
47 s across recipe seeds 1-4 and 11.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
RECIPE_SEED = 11
SETUP_PASSES = 9
LANES = 2  # repetition loops run at once, one per CPU
DEADLINE_S = 165.0  # the whole run, children included, ends within this
REL_TOL = 1e-6
RATIO_CEILING = 1.0 + 1e-9
POLICIES = ("marginal-sampling", "contention-resolution", "greedy",
            "dependent-rounding")


@dataclass(frozen=True)
class Step:
    """One osbm command of a workload."""
    command: str              # experiment | offline
    b: tuple[int, ...] = (1,)
    eta: tuple[int, ...] = (1,)
    trials: int = 0           # experiment: trials per cell
    steps: int = 0            # offline: continuous-greedy steps
    grad_samples: int = 0

    @property
    def output(self) -> str:
        return "report.csv" if self.command == "experiment" else "marginals.x"

    def argv(self, instance: Path, out: Path, seed: int) -> list[str]:
        if self.command == "experiment":
            return ["experiment", "--instance", str(instance),
                    "--algorithms", ",".join(POLICIES),
                    "--b", ",".join(map(str, self.b)),
                    "--eta", ",".join(map(str, self.eta)),
                    "--trials", str(self.trials), "--seed", str(seed),
                    "--workers", "1", "--out", str(out)]
        return ["offline", "--instance", str(instance),
                "--solver", "continuous-greedy", "--steps", str(self.steps),
                "--grad-samples", str(self.grad_samples), "--seed", str(seed),
                "--out", str(out)]

    def cells(self) -> list[tuple[str, int, int]]:
        """The step's operations: one per sweep cell, or the one ascent solve."""
        if self.command != "experiment":
            return [("continuous-greedy", 1, 1)]
        return [(a, b, h) for h in self.eta for b in self.b for a in POLICIES]


@dataclass(frozen=True)
class Workload:
    """osbm commands run one after another on one recipe instance."""
    recipe: str               # osbm generate --kind
    commands: tuple[Step, ...]

    def cells(self) -> list[tuple[str, int, int]]:
        return [cell for step in self.commands for cell in step.cells()]


# budget-sweep: 170 trials give 6 x 170 = 1020 trials per (policy, eta),
# so the traced p99 has 10 trials beyond it.
# coverage-sweep-ascent: the coverage sweep, then the continuous-greedy ascent
# on the same instance, in one repetition.  Apart, the 4 s ascent alone spread
# past a 25% bound across runs on a host whose speed drifts over tens of seconds.
WORKLOADS = {
    "budget-sweep": Workload("budget-additive", (
        Step("experiment", b=(1, 2, 3, 5, 10, 15), eta=(1, 2), trials=170),)),
    "coverage-sweep-ascent": Workload("coverage", (
        Step("experiment", b=(1, 5, 15), eta=(1,), trials=50),
        Step("offline", steps=12, grad_samples=20))),
}


# -- output checks (outside the timed region) -------------------------------

def highs_optimum(program) -> float:
    """Optimum of an osbm LinearProgram by scipy's HiGHS."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    res = linprog(-program.c, A_ub=csr_matrix(program.A), b_ub=program.b,
                  bounds=np.column_stack([np.zeros(len(program.c)), program.upper]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -float(res.fun)


def reference_value(problem, b: int, eta: int) -> float:
    """The offline benchmark value of one sweep cell, solved independently."""
    from osbm.lp import build_matching_lmo, build_special_lp
    from osbm.objectives import build_objective

    inst = problem.instance.with_capacities(b).with_eta(eta)
    objective = build_objective(problem)
    if problem.kind == "budget_additive":
        return min(objective.budget,
                   highs_optimum(build_matching_lmo(inst, objective.weights)))
    return highs_optimum(build_special_lp(inst, objective))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def check_sweep(step: Step, report: Path, refs: dict) -> list[str]:
    """One message per failed cell of an experiment CSV report."""
    try:
        with open(report, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        seen = {(row["algorithm"], int(row["b"]), int(row["eta"])): row for row in rows}
    except (OSError, KeyError, ValueError) as exc:
        return [f"{cell}: unreadable report: {exc!r}" for cell in step.cells()]
    failures = []
    for cell in step.cells():
        row = seen.get(cell)
        why = _sweep_row_problem(step, row, refs[cell[1:]]) if row else "row missing"
        if why:
            failures.append(f"{cell}: {why}")
    return failures


def _sweep_row_problem(step: Step, row: dict, ref: float) -> str | None:
    if row["error"]:
        return f"error column: {row['error']}"
    try:
        trials = int(row["trials"])
        mean, bench, ratio = (float(row[k]) for k in ("mean", "benchmark_value", "ratio"))
    except ValueError as exc:
        return f"unparsable row: {exc}"
    if trials != step.trials:
        return f"trials {trials} != {step.trials}"
    if not _close(bench, ref):
        return f"benchmark_value {bench!r} != HiGHS {ref!r}"
    if not (0.0 < ratio <= RATIO_CEILING):
        return f"ratio {ratio!r} outside (0, 1]"
    if not math.isclose(ratio, mean / bench, rel_tol=1e-9):
        return f"ratio {ratio!r} != mean / benchmark_value"
    return None


def check_ascent(artifact: Path, problem, lp_optimum: float) -> list[str]:
    """Failures of a continuous-greedy marginals artifact."""
    import numpy as np
    from osbm.lp import feasible_for_matching
    from osbm.offline import load_solution

    inst = problem.instance
    try:
        sol = load_solution(artifact, inst)
    except (OSError, ValueError, IndexError) as exc:
        return [f"artifact does not reload: {exc}"]
    x = sol.x
    load_u = np.bincount(inst.edge_u, weights=x, minlength=inst.n_offline)
    load_v = np.bincount(inst.edge_v, weights=x, minlength=inst.n_online)
    independent = (np.all((x >= -1e-9) & (x <= 1 + 1e-9))
                   and np.all(load_u <= inst.capacity_array + 1e-9)
                   and np.all(load_v <= inst.eta * inst.rate_array + 1e-9))
    failures = []
    if not (feasible_for_matching(inst, x) and independent):
        failures.append("x is outside the b-matching polytope")
    est, se = sol.objective_estimate, sol.estimate_std_error
    if not (0.0 < est <= lp_optimum + 4.0 * se):
        failures.append(f"F(x) estimate {est!r} exceeds the concave relaxation "
                        f"{lp_optimum!r} + 4 x {se!r}")
    return failures


class Checker:
    """Checks each repetition's output; references are solved once per run."""

    def __init__(self, wl: Workload, instance: Path):
        from osbm.instances import load_problem
        self.wl = wl
        self.problem = load_problem(instance)
        pairs = {(b, h) for _, b, h in wl.cells()}
        self.refs = {p: reference_value(self.problem, *p) for p in sorted(pairs)}
        self.digests = {}

    def __call__(self, step: Step, output: Path) -> tuple[list[str], str]:
        """(failures, sha256 of the output file) of one step's output."""
        if step.command == "experiment":
            failures = check_sweep(step, output, self.refs)
        else:
            failures = check_ascent(output, self.problem, self.refs[(1, 1)])
        digest = sha256(output)
        if self.digests.setdefault(step, digest) != digest:
            failures.append("output bytes differ from the first repetition")
        return failures, digest


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- repetitions --------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(name: str, wl: Workload, seed: int, workdir: Path, rep: int,
            trace: bool, deadline: float, lane: int = 0, cpu: int | None = None) -> dict:
    """One repetition in a fresh process, pinned to ``cpu`` when given;
    returns the worker's result.  Each lane has its own instance file, each
    repetition its own output directory."""
    instance = workdir / f"lane{lane}" / f"{wl.recipe}.osbm"
    repdir = workdir / f"rep{rep}"
    instance.parent.mkdir(exist_ok=True)
    repdir.mkdir(exist_ok=True)
    outputs = [repdir / step.output for step in wl.commands]
    spec = {
        "recipe": wl.recipe, "recipe_seed": RECIPE_SEED, "instance": str(instance),
        "commands": [step.argv(instance, out, seed) for step, out in zip(wl.commands, outputs)],
        "setup_passes": SETUP_PASSES, "cpu": cpu,
        "trace": trace, "run_id": f"{name}-seed{seed}-rep{rep}",
        "spans": str(repdir / "spans.jsonl"), "result": str(repdir / "result.json"),
    }
    spec_path = repdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    Path(spec["result"]).unlink(missing_ok=True)
    base = {"rep": rep, "lane": lane, "traced": trace, "outputs": outputs, "instance": instance}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return base | {"rc": None, "error": "timed out"}
    if proc.returncode != 0:
        return base | {"rc": proc.returncode, "error": proc.stderr[-2000:]}
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    result.update(base, spans=Path(spec["spans"]))
    if result["rc"] != 0:
        result["error"] = f"osbm exited {result['rc']}: {proc.stderr[-2000:]}"
    return result


def lane_cpus() -> list[int | None]:
    """One CPU per lane: the first LANES CPUs this process may run on."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity control: one unpinned lane
        return [None]
    return cpus[:LANES]


def machine_info(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        git_sha = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "osbm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_sha": git_sha,
            "src_sha256": src.hexdigest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "recipe_seed": RECIPE_SEED, "seed": seed}


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    wl = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    print("machine " + json.dumps(machine_info(seed)), flush=True)
    for step in wl.commands:
        print(f"workload {name}: osbm "
              f"{' '.join(step.argv(Path('INSTANCE'), Path(step.output), seed))}", flush=True)

    cpus = lane_cpus()
    print(f"lanes {len(cpus)}: one repetition per CPU in each round, CPUs {cpus}", flush=True)
    reps: list[dict] = []

    def round_of_reps(traced: bool) -> list[dict]:
        """One repetition per lane, all started at once, so every CPU stays
        equally loaded while a repetition is timed."""
        first = len(reps)
        out: list[dict | None] = [None] * len(cpus)

        def lane(j: int) -> None:
            out[j] = run_rep(name, wl, seed, workdir, first + j, traced, deadline, j, cpus[j])

        threads = [threading.Thread(target=lane, args=(j,)) for j in range(len(cpus))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return out

    # traced runs make one untraced and one traced round; others add a round
    # only if it should end within --seconds
    measure_start = time.monotonic()
    round_s = 0.0
    for traced in ([False, True] if trace else itertools.repeat(False)):
        now = time.monotonic()
        if reps and not trace and (now - measure_start + round_s > seconds
                                   or now + 2 * round_s > deadline):
            break
        reps += round_of_reps(traced)
        round_s = max(round_s, time.monotonic() - now)
        if any("error" in r for r in reps):
            break

    # every output is checked after the timed rounds have ended
    tally = {"attempted": 0, "failed": 0}
    checker = None
    for result in reps:
        rep, ops = result["rep"], len(wl.cells())
        tally["attempted"] += ops
        if "error" in result:
            tally["failed"] += ops
            print(f"rep {rep} failed: {result['error']}", file=sys.stderr, flush=True)
            continue
        if checker is None:
            checker = Checker(wl, result["instance"])
        notes = []
        for step, output, secs in zip(wl.commands, result["outputs"], result["command_s"]):
            failures, digest = checker(step, output)
            tally["failed"] += min(len(step.cells()), len(failures))
            for msg in failures:
                print(f"rep {rep} check failed: {msg}", file=sys.stderr, flush=True)
            notes.append(f"{step.command} {secs:.4f} s, {output.name} sha256={digest}")
        print(f"rep {rep} lane {result['lane']}{' traced' if result['traced'] else ''}: "
              f"wall_s={result['wall_s']:.4f} ({'; '.join(notes)})", flush=True)

    attempted, failed = tally["attempted"], tally["failed"]
    print(f"error_rate {failed / attempted:.6g} (failed {failed} / attempted {attempted} "
          "operations; one operation = one sweep cell or one ascent solve)", flush=True)
    good = [r for r in reps if "error" not in r]
    traced_reps = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    ok = failed == 0 and len(good) == len(reps) and (not trace or bool(traced_reps))
    summary = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}
    if not ok:
        return summary
    if trace:
        import tracer
        layers = tracer.layer_metrics(tracer.load_spans(traced_reps[0]["spans"]))
        layers["trace_overhead"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                    / statistics.median(r["wall_s"] for r in untraced), "ratio")
        (workdir / "layers.json").write_text(json.dumps(layers, indent=1), encoding="utf-8")
        for key, (value, unit) in layers.items():
            print(f"{key} {value:.6g} {unit}", flush=True)
        metrics = tracer.result_metrics(layers)
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
            "setup_s": (statistics.median(s for r in good for s in r["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MiB"),
        }
        print(f"reps {len(good)}; wall_s per rep {[round(r['wall_s'], 4) for r in good]}; "
              "work per second = 1 / wall_s at this input size", flush=True)
        for key, (value, unit) in metrics.items():
            print(f"{key} {value:.6g} {unit}", flush=True)
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "osbm" / "cli.py").is_file():
        print(f"error: osbm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
