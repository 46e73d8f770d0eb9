"""Self-test of the benchmark at toy size.

Usage (from the repository root):

    python3 perfbench/selftest.py

It checks that:
1. every workload, run at toy size with --trace 0 and --trace 1, carries
   exactly the metrics BENCHMARK.json names in its result line and prints
   each of them, and every layer metric of a traced run, with its unit, with
   no failed operation and no time in the result line that reads 0;
2. a corrupted output (a perturbed benchmark_value, a ratio above 1, an
   infeasible x) is counted as a failed operation and the run is not passed;
3. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
from run import Step, Workload

TOY = {
    "budget-sweep": Workload("budget-additive", (
        Step("experiment", b=(1, 2), eta=(1, 2), trials=3),)),
    "coverage-sweep-ascent": Workload("coverage", (
        Step("experiment", b=(15,), eta=(1,), trials=3),
        Step("offline", steps=2, grad_samples=2))),
}
SEED = 5


def declared(trace: bool) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_toy(workload: str, trace: bool) -> tuple[int, str, dict]:
    """(exit code, stdout, result object) of one toy-size benchmark call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                       "--trace", str(int(trace))])
    text = out.getvalue()
    return rc, text, json.loads(text.strip().splitlines()[-1])


def check_metrics(workload: str, trace: bool) -> list[str]:
    rc, text, result = run_toy(workload, trace)
    problems = []
    if rc != 0 or not result["correct"] or result["failed"] != 0:
        problems.append(f"rc={rc} correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    printed = dict(declared(trace))
    if trace:  # the traced run also prints the layer times the result line leaves out
        layers = run.OUT / f"{workload}-seed{SEED}-trace1" / "layers.json"
        printed.update((k, u) for k, (_, u) in json.loads(layers.read_text()).items())
    for name, unit in declared(trace).items():
        if name not in metrics:
            problems.append(f"{name} missing from the result")
        elif metrics[name]["unit"] != unit:
            problems.append(f"{name} unit {metrics[name]['unit']!r} != {unit!r}")
    for name, unit in printed.items():
        if not re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}$", text, re.M):
            problems.append(f"{name} not printed with its unit")
    zero_times = [k for k, m in metrics.items()
                  if m["value"] == 0 and (not trace or m["unit"] in tracer.TIME_UNITS)]
    if zero_times:
        problems.append(f"times that read 0: {zero_times}")
    extra = set(metrics) - set(declared(trace))
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    if "\nerror_rate 0 (failed 0 / attempted " not in text:
        problems.append("error_rate line missing or non-zero")
    return problems


def edit_first_row(path: Path, column: str, edit) -> None:
    """Rewrite one field of the first data row of a CSV report."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if ln.startswith("algorithm,"))
    k = lines[header].rstrip("\n").split(",").index(column)
    row = lines[header + 1].rstrip("\n").split(",")
    row[k] = edit(row[k])
    lines[header + 1] = ",".join(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def perturb_benchmark_value(path: Path) -> None:
    edit_first_row(path, "benchmark_value", lambda v: repr(float(v) * (1 + 1e-4)))


def raise_ratio(path: Path) -> None:
    edit_first_row(path, "ratio", lambda v: "1.01")


def infeasible_x(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if ln.startswith("x "))
    eid = lines[k].split()[1]
    lines[k] = f"x {eid} 1.5\n"
    path.write_text("".join(lines), encoding="utf-8")


def check_corruption(workload: str, corrupt, output: str) -> list[str]:
    """Corrupt one output file of the run's first repetition before it is
    checked; the run must fail.  The other lane's clean repetition may fail
    too, as its bytes differ from the corrupted first one."""
    original = run.run_rep
    pending = [corrupt]

    def corrupted_rep(*args, **kwargs):
        result = original(*args, **kwargs)
        if pending:
            pending.pop()(next(p for p in result["outputs"] if p.name == output))
        return result

    run.run_rep = corrupted_rep
    try:
        rc, _, result = run_toy(workload, trace=False)
    finally:
        run.run_rep = original
    if rc == 0 or result["correct"] or result["failed"] < 1 or result["metrics"]:
        return [f"{corrupt.__name__} passed: rc={rc} result={result}"]
    return []


def check_bare_directory() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "budget-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: rc={proc.returncode} stdout={proc.stdout!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORKLOADS = TOY
    checks = [(f"metrics {w} trace={t}", lambda w=w, t=t: check_metrics(w, t))
              for w in TOY for t in (False, True)]
    checks += [
        ("perturbed benchmark_value fails",
         lambda: check_corruption("budget-sweep", perturb_benchmark_value, "report.csv")),
        ("ratio above 1 fails",
         lambda: check_corruption("coverage-sweep-ascent", raise_ratio, "report.csv")),
        ("infeasible x fails",
         lambda: check_corruption("coverage-sweep-ascent", infeasible_x, "marginals.x")),
        ("bare directory exits non-zero", check_bare_directory),
    ]
    failed = 0
    for label, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}")
        for p in problems:
            print(f"    {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
