"""One benchmark repetition in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the recipe, the instance path, the CPU to pin this process to
(or null), the osbm command lines to time, how many set-up passes to time
before and again after them, whether to trace, and where to write the
result.  The commands run in-process, one after another, through
``osbm.cli.main``; a command that exits non-zero stops the rest.  The result
JSON holds the last exit code, the wall time of all commands and of each, the
set-up times and the peak resident memory of this process.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout


def setup_pass(cli, load_problem, build_objective, recipe, recipe_seed, instance):
    """Generate the recipe, write and reload the instance file, build the
    objective: the work a run does before its first solve."""
    rc = cli.main(["generate", "--kind", recipe, "--seed", str(recipe_seed),
                   "--out", instance])
    if rc != 0:
        raise RuntimeError(f"osbm generate exited {rc}")
    build_objective(load_problem(instance))


def time_setup(setup_s, spec, cli, load_problem, build_objective) -> None:
    """Append the times of spec["setup_passes"] set-up passes to setup_s."""
    for _ in range(spec["setup_passes"]):
        t0 = time.perf_counter()
        setup_pass(cli, load_problem, build_objective, spec["recipe"],
                   spec["recipe_seed"], spec["instance"])
        setup_s.append(time.perf_counter() - t0)


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM).  Unlike ru_maxrss it does
    not inherit the parent's resident set from before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    from osbm import cli
    from osbm.instances import load_problem
    from osbm.objectives import build_objective

    log = io.StringIO()  # the command's own stdout; the parent keeps its own clean
    tracer = None
    setup_s = []
    with redirect_stdout(log):
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer(spec["run_id"])
            tracer.install()
            tracer.wrap("cli.generate", setup_pass)(
                cli, load_problem, build_objective, spec["recipe"], spec["recipe_seed"],
                spec["instance"])
            commands = [tracer.wrap(f"cli.{argv[0]}", cli.main) for argv in spec["commands"]]
        else:
            time_setup(setup_s, spec, cli, load_problem, build_objective)
            commands = [cli.main] * len(spec["commands"])
        rc, command_s = 0, []
        for command, argv in zip(commands, spec["commands"]):
            t0 = time.perf_counter()
            rc = command(argv)
            command_s.append(time.perf_counter() - t0)
            if rc != 0:
                break
        if tracer is None and rc == 0:
            # the host's speed drifts over seconds: sample set-up at a second moment
            time_setup(setup_s, spec, cli, load_problem, build_objective)
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "wall_s": sum(command_s), "command_s": command_s,
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                   "log": log.getvalue()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
