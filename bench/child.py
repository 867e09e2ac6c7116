"""Scoring child: runs the benchmark's CLI commands inside one process.

    python3 bench/child.py PLAN RESULT

Imports quam.cli (and, for a traced plan, the tracer), then runs the
plan's rounds one command at a time through quam.cli.main with --jobs 1.
It starts another round while the plan's time budget is not yet spent and
rounds remain, so it always ends on a whole round.  RESULT receives the
import time, each command's wall time, exit code and status line, the
peak resident memory and, when traced, the raw trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as f:
        plan = json.load(f)
    t0 = time.perf_counter()
    import quam.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    commands = []
    start = time.perf_counter()
    rounds_done = 0
    for r, commands_of_round in enumerate(plan["rounds"]):
        if r and time.perf_counter() - start >= plan["seconds"]:
            break
        for k, cmd in enumerate(commands_of_round):
            commands.append(run_command(quam.cli.main, plan, cmd, os.path.join(plan["dir"], f"r{r:03d}_{k:03d}")))
        rounds_done += 1

    result = {
        "import_s": import_s,
        "rounds": rounds_done,
        "commands": commands,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.raw() if tracer else None,
    }
    with open(result_path, "w") as f:
        json.dump(result, f)


def run_command(cli_main, plan: dict, cmd: dict, out: str) -> dict:
    """Write one command's inputs, then time quam.cli.main on them."""
    os.makedirs(out)
    config = plan["configs"][cmd["config"]]
    for name, path in plan["paths"].items():
        config = config.replace("{" + name + "}", path)
    if "points" in cmd:
        points = os.path.join(out, "points.csv")
        with open(points, "w") as f:
            f.write(",".join(f"x{i}" for i in range(len(cmd["points"][0]))) + "\n")
            f.writelines(",".join(repr(float(v)) for v in p) + "\n" for p in cmd["points"])
        config = config.replace("{points}", points)
    config_path = os.path.join(out, "config.ini")
    with open(config_path, "w") as f:
        f.write(config)
    argv = [cmd["command"], "--config", config_path, "--jobs", "1", "--out", out]
    if "seed" in cmd:
        argv += ["--seed", str(cmd["seed"])]
    captured = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli_main(argv)
    wall = time.perf_counter() - t0
    lines = captured.getvalue().strip().splitlines()
    return {"out": out, "exit": code, "wall_s": wall, "status": json.loads(lines[-1]) if lines else None}


if __name__ == "__main__":
    main(*sys.argv[1:3])
