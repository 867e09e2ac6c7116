"""Benchmark of the quam CLI: scoring throughput, set-up time, memory and
agreement with long-chain HMC, with every output checked independently.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout holding src/quam.  The set-up trains each reference the
workload needs in fresh `python3 -m quam.cli train` processes, several times
over.  A child process that imports only quam then runs the workload's
scoring commands through quam.cli.main, whole rounds at a time, until
--seconds have passed.  This process checks every output with check.py and
prints one JSON line: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same rounds
twice, once under the tracer and once without it, and reports the per-layer
metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import check as C
import tracer
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE_MAPS = os.path.join(HERE, "data", "hmc_reference.json")
SETUPS = 3  # fresh-process set-ups per run; setup_s is their median
MAX_ROUNDS = 100
CHILD_TIMEOUT_S = 170
# The negative differential entropy fault: the CLI reports it as a usage error.
FAULT = re.compile(r"^(total|aleatoric) must be nonnegative")


def child_env() -> dict:
    path = os.path.join(ROOT, "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def run_child(plan: dict, name: str, run_dir: str) -> dict:
    plan_path = os.path.join(run_dir, f"{name}_plan.json")
    result_path = os.path.join(run_dir, f"{name}_result.json")
    plan = dict(plan, dir=os.path.join(run_dir, name))
    os.makedirs(plan["dir"])
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path], env=child_env(), cwd=ROOT, stdout=sys.stderr, check=True, timeout=CHILD_TIMEOUT_S)
    with open(result_path) as f:
        return json.load(f)


def setup(workload, run_dir: str, traced: bool):
    """Train the workload's references; returns (checkpoint paths, set-up times, train trace)."""
    configs = {}
    for ref in workload.references:
        configs[ref] = os.path.join(run_dir, f"train_{ref}.ini")
        with open(configs[ref], "w") as f:
            f.write(W.train_config(ref))
    if traced:
        plan = {"trace": True, "seconds": 0, "configs": {r: W.train_config(r) for r in workload.references}, "paths": {}, "rounds": [[{"command": "train", "config": r} for r in workload.references]]}
        result = run_child(plan, "setup_traced", run_dir)
        for cmd in result["commands"]:
            C.expect(cmd["exit"] == 0, f"traced set-up failed: {cmd['status']}")
        return {r: os.path.join(c["out"], "model.ckpt") for r, c in zip(workload.references, result["commands"])}, [], result["trace"]
    times, paths = [], {}
    for k in range(SETUPS):
        t0 = time.perf_counter()
        for ref in workload.references:
            out = os.path.join(run_dir, f"setup{k}", ref)
            proc = subprocess.run([sys.executable, "-m", "quam.cli", "train", "--config", configs[ref], "--out", out], env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
            C.expect(proc.returncode == 0, f"set-up train of {ref} failed: {proc.stdout[-500:]} {proc.stderr[-2000:]}")
        times.append(time.perf_counter() - t0)
        for ref in workload.references:
            ckpt = os.path.join(run_dir, f"setup{k}", ref, "model.ckpt")
            paths.setdefault(ref, ckpt)
            with open(ckpt, "rb") as a, open(paths[ref], "rb") as b:
                C.expect(a.read() == b.read(), f"set-up {k} trained a different {ref} checkpoint")
    return paths, times, None


# --------------------------------------------------------------------------
# checks, one function per workload; each returns (attempted, failed, verified, epistemic by key)
# --------------------------------------------------------------------------


def check_quam_commands(commands, paths, data, reference, errors, fault_keys=()):
    ref = C.read_checkpoint(paths[reference])
    attempted = failed = verified = 0
    values = {}
    for meta, res in commands:
        attempted += 1
        where = f"{res['out']} (point {meta['points'][0]})"
        if res["exit"] != 0:
            failed += 1
            error = (res["status"] or {}).get("error", "")
            if not (res["exit"] == 2 and FAULT.match(error)):
                errors.append(f"{where}: unexpected failure {res['status']}")
            elif meta["key"] not in fault_keys:
                errors.append(f"{where}: negative-entropy fault at a point outside the fault set")
            continue
        try:
            rows = C.read_jsonl(os.path.join(res["out"], "scores.jsonl"))
            C.expect(len(rows) == 1, f"{where}: {len(rows)} score rows")
            trajectories = [C.read_jsonl(p) for p in sorted(glob.glob(os.path.join(res["out"], "trajectory_0000_*.jsonl")))]
            C.check_quam_point(rows[0], trajectories, ref, data, meta["points"], W.TEMPERATURE, where)
        except C.CheckFailed as e:
            errors.append(str(e))
            continue
        verified += 1
        values.setdefault(meta["key"], []).append(rows[0]["epistemic"])
    return attempted, failed, verified, values


def check_moons_quam(commands, paths, errors):
    return check_quam_commands(commands, paths, C.two_moons(200, 0.1, 0), "moons", errors)


def check_sine_quam(commands, paths, errors):
    fault_keys = set(range(len(W.SINE_POINTS), len(W.SINE_POINTS) + len(W.SINE_FAULT_POINTS)))
    return check_quam_commands(commands, paths, C.sine(200, 0), "sine", errors, fault_keys)


def check_baselines(commands, paths, errors):
    refs = {"hmc": C.read_checkpoint(paths["moons"]), "mcd": C.read_checkpoint(paths["moons_dropout"])}
    attempted = failed = verified = 0
    values = {}
    for meta, res in commands:
        method, n = meta["config"], len(meta["points"])
        attempted += n
        if res["exit"] != 0:
            failed += n
            errors.append(f"{res['out']}: {method} failed: {res['status']}")
            continue
        try:
            rows_a = C.read_jsonl(os.path.join(res["out"], "scores_a.jsonl"))
            rows_b = C.read_jsonl(os.path.join(res["out"], "scores_b.jsonl"))
            C.expect(len(rows_a) == n and len(rows_b) == n, f"{res['out']}: {len(rows_a)}/{len(rows_b)} rows for {n} points")
            ref = refs[method]
            pts = np.asarray(meta["points"])
            ref_pred = C.predict(ref, pts)
            h_ref = C.entropy(ref_pred)
            for i, (a, b) in enumerate(zip(rows_a, rows_b)):
                where = f"{res['out']} {method} point {i}"
                C.check_row_identities(a, where + " setting a")
                C.check_row_identities(b, where + " setting b")
                C.expect(a["total"] <= math.log(2) + 1e-12 and a["aleatoric"] <= a["total"] + 1e-12, f"{where}: setting-a entropies out of range {a}")
                C.expect(C.close(b["aleatoric"], float(h_ref[i]), 1e-9), f"{where}: setting-b aleatoric {b['aleatoric']} != H(reference) {h_ref[i]}")
            if method == "mcd":
                check_mcd(rows_a, rows_b, ref, pts, ref_pred, meta["seed"], res["out"])
        except C.CheckFailed as e:
            errors.append(str(e))
            continue
        verified += n
        if method == "hmc":
            for key, row in zip(meta["keys"], rows_a):
                values.setdefault(key, []).append(row["epistemic"])
    return attempted, failed, verified, values


def check_mcd(rows_a, rows_b, ref, pts, ref_pred, seed, where):
    """Recompute MC dropout from the reproduced mask stream."""
    masks = C.dropout_masks(ref.widths, ref.dropout, seed, W.MCD_SAMPLES)
    probs = np.stack([C.predict(ref, pts, m) for m in masks])
    w = np.full(W.MCD_SAMPLES, 1.0 / W.MCD_SAMPLES)
    total, aleatoric, epistemic = C.split_categorical(probs, w)
    kl_b = (w[:, None] * (C.xlogy(ref_pred[None], ref_pred[None]) - C.xlogy(ref_pred[None], probs)).sum(axis=-1)).sum(axis=0)
    for i, (a, b) in enumerate(zip(rows_a, rows_b)):
        for name, value in (("total", total[i]), ("aleatoric", aleatoric[i]), ("epistemic", epistemic[i])):
            C.expect(C.close(a[name], float(value), 1e-9), f"{where} mcd point {i}: setting-a {name} {a[name]} != recomputed {value}")
        C.expect(C.close(b["epistemic"], float(kl_b[i]), 1e-9), f"{where} mcd point {i}: setting-b epistemic {b['epistemic']} != recomputed {kl_b[i]}")


CHECKS = {"moons_quam_cli": check_moons_quam, "moons_baselines_cli": check_baselines, "sine_quam_cli": check_sine_quam}


def spearman_vs_hmc(workload, values: dict) -> float:
    """Rank correlation with the stored map over the points the map covers."""
    with open(REFERENCE_MAPS) as f:
        reference = json.load(f)[workload.reference_map]["epistemic"]
    keys = sorted(k for k in values if k < len(reference))
    return C.spearman([float(np.mean(values[k])) for k in keys], [reference[k] for k in keys])


def throughput(workload, result: dict, verified: int) -> float:
    """Verified points per second of command time.

    Where every command scores one point with the same work, the time per
    command is taken as the median: a burst of load lengthens a few
    commands, and the median ignores them.
    """
    times = [c["wall_s"] for c in result["commands"]]
    if workload.uniform_commands:
        return verified / (len(times) * statistics.median(times))
    return verified / sum(times)


def scoring_plan(workload, seed: int, seconds: float, paths: dict, traced: bool) -> dict:
    rounds = list(itertools.islice(workload.rounds(seed), MAX_ROUNDS))
    return {"trace": traced, "seconds": seconds, "configs": workload.configs, "paths": paths, "rounds": rounds}


def done_commands(plan: dict, result: dict) -> list:
    metas = [c for r in plan["rounds"][: result["rounds"]] for c in r]
    return list(zip(metas, result["commands"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "quam", "cli.py")):
        print(f"bench: no quam sources at {os.path.join(ROOT, 'src', 'quam')}", file=sys.stderr)
        return 2

    workload = W.WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    errors: list[str] = []
    paths, setup_times, train_trace = setup(workload, run_dir, bool(args.trace))
    plan = scoring_plan(workload, args.seed, args.seconds, paths, bool(args.trace))
    result = run_child(plan, "score", run_dir)
    commands = done_commands(plan, result)
    attempted, failed, verified, values = CHECKS[args.workload](commands, paths, errors)
    rho = spearman_vs_hmc(workload, values)
    if workload.spearman_floor is not None and not rho >= workload.spearman_floor:
        errors.append(f"Spearman against long-chain HMC {rho:.3f} is below the floor {workload.spearman_floor}")

    if args.trace:
        # the same rounds again without the tracer give the overhead on identical work
        untraced = run_child(dict(plan, trace=False, seconds=math.inf, rounds=plan["rounds"][: result["rounds"]]), "untraced", run_dir)
        wall_s = sum(c["wall_s"] for _, c in commands)
        overhead = 100.0 * (wall_s / sum(c["wall_s"] for c in untraced["commands"]) - 1.0)
        metrics = tracer.layer_metrics(result["trace"], train_trace, result["import_s"], attempted, wall_s, len(commands), overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "points_per_s": (throughput(workload, result, verified), "1/s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
            "spearman_vs_hmc": (rho, "rho"),
        }
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    correct = not errors and verified + failed == attempted
    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
