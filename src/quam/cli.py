"""Command-line driver for reproducible experiment runs.

Subcommands: train, quam, baseline, eval, grid, varstudy, simplex.  Every
run takes a --config file, writes a canonical config echo plus its outputs
to the output directory, and ends with one machine-parsable JSON status
line.  Exit codes: 0 success, 2 usage/config error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import data as D
from . import models as M
from .config import ConfigError, ExperimentConfig
from .estimator import quam_scores, variance_sweep
from .measures import decompose_a, decompose_b
from .metrics import ScoredLabels, aupr, auroc, fpr_at_tpr, simplex_surface
from .samplers import HMCAborted, deep_ensemble, hmc_posterior, mc_dropout, csghmc
from .search import SearchConfig, trajectory_to_jsonl

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _status(command: str, status: str, **extra):
    print(json.dumps({"status": status, "command": command, **extra}))


def load_dataset(cfg: ExperimentConfig) -> D.LabeledDataset:
    name = cfg.require("dataset", "name")
    seed = cfg.get_int("dataset", "seed", 0)
    if name == "two_moons":
        return D.gen_two_moons(cfg.get_int("dataset", "n", 200), cfg.get_float("dataset", "noise", 0.1), seed)
    if name == "three_gaussians":
        return D.gen_three_gaussians(seed)
    if name == "sine":
        return D.gen_sine(cfg.get_int("dataset", "n", 200), seed)
    if name == "idx":
        images = cfg.require("dataset", "images")
        labels = cfg.require("dataset", "labels")
        for path in (images, labels):
            if not os.path.exists(path):
                raise UsageError(f"dataset file does not exist: {path}")
        ds = D.load_idx(images, labels)
        limit = cfg.get_int("dataset", "limit", 0)
        if limit:
            ds = D.subset_split(ds, [limit], seed=seed)[0]
        return ds
    if name == "csv":
        path = cfg.require("dataset", "path")
        if not os.path.exists(path):
            raise UsageError(f"dataset file does not exist: {path}")
        return D.from_csv(path, cfg.get_str("dataset", "kind", "classification"))
    raise UsageError(f"unknown dataset name {name!r}")


def load_arch(cfg: ExperimentConfig) -> M.ArchSpec:
    widths = cfg.get_ints("arch", "widths")
    if widths is None:
        raise UsageError("missing [arch] widths")
    return M.ArchSpec(
        widths=widths,
        head=cfg.get_str("arch", "head", "categorical"),
        dropout_prob=cfg.get_float("arch", "dropout_prob", 0.0),
    )


def load_train_config(cfg: ExperimentConfig, seed: int) -> M.TrainConfig:
    """The [train] section; every key it leaves out keeps TrainConfig's default."""
    d = M.TrainConfig(seed=seed)
    return M.TrainConfig(
        lr=cfg.get_float("train", "lr", d.lr),
        weight_decay=cfg.get_float("train", "weight_decay", d.weight_decay),
        epochs=cfg.get_int("train", "epochs", d.epochs),
        batch_size=cfg.get_int("train", "batch_size", d.batch_size),
        seed=seed,
    )


def load_search_config(cfg: ExperimentConfig, seed: int) -> SearchConfig:
    """The [search] section; every key it leaves out keeps SearchConfig's default.

    `adam_eps`, `bias_nudge`, `param_box` and `free_mask` have no key: only
    criterion 5's box-constrained logistic search and the unit tests set
    them, and no experiment the CLI runs needs other values.
    """
    d = SearchConfig(seed=seed)
    return SearchConfig(
        c0=cfg.get_float("search", "c0", d.c0),
        eta_factor=cfg.get_float("search", "eta_factor", d.eta_factor),
        eta_every=cfg.get_int("search", "eta_every", d.eta_every),
        gamma=cfg.get_float("search", "gamma", d.gamma),
        steps=cfg.get_int("search", "steps", d.steps),
        lr=cfg.get_float("search", "lr", d.lr),
        weight_decay=cfg.get_float("search", "weight_decay", d.weight_decay),
        batch_size=cfg.get_int("search", "batch_size", d.batch_size),
        delta_scope=cfg.get_str("search", "delta_scope", d.delta_scope),
        seed=seed,
    )


def load_test_inputs(cfg: ExperimentConfig) -> np.ndarray:
    path = cfg.require("test_inputs", "file")
    if not os.path.exists(path):
        raise UsageError(f"test input file does not exist: {path}")
    rows = []
    with open(path) as f:
        f.readline()  # header
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                row = [float(c) for c in line.split(",")]
                ok = np.isfinite(row).all() and (not rows or len(row) == len(rows[0]))
            except ValueError:
                ok = False
            if not ok:
                raise UsageError(f"test input file {path}, line {lineno}: every row needs the same number of finite numbers, got {line.strip()!r}")
            rows.append(row)
    if not rows:
        raise UsageError(f"test input file has no rows: {path}")
    return np.asarray(rows)


def _prepare_out(args, cfg: ExperimentConfig) -> str:
    out = args.out or cfg.get_str("output", "dir", "runs/out")
    try:
        os.makedirs(out, exist_ok=True)
        cfg.dump(os.path.join(out, "config_echo.ini"))
    except OSError as e:
        raise UsageError(f"cannot write to output directory {out}: {e}") from e
    return out


def _breakdown_row(i, br) -> str:
    return json.dumps({"input_id": i, "aleatoric": br.aleatoric, "epistemic": br.epistemic, "total": br.total, "setting": br.setting, "flags": list(br.flags)})


def cmd_train(args, cfg: ExperimentConfig) -> int:
    out = _prepare_out(args, cfg)
    seed = args.seed if args.seed is not None else cfg.get_int("experiment", "seed", 0)
    dataset = load_dataset(cfg)
    arch = load_arch(cfg)
    log: list = []
    params = M.train(dataset, arch, load_train_config(cfg, seed), log=log)
    ckpt = os.path.join(out, "model.ckpt")
    M.save_checkpoint(params, ckpt)
    with open(os.path.join(out, "train_log.jsonl"), "w") as f:
        for row in log:
            f.write(json.dumps(row) + "\n")
    _status("train", "ok", checkpoint=ckpt, final_loss=M.mean_train_loss(params, dataset))
    return EXIT_OK


def cmd_quam(args, cfg: ExperimentConfig) -> int:
    out = _prepare_out(args, cfg)
    seed = args.seed if args.seed is not None else cfg.get_int("experiment", "seed", 0)
    dataset = load_dataset(cfg)
    reference = M.load_checkpoint(cfg.require("reference", "checkpoint"))
    xs = load_test_inputs(cfg)
    temperature = cfg.get_float("estimator", "temperature", 0.1)
    setting = cfg.get_str("estimator", "setting", "b")
    search_cfg = load_search_config(cfg, seed)
    save_traj = cfg.get_bool("output", "trajectories", True)
    breakdowns, suites = _score_in_chunks(xs, dataset, reference, search_cfg, temperature, setting, args.jobs)
    with open(os.path.join(out, "scores.jsonl"), "w") as f:
        for i, (br, trajs) in enumerate(zip(breakdowns, suites)):
            f.write(_breakdown_row(i, br) + "\n")
            if save_traj:
                for t in trajs:
                    trajectory_to_jsonl(t, os.path.join(out, f"trajectory_{i:04d}_{t.target.replace(':', '')}.jsonl"))
    return _finish_scoring("quam", _all_aborted(suites), n=len(xs), out=out)


def _score_in_chunks(xs, dataset, reference, search_cfg, temperature, setting, jobs) -> tuple[list, list]:
    """`quam_scores` over the rows of `xs`, `jobs` points per lock-step batch: every point's breakdown and trajectories."""
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1 (test points per lock-step batch), got {jobs}")
    breakdowns, suites = [], []
    for start in range(0, len(xs), jobs):
        brs, trajs = quam_scores(xs[start : start + jobs], dataset, reference, search_cfg, temperature, setting=setting)
        breakdowns += brs
        suites += trajs
    return breakdowns, suites


def _all_aborted(suites) -> list:
    """The points at which every search hit a non-finite loss."""
    return [i for i, trajs in enumerate(suites) if all(t.nan_abort for t in trajs)]


def _finish_scoring(command: str, aborted: list, **extra) -> int:
    """Status line of a scoring command, written after every row: exit 3 when every search of some point aborted."""
    if aborted:
        _status(command, "numerical_abort", error=f"every search hit a non-finite loss at inputs {aborted}", **extra)
        return EXIT_NUMERIC
    _status(command, "ok", **extra)
    return EXIT_OK


def cmd_baseline(args, cfg: ExperimentConfig) -> int:
    out = _prepare_out(args, cfg)
    seed = args.seed if args.seed is not None else cfg.get_int("experiment", "seed", 0)
    method = cfg.require("baseline", "method")
    dataset = load_dataset(cfg)
    xs = load_test_inputs(cfg)
    arch = load_arch(cfg)

    ref_ckpt = cfg.get_str("reference", "checkpoint", None)
    reference = M.load_checkpoint(ref_ckpt) if ref_ckpt else None

    if method == "de":
        sampler = deep_ensemble(dataset, arch, cfg.get_int("baseline", "n_members", 5), load_train_config(cfg, seed))
    elif method == "mcd":
        cfg.require("reference", "checkpoint")  # dropout samples come from the reference
        sampler = mc_dropout(reference, cfg.get_int("baseline", "n_samples", 500), seed=seed)
    elif method == "csghmc":
        sampler = csghmc(
            dataset,
            arch,
            cycles=cfg.get_int("baseline", "cycles", 4),
            steps_per_cycle=cfg.get_int("baseline", "steps_per_cycle", 200),
            step_size=cfg.get_float("baseline", "step_size", 1e-3),
            temperature=cfg.get_float("baseline", "temperature", 1.0),
            seed=seed,
            prior_precision=cfg.get_float("baseline", "prior_precision", 1.0),
        )
    elif method == "hmc":
        sampler = hmc_posterior(
            dataset,
            arch,
            prior_precision=cfg.get_float("baseline", "prior_precision", 1e-3),
            n_samples=cfg.get_int("baseline", "n_samples", 500),
            n_leapfrog=cfg.get_int("baseline", "n_leapfrog", 25),
            step_size=cfg.get_float("baseline", "step_size", 2e-3),
            seed=seed,
            burn_in=cfg.get_int("baseline", "burn_in", 500),
        )
    else:
        raise UsageError(f"unknown baseline method {method!r}")

    head = sampler.params[0].arch.head
    preds = sampler.predictions(xs)
    w = np.ones(len(preds))
    rows = {"a": decompose_a(head, preds, w)}
    if reference is not None:
        rows["b"] = decompose_b(head, M.predict_batch(reference, xs), preds, w)
    for setting, breakdowns in rows.items():
        with open(os.path.join(out, f"scores_{setting}.jsonl"), "w") as f:
            for i, br in enumerate(breakdowns):
                f.write(_breakdown_row(i, br) + "\n")
    diag = {k: v for k, v in sampler.diagnostics.items() if isinstance(v, (int, float, str))}
    _status("baseline", "ok", method=method, n=len(xs), out=out, **diag)
    return EXIT_OK


def cmd_eval(args, cfg: ExperimentConfig) -> int:
    out = _prepare_out(args, cfg)
    id_path = cfg.require("eval", "id_scores")
    pos_path = cfg.require("eval", "positive_scores")
    field = cfg.get_str("eval", "field", "epistemic")
    metrics = cfg.get_str("eval", "metrics", "auroc,aupr,fpr_at_tpr95").replace(",", " ").split()

    def read_scores(path):
        if not os.path.exists(path):
            raise UsageError(f"scores file does not exist: {path}")
        vals = []
        with open(path) as f:
            for line in f:
                if line.strip():
                    row = json.loads(line)
                    try:
                        vals.append(float(row[field]))
                    except (KeyError, TypeError) as e:
                        raise UsageError(f"scores file {path} has a row without a number in the field {field!r}") from e
        return np.asarray(vals)

    id_scores = read_scores(id_path)
    pos_scores = read_scores(pos_path)
    scored = ScoredLabels(np.concatenate([id_scores, pos_scores]), np.concatenate([np.zeros(len(id_scores), dtype=int), np.ones(len(pos_scores), dtype=int)]))
    results = []
    for m in metrics:
        if m == "auroc":
            value = auroc(scored)
        elif m == "aupr":
            value = aupr(scored)
        elif m.startswith("fpr_at_tpr"):
            target = float(m[len("fpr_at_tpr") :]) / 100 if len(m) > len("fpr_at_tpr") else 0.95
            value = fpr_at_tpr(scored, target)
        else:
            raise UsageError(f"unknown metric {m!r}")
        results.append({"metric": m, "value": value, "n": int(len(scored.scores)), "seed": cfg.get_int("experiment", "seed", 0)})
    path = os.path.join(out, "metrics.json")
    with open(path, "w") as f:
        json.dump({"records": results, "config": {s: dict(kv) for s, kv in cfg.sections.items()}}, f, indent=2)
    _status("eval", "ok", out=path, **{r["metric"]: r["value"] for r in results})
    return EXIT_OK


def cmd_grid(args, cfg: ExperimentConfig) -> int:
    out = _prepare_out(args, cfg)
    seed = args.seed if args.seed is not None else cfg.get_int("experiment", "seed", 0)
    dataset = load_dataset(cfg)
    reference = M.load_checkpoint(cfg.require("reference", "checkpoint"))
    res = cfg.get_int("grid", "resolution", 40)
    if res < 1:
        raise UsageError(f"[grid] resolution must be >= 1, got {res}")
    x_lo, x_hi = cfg.get_floats("grid", "x_range", (-1.5, 2.5))
    y_lo, y_hi = cfg.get_floats("grid", "y_range", (-1.0, 1.5))
    temperature = cfg.get_float("estimator", "temperature", 0.1)
    setting = cfg.get_str("estimator", "setting", "a")
    search_cfg = load_search_config(cfg, seed)
    xs = np.linspace(x_lo, x_hi, res)
    ys = np.linspace(y_lo, y_hi, res)
    points = np.array([(x, y) for x in xs for y in ys])
    breakdowns, suites = _score_in_chunks(points, dataset, reference, search_cfg, temperature, setting, args.jobs)
    path = os.path.join(out, "grid.csv")
    with open(path, "w") as f:
        f.write("x,y,total,aleatoric,epistemic,flags\n")
        for (x, y), br in zip(points, breakdowns):
            f.write(f"{x:.17g},{y:.17g},{br.total:.17g},{br.aleatoric:.17g},{br.epistemic:.17g},{';'.join(br.flags)}\n")
    return _finish_scoring("grid", _all_aborted(suites), rows=len(points), out=path)


def cmd_varstudy(args, cfg: ExperimentConfig) -> int:
    out = _prepare_out(args, cfg)
    parameter = cfg.get_str("varstudy", "parameter", "sigma_p2")
    lo, hi = cfg.get_floats("varstudy", "range", (1.0, 3.0))
    count = cfg.get_int("varstudy", "count", 9)
    if count < 1:
        raise UsageError(f"[varstudy] count must be >= 1, got {count}")
    rows = variance_sweep(parameter, np.linspace(lo, hi, count))
    path = os.path.join(out, f"varstudy_{parameter}.csv")
    with open(path, "w") as f:
        f.write(f"{parameter},variance\n")
        for v, var in rows:
            f.write(f"{v:.17g},{var:.17g}\n")
    _status("varstudy", "ok", parameter=parameter, rows=len(rows), out=path)
    return EXIT_OK


def cmd_simplex(args, cfg: ExperimentConfig) -> int:
    out = _prepare_out(args, cfg)
    seed = args.seed if args.seed is not None else cfg.get_int("experiment", "seed", 0)
    dataset = load_dataset(cfg)
    arch = load_arch(cfg)
    x = np.asarray(cfg.get_floats("simplex", "test_point", tuple(D.THREE_GAUSSIAN_TEST_POINT)))
    rows = simplex_surface(
        dataset,
        x,
        arch,
        resolution=cfg.get_int("simplex", "resolution", 15),
        repeats=cfg.get_int("simplex", "repeats", 20),
        cfg=load_train_config(cfg, seed),
    )
    path = os.path.join(out, "simplex.csv")
    with open(path, "w") as f:
        f.write("p0,p1,p2,median_likelihood,failures\n")
        for row in rows:
            p0, p1, p2 = row["target"]
            f.write(f"{p0:.17g},{p1:.17g},{p2:.17g},{row['median_likelihood']:.17g},{row['failures']}\n")
    _status("simplex", "ok", rows=len(rows), out=path)
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "quam": cmd_quam,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "grid": cmd_grid,
    "varstudy": cmd_varstudy,
    "simplex": cmd_simplex,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every later `main`."""
    parser = argparse.ArgumentParser(prog="quam", description="Adversarial-model epistemic uncertainty experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--jobs", type=int, default=1, help="test points per lock-step search batch (quam, grid)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        return COMMANDS[args.command](args, cfg)
    except (ConfigError, UsageError, OSError, ValueError) as e:
        _status(args.command, "usage_error", error=str(e))
        return EXIT_USAGE
    except (M.TrainingDiverged, HMCAborted) as e:
        _status(args.command, "numerical_abort", error=str(e))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
