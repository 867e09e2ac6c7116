"""Command-line driver for reproducible experiment runs.

Subcommands: train, quam, baseline, eval, grid, varstudy, simplex.  Every
run takes a --config file, writes a canonical config echo plus its outputs
to the output directory, and ends with one machine-parsable status line,
strict JSON without NaN or Infinity.  Each subcommand is a
`cmd_<name>(cfg, out, seed, jobs) -> exit code`: `main` loads the config,
creates the output directory (`--out`, else `[output] dir`) with the echo,
and resolves the seed (`--seed`, else `[experiment] seed`, else 0) once for
every command; `jobs` is `--jobs`, the test points per lock-step search
batch of quam and grid.  A command passes a library function only the keys
its config sets (`ExperimentConfig.settings`), so an unset key takes the
library default; the one default the CLI holds is grid's `[estimator]
setting`, "a" (`cmd_grid`).  A numeric setting outside its domain
(`config.require`) is a usage error naming its key.  Test inputs are
finite, so a model's prediction row outside its head's domain at one of
them (a variance that underflowed to 0) is a numerical abort naming the
input.  Exit codes: 0 success, 2 usage/config error, 3 numerical abort.
A malformed command line is a usage error too: argparse's usage text goes
to standard error and the status line to standard output.  `--help`
prints its text and exits 0 without a status line.
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
from .config import ConfigError, ExperimentConfig, require
from .estimator import quam_scores, variance_sweep
from .measures import _check_rows, decompose_a, decompose_b
from .metrics import ScoredLabels, aupr, auroc, fpr_at_tpr, simplex_surface
from .samplers import HMCAborted, deep_ensemble, hmc_posterior, mc_dropout, csghmc
from .search import SearchConfig, trajectory_to_jsonl

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _status(command: str, status: str, **extra):
    print(json.dumps({"status": status, "command": command, **extra}, allow_nan=False))


def _existing(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"{what} does not exist: {path}")
    return path


def load_dataset(cfg: ExperimentConfig) -> D.LabeledDataset:
    name = cfg.require("dataset", "name")
    seed = cfg.settings("dataset", seed=int)
    if name in ("two_moons", "sine"):
        kw = cfg.settings("dataset", n=int, noise=float) if name == "two_moons" else cfg.settings("dataset", n=int)
        require(1, **{"[dataset] n": kw.get("n")})
        require(0, **{"[dataset] noise": kw.get("noise")})
        return (D.gen_two_moons if name == "two_moons" else D.gen_sine)(**kw, **seed)
    if name == "three_gaussians":
        return D.gen_three_gaussians(**seed)
    if name == "idx":
        images = _existing(cfg.require("dataset", "images"), "dataset file")
        ds = D.load_idx(images, _existing(cfg.require("dataset", "labels"), "dataset file"))
        limit = cfg.get_int("dataset", "limit", 0)
        if limit:
            ds = D.subset_split(ds, [limit], **seed)[0]
        return ds
    if name == "csv":
        return D.from_csv(_existing(cfg.require("dataset", "path"), "dataset file"), **cfg.settings("dataset", kind=str))
    raise UsageError(f"unknown dataset name {name!r}")


def load_arch(cfg: ExperimentConfig) -> M.ArchSpec:
    widths = cfg.get_ints("arch", "widths")
    if widths is None:
        raise UsageError("missing [arch] widths")
    return M.ArchSpec(widths, **cfg.settings("arch", head=str, dropout_prob=float))


def load_train_config(cfg: ExperimentConfig, seed: int) -> M.TrainConfig:
    """The [train] section; every key it leaves out keeps TrainConfig's default."""
    return M.TrainConfig(seed=seed, **cfg.settings("train", lr=float, weight_decay=float, epochs=int, batch_size=int))


def load_search_config(cfg: ExperimentConfig, seed: int) -> SearchConfig:
    """The [search] section; every key it leaves out keeps SearchConfig's default.

    `adam_eps`, `bias_nudge`, `param_box` and `free_mask` have no key: only
    criterion 5's box-constrained logistic search and the unit tests set
    them, and no experiment the CLI runs needs other values.
    """
    kw = cfg.settings("search", c0=float, eta_factor=float, eta_every=int, gamma=float, steps=int, lr=float, weight_decay=float, batch_size=int, delta_scope=str)
    return SearchConfig(seed=seed, **kw)


def _finite_row(line: str):
    """The cells of a CSV line as floats, or None when one of them is not a finite number."""
    try:
        row = [float(c) for c in line.split(",")]
    except ValueError:
        return None
    return row if np.isfinite(row).all() else None


def load_test_inputs(cfg: ExperimentConfig) -> np.ndarray:
    """The rows of `[test_inputs] file`: a header row, such as x0,x1, then one point per line."""
    path = _existing(cfg.require("test_inputs", "file"), "test input file")
    rows = []
    with open(path) as f:
        header = f.readline()
        if _finite_row(header) is not None:
            raise UsageError(f"test input file {path}, line 1: expected a header row such as x0,x1, got the numbers {header.strip()!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            row = _finite_row(line)
            if row is None or rows and len(row) != len(rows[0]):
                raise UsageError(f"test input file {path}, line {lineno}: every row needs the same number of finite numbers, got {line.strip()!r}")
            rows.append(row)
    if not rows:
        raise UsageError(f"test input file has no rows: {path}")
    return np.asarray(rows)


def _prepare_out(out, cfg: ExperimentConfig) -> str:
    out = out or cfg.get_str("output", "dir", "runs/out")
    try:
        os.makedirs(out, exist_ok=True)
        cfg.dump(os.path.join(out, "config_echo.ini"))
    except OSError as e:
        raise UsageError(f"cannot write to output directory {out}: {e}") from e
    return out


def _breakdown_row(i, br) -> str:
    return json.dumps({"input_id": i, "aleatoric": br.aleatoric, "epistemic": br.epistemic, "total": br.total, "setting": br.setting, "flags": list(br.flags)})


def cmd_train(cfg: ExperimentConfig, out: str, seed: int, jobs: int) -> int:
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


def _score(cfg: ExperimentConfig, xs: np.ndarray, seed: int, jobs: int, **defaults) -> tuple[list, list]:
    """`quam_scores` of the rows of `xs` against `[reference] checkpoint`, `jobs` points per lock-step batch: every point's breakdown and trajectories.

    `defaults` stand in for the `[estimator]` keys the config leaves out.
    """
    dataset = load_dataset(cfg)
    reference = M.load_checkpoint(cfg.require("reference", "checkpoint"))
    estimator = {**defaults, **cfg.settings("estimator", temperature=float, setting=str)}
    search_cfg = load_search_config(cfg, seed)
    require(1, **{"--jobs": jobs})
    breakdowns, suites = [], []
    for start in range(0, len(xs), jobs):
        brs, trajs = quam_scores(xs[start : start + jobs], dataset, reference, search_cfg, **estimator)
        breakdowns += brs
        suites += trajs
    return breakdowns, suites


def _finish_scoring(command: str, suites: list, **extra) -> int:
    """Status line of a scoring command, written after every row: exit 3 when every search of some point hit a non-finite loss."""
    aborted = [i for i, trajs in enumerate(suites) if all(t.nan_abort for t in trajs)]
    if aborted:
        _status(command, "numerical_abort", error=f"every search hit a non-finite loss at inputs {aborted}", **extra)
        return EXIT_NUMERIC
    _status(command, "ok", **extra)
    return EXIT_OK


def cmd_quam(cfg: ExperimentConfig, out: str, seed: int, jobs: int) -> int:
    xs = load_test_inputs(cfg)
    save_traj = cfg.get_bool("output", "trajectories", True)
    breakdowns, suites = _score(cfg, xs, seed, jobs)
    with open(os.path.join(out, "scores.jsonl"), "w") as f:
        for i, (br, trajs) in enumerate(zip(breakdowns, suites)):
            f.write(_breakdown_row(i, br) + "\n")
            if save_traj:
                for t in trajs:
                    trajectory_to_jsonl(t, os.path.join(out, f"trajectory_{i:04d}_{t.target.replace(':', '')}.jsonl"))
    return _finish_scoring("quam", suites, n=len(xs), out=out)


def cmd_baseline(cfg: ExperimentConfig, out: str, seed: int, jobs: int) -> int:
    method = cfg.require("baseline", "method")
    dataset = load_dataset(cfg)
    xs = load_test_inputs(cfg)
    arch = load_arch(cfg)

    ref_ckpt = cfg.get_str("reference", "checkpoint", None)
    reference = M.load_checkpoint(ref_ckpt) if ref_ckpt else None

    if method == "de":
        sampler = deep_ensemble(dataset, arch, base_cfg=load_train_config(cfg, seed), **cfg.settings("baseline", n_members=int))
    elif method == "mcd":
        cfg.require("reference", "checkpoint")  # dropout samples come from the reference
        sampler = mc_dropout(reference, seed=seed, **cfg.settings("baseline", n_samples=int))
    elif method == "csghmc":
        sampler = csghmc(dataset, arch, seed=seed, **cfg.settings("baseline", cycles=int, steps_per_cycle=int, step_size=float, temperature=float, prior_precision=float))
    elif method == "hmc":
        sampler = hmc_posterior(dataset, arch, seed=seed, **cfg.settings("baseline", prior_precision=float, n_samples=int, n_leapfrog=int, step_size=float, burn_in=int))
    else:
        raise UsageError(f"unknown baseline method {method!r}")

    # the test inputs are finite: a bad prediction row is a model's numerical fault
    head = sampler.params[0].arch.head
    preds = sampler.predictions(xs)
    _check_rows(head, preds, "predictions", xs)
    w = np.ones(len(preds))
    rows = {"a": decompose_a(head, preds, w)}
    if reference is not None:
        ref_preds = M.predict_batch(reference, xs)
        _check_rows(reference.arch.head, ref_preds, "reference prediction", xs)
        rows["b"] = decompose_b(head, ref_preds, preds, w)
    for setting, breakdowns in rows.items():
        with open(os.path.join(out, f"scores_{setting}.jsonl"), "w") as f:
            for i, br in enumerate(breakdowns):
                f.write(_breakdown_row(i, br) + "\n")
    diag = {k: v for k, v in sampler.diagnostics.items() if isinstance(v, (int, float, str))}
    bad = [k for k, v in diag.items() if not isinstance(v, str) and not np.isfinite(v)]
    if bad:
        _status("baseline", "numerical_abort", error=f"non-finite sampler diagnostics: {', '.join(bad)}", method=method, n=len(xs), out=out)
        return EXIT_NUMERIC
    _status("baseline", "ok", method=method, n=len(xs), out=out, **diag)
    return EXIT_OK


def cmd_eval(cfg: ExperimentConfig, out: str, seed: int, jobs: int) -> int:
    id_path = cfg.require("eval", "id_scores")
    pos_path = cfg.require("eval", "positive_scores")
    field = cfg.get_str("eval", "field", "epistemic")
    metrics = cfg.get_str("eval", "metrics", "auroc,aupr,fpr_at_tpr95").replace(",", " ").split()
    if not metrics:
        raise UsageError("[eval] metrics names no metric")

    def read_scores(path):
        vals = []
        with open(_existing(path, "scores file")) as f:
            for line in f:
                if line.strip():
                    row = json.loads(line)
                    value = row.get(field) if isinstance(row, dict) else None
                    if type(value) not in (int, float):  # a JSON number: not a boolean, a string or null
                        raise UsageError(f"scores file {path} has a row without a number in the field {field!r}")
                    vals.append(float(value))
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
            target = m[len("fpr_at_tpr") :]
            value = fpr_at_tpr(scored, float(target) / 100) if target else fpr_at_tpr(scored)
        else:
            raise UsageError(f"unknown metric {m!r}")
        results.append({"metric": m, "value": value, "n": int(len(scored.scores)), "seed": seed})
    path = os.path.join(out, "metrics.json")
    with open(path, "w") as f:
        json.dump({"records": results, "config": cfg.sections}, f, indent=2)
    _status("eval", "ok", out=path, **{r["metric"]: r["value"] for r in results})
    return EXIT_OK


def cmd_grid(cfg: ExperimentConfig, out: str, seed: int, jobs: int) -> int:
    """Scores on the `[grid]` lattice.  `[estimator] setting` defaults to "a", not `quam_scores`' "b": criterion 7's maps are setting a."""
    res = cfg.get_int("grid", "resolution", 40)
    require(1, **{"[grid] resolution": res})
    x_lo, x_hi = cfg.get_floats("grid", "x_range", (-1.5, 2.5), count=2)
    y_lo, y_hi = cfg.get_floats("grid", "y_range", (-1.0, 1.5), count=2)
    xs = np.linspace(x_lo, x_hi, res)
    ys = np.linspace(y_lo, y_hi, res)
    points = np.array([(x, y) for x in xs for y in ys])
    breakdowns, suites = _score(cfg, points, seed, jobs, setting="a")
    path = os.path.join(out, "grid.csv")
    with open(path, "w") as f:
        f.write("x,y,total,aleatoric,epistemic,flags\n")
        for (x, y), br in zip(points, breakdowns):
            f.write(f"{x:.17g},{y:.17g},{br.total:.17g},{br.aleatoric:.17g},{br.epistemic:.17g},{';'.join(br.flags)}\n")
    return _finish_scoring("grid", suites, rows=len(points), out=path)


def cmd_varstudy(cfg: ExperimentConfig, out: str, seed: int, jobs: int) -> int:
    parameter = cfg.get_str("varstudy", "parameter", "sigma_p2")
    lo, hi = cfg.get_floats("varstudy", "range", (1.0, 3.0), count=2)
    count = cfg.get_int("varstudy", "count", 9)
    require(1, **{"[varstudy] count": count})
    rows = variance_sweep(parameter, np.linspace(lo, hi, count))
    path = os.path.join(out, f"varstudy_{parameter}.csv")
    with open(path, "w") as f:
        f.write(f"{parameter},variance\n")
        for v, var in rows:
            f.write(f"{v:.17g},{var:.17g}\n")
    _status("varstudy", "ok", parameter=parameter, rows=len(rows), out=path)
    return EXIT_OK


def cmd_simplex(cfg: ExperimentConfig, out: str, seed: int, jobs: int) -> int:
    dataset = load_dataset(cfg)
    arch = load_arch(cfg)
    x = np.asarray(cfg.get_floats("simplex", "test_point", tuple(D.THREE_GAUSSIAN_TEST_POINT), count=arch.widths[0]))
    rows = simplex_surface(dataset, x, arch, cfg=load_train_config(cfg, seed), **cfg.settings("simplex", resolution=int, repeats=int))
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


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An `ArgumentParser` whose errors raise `_ArgumentError` after the usage text, instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _ArgumentError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every later `main`."""
    parser = _Parser(prog="quam", description="Adversarial-model epistemic uncertainty experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--jobs", type=int, default=1, help="test points per lock-step search batch (quam, grid)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except _ArgumentError as e:
        _status(argv[0] if argv and argv[0] in COMMANDS else None, "usage_error", error=str(e))
        return EXIT_USAGE
    try:
        cfg = ExperimentConfig.load(args.config)
        out = _prepare_out(args.out, cfg)
        seed = args.seed if args.seed is not None else cfg.get_int("experiment", "seed", 0)
        return COMMANDS[args.command](cfg, out, seed, args.jobs)
    except (ConfigError, UsageError, OSError, ValueError) as e:
        _status(args.command, "usage_error", error=str(e))
        return EXIT_USAGE
    except (M.TrainingDiverged, HMCAborted) as e:
        _status(args.command, "numerical_abort", error=str(e))
        return EXIT_NUMERIC
    except ArithmeticError as e:  # an overflow or a division by zero that numpy does not turn into inf or NaN
        _status(args.command, "numerical_abort", error=f"{type(e).__name__}: {e}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
