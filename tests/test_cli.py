import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from quam import data as D
from quam import models as M
from quam import cli
from quam.cli import load_search_config, load_train_config, main
from quam.config import ConfigError, ExperimentConfig
from quam.measures import decompose_a, decompose_b
from quam.samplers import mc_dropout
from quam.search import SearchConfig


def write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


TRAIN_INI = """
[experiment]
seed = 3
[dataset]
name = two_moons
n = 80
noise = 0.1
seed = 0
[arch]
widths = 2 8 2
[train]
epochs = 60
[output]
dir = {out}
"""


def test_config_echo_round_trip(tmp_path):
    cfg = ExperimentConfig.loads(TRAIN_INI.format(out=tmp_path))
    echo = cfg.dumps()
    again = ExperimentConfig.loads(echo)
    assert cfg == again
    assert again.dumps() == echo


def test_config_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.loads("key = value\n")  # key outside a section
    cfg = ExperimentConfig.loads("[a]\nx = 1\n")
    with pytest.raises(ConfigError):
        cfg.get_int("a", "x2") or cfg.require("a", "x2")
    with pytest.raises(ConfigError):
        ExperimentConfig.loads("[a]\nx = notanint\n").get_int("a", "x")


def test_settings_returns_the_keys_a_section_sets_parsed_as_their_kinds():
    cfg = ExperimentConfig.loads("[a]\nn = 3\nx = 0.5\nname = moons\nbad = 1.5\n")
    assert cfg.settings("a", n=int, x=float, name=str, absent=float) == {"n": 3, "x": 0.5, "name": "moons"}
    assert cfg.settings("b", n=int) == {}
    with pytest.raises(ConfigError) as settings_error:
        cfg.settings("a", bad=int)
    with pytest.raises(ConfigError) as get_int_error:
        cfg.get_int("a", "bad")
    assert str(settings_error.value) == str(get_int_error.value) == "[a] bad: expected integer, got '1.5'"
    with pytest.raises(ConfigError, match=r"^\[a\] name: expected number, got 'moons'$"):
        cfg.settings("a", name=float)


@pytest.fixture(scope="module")
def settings_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("settings")
    files = {"ckpt": str(tmp / "ref.ckpt"), "dropout_ckpt": str(tmp / "dropout.ckpt"), "images": str(tmp / "img"), "labels": str(tmp / "lab")}
    M.save_checkpoint(M.init_params(M.ArchSpec((2, 4, 2)), 0), files["ckpt"])
    M.save_checkpoint(M.init_params(M.ArchSpec((2, 4, 2), dropout_prob=0.2), 0), files["dropout_ckpt"])
    D.save_idx(D.LabeledDataset(np.full((4, 4), 0.5), np.array([0, 1, 0, 1]), "classification"), files["images"], files["labels"], rows=2, cols=2)
    files["csv"] = write(tmp / "d.csv", "x0,y\n0.5,1\n-0.5,0\n")
    files["points"] = write(tmp / "p.csv", "x0,x1\n0.5,0.5\n")
    files["scores"] = write(tmp / "s.jsonl", '{"epistemic": 0.1}\n{"epistemic": 0.2}\n')
    return files


class _Stop(Exception):
    """Raised by a spied library call where a command's real work would start."""


# (command, config with only the required keys, the spied calls it makes in order)
REQUIRED_ONLY = {
    "train": ("train", "[dataset]\nname = two_moons\n[arch]\nwidths = 2 4 2\n", ["gen_two_moons", "ArchSpec", "TrainConfig", "train"]),
    "train_sine": ("train", "[dataset]\nname = sine\n[arch]\nwidths = 1 4 2\n", ["gen_sine", "ArchSpec", "TrainConfig", "train"]),
    "train_three_gaussians": ("train", "[dataset]\nname = three_gaussians\n[arch]\nwidths = 2 4 3\n", ["gen_three_gaussians", "ArchSpec", "TrainConfig", "train"]),
    "train_csv": ("train", "[dataset]\nname = csv\npath = {csv}\n[arch]\nwidths = 1 4 2\n", ["from_csv", "ArchSpec", "TrainConfig", "train"]),
    "train_idx": ("train", "[dataset]\nname = idx\nimages = {images}\nlabels = {labels}\nlimit = 2\n[arch]\nwidths = 4 4 2\n", ["subset_split", "ArchSpec", "TrainConfig", "train"]),
    "quam": ("quam", "[dataset]\nname = two_moons\n{scoring}", ["gen_two_moons", "SearchConfig", "quam_scores"]),
    "grid": ("grid", "[dataset]\nname = two_moons\n[reference]\ncheckpoint = {ckpt}\n", ["gen_two_moons", "SearchConfig", "quam_scores"]),
    "de": ("baseline", "[baseline]\nmethod = de\n{moons}", ["gen_two_moons", "ArchSpec", "TrainConfig", "deep_ensemble"]),
    "mcd": ("baseline", "[baseline]\nmethod = mcd\n{moons}", ["gen_two_moons", "ArchSpec", "mc_dropout"]),
    "csghmc": ("baseline", "[baseline]\nmethod = csghmc\n{moons}", ["gen_two_moons", "ArchSpec", "csghmc"]),
    "hmc": ("baseline", "[baseline]\nmethod = hmc\n{moons}", ["gen_two_moons", "ArchSpec", "hmc_posterior"]),
    "simplex": ("simplex", "[dataset]\nname = three_gaussians\n[arch]\nwidths = 2 4 3\n", ["gen_three_gaussians", "ArchSpec", "TrainConfig", "simplex_surface"]),
}


def test_search_defaults_are_the_library_defaults(tmp_path, monkeypatch, settings_files):
    cfg = ExperimentConfig.loads("[search]\n")
    assert load_search_config(cfg, 7) == SearchConfig(seed=7)
    assert load_train_config(ExperimentConfig.loads("[train]\n"), 7) == M.TrainConfig(seed=7)
    # every library call of every command, on a config with only the required keys, gets no
    # keyword from the config: each setting is the callee's default
    scoring = f"[reference]\ncheckpoint = {settings_files['ckpt']}\n[test_inputs]\nfile = {settings_files['points']}\n"
    files = {**settings_files, "scoring": scoring, "moons": "[dataset]\nname = two_moons\n[arch]\nwidths = 2 4 2\n" + scoring}
    calls = []

    def spy(fn, stop=False):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, kwargs))
            if stop:
                raise _Stop
            return fn(*args, **kwargs)

        return wrapper

    loaders = ("gen_two_moons", "gen_sine", "gen_three_gaussians", "from_csv", "subset_split")
    monkeypatch.setattr(cli, "D", SimpleNamespace(**{**vars(D), **{name: spy(getattr(D, name)) for name in loaders}}))
    monkeypatch.setattr(cli, "M", SimpleNamespace(**{**vars(M), "ArchSpec": spy(M.ArchSpec), "TrainConfig": spy(M.TrainConfig), "train": spy(M.train, stop=True)}))
    monkeypatch.setattr(cli, "SearchConfig", spy(SearchConfig))
    for name in ("quam_scores", "deep_ensemble", "mc_dropout", "csghmc", "hmc_posterior", "simplex_surface"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name), stop=True))
    for case, (command, body, expected) in REQUIRED_ONLY.items():
        calls.clear()
        with pytest.raises(_Stop):
            main([command, "--config", write(tmp_path / "c.ini", body.format(**files)), "--out", str(tmp_path / "out")])
        for name, kwargs in calls:
            # the seed, the train config and the log are the CLI's own; grid scores in setting a
            plumbing = {"seed", "cfg", "base_cfg", "log"} | ({"setting"} if case == "grid" else set())
            assert set(kwargs) <= plumbing, (case, name, sorted(kwargs))
        assert [name for name, _ in calls] == expected, case
        assert case != "grid" or calls[-1][1]["setting"] == "a"


def _keys(section, *keys):
    return {(section, key) for key in keys}


COMMON = _keys("experiment", "seed") | _keys("output", "dir")
MOONS_KEYS = _keys("dataset", "name", "seed", "n", "noise")
ARCH_KEYS = _keys("arch", "widths", "head", "dropout_prob")
TRAIN_KEYS = _keys("train", "lr", "weight_decay", "epochs", "batch_size")
SCORING_KEYS = MOONS_KEYS | _keys("reference", "checkpoint") | _keys("estimator", "temperature", "setting")
SCORING_KEYS |= _keys("search", "c0", "eta_factor", "eta_every", "gamma", "steps", "lr", "weight_decay", "batch_size", "delta_scope")
BASELINE_KEYS = MOONS_KEYS | ARCH_KEYS | _keys("baseline", "method") | _keys("reference", "checkpoint") | _keys("test_inputs", "file")
# values that are names or paths: "x" is a usage error naming the value, not the key
TEXT_KEYS = _keys("dataset", "name", "path", "kind", "images", "labels") | _keys("arch", "head") | _keys("search", "delta_scope")
TEXT_KEYS |= _keys("estimator", "setting") | _keys("baseline", "method") | _keys("reference", "checkpoint") | _keys("test_inputs", "file")
TEXT_KEYS |= _keys("eval", "id_scores", "positive_scores", "field", "metrics") | _keys("varstudy", "parameter") | _keys("output", "dir")
# library parameters that no config sets
HIDDEN_KEYS = _keys("baseline", "friction", "batch_size", "tail_fraction") | _keys("search", "adam_eps", "bias_nudge", "param_box", "free_mask")

MOONS_BASE = "[dataset]\nname = two_moons\nn = 20\n"
SCORING_BASE = MOONS_BASE + "[reference]\ncheckpoint = {ckpt}\n[search]\nsteps = 1\n"
BASELINE_BASE = MOONS_BASE + "[arch]\nwidths = 2 4 2\n[test_inputs]\nfile = {points}\n[reference]\ncheckpoint = {ckpt}\n[baseline]\n"
SMALL_TRAIN = "[train]\nepochs = 1\n"

# case -> (command, a config that runs in a moment, every (section, key) the command reads)
READS = {
    "train": ("train", MOONS_BASE + "[arch]\nwidths = 2 4 2\n" + SMALL_TRAIN, MOONS_KEYS | ARCH_KEYS | TRAIN_KEYS),
    "train_sine": (
        "train",
        "[dataset]\nname = sine\nn = 20\n[arch]\nwidths = 1 4 2\nhead = gaussian_scalar\n" + SMALL_TRAIN,
        _keys("dataset", "name", "seed", "n") | ARCH_KEYS | TRAIN_KEYS,
    ),
    "train_three_gaussians": (
        "train",
        "[dataset]\nname = three_gaussians\n[arch]\nwidths = 2 4 3\n" + SMALL_TRAIN,
        _keys("dataset", "name", "seed") | ARCH_KEYS | TRAIN_KEYS,
    ),
    "train_csv": ("train", "[dataset]\nname = csv\npath = {csv}\n[arch]\nwidths = 1 4 2\n" + SMALL_TRAIN, _keys("dataset", "name", "seed", "path", "kind") | ARCH_KEYS | TRAIN_KEYS),
    "train_idx": (
        "train",
        "[dataset]\nname = idx\nimages = {images}\nlabels = {labels}\nlimit = 2\n[arch]\nwidths = 4 4 2\n" + SMALL_TRAIN,
        _keys("dataset", "name", "seed", "images", "labels", "limit") | ARCH_KEYS | TRAIN_KEYS,
    ),
    "quam": ("quam", SCORING_BASE + "[test_inputs]\nfile = {points}\n", SCORING_KEYS | _keys("test_inputs", "file") | _keys("output", "trajectories")),
    "grid": ("grid", SCORING_BASE + "[grid]\nresolution = 1\n", SCORING_KEYS | _keys("grid", "resolution", "x_range", "y_range")),
    "de": ("baseline", BASELINE_BASE + "method = de\nn_members = 1\n" + SMALL_TRAIN, BASELINE_KEYS | _keys("baseline", "n_members") | TRAIN_KEYS),
    "mcd": ("baseline", BASELINE_BASE.replace("{ckpt}", "{dropout_ckpt}") + "method = mcd\nn_samples = 1\n", BASELINE_KEYS | _keys("baseline", "n_samples")),
    "csghmc": (
        "baseline",
        BASELINE_BASE + "method = csghmc\ncycles = 1\nsteps_per_cycle = 1\n",
        BASELINE_KEYS | _keys("baseline", "cycles", "steps_per_cycle", "step_size", "temperature", "prior_precision"),
    ),
    "hmc": (
        "baseline",
        BASELINE_BASE + "method = hmc\nn_samples = 1\nburn_in = 0\nn_leapfrog = 1\n",
        BASELINE_KEYS | _keys("baseline", "prior_precision", "n_samples", "n_leapfrog", "step_size", "burn_in"),
    ),
    "eval": ("eval", "[eval]\nid_scores = {scores}\npositive_scores = {scores}\n", _keys("eval", "id_scores", "positive_scores", "field", "metrics")),
    "varstudy": ("varstudy", "[varstudy]\ncount = 1\n", _keys("varstudy", "parameter", "range", "count")),
    "simplex": (
        "simplex",
        "[dataset]\nname = three_gaussians\n[arch]\nwidths = 2 4 3\n[simplex]\nresolution = 2\nrepeats = 1\n" + SMALL_TRAIN,
        _keys("dataset", "name", "seed") | ARCH_KEYS | TRAIN_KEYS | _keys("simplex", "test_point", "resolution", "repeats"),
    ),
}


def _with_values(body: str, values: dict) -> str:
    """`body` with each (section, key) of `values` set to its value, replacing a line the body has."""
    cfg = ExperimentConfig.loads(body)
    for (section, key), value in values.items():
        cfg.sections.setdefault(section, {})[key] = value
    return cfg.dumps()


@pytest.mark.parametrize("case", sorted(READS))
def test_each_command_reads_its_table_of_settings(tmp_path, capsys, monkeypatch, settings_files, case):
    # every key of the table set to x is a usage error naming it, and every other key of any
    # table, or a library parameter that no config sets, is ignored
    command, body, reads = READS[case]
    reads = reads | COMMON
    monkeypatch.chdir(tmp_path)
    base = body.format(**settings_files) + "[experiment]\nseed = 0\n[output]\ndir = out\n"
    unread = (set().union(*(r for _, _, r in READS.values())) | HIDDEN_KEYS) - reads
    with np.errstate(all="ignore"):
        for values in ({}, dict.fromkeys(unread, "x")):
            code, status = one_status_line(capsys, [command, "--config", write(tmp_path / "c.ini", _with_values(base, values))])
            assert code == 0, (case, status)
        for section, key in sorted(reads):
            if (section, key) == ("output", "dir"):
                write(tmp_path / "x", "")  # a file where the output directory would go
            code, status = one_status_line(capsys, [command, "--config", write(tmp_path / "c.ini", _with_values(base, {(section, key): "x"}))])
            assert code == 2 and status["status"] == "usage_error", (case, section, key, status)
            named = re.search(r"\bx\b", status["error"]) if (section, key) in TEXT_KEYS else f"[{section}] {key}" in status["error"]
            assert named, (case, section, key, status["error"])
            if os.path.exists(tmp_path / "x"):
                os.remove(tmp_path / "x")


def _src_env():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_import_cli_leaves_out_scipy_integrate():
    code = "import sys, quam.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_cmd_train_round_trip(tmp_path, capsys):
    cfgp = write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "out"))
    code, status = run(capsys, "train", "--config", cfgp)
    assert code == 0 and status["status"] == "ok"
    params = M.load_checkpoint(status["checkpoint"])
    assert params.arch.widths == (2, 8, 2)
    assert os.path.exists(tmp_path / "out" / "config_echo.ini")
    assert os.path.exists(tmp_path / "out" / "train_log.jsonl")


def test_cmd_train_bit_identical_reruns(tmp_path, capsys):
    cfgp = write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "o1"))
    code1, s1 = run(capsys, "train", "--config", cfgp)
    code2, s2 = run(capsys, "train", "--config", cfgp, "--out", str(tmp_path / "o2"))
    b1 = open(s1["checkpoint"], "rb").read()
    b2 = open(s2["checkpoint"], "rb").read()
    assert b1 == b2


def test_one_parser_serves_commands_back_to_back(tmp_path, capsys):
    # the parser is built once per process; what one command's options set must not carry over to the next
    cfgp = write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "cfg_out"))
    _, s1 = run(capsys, "train", "--config", cfgp, "--seed", "5", "--out", str(tmp_path / "o1"))
    code, status = run(capsys, "eval", "--config", eval_config(tmp_path, [0.1, 0.2], [0.9], "auroc"))
    assert code == 0 and status["command"] == "eval" and status["auroc"] == 1.0
    _, s2 = run(capsys, "train", "--config", cfgp)
    assert s2["checkpoint"] == str(tmp_path / "cfg_out" / "model.ckpt")
    _, s3 = run(capsys, "train", "--config", cfgp, "--seed", "3", "--out", str(tmp_path / "o3"))
    assert open(s2["checkpoint"], "rb").read() == open(s3["checkpoint"], "rb").read() != open(s1["checkpoint"], "rb").read()
    assert cli._parser() is cli._parser()


def test_cmd_train_missing_dataset_exits_2(tmp_path, capsys):
    cfgp = write(
        tmp_path / "bad.ini",
        "[experiment]\nseed = 0\n[dataset]\nname = idx\nimages = /does/not/exist\nlabels = /n/a\n[arch]\nwidths = 4 2\n",
    )
    code, status = run(capsys, "train", "--config", cfgp, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "/does/not/exist" in status["error"]


def test_cmd_quam_records(tmp_path, capsys):
    cfgp = write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref"))
    _, s = run(capsys, "train", "--config", cfgp)
    pts = tmp_path / "points.csv"
    write(pts, "x0,x1\n-1.2,1.2\n0.5,0.5\n1.9,-0.7\n")
    qcfg = write(
        tmp_path / "q.ini",
        TRAIN_INI.format(out=tmp_path / "q_out")
        + f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n[search]\nsteps = 20\nlr = 0.01\n[estimator]\ntemperature = 0.1\nsetting = b\n",
    )
    code, status = run(capsys, "quam", "--config", qcfg)
    assert code == 0 and status["n"] == 3
    rows = [json.loads(l) for l in open(tmp_path / "q_out" / "scores.jsonl")]
    assert len(rows) == 3
    assert {"input_id", "aleatoric", "epistemic", "total"} <= set(rows[0])
    # trajectory files exist, one per class per input
    trajs = [f for f in os.listdir(tmp_path / "q_out") if f.startswith("trajectory_")]
    assert len(trajs) == 6

    # rerun reproduces identical records
    code2, _ = run(capsys, "quam", "--config", qcfg, "--out", str(tmp_path / "q2"))
    rows2 = [json.loads(l) for l in open(tmp_path / "q2" / "scores.jsonl")]
    assert rows == rows2


def test_cmd_train_that_diverges_in_its_last_update_exits_3_with_one_valid_json_line(tmp_path, capsys):
    # the one update moves every parameter by about 1e300: the batch loss
    # before it was finite, the training loss after it is not
    cfgp = write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref").replace("epochs = 60", "epochs = 1\nlr = 1e300"))
    with np.errstate(all="ignore"):
        code = main(["train", "--config", cfgp])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3 and len(lines) == 1

    def reject(constant):
        raise ValueError(f"not valid JSON: {constant}")

    assert json.loads(lines[0], parse_constant=reject)["status"] == "numerical_abort"
    assert not os.path.exists(tmp_path / "ref" / "model.ckpt")


def test_cmd_quam_jobs_parallel_identical(tmp_path, capsys):
    cfgp = write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref"))
    _, s = run(capsys, "train", "--config", cfgp)
    pts = tmp_path / "points.csv"
    write(pts, "x0,x1\n-1.2,1.2\n0.5,0.5\n")
    qcfg = write(
        tmp_path / "q.ini",
        TRAIN_INI.format(out=tmp_path / "qa")
        + f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n[search]\nsteps = 10\n[estimator]\nsetting = a\n",
    )
    _, _ = run(capsys, "quam", "--config", qcfg)
    _, _ = run(capsys, "quam", "--config", qcfg, "--jobs", "3", "--out", str(tmp_path / "qb"))
    a = open(tmp_path / "qa" / "scores.jsonl").read()
    b = open(tmp_path / "qb" / "scores.jsonl").read()
    assert a == b


def test_cmd_baseline_de_singleton_zero_epistemic(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    write(pts, "x0,x1\n-1.0,1.0\n0.3,0.2\n")
    cfgp = write(
        tmp_path / "b.ini",
        TRAIN_INI.format(out=tmp_path / "b_out") + f"[test_inputs]\nfile = {pts}\n[baseline]\nmethod = de\nn_members = 1\n",
    )
    code, status = run(capsys, "baseline", "--config", cfgp)
    assert code == 0
    rows = [json.loads(l) for l in open(tmp_path / "b_out" / "scores_a.jsonl")]
    assert all(r["epistemic"] == pytest.approx(0.0, abs=1e-12) for r in rows)


def test_cmd_baseline_mcd_matches_one_point_splits(tmp_path, capsys):
    drop = TRAIN_INI.format(out=tmp_path / "ref").replace("widths = 2 8 2", "widths = 2 8 2\ndropout_prob = 0.2")
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", drop))
    xs = np.array([[-1.0, 1.0], [0.3, 0.2], [2.0, -0.5]])
    pts = write(tmp_path / "points.csv", "x0,x1\n" + "".join(f"{a!r},{b!r}\n" for a, b in xs.tolist()))
    bcfg = write(
        tmp_path / "b.ini",
        drop.replace(str(tmp_path / "ref"), str(tmp_path / "b_out"))
        + f"[test_inputs]\nfile = {pts}\n[reference]\ncheckpoint = {s['checkpoint']}\n[baseline]\nmethod = mcd\nn_samples = 40\n",
    )
    code, status = run(capsys, "baseline", "--config", bcfg, "--seed", "4")
    assert code == 0 and status["n"] == 3
    ref = M.load_checkpoint(s["checkpoint"])
    sampler = mc_dropout(ref, 40, seed=4)
    for setting in ("a", "b"):
        rows = [json.loads(l) for l in open(tmp_path / "b_out" / f"scores_{setting}.jsonl")]
        assert [r["input_id"] for r in rows] == [0, 1, 2]
        for x, row in zip(xs, rows):
            preds = sampler.predictions(x)
            if setting == "a":
                (br,) = decompose_a("categorical", preds, np.ones(40))
            else:
                (br,) = decompose_b("categorical", M.predict_batch(ref, x[None]), preds, np.ones(40))
            assert row["epistemic"] == pytest.approx(br.epistemic, abs=1e-12, rel=0)
            assert row["total"] == pytest.approx(br.total, abs=1e-12, rel=0)


def test_cmd_baseline_unknown_method_exits_2(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    write(pts, "x0,x1\n0.0,0.0\n")
    cfgp = write(
        tmp_path / "b.ini",
        TRAIN_INI.format(out=tmp_path / "b_out") + f"[test_inputs]\nfile = {pts}\n[baseline]\nmethod = nosuch\n",
    )
    code, status = run(capsys, "baseline", "--config", cfgp)
    assert code == 2


def test_cmd_baseline_hmc_completes(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    write(pts, "x0,x1\n-1.0,1.0\n")
    small = TRAIN_INI.format(out=tmp_path / "ref").replace("widths = 2 8 2", "widths = 2 6 2")
    cfgp = write(tmp_path / "t.ini", small)
    _, s = run(capsys, "train", "--config", cfgp)
    bcfg = write(
        tmp_path / "b.ini",
        small.replace(str(tmp_path / "ref"), str(tmp_path / "hmc_out"))
        + f"[test_inputs]\nfile = {pts}\n[reference]\ncheckpoint = {s['checkpoint']}\n"
        + "[baseline]\nmethod = hmc\nn_samples = 60\nn_leapfrog = 10\nburn_in = 150\nstep_size = 0.002\n",
    )
    code, status = run(capsys, "baseline", "--config", bcfg)
    assert code == 0
    assert 0.3 <= status["sampling_acceptance_rate"] <= 1.0
    assert os.path.exists(tmp_path / "hmc_out" / "scores_b.jsonl")


def test_cmd_baseline_hmc_abort_is_a_numerical_abort_naming_the_chain(tmp_path, capsys):
    # at this step size every proposal is rejected, and auto-tuning cannot halve it small enough in 100 iterations
    pts = write(tmp_path / "points.csv", "x0,x1\n-1.0,1.0\n")
    bcfg = write(tmp_path / "b.ini", TRAIN_INI.format(out=tmp_path / "hmc_out") + f"[test_inputs]\nfile = {pts}\n[baseline]\nmethod = hmc\nn_leapfrog = 2\nstep_size = 1000\n")
    with np.errstate(all="ignore"):
        code, status = one_status_line(capsys, ["baseline", "--config", bcfg, "--seed", "7"])
    assert code == 3 and status["status"] == "numerical_abort"
    assert status["error"].startswith("chain 0 (seed 7): 100 consecutive rejections")


@pytest.mark.parametrize(
    "argv, command",
    [([], None), (["train"], "train"), (["quam", "--config", "c.ini", "--jobs", "x"], "quam"), (["frobnicate", "--config", "c.ini"], None)],
    ids=["no_command", "no_config", "jobs_not_an_int", "unknown_command"],
)
def test_argument_errors_are_one_usage_error_line(capsys, argv, command):
    code = main(argv)
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    status = json.loads(lines[0])
    assert status["status"] == "usage_error" and status["command"] == command and status["error"]
    assert captured.err.startswith("usage: quam")


@pytest.mark.parametrize("argv", [["--help"], ["baseline", "--help"]])
def test_help_exits_0_with_its_text(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quam")


def test_cmd_eval_perfect_and_null(tmp_path, capsys):
    id_p = tmp_path / "id.jsonl"
    ood_p = tmp_path / "ood.jsonl"
    with open(id_p, "w") as f:
        for v in (0.1, 0.2, 0.3):
            f.write(json.dumps({"input_id": 0, "epistemic": v}) + "\n")
    with open(ood_p, "w") as f:
        for v in (0.9, 1.2, 1.5):
            f.write(json.dumps({"input_id": 0, "epistemic": v}) + "\n")
    cfgp = write(
        tmp_path / "e.ini",
        f"[experiment]\nseed = 0\n[eval]\nid_scores = {id_p}\npositive_scores = {ood_p}\nmetrics = auroc,aupr,fpr_at_tpr95\n[output]\ndir = {tmp_path}/e_out\n",
    )
    code, status = run(capsys, "eval", "--config", cfgp)
    assert code == 0 and status["auroc"] == 1.0 and status["fpr_at_tpr95"] == 0.0
    # same file on both sides: pure ties -> 0.5
    cfg2 = write(
        tmp_path / "e2.ini",
        f"[experiment]\nseed = 0\n[eval]\nid_scores = {id_p}\npositive_scores = {id_p}\nmetrics = auroc\n[output]\ndir = {tmp_path}/e2_out\n",
    )
    code, status = run(capsys, "eval", "--config", cfg2)
    assert status["auroc"] == 0.5
    blob = json.load(open(tmp_path / "e2_out" / "metrics.json"))
    assert blob["records"][0]["metric"] == "auroc"
    assert "config" in blob


def test_cmd_eval_records_the_seed_override(tmp_path, capsys):
    id_p = write(tmp_path / "id.jsonl", json.dumps({"epistemic": 0.1}) + "\n")
    pos_p = write(tmp_path / "pos.jsonl", json.dumps({"epistemic": 0.9}) + "\n")
    cfgp = write(tmp_path / "e.ini", f"[experiment]\nseed = 0\n[eval]\nid_scores = {id_p}\npositive_scores = {pos_p}\nmetrics = auroc\n[output]\ndir = {tmp_path}/e_out\n")
    code, status = run(capsys, "eval", "--config", cfgp, "--seed", "5")
    assert code == 0
    assert [r["seed"] for r in json.load(open(status["out"]))["records"]] == [5]


def test_cmd_varstudy_monotone(tmp_path, capsys):
    cfgp = write(
        tmp_path / "v.ini",
        f"[experiment]\nseed = 0\n[varstudy]\nparameter = sigma_p2\nrange = 1.0 3.0\ncount = 5\n[output]\ndir = {tmp_path}/v_out\n",
    )
    code, status = run(capsys, "varstudy", "--config", cfgp)
    assert code == 0
    lines = open(status["out"]).read().splitlines()
    assert lines[0] == "sigma_p2,variance"
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b > a for a, b in zip(values, values[1:]))
    # degenerate single-point sweep
    cfg2 = write(
        tmp_path / "v2.ini",
        f"[experiment]\nseed = 0\n[varstudy]\nparameter = mu_p2\nrange = 3.0 3.0\ncount = 1\n[output]\ndir = {tmp_path}/v2_out\n",
    )
    code, status = run(capsys, "varstudy", "--config", cfg2)
    assert status["rows"] == 1


def test_cmd_simplex_row_count(tmp_path, capsys):
    cfgp = write(
        tmp_path / "s.ini",
        f"""
[experiment]
seed = 0
[dataset]
name = three_gaussians
seed = 0
[arch]
widths = 2 10 3
[train]
epochs = 60
[simplex]
resolution = 3
repeats = 2
[output]
dir = {tmp_path}/s_out
""",
    )
    code, status = run(capsys, "simplex", "--config", cfgp)
    assert code == 0
    assert status["rows"] == 6  # r(r+1)/2 for r=3
    lines = open(status["out"]).read().splitlines()
    assert lines[0] == "p0,p1,p2,median_likelihood,failures"
    assert len(lines) == 7


def test_cmd_grid_row_count(tmp_path, capsys):
    cfgp = write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref"))
    _, s = run(capsys, "train", "--config", cfgp)
    gcfg = write(
        tmp_path / "g.ini",
        TRAIN_INI.format(out=tmp_path / "g_out")
        + f"[reference]\ncheckpoint = {s['checkpoint']}\n[grid]\nresolution = 4\nx_range = -1 2\ny_range = -1 1.5\n[search]\nsteps = 8\n[estimator]\nsetting = a\n",
    )
    code, status = run(capsys, "grid", "--config", gcfg)
    assert code == 0 and status["rows"] == 16
    lines = open(status["out"]).read().splitlines()
    assert lines[0] == "x,y,total,aleatoric,epistemic,flags"
    assert len(lines) == 17
    # row-major order: y varies fastest within a row of constant x
    points = [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
    assert points == [(x, y) for x in np.linspace(-1, 2, 4) for y in np.linspace(-1, 1.5, 4)]


def test_cmd_grid_reports_nan_abort(tmp_path, capsys):
    # at this learning rate the first update overflows and every search aborts
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref")))
    extra = f"[reference]\ncheckpoint = {s['checkpoint']}\n[grid]\nresolution = 2\n[search]\nlr = 1e300\n[estimator]\nsetting = a\n"
    gcfg = write(tmp_path / "g.ini", TRAIN_INI.format(out=tmp_path / "g_out") + extra)
    with np.errstate(all="ignore"):
        code = main(["grid", "--config", gcfg])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3 and len(lines) == 1
    status = json.loads(lines[0])
    assert status["status"] == "numerical_abort"
    header, *rows = open(status["out"]).read().splitlines()
    assert header.endswith(",flags") and len(rows) == 4
    assert all("nan_abort" in row.split(",")[-1].split(";") for row in rows)


def _reject_constant(name):
    raise ValueError(f"the status line is not strict JSON: it holds {name}")


def one_status_line(capsys, argv):
    code = main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1, lines
    return code, json.loads(lines[0], parse_constant=_reject_constant)


@pytest.mark.parametrize(
    "command, section",
    [
        ("baseline", "[baseline]\nmethod = hmc\nn_leapfrog = -1\n"),
        ("baseline", "[baseline]\nmethod = hmc\nn_samples = 0\n"),
        ("baseline", "[baseline]\nmethod = hmc\nburn_in = -1\n"),
        ("baseline", "[baseline]\nmethod = csghmc\nsteps_per_cycle = 0\n"),
        ("grid", "[grid]\nresolution = 0\n"),
        ("grid", "[grid]\nx_range = nan 2.5\n"),
        ("grid", "[grid]\ny_range = -1 1.5 2\n"),
        ("varstudy", "[varstudy]\ncount = 0\n"),
        ("varstudy", "[varstudy]\nrange = nan 3\n"),
        ("varstudy", "[varstudy]\nrange = 1 inf\n"),
        ("varstudy", "[varstudy]\nrange = 1\n"),
        ("simplex", "[simplex]\ntest_point = nan 0.5\n"),
        ("simplex", "[simplex]\ntest_point = 0.5 0.5 0.5\n"),
        ("quam", "[search]\ngamma = nan\n"),
        ("quam", "[search]\neta_factor = nan\n"),
        ("quam", "[search]\neta_factor = inf\n"),
        ("quam", "[search]\nc0 = inf\n"),
        ("quam", "[search]\nlr = nan\n"),
        ("quam", "[search]\nweight_decay = inf\n"),
        ("baseline", "[baseline]\nmethod = hmc\nstep_size = nan\n"),
        ("baseline", "[baseline]\nmethod = hmc\nstep_size = 0\n"),
        ("baseline", "[baseline]\nmethod = hmc\nprior_precision = inf\n"),
        ("baseline", "[baseline]\nmethod = csghmc\nprior_precision = nan\n"),
        ("baseline", "[baseline]\nmethod = csghmc\ntemperature = nan\n"),
        ("baseline", "[baseline]\nmethod = csghmc\nstep_size = -0.001\n"),
        ("baseline", "[baseline]\nmethod = csghmc\nstep_size = inf\n"),
        ("train", "[train]\nlr = -0.01\n"),
        ("train", "[train]\nlr = nan\n"),
        ("train", "[train]\nweight_decay = inf\n"),
        ("train", "[dataset]\nnoise = nan\n"),
        ("train", "[dataset]\nnoise = inf\n"),
        ("train", "[dataset]\nnoise = -0.1\n"),
        # lr = 0: no search finds an adversary, so no point pools its models
        ("quam", "[search]\nlr = 0\n[estimator]\ntemperature = -1\n"),
        ("quam", "[search]\nlr = 0\n[estimator]\ntemperature = 0\n"),
        ("quam", "[search]\nlr = 0\n[estimator]\ntemperature = nan\n"),
        ("quam", "[search]\nlr = 0\n[estimator]\ntemperature = inf\n"),
        ("simplex", "[dataset]\nname = three_gaussians\n[arch]\nwidths = 2 4 3\n[simplex]\nresolution = 2\nrepeats = 0\n"),
        ("quam", "[dataset]\nn = 0\n"),
        ("train", "[dataset]\nn = -2\n"),
        ("quam", "[dataset]\nname = sine\nn = 0\n"),
        ("train", "[dataset]\nname = sine\nn = -2\n"),
        ("baseline", "[baseline]\nmethod = mcd\nn_samples = 0\n"),
    ],
    ids=[
        "hmc_n_leapfrog",
        "hmc_n_samples",
        "hmc_burn_in",
        "csghmc_steps_per_cycle",
        "grid_resolution",
        "grid_x_range_nan",
        "grid_y_range_three",
        "varstudy_count",
        "varstudy_range_nan",
        "varstudy_range_inf",
        "varstudy_range_one",
        "simplex_test_point_nan",
        "simplex_test_point_width",
        "search_gamma_nan",
        "search_eta_factor_nan",
        "search_eta_factor_inf",
        "search_c0_inf",
        "search_lr_nan",
        "search_weight_decay_inf",
        "hmc_step_size_nan",
        "hmc_step_size_zero",
        "hmc_prior_precision_inf",
        "csghmc_prior_precision_nan",
        "csghmc_temperature_nan",
        "csghmc_step_size_negative",
        "csghmc_step_size_inf",
        "train_lr_negative",
        "train_lr_nan",
        "train_weight_decay_inf",
        "dataset_noise_nan",
        "dataset_noise_inf",
        "dataset_noise_negative",
        "estimator_temperature_negative",
        "estimator_temperature_zero",
        "estimator_temperature_nan",
        "estimator_temperature_inf",
        "simplex_repeats_zero",
        "dataset_n_zero",
        "dataset_n_negative",
        "sine_n_zero",
        "sine_n_negative",
        "mcd_n_samples_zero",
    ],
)
def test_settings_that_do_no_work_are_usage_errors(tmp_path, capsys, command, section):
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref")))
    pts = write(tmp_path / "points.csv", "x0,x1\n0.5,0.5\n")
    extra = f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n"
    cfgp = write(tmp_path / "c.ini", TRAIN_INI.format(out=tmp_path / "c_out") + extra + section)
    code, status = one_status_line(capsys, [command, "--config", cfgp])
    assert code == 2 and status["status"] == "usage_error"
    key = section.strip().splitlines()[-1].split("=")[0].strip()
    assert key in status["error"]


@pytest.mark.parametrize("command", ["train", "quam"])
def test_real_valued_labels_on_a_categorical_head_are_a_usage_error(tmp_path, capsys, command):
    # cast to int, these targets would train the head on the labels 0 1 0 1
    data = write(tmp_path / "d.csv", "x0,y\n-1,0.7\n-0.3,1.9\n0.3,0.2\n1,1.2\n")
    ckpt = str(tmp_path / "ref.ckpt")
    M.save_checkpoint(M.init_params(M.ArchSpec((1, 4, 2)), 0), ckpt)
    pts = write(tmp_path / "points.csv", "x0\n0.5\n")
    cfgp = write(
        tmp_path / "c.ini",
        f"[dataset]\nname = csv\npath = {data}\nkind = regression\n[arch]\nwidths = 1 4 2\n[train]\nepochs = 5\n"
        f"[reference]\ncheckpoint = {ckpt}\n[test_inputs]\nfile = {pts}\n[search]\nsteps = 2\n[output]\ndir = {tmp_path}/out\n",
    )
    code, status = one_status_line(capsys, [command, "--config", cfgp])
    assert code == 2 and status["status"] == "usage_error"
    assert "class labels must be integers" in status["error"] and "0.7" in status["error"]


def test_a_non_finite_sampler_diagnostic_is_a_numerical_abort(tmp_path, capsys):
    # a finite but huge step size: every trajectory is rejected and its energy error is NaN
    pts = write(tmp_path / "points.csv", "x0,x1\n0.5,0.5\n")
    section = f"[test_inputs]\nfile = {pts}\n[baseline]\nmethod = hmc\nstep_size = 1e300\nn_samples = 3\nburn_in = 0\nn_leapfrog = 2\n"
    cfgp = write(tmp_path / "h.ini", TRAIN_INI.format(out=tmp_path / "h_out") + section)
    with np.errstate(all="ignore"):
        code, status = one_status_line(capsys, ["baseline", "--config", cfgp])
    assert code == 3 and status["status"] == "numerical_abort"
    assert "mean_abs_energy_error" in status["error"]


def test_an_arithmetic_error_is_a_numerical_abort(tmp_path, capsys):
    # the Gaussian log-density of a component mean near 1e308 overflows in Python floats
    cfgp = write(tmp_path / "v.ini", f"[varstudy]\nparameter = mu_p2\nrange = 0 1e308\n[output]\ndir = {tmp_path / 'v_out'}\n")
    code, status = one_status_line(capsys, ["varstudy", "--config", cfgp])
    assert code == 3 and status["status"] == "numerical_abort"
    assert status["error"].startswith("OverflowError")


@pytest.mark.parametrize("cell", ["nan", "inf", "abc", "0.3,0.4"], ids=["nan", "inf", "not_a_number", "extra_cell"])
def test_bad_test_input_cell_names_the_file_and_line(tmp_path, capsys, cell):
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref")))
    pts = write(tmp_path / "points.csv", f"x0,x1\n0.5,0.5\n{cell},0.1\n")
    extra = f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n[search]\nsteps = 2\n"
    code, status = one_status_line(capsys, ["quam", "--config", write(tmp_path / "q.ini", TRAIN_INI.format(out=tmp_path / "q_out") + extra)])
    assert code == 2 and status["status"] == "usage_error"
    assert f"{pts}, line 3" in status["error"]


def test_cmd_simplex_rejects_a_model_without_three_classes(tmp_path, capsys):
    cfgp = write(tmp_path / "s.ini", TRAIN_INI.format(out=tmp_path / "s_out") + "[simplex]\ntest_point = 0.5 0.5\nresolution = 3\nrepeats = 1\n")
    code, status = one_status_line(capsys, ["simplex", "--config", cfgp])
    assert code == 2 and status["status"] == "usage_error"
    assert "3-class categorical head" in status["error"]


SINE_INI = """
[experiment]
seed = 0
[dataset]
name = sine
n = 200
seed = 0
[arch]
widths = 1 16 2
head = gaussian_scalar
[train]
epochs = 300
[output]
dir = {out}
"""


def test_cmd_quam_gaussian_negative_entropy(tmp_path, capsys):
    # past the data the reference variance (about 0.0066 at x = -5) is far
    # below 1/(2 pi e), so every pooled differential entropy is negative
    cfgp = write(tmp_path / "t.ini", SINE_INI.format(out=tmp_path / "ref"))
    _, s = run(capsys, "train", "--config", cfgp)
    pts = write(tmp_path / "points.csv", "x0\n-5.0\n")
    qcfg = write(
        tmp_path / "q.ini",
        SINE_INI.format(out=tmp_path / "q_out")
        + f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n"
        + "[search]\nsteps = 100\nlr = 0.01\n[estimator]\ntemperature = 0.1\nsetting = a\n",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, status = run(capsys, "quam", "--config", qcfg)
    assert [str(w.message) for w in caught] == []
    assert code == 0 and status["status"] == "ok"
    (row,) = [json.loads(l) for l in open(tmp_path / "q_out" / "scores.jsonl")]
    assert row["total"] < 0.0
    assert row["total"] == pytest.approx(row["aleatoric"] + row["epistemic"], abs=1e-12)


def test_cmd_quam_gaussian_leaves_out_scipy_integrate(tmp_path):
    # a Gaussian-head split integrates on fixed nodes, without scipy.integrate
    cfgp = write(tmp_path / "t.ini", SINE_INI.format(out=tmp_path / "ref"))
    pts = write(tmp_path / "points.csv", "x0\n-5.0\n4.5\n")
    qcfg = write(
        tmp_path / "q.ini",
        SINE_INI.format(out=tmp_path / "q_out")
        + f"[reference]\ncheckpoint = {tmp_path / 'ref' / 'model.ckpt'}\n[test_inputs]\nfile = {pts}\n"
        + "[search]\nsteps = 20\nlr = 0.01\n[estimator]\ntemperature = 0.1\nsetting = a\n",
    )
    code = (
        "import json, sys\n"
        "from quam.cli import main\n"
        f"codes = [main(['train', '--config', {cfgp!r}]), main(['quam', '--config', {qcfg!r}])]\n"
        "print(json.dumps([codes, 'scipy.integrate' in sys.modules]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [[0, 0], False]
    assert len(open(tmp_path / "q_out" / "scores.jsonl").readlines()) == 2


def test_empty_test_input_file_is_a_usage_error(tmp_path, capsys):
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref")))
    pts = write(tmp_path / "points.csv", "x0,x1\n\n")
    extra = f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n"
    for command, section in (("quam", "[search]\nsteps = 5\n"), ("baseline", "[baseline]\nmethod = de\nn_members = 1\n")):
        cfgp = write(tmp_path / f"{command}.ini", TRAIN_INI.format(out=tmp_path / command) + extra + section)
        code = main([command, "--config", cfgp])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2 and len(lines) == 1
        status = json.loads(lines[0])
        assert status["status"] == "usage_error" and str(pts) in status["error"]


@pytest.mark.parametrize("first_line", ["0.5", "0.5,0.5", "1e3,-2"])
def test_test_input_file_whose_first_line_is_numbers_is_a_usage_error(tmp_path, capsys, first_line):
    # line 1 is the header: a file without one would lose its first point unread
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref")))
    pts = write(tmp_path / "points.csv", f"{first_line}\n4.0,4.0\n")
    extra = f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n[search]\nsteps = 2\n"
    code, status = one_status_line(capsys, ["quam", "--config", write(tmp_path / "q.ini", TRAIN_INI.format(out=tmp_path / "q_out") + extra)])
    assert code == 2 and status["status"] == "usage_error"
    assert f"{pts}, line 1:" in status["error"] and "header" in status["error"]


@pytest.mark.parametrize("header", ["x0,x1", "x,y", "nan,0.5", ""])
def test_test_input_header_row_may_be_any_line_that_is_not_finite_numbers(tmp_path, capsys, header):
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref")))
    pts = write(tmp_path / "points.csv", f"{header}\n0.5,0.5\n4.0,4.0\n")
    extra = f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n[search]\nsteps = 2\n"
    code, status = one_status_line(capsys, ["quam", "--config", write(tmp_path / "q.ini", TRAIN_INI.format(out=tmp_path / "q_out") + extra)])
    assert code == 0 and status["n"] == 2


def test_cmd_quam_truncated_checkpoint_exits_2(tmp_path, capsys):
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref")))
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(open(s["checkpoint"], "rb").read()[:14])
    pts = write(tmp_path / "points.csv", "x0,x1\n0.5,0.5\n")
    qcfg = write(tmp_path / "q.ini", TRAIN_INI.format(out=tmp_path / "q_out") + f"[reference]\ncheckpoint = {cut}\n[test_inputs]\nfile = {pts}\n")
    code = main(["quam", "--config", qcfg])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0])["status"] == "usage_error"


def test_directory_in_place_of_an_input_file_exits_2(tmp_path, capsys):
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref")))
    pts = write(tmp_path / "points.csv", "x0,x1\n0.5,0.5\n")
    for key, checkpoint, points in (("checkpoint", tmp_path, pts), ("file", s["checkpoint"], tmp_path)):
        extra = f"[reference]\ncheckpoint = {checkpoint}\n[test_inputs]\nfile = {points}\n[search]\nsteps = 2\n"
        qcfg = write(tmp_path / "q.ini", TRAIN_INI.format(out=tmp_path / "q_out") + extra)
        code = main(["quam", "--config", qcfg])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2 and len(lines) == 1, key
        status = json.loads(lines[0])
        assert status["status"] == "usage_error" and str(tmp_path) in status["error"], key


@pytest.mark.parametrize("ini", [TRAIN_INI, SINE_INI], ids=["categorical", "gaussian"])
def test_cmd_quam_reports_nan_abort(tmp_path, capsys, ini):
    # at this learning rate the first update overflows and every search aborts
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", ini.format(out=tmp_path / "ref")))
    pts = write(tmp_path / "points.csv", ("x0,x1\n0.5,0.5\n" if ini is TRAIN_INI else "x0\n4.5\n"))
    extra = f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n[search]\nlr = 1e300\n[estimator]\nsetting = a\n"
    qcfg = write(tmp_path / "q.ini", ini.format(out=tmp_path / "q_out") + extra)
    with np.errstate(all="ignore"):
        code = main(["quam", "--config", qcfg])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3 and len(lines) == 1
    assert json.loads(lines[0])["status"] == "numerical_abort"
    (row,) = [json.loads(l) for l in open(tmp_path / "q_out" / "scores.jsonl")]
    assert "nan_abort" in row["flags"]


@pytest.mark.parametrize("command, x0", [("quam", "1e6"), ("quam", "1e200"), ("baseline", "1e6")], ids=["quam_1e6", "quam_1e200", "hmc_1e6"])
def test_prediction_row_that_underflowed_is_a_numerical_abort_naming_the_input(tmp_path, capsys, command, x0):
    # this small sine model's variance at x = 1e6 is exp(-197147), which
    # underflows to 0: the input is a finite number, so the fault is the model's
    ini = SINE_INI.replace("n = 200", "n = 60").replace("epochs = 300", "epochs = 60\nlr = 0.01")
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", ini.format(out=tmp_path / "ref")))
    pts = write(tmp_path / "points.csv", f"x0\n{x0}\n")
    extra = f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n"
    section = "[search]\nsteps = 5\n" if command == "quam" else "[baseline]\nmethod = hmc\nn_samples = 5\nburn_in = 5\nn_leapfrog = 3\n"
    cfgp = write(tmp_path / "c.ini", ini.format(out=tmp_path / command) + extra + section)
    with np.errstate(all="ignore"):
        code, status = one_status_line(capsys, [command, "--config", cfgp])
    assert code == 3 and status["status"] == "numerical_abort"
    assert f"at inputs [[{float(x0)!r}]]: rows are not (mean, variance > 0) pairs" in status["error"]


def test_cmd_eval_missing_field_is_a_usage_error(tmp_path, capsys):
    id_p = write(tmp_path / "id.jsonl", json.dumps({"input_id": 0, "epistemic": 0.1}) + "\n")
    for bad in ({"input_id": 0, "total": 0.9}, {"input_id": 0, "epistemic": None}, [0.9]):
        pos_p = write(tmp_path / "pos.jsonl", json.dumps(bad) + "\n")
        cfgp = write(tmp_path / "e.ini", f"[eval]\nid_scores = {id_p}\npositive_scores = {pos_p}\nmetrics = auroc\n[output]\ndir = {tmp_path}/e_out\n")
        code = main(["eval", "--config", cfgp])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2 and len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert "'epistemic'" in error and str(pos_p) in error


def test_cmd_eval_reads_only_json_numbers(tmp_path, capsys):
    # a boolean or a string is not a score, even where float() would take it
    id_p = write(tmp_path / "id.jsonl", json.dumps({"input_id": 0, "epistemic": 0.1}) + "\n")
    for bad in (True, False, "0.2", "inf"):
        pos_p = write(tmp_path / "pos.jsonl", json.dumps({"input_id": 0, "epistemic": bad}) + "\n")
        cfgp = write(tmp_path / "e.ini", f"[eval]\nid_scores = {id_p}\npositive_scores = {pos_p}\nmetrics = auroc\n[output]\ndir = {tmp_path}/e_out\n")
        code, status = one_status_line(capsys, ["eval", "--config", cfgp])
        assert code == 2 and status["status"] == "usage_error", bad
        assert "without a number in the field 'epistemic'" in status["error"] and str(pos_p) in status["error"]
    for good in (1, 0.9, float("inf")):
        pos_p = write(tmp_path / "pos.jsonl", json.dumps({"input_id": 0, "epistemic": good}) + "\n")
        cfgp = write(tmp_path / "e.ini", f"[eval]\nid_scores = {id_p}\npositive_scores = {pos_p}\nmetrics = auroc\n[output]\ndir = {tmp_path}/e_out\n")
        code, status = one_status_line(capsys, ["eval", "--config", cfgp])
        assert code == 0 and status["auroc"] == 1.0, good


def eval_config(tmp_path, id_values, positive_values, metrics):
    id_p = write(tmp_path / "id.jsonl", "".join(json.dumps({"input_id": i, "epistemic": v}) + "\n" for i, v in enumerate(id_values)))
    pos_p = write(tmp_path / "pos.jsonl", "".join(json.dumps({"input_id": i, "epistemic": v}) + "\n" for i, v in enumerate(positive_values)))
    return write(tmp_path / "e.ini", f"[eval]\nid_scores = {id_p}\npositive_scores = {pos_p}\nmetrics = {metrics}\n[output]\ndir = {tmp_path}/e_out\n")


def test_cmd_eval_counts_tied_infinite_scores_as_one_threshold(tmp_path, capsys):
    # setting-b rows that violate the reference's support score Infinity
    cfgp = eval_config(tmp_path, [np.inf, np.inf, 0.2], [np.inf, np.inf, 0.1], "aupr")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, status = run(capsys, "eval", "--config", cfgp)
    assert code == 0 and status["aupr"] == 0.5
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("id_value, metrics", [(float("nan"), "auroc"), (0.1, "fpr_at_tpr150")], ids=["nan_score", "tpr_target_above_1"])
def test_cmd_eval_nan_score_or_bad_tpr_target_exits_2(tmp_path, capsys, id_value, metrics):
    code = main(["eval", "--config", eval_config(tmp_path, [id_value, 0.2], [0.9], metrics)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0])["status"] == "usage_error"


def test_cmd_eval_without_metrics_is_a_usage_error(tmp_path, capsys):
    code, status = one_status_line(capsys, ["eval", "--config", eval_config(tmp_path, [0.1], [0.9], "")])
    assert code == 2 and status["status"] == "usage_error" and "[eval] metrics" in status["error"]
    assert not os.path.exists(tmp_path / "e_out" / "metrics.json")


def test_benchmark_tracer_targets_that_do_not_resolve():
    # the tracer skips a target it cannot find, and that target's per-layer
    # rows read 0; a deletion that zeroes more rows has to name them here
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for label, (module_name, attr) in tracer.TARGETS.items():
        owner = importlib.import_module(module_name)
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if owner is None:
            missing.append(label)
    assert sorted(missing) == sorted(
        [
            "models.nll_graph",
            "models.predict",
            "search.adversarial_model_search",
            "estimator.quam_score",
            "samplers.predictive_samples",
            "measures.kl_cat",
            "measures.kl_gauss",
            "measures.entropy_cat",
        ]
    )


def test_benchmark_tracer_installs_on_the_cli():
    # bench/tracer.py wraps quam's functions by name, and bench/child.py
    # passes --jobs 1; renaming or deleting what either uses breaks the
    # traced benchmark runs
    bench = os.path.join(os.path.dirname(__file__), "..", "bench")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {bench!r})\n"
        "import quam.cli\n"
        "from tracer import TARGETS, Tracer\n"
        "Tracer().install()\n"
        "quam.cli.main(['train', '--jobs', '1', '--config', '/nonexistent.ini'])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1])["status"] == "usage_error"


def test_benchmark_tracer_runs_an_hmc_baseline(tmp_path):
    # the tracer's hook on samplers.hmc reads the diagnostics of the one
    # SamplerOutput that an int-seed hmc_posterior's call returns
    bench = os.path.join(os.path.dirname(__file__), "..", "bench")
    pts = write(tmp_path / "p.csv", "x0,x1\n0.5,0.5\n")
    section = f"[test_inputs]\nfile = {pts}\n[baseline]\nmethod = hmc\nn_samples = 3\nburn_in = 5\nn_leapfrog = 2\n"
    cfgp = write(tmp_path / "h.ini", TRAIN_INI.format(out=tmp_path / "h_out") + section)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {bench!r})\n"
        "import quam.cli\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        f"quam.cli.main(['baseline', '--jobs', '1', '--config', {cfgp!r}])\n"
        "print(tracer.counts['samplers.hmc.accept'])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    status, accept = out.stdout.strip().splitlines()[-2:]
    assert json.loads(status)["status"] == "ok" and float(accept) == json.loads(status)["acceptance_rate"]
