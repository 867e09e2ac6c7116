import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from quam import models as M
from quam import cli
from quam.cli import load_search_config, load_train_config, main
from quam.config import ConfigError, ExperimentConfig
from quam.data import gen_two_moons, to_csv
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


def test_search_defaults_are_the_library_defaults():
    cfg = ExperimentConfig.loads("[search]\n")
    assert load_search_config(cfg, 7) == SearchConfig(seed=7)
    assert load_train_config(ExperimentConfig.loads("[train]\n"), 7) == M.TrainConfig(seed=7)


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


def test_cmd_train_nan_lr_exits_3_with_one_valid_json_line(tmp_path, capsys):
    # the one update leaves every parameter NaN while the batch loss before it was finite
    cfgp = write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref").replace("epochs = 60", "epochs = 1\nlr = nan"))
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


def one_status_line(capsys, argv):
    code = main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1, lines
    return code, json.loads(lines[0])


@pytest.mark.parametrize(
    "command, section",
    [
        ("baseline", "[baseline]\nmethod = hmc\nn_leapfrog = -1\n"),
        ("baseline", "[baseline]\nmethod = hmc\nn_samples = 0\n"),
        ("baseline", "[baseline]\nmethod = hmc\nburn_in = -1\n"),
        ("baseline", "[baseline]\nmethod = csghmc\nsteps_per_cycle = 0\n"),
        ("grid", "[grid]\nresolution = 0\n"),
        ("varstudy", "[varstudy]\ncount = 0\n"),
    ],
    ids=["hmc_n_leapfrog", "hmc_n_samples", "hmc_burn_in", "csghmc_steps_per_cycle", "grid_resolution", "varstudy_count"],
)
def test_settings_that_do_no_work_are_usage_errors(tmp_path, capsys, command, section):
    _, s = run(capsys, "train", "--config", write(tmp_path / "t.ini", TRAIN_INI.format(out=tmp_path / "ref")))
    pts = write(tmp_path / "points.csv", "x0,x1\n0.5,0.5\n")
    extra = f"[reference]\ncheckpoint = {s['checkpoint']}\n[test_inputs]\nfile = {pts}\n"
    cfgp = write(tmp_path / "c.ini", TRAIN_INI.format(out=tmp_path / "c_out") + extra + section)
    code, status = one_status_line(capsys, [command, "--config", cfgp])
    assert code == 2 and status["status"] == "usage_error"


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
