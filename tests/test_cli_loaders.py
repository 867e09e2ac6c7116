"""Malformed input files through `quam.cli.main`: every loader input ends in
exactly one JSON status line with exit code 0 (the input was usable) or 2
(usage error), never in a traceback.

The fuzz tests cover the config, checkpoint, IDX, CSV dataset, test-input
and score-file loaders.  Their `@example`s pin inputs that once escaped the
contract: a header-only CSV, a NaN CSV cell, and IDX headers whose declared
size overflows or exceeds the file.  A last property sets the float
settings of train, quam and the hmc and csghmc baselines to extreme values:
each run ends in one strict JSON status line, with exit 3 (numerical abort)
allowed besides 0 and 2.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quam.cli import main
from quam.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC

FUZZ = settings(derandomize=True, deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])

MOONS = "[dataset]\nname = two_moons\nn = 40\nseed = 0\n[arch]\nwidths = 2 4 2\n[train]\nepochs = 2\n"


def write(path, content):
    mode = "wb" if isinstance(content, bytes) else "w"
    with open(path, mode) as f:
        f.write(content)
    return str(path)


def status_of(capsys, tmp_path, command, config, *flags):
    """Run one command on `config`, with `flags` after the config's; assert the contract and return (exit code, status)."""
    cfgp = write(tmp_path / "fuzz.ini", config)
    with np.errstate(all="ignore"):
        code = main([command, "--config", cfgp, "--out", str(tmp_path / "out"), *flags])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1, lines
    status = json.loads(lines[0])
    assert (code, status["status"]) in ((0, "ok"), (2, "usage_error")), (code, status)
    return code, status


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ref")
    cfgp = write(tmp / "train.ini", MOONS)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", cfgp, "--out", str(tmp)]) == 0
    return (tmp / "model.ckpt").read_bytes()


def idx_files(tmp_path, count, rows, cols, payload, label_count, labels):
    images = write(tmp_path / "images", struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols) + payload)
    labels = write(tmp_path / "labels", struct.pack(">II", IDX_LABELS_MAGIC, label_count) + labels)
    return f"[dataset]\nname = idx\nimages = {images}\nlabels = {labels}\n[arch]\nwidths = 4 3 2\n[train]\nepochs = 1\n"


@pytest.mark.parametrize(
    "kind, content",
    [
        ("csv", "x0,x1,y\n"),
        ("csv", "x0,x1,y\n0.5,nan,1\n"),
        ("csv", "x0,x1,y\n0.5,0.5,1\n0.5,0.5\n"),
        ("csv", "x0,x1,y\n0.5,0.5,1.5\n"),
        ("idx", (2**32 - 1, 2**32 - 1, 2**32 - 1)),
        ("idx", (8192, 8192, 8192)),
    ],
    ids=["csv_header_only", "csv_nan_cell", "csv_ragged_row", "csv_fractional_label", "idx_size_overflows", "idx_size_exceeds_file"],
)
def test_malformed_dataset_file_is_a_usage_error(tmp_path, capsys, kind, content):
    if kind == "csv":
        path = write(tmp_path / "d.csv", content)
        config = f"[dataset]\nname = csv\npath = {path}\n[arch]\nwidths = 2 4 2\n[train]\nepochs = 1\n"
    else:
        path = str(tmp_path / "images")
        config = idx_files(tmp_path, *content, b"\0" * 64, content[0], b"\0" * 64)
    code, status = status_of(capsys, tmp_path, "train", config)
    assert code == 2 and path in status["error"]


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("quam", "search", "eta_every", "0"),
        ("quam", "search", "eta_every", "-1"),
        ("quam", "search", "batch_size", "0"),
        ("quam", "search", "batch_size", "-5"),
        ("train", "train", "epochs", "-1"),
        ("train", "train", "batch_size", "-3"),
        ("train", "train", "batch_size", "0"),
        ("train", "experiment", "seed", "-1"),
        ("train", None, "--seed", "-5"),
        ("train", "dataset", "seed", "-2"),
    ],
)
def test_search_and_train_settings_that_cannot_run_are_usage_errors(tmp_path, capsys, checkpoint, command, section, key, value):
    # these once died in a ZeroDivisionError, got numpy's message, or reported
    # ok after searching with c growing every step or not training at all; a
    # row without a section sets a command-line flag
    config = MOONS
    if command == "quam":
        ckpt = write(tmp_path / "model.ckpt", checkpoint)
        points = write(tmp_path / "points.csv", "x0,x1\n0.5,0.5\n")
        config += f"[reference]\ncheckpoint = {ckpt}\n[test_inputs]\nfile = {points}\n[search]\nsteps = 2\n"
    if section is None:
        code, status = status_of(capsys, tmp_path, command, config, key, value)
    else:
        code, status = status_of(capsys, tmp_path, command, config + f"[{section}]\n{key} = {value}\n")
    assert code == 2 and key in status["error"], status
    assert key != "seed" or f"[{section}] seed" in status["error"], status  # the CLI's seed keys name their section


CONFIG_KEYS = [("dataset", k) for k in ("name", "n", "noise", "seed", "kind")] + [("arch", k) for k in ("widths", "head", "dropout_prob")] + [("train", k) for k in ("epochs", "batch_size")]
CONFIG_VALUES = ["two_moons", "sine", "three_gaussians", "csv", "x", "", "-2", "0", "3", "8", "1.5", "nan", "2 4 2", "2 0 2", "1 4 2", "gaussian_scalar"]


@FUZZ
@given(
    st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES), max_size=4),
    st.lists(st.one_of(st.sampled_from(["[]", "[", "key", "= 1", "# comment"]), st.text(max_size=12)), max_size=2),
)
@example({}, [])  # usable
def test_fuzzed_config(tmp_path, capsys, values, junk):
    # a usable config with fuzzed values, then junk lines
    config = {("dataset", "name"): "two_moons", ("dataset", "n"): "8", ("arch", "widths"): "2 4 2", ("train", "epochs"): "1", **values}
    text = "".join(f"[{section}]\n{key} = {value}\n" for (section, key), value in config.items())
    status_of(capsys, tmp_path, "train", text + "".join(line + "\n" for line in junk))


@FUZZ
@given(st.integers(0, 48), st.binary(max_size=8), st.integers(0, 80), st.binary(max_size=16))
@example(0, b"", 0, b"")  # usable
def test_fuzzed_checkpoint(tmp_path, capsys, checkpoint, at, patch, cut, tail):
    # bytes overwritten in or after the header, and the end cut or extended
    blob = (checkpoint[:at] + patch + checkpoint[at + len(patch) :])[: len(checkpoint) - cut] + tail
    path = write(tmp_path / "model.ckpt", blob)
    points = write(tmp_path / "points.csv", "x0,x1\n0.5,0.5\n")
    status_of(capsys, tmp_path, "quam", MOONS + f"[reference]\ncheckpoint = {path}\n[test_inputs]\nfile = {points}\n[search]\nsteps = 1\n")


@FUZZ
@given(
    st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1)),
    st.integers(0, 4),
    st.integers(0, 4),
    st.binary(max_size=40),
    st.integers(0, 8),
    st.binary(max_size=8),
)
@example(2**32 - 1, 2**32 - 1, 2**32 - 1, b"", 1, b"\0")  # declared size overflows
@example(8192, 8192, 8192, b"", 1, b"\0")  # declared size exceeds the file
@example(3, 2, 2, bytes(range(12)), 3, b"\0\1\0")  # usable
def test_fuzzed_idx(tmp_path, capsys, count, rows, cols, payload, label_count, labels):
    status_of(capsys, tmp_path, "train", idx_files(tmp_path, count, rows, cols, payload, label_count, labels))


CELLS = st.sampled_from(["0", "1", "2", "0.5", "-1", "1e400", "nan", "inf", "abc", "", " 1"])


@FUZZ
@given(st.sampled_from(["x0,x1,y", "x0,y", "y", ""]), st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=5))
@example("x0,x1,y", [])  # header only
@example("x0,x1,y", [["0.5", "nan", "1"]])  # NaN cell
@example("x0,x1,y", [["0.5", "0.5", "1"], ["-1", "0", "0"]])  # usable
def test_fuzzed_csv_dataset(tmp_path, capsys, header, rows):
    path = write(tmp_path / "d.csv", "\n".join([header] + [",".join(r) for r in rows]) + "\n")
    status_of(capsys, tmp_path, "train", f"[dataset]\nname = csv\npath = {path}\n[arch]\nwidths = 2 4 2\n[train]\nepochs = 1\n")


@FUZZ
@given(st.lists(st.lists(st.sampled_from(["0.5", "-1", "3", "1e3", "nan", "inf", "abc", ""]), min_size=1, max_size=3), max_size=3))
@example([["0.5", "0.5"]])  # usable
def test_fuzzed_test_inputs(tmp_path, capsys, checkpoint, rows):
    ckpt = write(tmp_path / "model.ckpt", checkpoint)
    points = write(tmp_path / "points.csv", "\n".join(["x0,x1"] + [",".join(r) for r in rows]) + "\n")
    status_of(capsys, tmp_path, "quam", MOONS + f"[reference]\ncheckpoint = {ckpt}\n[test_inputs]\nfile = {points}\n[search]\nsteps = 1\n")


SCORE_LINES = st.one_of(
    st.builds(lambda v: json.dumps({"input_id": 0, "epistemic": v}), st.one_of(st.floats(), st.integers(), st.text(max_size=4), st.none(), st.booleans(), st.lists(st.integers(), max_size=2))),
    st.builds(json.dumps, st.one_of(st.lists(st.floats(), max_size=2), st.integers(), st.text(max_size=4))),
    st.text(max_size=12),
)


@FUZZ
@given(st.lists(SCORE_LINES, max_size=4), st.lists(SCORE_LINES, max_size=4))
@example([json.dumps({"epistemic": 0.1})], [json.dumps({"epistemic": 0.9})])  # usable
@example([json.dumps({"epistemic": 10**400})], [json.dumps({"epistemic": 0.9})])  # an integer beyond float range
def test_fuzzed_score_files(tmp_path, capsys, id_lines, positive_lines):
    id_p = write(tmp_path / "id.jsonl", "\n".join(id_lines) + "\n")
    pos_p = write(tmp_path / "pos.jsonl", "\n".join(positive_lines) + "\n")
    status_of(capsys, tmp_path, "eval", f"[eval]\nid_scores = {id_p}\npositive_scores = {pos_p}\nmetrics = auroc,aupr,fpr_at_tpr95\n")


def _reject_constant(name):
    raise ValueError(f"the status line is not strict JSON: it holds {name}")


EXTREMES = ["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300"]

# case -> (command, extra config, {key: (section, typical value)})
FLOAT_SETTINGS = {
    "train": ("train", "", {"noise": ("dataset", "0.1"), "dropout_prob": ("arch", "0.2"), "lr": ("train", "0.01"), "weight_decay": ("train", "0.001")}),
    "quam": (
        "quam",
        "[search]\nsteps = 2\n",
        {
            **{k: ("search", v) for k, v in (("c0", "1"), ("eta_factor", "1.5"), ("gamma", "0.01"), ("lr", "0.01"), ("weight_decay", "0.001"))},
            "temperature": ("estimator", "0.1"),
            "noise": ("dataset", "0.1"),
        },
    ),
    "hmc": ("baseline", "[baseline]\nmethod = hmc\nn_samples = 3\nburn_in = 2\nn_leapfrog = 2\n", {k: ("baseline", v) for k, v in (("step_size", "0.002"), ("temperature", "1"), ("prior_precision", "1"))}),
    "csghmc": ("baseline", "[baseline]\nmethod = csghmc\ncycles = 1\nsteps_per_cycle = 4\n", {k: ("baseline", v) for k, v in (("step_size", "0.001"), ("temperature", "1"), ("prior_precision", "1"))}),
}


@pytest.mark.parametrize("case", sorted(FLOAT_SETTINGS))
@settings(FUZZ, max_examples=80)
@given(st.data())
def test_fuzzed_float_settings(tmp_path, capsys, checkpoint, case, data):
    command, extra, keys = FLOAT_SETTINGS[case]
    chosen = data.draw(st.lists(st.sampled_from(sorted(keys)), min_size=1, max_size=3, unique=True))
    config = MOONS + extra + "".join(f"[{keys[k][0]}]\n{k} = {data.draw(st.sampled_from(EXTREMES + [keys[k][1]]), label=k)}\n" for k in chosen)
    if command != "train":
        ckpt = write(tmp_path / "model.ckpt", checkpoint)
        points = write(tmp_path / "points.csv", "x0,x1\n0.5,0.5\n")
        config += f"[reference]\ncheckpoint = {ckpt}\n[test_inputs]\nfile = {points}\n"
    cfgp = write(tmp_path / "fuzz.ini", config)
    with np.errstate(all="ignore"):
        code = main([command, "--config", cfgp, "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1, lines
    status = json.loads(lines[0], parse_constant=_reject_constant)
    assert (code, status["status"]) in ((0, "ok"), (2, "usage_error"), (3, "numerical_abort")), (code, status)
