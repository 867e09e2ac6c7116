"""Byte identity of the CLI's outputs: sha256 digests of a fixed small set of runs.

The set runs in process through `quam.cli.main`: `train` of two moons with
and without dropout (the dropout one on mini-batches), of a deeper
2-16-16-2 net on 200 rows and of the sine Gaussian head; `quam` on a full
batch (setting b, three points in one lock-step batch), on mini-batches of
the last layer (setting a) and on the sine head; `quam` of the deeper net
at three points, one of them (1e307, -1e307), on a full batch and on
mini-batches, where one of that point's searches hits a non-finite loss
mid-run and the batch's other searches go on; `baseline` hmc (short, tuned
over a 120-iteration burn-in, and with no leapfrog steps), mcd, csghmc and
de; a 3 x 3 `grid`; and an `eval` of two of the score files.  Every
output file but the config echo, and every status line, is hashed and
compared with `GOLDEN`.

The bits of every output depend on the BLAS kernel that runs the GEMMs, so
the table is keyed by the OpenBLAS core that numpy's OpenBLAS picks at run
time.  On a core the table does not hold the test skips and names the core;
it never passes without comparing.  A change that moves bits on purpose
records the new table: `PYTHONPATH=src python tests/test_golden.py` prints
the digests of this host's core.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest

from quam.cli import main

MOONS = "[dataset]\nname = two_moons\nn = 80\nnoise = 0.1\nseed = 0\n"
SINE = "[dataset]\nname = sine\nn = 60\nseed = 0\n"
ARCH = "[arch]\nwidths = 2 8 2\n"
DROPOUT_ARCH = "[arch]\nwidths = 2 8 8 2\ndropout_prob = 0.2\n"
SINE_ARCH = "[arch]\nwidths = 1 16 2\nhead = gaussian_scalar\n"
TRAIN = "[train]\nepochs = 40\nlr = 0.01\n"
SEARCH = "[search]\nsteps = 12\nlr = 0.01\n"
MOONS_200 = MOONS.replace("n = 80", "n = 200")
DEEP = MOONS_200 + "[reference]\ncheckpoint = train_deep/model.ckpt\n[test_inputs]\nfile = moons_far.csv\n[search]\nsteps = 30\nlr = 0.01\n"
FAR = {"moons_far.csv": "x0,x1\n1e307,-1e307\n-1.2,1.2\n0.5,0.5\n"}
HMC = MOONS + ARCH + "[reference]\ncheckpoint = train_moons/model.ckpt\n[test_inputs]\nfile = moons_points.csv\n[baseline]\nmethod = hmc\n"

# (output directory, command and flags, config body, extra files): each run reads the outputs of those before it
RUNS = [
    ("train_moons", "train", MOONS + ARCH + TRAIN, {}),
    ("train_dropout", "train", MOONS + DROPOUT_ARCH + TRAIN + "batch_size = 32\n", {}),
    ("train_sine", "train", SINE + SINE_ARCH + "[train]\nepochs = 60\nlr = 0.01\n", {}),
    ("train_deep", "train", MOONS_200 + "[arch]\nwidths = 2 16 16 2\n[train]\nepochs = 300\n", {}),
    (
        "quam_full",
        "quam --jobs 3",
        MOONS + ARCH + "[reference]\ncheckpoint = train_moons/model.ckpt\n[test_inputs]\nfile = moons_points.csv\n" + SEARCH + "[estimator]\nsetting = b\n",
        {"moons_points.csv": "x0,x1\n0.5,0.25\n-1.0,1.0\n2.0,-0.5\n"},
    ),
    (
        "quam_minibatch_last",
        "quam",
        MOONS
        + ARCH
        + "[reference]\ncheckpoint = train_moons/model.ckpt\n[test_inputs]\nfile = moons_two.csv\n"
        + SEARCH
        + "batch_size = 16\ndelta_scope = last_layer\n[estimator]\nsetting = a\n",
        {"moons_two.csv": "x0,x1\n1.5,0.5\n0.0,-0.75\n"},
    ),
    (
        "quam_sine",
        "quam",
        SINE + SINE_ARCH + "[reference]\ncheckpoint = train_sine/model.ckpt\n[test_inputs]\nfile = sine_points.csv\n" + SEARCH + "[estimator]\nsetting = a\n",
        {"sine_points.csv": "x\n0.5\n4.0\n"},
    ),
    # the far point's class-1 search aborts after 20 updates (13 on mini-batches); its class-0 search does not
    ("quam_abort", "quam --jobs 3", DEEP + "[estimator]\nsetting = b\n", FAR),
    ("quam_abort_minibatch", "quam --jobs 3", DEEP + "batch_size = 64\n[estimator]\nsetting = b\n", {}),
    ("hmc", "baseline", HMC + "n_samples = 10\nburn_in = 30\nn_leapfrog = 5\n", {}),
    # tuned at iterations 24, 49, 74 and 99: two doublings, then the last stretch's halvings, with rejections
    ("hmc_tuned", "baseline", HMC + "n_samples = 10\nburn_in = 120\nn_leapfrog = 5\nstep_size = 0.03\n", {}),
    # no leapfrog steps: every proposal is the chain's own position and is accepted; tuning still doubles the step
    ("hmc_static", "baseline", HMC + "n_samples = 10\nburn_in = 100\nn_leapfrog = 0\n", {}),
    (
        "mcd",
        "baseline",
        MOONS + DROPOUT_ARCH + "[reference]\ncheckpoint = train_dropout/model.ckpt\n[test_inputs]\nfile = moons_points.csv\n[baseline]\nmethod = mcd\nn_samples = 20\n",
        {},
    ),
    ("csghmc", "baseline", MOONS + ARCH + "[test_inputs]\nfile = moons_points.csv\n[baseline]\nmethod = csghmc\ncycles = 2\nsteps_per_cycle = 10\n", {}),
    ("de", "baseline", MOONS + ARCH + TRAIN + "[test_inputs]\nfile = moons_points.csv\n[baseline]\nmethod = de\nn_members = 2\n", {}),
    ("grid", "grid", MOONS + ARCH + "[reference]\ncheckpoint = train_moons/model.ckpt\n[grid]\nresolution = 3\n" + SEARCH.replace("12", "6") + "[estimator]\nsetting = a\n", {}),
    ("eval", "eval", "[eval]\nid_scores = quam_full/scores.jsonl\npositive_scores = quam_minibatch_last/scores.jsonl\n", {}),
]

GOLDEN = {
    'SkylakeX': {
        'train_moons/status': 'fbf3a5d53a1b3cebae9ecfca3274ccfb283df9addd0efb0e690542b3e3bbf6d8',
        'train_moons/model.ckpt': '04d016f1ec5d3fce6b07f5f67a99e6b537a8252c6e661cedfaccf210ee0792bb',
        'train_moons/train_log.jsonl': 'cec1fa23cb7d1aa4fbb32943cdbac8a0428c0e7b1cf96f26ce8d939b7ceb500a',
        'train_dropout/status': 'b7198733691aeca6007482aa9b14f82fed44a1c4b37127884713019a0d0e3d61',
        'train_dropout/model.ckpt': 'ab847a64805ef07e630e5a3df56b3e30909b6213cfccbc7f2d4fbdd78aaf5d74',
        'train_dropout/train_log.jsonl': 'e4b0e2c3f7482773e4dc817fe2d568e1e4e14fcbb4df4c41616d35732b8b98e1',
        'train_sine/status': '9ba99df49727e1815bec2675de04215a294f2b841f1e78530faeb151de1c871c',
        'train_sine/model.ckpt': '6f83881063f12a0fe0cf404cd39dbfaf9b82e33b0ae1bde1a4df7a0549fe6437',
        'train_sine/train_log.jsonl': '55f7b7759ae97c9e398ea70e3fa10e4608ddf5cf9ddee98fcef2d709dfafdcc5',
        'train_deep/status': '9f4d0c85a7944cab0a1548aaacd0ba23cb6cedcc978a0c5d6723e9d5bac5560c',
        'train_deep/model.ckpt': 'c9631c3340562c5430ac52e8b491c07e86c55291115c76b0c08485523aa76e74',
        'train_deep/train_log.jsonl': '2d8242c84b39280bd600a3fd2aae7e9a837ee9d697be929890e760610e40331e',
        'quam_full/status': '5db0b25fa9f1681ceaa4af547083077740a5dd945a6ee550cf53eb0e873a56db',
        'quam_full/scores.jsonl': 'ff537dada20511e0600a9efe80fb30cac37c0abb2144ff91d013fe37279e144c',
        'quam_full/trajectory_0000_class0.jsonl': 'c84c239433eebed97fd7ffc8cab8be03fec2198affaa45f7688c102687b7e8a4',
        'quam_full/trajectory_0000_class1.jsonl': '8621d9b102cb39716dbec31b0212cec726a8b4d6b44dccc2439cf387aaf0ba8a',
        'quam_full/trajectory_0001_class0.jsonl': '6353da3f6ecf553d90618d0bb717f313464c24fada620ad32dfec18b4c2fbf4f',
        'quam_full/trajectory_0001_class1.jsonl': 'c6fff38052c7858483c6406cb7e2cd6f8a8be9c7d96cf67eab8568f6fe8859c4',
        'quam_full/trajectory_0002_class0.jsonl': '6a1434e8bd3edc412e7198805154c721a7fa2cce8a5efaec2e94908f193501f2',
        'quam_full/trajectory_0002_class1.jsonl': '10c8fb8b5a2a7ba7ddc17144ce7fab035c82ffd667f736ddad1e1cdf78e7fe45',
        'quam_minibatch_last/status': '19c931166d60c0f2eb8dd7f4be73249d26ccdb22c2fa2583aaefb3766886b491',
        'quam_minibatch_last/scores.jsonl': '2d06ff820415c7f5576ad76a2221f08193c08013728dc336a70504f0c322acff',
        'quam_minibatch_last/trajectory_0000_class0.jsonl': '4d1518f065a09b53f58b1659c1658ca5850928f8e93c30e76981e3df833964e0',
        'quam_minibatch_last/trajectory_0000_class1.jsonl': '9c8df09e2e12d951cd0fcbb3a42f52ef6a06a1fb9fa92faf775c727dc4eba47c',
        'quam_minibatch_last/trajectory_0001_class0.jsonl': 'cc476f05c70c2875c83fd239f7709a098a20658f2876f1de7c2dd12c5c66453f',
        'quam_minibatch_last/trajectory_0001_class1.jsonl': '5f6d073da59ec5fd87812883f144ba4756dd2abcfd385e687c6dae6d6e062962',
        'quam_sine/status': 'b18984aa7cca1e1523e5510a89af0f129094a49a486ac455ed593a91a45d3eab',
        'quam_sine/scores.jsonl': 'b607a391cd798dfea59e1e2a1785c351d703e1d0309f0719030828a3c959c18b',
        'quam_sine/trajectory_0000_direction+.jsonl': '5d920afe8412c6dbf1f13c61c0253f8355232d5b27f8dfcf509d8de2356fd3f1',
        'quam_sine/trajectory_0000_direction-.jsonl': '5b1217e8ad9b093ccf79762edef175ed2541c6d5036e3d5896ef26498c711ff4',
        'quam_sine/trajectory_0001_direction+.jsonl': 'dfcb4d00104c5bca92059cfd2cd5e7868e23dd4698478663a2a2119aeeadc82c',
        'quam_sine/trajectory_0001_direction-.jsonl': '64142be8b83d1281a4608cf65c46ac36b45b7474f1ce3d5463b1487c6b6541d3',
        'quam_abort/status': 'a7111aa28ee0e419596d0c0704696d1f1996bd07f829e3212a7557b66f889f60',
        'quam_abort/scores.jsonl': '919aa6dc336a24eab014411e25e556a546b8bf01d22ff2f1c04cd11157c5f892',
        'quam_abort/trajectory_0000_class0.jsonl': 'fb1c7900a92aa2d4c2fd92d4b3affd174cb843b24a7aaa992b9615fbf1279807',
        'quam_abort/trajectory_0000_class1.jsonl': '212127d1fb3faa81e07c773b1949d8354fbc2e52cac841536c733f18ac0dcd75',
        'quam_abort/trajectory_0001_class0.jsonl': '2bbbce82e0fe26234dbfbd088013538f9388e913bbd01149cc9a12a171154f82',
        'quam_abort/trajectory_0001_class1.jsonl': 'aff9f1c71f42e3526fceb2c9752deda5a7bcbac77b0a319fb5a1407f8d5d94c0',
        'quam_abort/trajectory_0002_class0.jsonl': '14254093feafa258a46105c1aa37bb07a7fe8e883245e342e0676122774ddd45',
        'quam_abort/trajectory_0002_class1.jsonl': '5331598c1c996af8b4b139e175553c29bfb0c5adb334e5711d256c27c18427a6',
        'quam_abort_minibatch/status': 'c6a01cbd8b7d24fa93cf172e49992c925291057b50e62bed7c1ba1711e279cd2',
        'quam_abort_minibatch/scores.jsonl': 'fd23e81c51133d7f186067467052c7b5165c7053d6ad51cdde6029df006f1a0d',
        'quam_abort_minibatch/trajectory_0000_class0.jsonl': '47e3184713db2a24095ada97281cfbb647e8af678752aa2fa855471eb17d0331',
        'quam_abort_minibatch/trajectory_0000_class1.jsonl': '243de67f8ad4679987ac6773e50bb8197f863d7d42c8ab2aede9fd9cd287c55d',
        'quam_abort_minibatch/trajectory_0001_class0.jsonl': '3a8fea4aab5ccd2f01b26cf32b05ca85c2f98e0cb4b5218445394b438e3e21af',
        'quam_abort_minibatch/trajectory_0001_class1.jsonl': '0ff55c52a338d4cb31cb8be60fb0f4d8be9dbcb76d4db48326db9bc9a08b895f',
        'quam_abort_minibatch/trajectory_0002_class0.jsonl': '40a2477940d6aabf4e4f813a1091e35477d9b5a5d4dc2ce11bba2d1d09478489',
        'quam_abort_minibatch/trajectory_0002_class1.jsonl': '231904aaf788e0415eab12a6d890c85362d5be2ceb01e0fb0578db7f304e5253',
        'hmc/status': 'a85dfbd6fb48f0aba551e7532b56d23156363583eb21737ba092835f55e641af',
        'hmc/scores_a.jsonl': '1498fb4de4ee586f5130e35c706ca0a69858d8b3d0092b9ddc91fa201443524d',
        'hmc/scores_b.jsonl': 'ebca260dd637679986a3ca2f6dc2643a5d1c46f98bb1fbca26c88c1c5ebd9047',
        'hmc_tuned/status': 'c06697b317d72bc9768537bb173cd8d9e4e0b89cad5aa15b5cd34bd5a0d37f2b',
        'hmc_tuned/scores_a.jsonl': 'b191d0a18eefed8fc216d54cc497d9f493282498768f1946b91aad26fcb62e13',
        'hmc_tuned/scores_b.jsonl': '067b49d19689944200bcdc28bfa4bf9ce72480639e38acd5a56000e77d65fef4',
        'hmc_static/status': '73e643cdc92e2e4a2e9437651a2b29e1cdfd7a48192236cbd7a13fc406e888de',
        'hmc_static/scores_a.jsonl': '0f69850d3e37f86d51b4372110a6f4c4a1535b29731f554326d03c65eecf627d',
        'hmc_static/scores_b.jsonl': 'd3d1e2b1dcd2d1cf35dc51d58a4f1806737e2a5fac96f6a68c0c9e5deb53646a',
        'mcd/status': '7637ae158fb12603f4f9b279b341ed31b3c9aeddaf91bf44e81b3b82d4f677ff',
        'mcd/scores_a.jsonl': '5314fdee9abf05e8876b1c5022421a5170cec7f7f111858f8d04a581f9dbcd12',
        'mcd/scores_b.jsonl': '726a28078fadcbcb74a631fecf266e21a5631d84d924b0b181a48ca253b4ba0f',
        'csghmc/status': '3242421583d20f75109a0af83e5f765f36a8306c028217f3919fdfb4b5c5e241',
        'csghmc/scores_a.jsonl': '23ccc1f838cb2fe59f32ef927f136a7ba73346825d1434ac081a846de455307b',
        'de/status': 'e390b9c909ef60f86bca5473a65e70909291e6710dbe93f2b9789158867a7d19',
        'de/scores_a.jsonl': '5476abac5667cffc4a8f5569fb08fb3b076ae15e1ac92311f62c903154e29164',
        'grid/status': 'b3a7a478b9d1073469d8a6e58222e05a1d59d8d061507ffc602dc49efd14058e',
        'grid/grid.csv': 'fbf47dd914cbf48a8edf79ddca29e4727207631c5529ba50ff3165e895b61b34',
        'eval/status': 'f946f5312578ddc80678023f30561ebd90dcee9c4f62d833b163e9ab265816dc',
        'eval/metrics.json': 'e46dba7c3c6e8ac80aa0823033884d9023851b122dcdc210a79b37e9f75a78c6',
    },
}


def openblas_core():
    """The name of the kernel that numpy's OpenBLAS runs, or None when numpy carries no such OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def run_digests(workdir) -> dict:
    """Run the set in `workdir` (relative paths keep the outputs free of it); the digest of every output and status line."""
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for out, command, body, files in RUNS:
            for name, text in files.items():
                with open(name, "w") as f:
                    f.write(text)
            with open(f"{out}.ini", "w") as f:
                f.write(f"[experiment]\nseed = 0\n{body}[output]\ndir = {out}\n")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), np.errstate(all="ignore"):
                code = main([*command.split(), "--config", f"{out}.ini"])
            status = stdout.getvalue()
            assert code == 0 and json.loads(status)["status"] == "ok", status
            digests[f"{out}/status"] = hashlib.sha256(status.encode()).hexdigest()
            for name in sorted(os.listdir(out)):
                if name != "config_echo.ini":
                    with open(os.path.join(out, name), "rb") as f:
                        digests[f"{out}/{name}"] = hashlib.sha256(f.read()).hexdigest()
    finally:
        os.chdir(cwd)
    return digests


def test_outputs_are_the_recorded_bytes(tmp_path):
    core = openblas_core()
    if core not in GOLDEN:
        pytest.skip(f"no golden digests recorded for OpenBLAS core {core!r}")
    digests = run_digests(tmp_path)
    expected = GOLDEN[core]
    changed = sorted(name for name in expected.keys() | digests.keys() if expected.get(name) != digests.get(name))
    assert not changed, f"outputs differ from the digests recorded for OpenBLAS core {core!r}: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = run_digests(tmp)
    sys.stdout.write(f"    {openblas_core()!r}: {{\n" + "".join(f"        {k!r}: {v!r},\n" for k, v in table.items()) + "    },\n")
