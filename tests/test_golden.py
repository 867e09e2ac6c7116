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
de; a sine head of width 1 (mean only, fixed variance) through `train`,
`quam` on a full batch (setting a) and on mini-batches (setting b), and
`baseline` hmc and csghmc; a 3 x 3 `grid`; and an `eval` of two of the
score files.  Every
output file but the config echo, and every status line, is hashed and
compared with `GOLDEN`.

The bits of every output depend on the BLAS kernel that runs the GEMMs, so
the table is keyed by the OpenBLAS core that numpy's OpenBLAS picks at run
time.  It holds the SkylakeX, Haswell and Sandybridge kernels, each printed
with `OPENBLAS_CORETYPE=<core>` on an AVX-512 host.  On a core the table
does not hold the test skips and names the core; it never passes without
comparing.  A change that moves bits on purpose records the new tables:
`PYTHONPATH=src python tests/test_golden.py` prints the digests of the
core this process runs, and `--all` those of every core in the table, one
process per core.  A key other than the requested core means the CPU
cannot run that kernel.
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
SINE1_ARCH = "[arch]\nwidths = 1 8 1\nhead = gaussian_scalar\n"
TRAIN = "[train]\nepochs = 40\nlr = 0.01\n"
SEARCH = "[search]\nsteps = 12\nlr = 0.01\n"
MOONS_200 = MOONS.replace("n = 80", "n = 200")
DEEP = MOONS_200 + "[reference]\ncheckpoint = train_deep/model.ckpt\n[test_inputs]\nfile = moons_far.csv\n[search]\nsteps = 30\nlr = 0.01\n"
FAR = {"moons_far.csv": "x0,x1\n1e307,-1e307\n-1.2,1.2\n0.5,0.5\n"}
SINE1 = SINE + SINE1_ARCH + "[reference]\ncheckpoint = train_sine1/model.ckpt\n[test_inputs]\nfile = sine_points.csv\n"
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
    # a width-1 Gaussian head: the mean only, at the fixed variance
    ("train_sine1", "train", SINE + SINE1_ARCH + "[train]\nepochs = 60\nlr = 0.01\n", {}),
    ("quam_sine1", "quam", SINE1 + SEARCH + "[estimator]\nsetting = a\n", {}),
    ("quam_sine1_minibatch", "quam", SINE1 + SEARCH + "batch_size = 16\n[estimator]\nsetting = b\n", {}),
    ("hmc_sine1", "baseline", SINE1 + "[baseline]\nmethod = hmc\nn_samples = 10\nburn_in = 30\nn_leapfrog = 5\n", {}),
    ("csghmc_sine1", "baseline", SINE1 + "[baseline]\nmethod = csghmc\ncycles = 2\nsteps_per_cycle = 10\n", {}),
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
        'train_moons/model.ckpt': 'b310f1966b010282be8530eea8efdf94ac4a30ccb8e6fc4e6947cbc759469b9d',
        'train_moons/train_log.jsonl': 'f3f9855180365e4f64d0d63f27dd9ca560de75c8288887f46b84f8dcd5b2fd96',
        'train_dropout/status': '465e91735862b48f86aa53862716fceede1addab62accdfeab68b9c5c805841e',
        'train_dropout/model.ckpt': '10b3a6f1bc8bb1790d1b1f94441e1dd45ddb56618c3d688569f2af70b9776a3b',
        'train_dropout/train_log.jsonl': 'aaebe68d3c7fa849fe8a1adc548ee7150ce42215cff84ccb83e1750e39c42314',
        'train_sine/status': '8690958ccccc84d8e0a0b1fcd323017c2bb73fa5dccae97965f026f41c3c8724',
        'train_sine/model.ckpt': 'd9d56259099cbad52f0d54f92f9ce8533c24e609ef6e7c644b9b76f1d04b0946',
        'train_sine/train_log.jsonl': '1edab1c345899e4d7021d309e1aded524dc4b93c671e511fade0bcdfb839d143',
        'train_deep/status': '3cd5279b3f121faad775116d46246066e622d71ab6ecb16c6d4a82aa9442da8e',
        'train_deep/model.ckpt': 'ee1abcde8ab4e84c94645e117ed2452580633803b5d638035cea28cebe84c41a',
        'train_deep/train_log.jsonl': '04a1a921585f704870a6496c8768824f43dc7350e72b641757457af0bf7ac871',
        'quam_full/status': '5db0b25fa9f1681ceaa4af547083077740a5dd945a6ee550cf53eb0e873a56db',
        'quam_full/scores.jsonl': '29344a1000353af93ec3d0cf5a974fe0d3880ead0cc9ae48b80f00775d15a8dc',
        'quam_full/trajectory_0000_class0.jsonl': '49f9b2d6422c6074f50a992c8ae7bd96e7d9a99b72b027d8547ca18430b5c6dc',
        'quam_full/trajectory_0000_class1.jsonl': '739ca96469075d8bf705660e2cc39fb0e6b18b869be37d87ec3903be70ac4879',
        'quam_full/trajectory_0001_class0.jsonl': '76f2fb77a8bb0c95a2445aa7b4c885e2496919cea44c77827bc9863609521fa7',
        'quam_full/trajectory_0001_class1.jsonl': 'e9184758ed22262a4ae3b5dff2583c2891ad928a5ec85c43e4bb72b59bf24ee7',
        'quam_full/trajectory_0002_class0.jsonl': '9f77bcb5551109baabdca4f85438d5df4419b957f0d7c58835c638303202489c',
        'quam_full/trajectory_0002_class1.jsonl': 'd7fdad398255ea607318e844fbc2f82af4bb94a1029be2f15c22d27c942e61a4',
        'quam_minibatch_last/status': '19c931166d60c0f2eb8dd7f4be73249d26ccdb22c2fa2583aaefb3766886b491',
        'quam_minibatch_last/scores.jsonl': 'c879e4f97ee2fea8ebfe22cad6a6d35e4e7a83ebdbd2b5b8a7fccb9d443a99e8',
        'quam_minibatch_last/trajectory_0000_class0.jsonl': '94ca942f215337580267a609af901831391ce4bb1c8209b73bb086d1ac6f7dab',
        'quam_minibatch_last/trajectory_0000_class1.jsonl': 'cbb3d50e28f6424c0f3bcd46004e6f52285481d23fe918cb47c4e37503047d38',
        'quam_minibatch_last/trajectory_0001_class0.jsonl': '597d7a6b3a8b0ea3b483b756c632fcc1c5a8f135e13aab6c182af3c982db880c',
        'quam_minibatch_last/trajectory_0001_class1.jsonl': '870b71439a0adb88e2d55c2f037b03acf5d94a3678bc5fbb15fc577e59d7756e',
        'quam_sine/status': 'b18984aa7cca1e1523e5510a89af0f129094a49a486ac455ed593a91a45d3eab',
        'quam_sine/scores.jsonl': 'c177a8b7f34b94e81103775a527933803a6ac7972c7daca142ffffaf0fe9c7fc',
        'quam_sine/trajectory_0000_direction+.jsonl': 'c8b99ebfeb1029325d0e1e0b834730b821485c25fb8242924ea940f0814e8268',
        'quam_sine/trajectory_0000_direction-.jsonl': '20eaa99ff0b86f9f022d1c4ec789d1d9e81405f4823db840f8620096fc4a4f78',
        'quam_sine/trajectory_0001_direction+.jsonl': 'f075c50e2443ae5466a557a203726818cc98be81395749d6c060198c24bc1c6c',
        'quam_sine/trajectory_0001_direction-.jsonl': '1205c9bf16c873d34f2a4c85c3084b91b4420404394870a925529d78bbc5199e',
        'train_sine1/status': '76dc154e3c445f13b89d7b8f15080207178a50523e1cfb203745b5422aee6ebc',
        'train_sine1/model.ckpt': '20961243fc7ed2f122b452698714a6b9495f2e2aea9d768bb8fb47dd31d38245',
        'train_sine1/train_log.jsonl': 'ab88bb7bbdc15652b006f0037c2926c011a033834f3a5dbff15264bd72d2f11e',
        'quam_sine1/status': '93359a75dc37c65fbf8b597d70009528eb6fa354cd2c2c13a10be901756e912d',
        'quam_sine1/scores.jsonl': 'decbe40179db146caa9159b00b5a34b91ca263de4a3894d50dff24550be2a22f',
        'quam_sine1/trajectory_0000_direction+.jsonl': '4469188458795bae81824e5bd47f2661a3c5e5ef0bdc0e3a42421e9e8afaabd5',
        'quam_sine1/trajectory_0000_direction-.jsonl': 'b9ef322439bb80a020cada97b82111da51f00e56c2ac69d23cda898ca0c49f37',
        'quam_sine1/trajectory_0001_direction+.jsonl': '533f02446ffaf12bda47fce2fe2362df32bdd944d937962719c70c4923254cd1',
        'quam_sine1/trajectory_0001_direction-.jsonl': 'a7da3d3489169d11726bab140df40721da24da1cdac86636e7648e5f696f2570',
        'quam_sine1_minibatch/status': '906813723b66b3b875b78683613bc3413fa1b9cc3767b59da7267bb9b21b70e0',
        'quam_sine1_minibatch/scores.jsonl': '3ee295094e9178838b6898312417067a162592e355b8fccfabe49b57dab905d3',
        'quam_sine1_minibatch/trajectory_0000_direction+.jsonl': '160f2845208d6c3a65de023ac3b7fcb3a42d2a4eaea84f10c5830f280b060603',
        'quam_sine1_minibatch/trajectory_0000_direction-.jsonl': '0db475b6b0a330e0f22389c689ae7965cd373697a7292489917eab956ee9e314',
        'quam_sine1_minibatch/trajectory_0001_direction+.jsonl': '8ea5bb6570464845750632cd1658feeef615a844136e49bc7393eca8f78b56a4',
        'quam_sine1_minibatch/trajectory_0001_direction-.jsonl': '7c73bdf884b42ec7c004640da968490bbcbb7da9fc4d061cc12286872a8e090a',
        'hmc_sine1/status': '766928b397e84b2b4f24e4a54a40ff311f0a4d5e19389bf8e5e263767aa6b582',
        'hmc_sine1/scores_a.jsonl': '9ed420d47b7dec704f16496a6599486a894c1d3b6d8c05d84755525f0379fd58',
        'hmc_sine1/scores_b.jsonl': 'acd0e97c68c1b18ead56363f5b7cd8c081efc714e0aa4b2e6c1f9fd7dfd31d2b',
        'csghmc_sine1/status': '4092d740743a2db2e74bdab735eb1121be3dfa3aa6b33903ee4b31a951090fc7',
        'csghmc_sine1/scores_a.jsonl': '4e4c0f082be1906f2d8e445ef57109173f3c3aec19b236ddb5a0c0ac47bf6361',
        'csghmc_sine1/scores_b.jsonl': 'f679e84852634ebca50ce9b2cf37598600b8d744fec58ea82f44fa2d9bfd71f1',
        'quam_abort/status': 'a7111aa28ee0e419596d0c0704696d1f1996bd07f829e3212a7557b66f889f60',
        'quam_abort/scores.jsonl': '9d5f700cf63b2fd5715b68688f8bb9ea767aff67e2f6c7a8c45bddb5f217bb96',
        'quam_abort/trajectory_0000_class0.jsonl': '1547802c5630a44bcce37a6ca6bbe71de7c6529aefbceae6d970d0b4e2fb6725',
        'quam_abort/trajectory_0000_class1.jsonl': '17f70b3abbd72be763e33bdafa2d97b49119e5656f6b4a6318e24bd3836d1c57',
        'quam_abort/trajectory_0001_class0.jsonl': '6ed12c67420a859aead1d0d2073110d184540c1083fad0c22af4a1963ed3aea1',
        'quam_abort/trajectory_0001_class1.jsonl': '2c49ff88062769c4cd483598e1df980d832929ad73406f1a67df379565d50338',
        'quam_abort/trajectory_0002_class0.jsonl': 'eddd830da21729316df6d5064c6df4267e837f01af0f5a7380c79f49a0b794f7',
        'quam_abort/trajectory_0002_class1.jsonl': '8f7abb6fc2d519a5eea2a9d4aa3652bc4010fc975a7f6969153ed3fa135d898e',
        'quam_abort_minibatch/status': 'c6a01cbd8b7d24fa93cf172e49992c925291057b50e62bed7c1ba1711e279cd2',
        'quam_abort_minibatch/scores.jsonl': '4ddd47f4f7d1ac590cf813c110840602253dc10588bb00fa3f048b2e34a22d84',
        'quam_abort_minibatch/trajectory_0000_class0.jsonl': '06f36c627a5ab1dbd46a3eeece5b2978f01b441d2111c35030fb0595ecd2ab73',
        'quam_abort_minibatch/trajectory_0000_class1.jsonl': 'b76c4b26aeda125d64317f6d27e27fe7a5635ed4d597a52e07b03a8dae75036d',
        'quam_abort_minibatch/trajectory_0001_class0.jsonl': '45d0a1aeab94961f6d1ac671af3cec77eada54c3153c574e88e8ce7b95b79955',
        'quam_abort_minibatch/trajectory_0001_class1.jsonl': '0f4a3fe6f804baa0c8c41358deb5f59c60c556b1fe2e0252411dd4b8d3b98583',
        'quam_abort_minibatch/trajectory_0002_class0.jsonl': '710c887f05b289a7324af6a424c557791ab1d94e3b982de0ce7c78b6484ca8d3',
        'quam_abort_minibatch/trajectory_0002_class1.jsonl': '4186bedb68a6bab6182eb76745298a54cff240ec8f921632077ffba5cee7042e',
        'hmc/status': 'eb60c53b4e04bb2c457a2d753adf7bdac6c87af0084e8ece2bca8aae26dd048f',
        'hmc/scores_a.jsonl': '7ebafc0b5bdc5181422e0b8d7c0971bf9e1ab3327bc83a59cab4074ac2f1122a',
        'hmc/scores_b.jsonl': '7476a2fa8a42fe1745c8de786f10c70b096b0194752ecae4346d0f55d9a6212b',
        'hmc_tuned/status': '72ddadeef437273d0a8a1678c69ec96feba3408541ffb6b9378c88f9ef47127a',
        'hmc_tuned/scores_a.jsonl': '1df780131645f5d3e2a620e42c77a60138ddbcc539e95eac1a5e8908bb1c7727',
        'hmc_tuned/scores_b.jsonl': 'd456377ef622026657ffb62fd985eb07d1d0ff5067b090e3351aade0a7b92567',
        'hmc_static/status': '73e643cdc92e2e4a2e9437651a2b29e1cdfd7a48192236cbd7a13fc406e888de',
        'hmc_static/scores_a.jsonl': '0f69850d3e37f86d51b4372110a6f4c4a1535b29731f554326d03c65eecf627d',
        'hmc_static/scores_b.jsonl': 'd3d1e2b1dcd2d1cf35dc51d58a4f1806737e2a5fac96f6a68c0c9e5deb53646a',
        'mcd/status': '7637ae158fb12603f4f9b279b341ed31b3c9aeddaf91bf44e81b3b82d4f677ff',
        'mcd/scores_a.jsonl': 'ea9ae1799ba8d0aa60799dbe22a2319d494ab31c1c85e84ca41cdd8bc8a1dc2b',
        'mcd/scores_b.jsonl': '82f526e4147e8de8f6abe5d42d6b8ab9b4247cb116f9c626929784d3a3c3e1a6',
        'csghmc/status': '3242421583d20f75109a0af83e5f765f36a8306c028217f3919fdfb4b5c5e241',
        'csghmc/scores_a.jsonl': 'c488f38c8c64acac6ed826675f7bccc08f904ea0dcce1a8733995662ca049f95',
        'de/status': 'e390b9c909ef60f86bca5473a65e70909291e6710dbe93f2b9789158867a7d19',
        'de/scores_a.jsonl': 'a91b3211ead480e8dd56269f67a87244037fc94e3b1bb829f4167b525706f233',
        'grid/status': 'b3a7a478b9d1073469d8a6e58222e05a1d59d8d061507ffc602dc49efd14058e',
        'grid/grid.csv': 'bb79d17898d1077bfe26bb37072000f83cf8c6e3cb64f967e4dc7d1bd6e8d092',
        'eval/status': 'f946f5312578ddc80678023f30561ebd90dcee9c4f62d833b163e9ab265816dc',
        'eval/metrics.json': 'e46dba7c3c6e8ac80aa0823033884d9023851b122dcdc210a79b37e9f75a78c6',
    },
    'Haswell': {
        'train_moons/status': 'fbf3a5d53a1b3cebae9ecfca3274ccfb283df9addd0efb0e690542b3e3bbf6d8',
        'train_moons/model.ckpt': '04433ba966180957bfcb99fe6af953fa369856fcf6745eeb05c64a3ad36b7928',
        'train_moons/train_log.jsonl': 'dff087f7c8a51a753c62a9922caa4a5dcbd0eb801b7c0daa61184130ba0e126b',
        'train_dropout/status': 'b7198733691aeca6007482aa9b14f82fed44a1c4b37127884713019a0d0e3d61',
        'train_dropout/model.ckpt': '43b0be9098251fb749faa18f20ae113faabd870de2e93855ecba6065b53ac4f1',
        'train_dropout/train_log.jsonl': 'a59b240c6d6b8618c28a6856ce86600e654f11bb0091ac77619322c11ee2f073',
        'train_sine/status': '9ba99df49727e1815bec2675de04215a294f2b841f1e78530faeb151de1c871c',
        'train_sine/model.ckpt': '6b067694ddddb153d444f64a6153ae1cf193bf25804b2e210bbf1cf7f50e3045',
        'train_sine/train_log.jsonl': '4832c3bbdaf2269aaab87c9cc8e2e8a024bb6b48d118041e35441bb6ff4c2b89',
        'train_deep/status': '9139246f0e92b9390b94acd6bf836842ec6d9cc0e3e2c465216c4212c40e5812',
        'train_deep/model.ckpt': '95c8d1bb2d00a99600c903d6fd528257a4169d43103793b1ad9b86e2b163f7ef',
        'train_deep/train_log.jsonl': '6f91d7badff750314e27c4506c50a6819a8012a923273968d537e1a4ffd6d492',
        'quam_full/status': '5db0b25fa9f1681ceaa4af547083077740a5dd945a6ee550cf53eb0e873a56db',
        'quam_full/scores.jsonl': 'ac347dd0c7a7c4e8f930a0383fd6264032f87615955ad6c6112530aac4b5f1ae',
        'quam_full/trajectory_0000_class0.jsonl': '543f7b8ccb0e250a8fab724eb0a13aa0132001ce2fbbb91f50f481770b2de4fa',
        'quam_full/trajectory_0000_class1.jsonl': 'f7cb7ef51090d6552ab392129191e6ef559e17275a89c7e6419f568cd659bee2',
        'quam_full/trajectory_0001_class0.jsonl': '96ed1d5c7af71df5fbf71dffc0921519a4adaa8a15eec1fb2a6f83b6a81ca0aa',
        'quam_full/trajectory_0001_class1.jsonl': '16f737367e2ccee0dde50d808d7aae15ba71ca2e0b16c52a77437f1e5ae470e4',
        'quam_full/trajectory_0002_class0.jsonl': '6e734d9c3619cfd4c8a267c693950affffea180be72b54c53184a592fffb0564',
        'quam_full/trajectory_0002_class1.jsonl': '75ac160321cca949663d18b305b369b67b567ed2f38bc30a43f1c9d23205b58d',
        'quam_minibatch_last/status': '19c931166d60c0f2eb8dd7f4be73249d26ccdb22c2fa2583aaefb3766886b491',
        'quam_minibatch_last/scores.jsonl': '11f5167041d203f7f05e021c327fb2a66705849cc902e7b30f3bf993cab6ba82',
        'quam_minibatch_last/trajectory_0000_class0.jsonl': '77fcddbb5bf5992d95100ed19416a2ddd3afd6f55134d43e85665b2a44508faf',
        'quam_minibatch_last/trajectory_0000_class1.jsonl': '4373919b5c7b4479188e49195ec7b1a34ba194ee240a0a778e339d4ccfebadd0',
        'quam_minibatch_last/trajectory_0001_class0.jsonl': '874ae3a0c128495a7ed3b39ac9d5a5265d456229c5800bcba325b2a50618ed28',
        'quam_minibatch_last/trajectory_0001_class1.jsonl': 'eb880438d2caf36db2ffdadf45c660f6ddd7f2ffc74aac81e4f6acb2713266e5',
        'quam_sine/status': 'b18984aa7cca1e1523e5510a89af0f129094a49a486ac455ed593a91a45d3eab',
        'quam_sine/scores.jsonl': '6eb0871679fc79b239581483456c73d177eafdd5316c76de3e4fbb1a46e96574',
        'quam_sine/trajectory_0000_direction+.jsonl': 'e1b3c71ba0583528bb5ed8575f8a7a693973248992f29027dda2e9ac4f0a858f',
        'quam_sine/trajectory_0000_direction-.jsonl': '71d612952035fb53c45b46cb3488f5d7b93408619afa2b3509c90478523532ea',
        'quam_sine/trajectory_0001_direction+.jsonl': '3b1ca0acbecb05b8e16cc4d24f0886ad1b1c4e053b61dd87f5a08bb2d5fc7130',
        'quam_sine/trajectory_0001_direction-.jsonl': '4c9498010f249906a767ddc925d2636c5e87b250fc233483225bb152136aea16',
        'train_sine1/status': '76dc154e3c445f13b89d7b8f15080207178a50523e1cfb203745b5422aee6ebc',
        'train_sine1/model.ckpt': '30e7f6297df5c001ce56b2fc311e98832e1f0e29d1abf87d57f12536cee2f5dd',
        'train_sine1/train_log.jsonl': '8d7d3532fb67c9dac9b858c2f549e2c3882ab16d150a2cd074f80817f399966d',
        'quam_sine1/status': '93359a75dc37c65fbf8b597d70009528eb6fa354cd2c2c13a10be901756e912d',
        'quam_sine1/scores.jsonl': '9ccb746f7f88fb2215133840f6bb45866a5072d44831cf2588fd69833b7020a5',
        'quam_sine1/trajectory_0000_direction+.jsonl': '75fc87e2b1a609f446d485cca47c05320b9b9ffbc7c7df1146999e934bcc2ebe',
        'quam_sine1/trajectory_0000_direction-.jsonl': '828c59100738e33aa7be609b6fd400fc546e601a1d1596974b068c1a6121cf34',
        'quam_sine1/trajectory_0001_direction+.jsonl': 'dd29b79a929a20a26bd40ac897331931cd7e48428ca231dd817d7a8d539feb2c',
        'quam_sine1/trajectory_0001_direction-.jsonl': '429c826968f9e6930bfa8044efd0dfeaefa776929a78ba672720ac58c1869194',
        'quam_sine1_minibatch/status': '906813723b66b3b875b78683613bc3413fa1b9cc3767b59da7267bb9b21b70e0',
        'quam_sine1_minibatch/scores.jsonl': 'f16630a072bac112d02639e00ec7cb39060cee48d90a81696e15d3a3d3bfbaab',
        'quam_sine1_minibatch/trajectory_0000_direction+.jsonl': '4de9c8f73a23a992009103aac63c83ca8c534841486cb144f1825a52fbb47b7e',
        'quam_sine1_minibatch/trajectory_0000_direction-.jsonl': '25ab42363eb74a8cec28ae9b346b3c403a736014af36cc904a908e72d9367d41',
        'quam_sine1_minibatch/trajectory_0001_direction+.jsonl': '97ffe32058b7a70dca46c0179ee71d100e5a711f130aad616e6a431c42393eb1',
        'quam_sine1_minibatch/trajectory_0001_direction-.jsonl': '992c007fd36943f0b3ca3097835ec616fd43d209c1249c9cda7b3458b9f605f7',
        'hmc_sine1/status': '766928b397e84b2b4f24e4a54a40ff311f0a4d5e19389bf8e5e263767aa6b582',
        'hmc_sine1/scores_a.jsonl': '919e678c17e32b7cad6d07a23882844062c413ee05adf56995a8c4f48ed036c1',
        'hmc_sine1/scores_b.jsonl': '26cd916d24a144ed42d38fc359567476885a5febcf5d192936050b3f043a1498',
        'csghmc_sine1/status': '4092d740743a2db2e74bdab735eb1121be3dfa3aa6b33903ee4b31a951090fc7',
        'csghmc_sine1/scores_a.jsonl': 'de09ff5e7190ff45793f408bbf811481160e15702871ab8e653a7296c2622c65',
        'csghmc_sine1/scores_b.jsonl': '371509fe44bca6a71a2bb4b7b36d1701d4dc1a612d6e93085b1195605ae06a0d',
        'quam_abort/status': 'a7111aa28ee0e419596d0c0704696d1f1996bd07f829e3212a7557b66f889f60',
        'quam_abort/scores.jsonl': 'febfcd1821595dcb9ea6713560768d0af563a74027199d7138f289c921176390',
        'quam_abort/trajectory_0000_class0.jsonl': 'ff1e123d5f1fa18565c05d0ecebef5018369eb19cd5f1a72a8545751edb0380f',
        'quam_abort/trajectory_0000_class1.jsonl': 'e3b7c46817a13eb535c9e4cef338f56ebb19083daf2edb6b4695ae3d325a8fda',
        'quam_abort/trajectory_0001_class0.jsonl': '91c85c339cdd951ad02ccbbe7307139639791f3746de9e3623e005e96075c1ad',
        'quam_abort/trajectory_0001_class1.jsonl': '6facf691da30e181a0ec30cdd78f563ae74e0d32f046f63ae6d36d94708c0877',
        'quam_abort/trajectory_0002_class0.jsonl': 'afe0d43cd51571e528d2777a331094be04b823a228f58773aefe4f5349c0471f',
        'quam_abort/trajectory_0002_class1.jsonl': '14ca196646f6ea11e95303af01ceef8ecb542fc604cc5e421d054a3061b0cbc7',
        'quam_abort_minibatch/status': 'c6a01cbd8b7d24fa93cf172e49992c925291057b50e62bed7c1ba1711e279cd2',
        'quam_abort_minibatch/scores.jsonl': '3baf209ee60d8645501b11bd725f3b32ff8136e9088bc5653b504a1d224fa13e',
        'quam_abort_minibatch/trajectory_0000_class0.jsonl': '48c525bfcab9a341a9409bf70e8d7dfab645a817f83f6348af86d7b9574f63c6',
        'quam_abort_minibatch/trajectory_0000_class1.jsonl': '005e4993fc51cef92f0c4e98416aa76cef161e5742ae9cb6fe7e8d0e1738aeb6',
        'quam_abort_minibatch/trajectory_0001_class0.jsonl': '90127f7f710d965370a2ab11049ada0bda0c467b4f9eca6e65fd6b816888385e',
        'quam_abort_minibatch/trajectory_0001_class1.jsonl': '15b87aab87bb3294451eec9144e5e30103a277594f395a66fcbc48daf7f681a2',
        'quam_abort_minibatch/trajectory_0002_class0.jsonl': '0b32ec900e60e74a1670cccb16ace8097550a2340bae3d6d3a90e32eedd050f1',
        'quam_abort_minibatch/trajectory_0002_class1.jsonl': 'e85e8a35233d2c10cb22a93ed51b2d9c7728c9e5a5e2970a8461f2930de9a2c1',
        'hmc/status': 'eb60c53b4e04bb2c457a2d753adf7bdac6c87af0084e8ece2bca8aae26dd048f',
        'hmc/scores_a.jsonl': '9f24d8bf97cc8d7d250fab030f52aab58f0ea739d4cbe5cbd5ae025d42b77641',
        'hmc/scores_b.jsonl': 'caf51eeada391bafe9de0acd2e275d1dbbdd61558d43162a28b0ed815e9961f9',
        'hmc_tuned/status': '07cb1ae7663b39e0d4ea1fa55b8d6984ff48f2a9d256f5dc33bdaa240aa6e1f1',
        'hmc_tuned/scores_a.jsonl': '3145e4cd92a10cfa3dd71034879174aad4fbc4fb539bfeae4763851c88cb0009',
        'hmc_tuned/scores_b.jsonl': '31138575c09b1409413ecb0d4fb3a129ec6b5e46f189312e2e2e03bb7c822de0',
        'hmc_static/status': '73e643cdc92e2e4a2e9437651a2b29e1cdfd7a48192236cbd7a13fc406e888de',
        'hmc_static/scores_a.jsonl': '0f69850d3e37f86d51b4372110a6f4c4a1535b29731f554326d03c65eecf627d',
        'hmc_static/scores_b.jsonl': 'c35db723ced89bdbb6200f1f39e1529a07b69c99a3cc16079dd67da330ef1f4c',
        'mcd/status': '7637ae158fb12603f4f9b279b341ed31b3c9aeddaf91bf44e81b3b82d4f677ff',
        'mcd/scores_a.jsonl': 'd7d5c267f0530059d1cfa7690d577caf7acc83d31335bde16c18fd8b8bee5732',
        'mcd/scores_b.jsonl': '08757a7cf48a0103e32d7167fa4bb00b1ac1dbd22c2cb141c98df25723acfa1c',
        'csghmc/status': '3242421583d20f75109a0af83e5f765f36a8306c028217f3919fdfb4b5c5e241',
        'csghmc/scores_a.jsonl': '6acaf74a16a8b491475f11317772aa890ae54b5484ff2ee286923bec2238879c',
        'de/status': 'e390b9c909ef60f86bca5473a65e70909291e6710dbe93f2b9789158867a7d19',
        'de/scores_a.jsonl': 'd4eb375092dafa6ee4ca9de95547d607176defd48ebbf321785ffa7e8d7acadd',
        'grid/status': 'b3a7a478b9d1073469d8a6e58222e05a1d59d8d061507ffc602dc49efd14058e',
        'grid/grid.csv': '39bebecffea2d510c6818d24488ed566437d83467a26ebd88123516029d11a9a',
        'eval/status': 'f946f5312578ddc80678023f30561ebd90dcee9c4f62d833b163e9ab265816dc',
        'eval/metrics.json': 'e46dba7c3c6e8ac80aa0823033884d9023851b122dcdc210a79b37e9f75a78c6',
    },
    'Sandybridge': {
        'train_moons/status': 'fbf3a5d53a1b3cebae9ecfca3274ccfb283df9addd0efb0e690542b3e3bbf6d8',
        'train_moons/model.ckpt': '28a5eccd44cf7ddff3af4bd4a89c6bbe6412b2844059e1202423ad3d019e6a38',
        'train_moons/train_log.jsonl': '63f3bed5b28000c84cd795d73fdf6fb292c7232853293d403caaa87ed448107f',
        'train_dropout/status': 'b7198733691aeca6007482aa9b14f82fed44a1c4b37127884713019a0d0e3d61',
        'train_dropout/model.ckpt': 'c57c77564e989ce60cf014f73ad34d7b66eaec8ee0a46929a57592cf3d869ea9',
        'train_dropout/train_log.jsonl': '98962db9d0ccfe035b50485e1806c7607e098f9b31af80332d1ca49bc7203640',
        'train_sine/status': '9ba99df49727e1815bec2675de04215a294f2b841f1e78530faeb151de1c871c',
        'train_sine/model.ckpt': 'b07ae874543c248d056321d9930c0422695104d7f69d85fc04d735ce6d4a7990',
        'train_sine/train_log.jsonl': 'a68bcc5d4c0a8b80413491aa5023ac4d78f0d9c3c706d031d11524e4a1e7a768',
        'train_deep/status': '9f4d0c85a7944cab0a1548aaacd0ba23cb6cedcc978a0c5d6723e9d5bac5560c',
        'train_deep/model.ckpt': 'e9710d3bbf4f27bdb5b1418b06eaf98a0eb7bfaa36dc10bc3deed4e36d061041',
        'train_deep/train_log.jsonl': '9904b86fd9f13a8d5ebb4b2cc7f113f69b7f5e294b522f32322b62da1c93ba80',
        'quam_full/status': '5db0b25fa9f1681ceaa4af547083077740a5dd945a6ee550cf53eb0e873a56db',
        'quam_full/scores.jsonl': 'abc6c4669073d7743ea3c14c69ce310620a447dad8d58fd7d2c741f8a542f7c7',
        'quam_full/trajectory_0000_class0.jsonl': '7f9fe1bb78361f8fa121d0abbb43fc2d0ed5845beda2e9ca285c754c6df18fa1',
        'quam_full/trajectory_0000_class1.jsonl': '958fea22a433449338e25d2664c7343e008a534a362d2f012a7d2e5ae4747daa',
        'quam_full/trajectory_0001_class0.jsonl': '1a41cf9b94e5dcf3fd29f1d6efb6ce2e9bd20d498f86855b4a545fc41447ffa8',
        'quam_full/trajectory_0001_class1.jsonl': '2c7901fcbb46390da78684aca8401cea5b41d47a865d15db31afc052ce886b95',
        'quam_full/trajectory_0002_class0.jsonl': 'bc6eb22160c0e5dd92e4af939a54636dbd6f8950f2cc34e0294f88cd615b75c8',
        'quam_full/trajectory_0002_class1.jsonl': 'dfed7e54d74f1d9744b1cb879268dd5f2c35af4285c012364d225d82ab74c431',
        'quam_minibatch_last/status': '19c931166d60c0f2eb8dd7f4be73249d26ccdb22c2fa2583aaefb3766886b491',
        'quam_minibatch_last/scores.jsonl': '560fc8c597dcef7744da0f90bce723f64972b1f720a86e2397877833b1f6e3db',
        'quam_minibatch_last/trajectory_0000_class0.jsonl': '70e83816e081509e8aa15bb31d4e63da6f1e7edf31401a7f71f026244238e7a2',
        'quam_minibatch_last/trajectory_0000_class1.jsonl': 'd3c6e344f6fc373206140730f42844942b744d9ac0eef57b2538fa196a0212e2',
        'quam_minibatch_last/trajectory_0001_class0.jsonl': '6da367131a9c044f13f5bf152b1a5bcd4273be393bef727080b9c7f08dae84e0',
        'quam_minibatch_last/trajectory_0001_class1.jsonl': '2a59e2ac956c830c3bc731896760aab9cdb5d79676cfccf16b99406c5620d5db',
        'quam_sine/status': 'b18984aa7cca1e1523e5510a89af0f129094a49a486ac455ed593a91a45d3eab',
        'quam_sine/scores.jsonl': 'ad1927b5fa1362c3494919cd7333eb3cb0255c5397e552aeb24a5075791047f7',
        'quam_sine/trajectory_0000_direction+.jsonl': 'c9309440dc1d0bd6aa8cc315cbe6eb70ea583065a6862c236e60ab2f61c3ea67',
        'quam_sine/trajectory_0000_direction-.jsonl': 'f041288d820227bc159af33d6f8ea0eb325e601c4eb3e20f5a86d3658f0e8c3a',
        'quam_sine/trajectory_0001_direction+.jsonl': 'e556e287bfccfc7777890b425cf5e73b9515da21b2cd68b1c397e13a6c81380f',
        'quam_sine/trajectory_0001_direction-.jsonl': 'c9c4a760d936d4789dd06b98f3960b191161233ec51cc4c820b2923e7b7d555b',
        'train_sine1/status': '76dc154e3c445f13b89d7b8f15080207178a50523e1cfb203745b5422aee6ebc',
        'train_sine1/model.ckpt': '91ed69802d6545a008e57c768ec0c0a7fbf4055ab7315abc52e51c013e65f630',
        'train_sine1/train_log.jsonl': 'eef0608e5419564e7b315ddb5e2ecffc66a8f28210217e902e87aa7ef6062e35',
        'quam_sine1/status': '93359a75dc37c65fbf8b597d70009528eb6fa354cd2c2c13a10be901756e912d',
        'quam_sine1/scores.jsonl': '43a07ab18cf3557ba6d115f75e60dcf933817cfa547a5c2a32dc2f535904618d',
        'quam_sine1/trajectory_0000_direction+.jsonl': '972c98def11662911e024669ff1737d751357a14daf8eda9a3f1a4483b5c5e99',
        'quam_sine1/trajectory_0000_direction-.jsonl': '090200eeb2b5b91a7f43cbfff95db26d8668944369604414f6a54827b55cc033',
        'quam_sine1/trajectory_0001_direction+.jsonl': 'ec70c1b5f6b77a791dba2fff7aa3d5e53f04c95d63b8e18f1ae9e95aedc3990f',
        'quam_sine1/trajectory_0001_direction-.jsonl': 'd585b63e46c467086e933ee4cbb3f083d2a50fe8ef3a63661dcbd63808432def',
        'quam_sine1_minibatch/status': '906813723b66b3b875b78683613bc3413fa1b9cc3767b59da7267bb9b21b70e0',
        'quam_sine1_minibatch/scores.jsonl': '89ca8ca49420a9e1332726e0a0b86305b955e5c268d93fa7f0af6805a2e0d053',
        'quam_sine1_minibatch/trajectory_0000_direction+.jsonl': 'ab8e09ceef3e1266cf3f5f20f94112b89f4c972a730ae9054c0d874814b10da7',
        'quam_sine1_minibatch/trajectory_0000_direction-.jsonl': 'e38376556401c57bc2ffd20a2b15f8dca5c39bf68bc0ccbb7c5631bfd4d416b4',
        'quam_sine1_minibatch/trajectory_0001_direction+.jsonl': 'f20657f6a2b917a787688acad7e6995a35899f931cbc567119f1423fb0666e54',
        'quam_sine1_minibatch/trajectory_0001_direction-.jsonl': '98511ef47ea9f5d564b222cf795080cdbe8da6be4a636518e0a262262e4b895b',
        'hmc_sine1/status': '766928b397e84b2b4f24e4a54a40ff311f0a4d5e19389bf8e5e263767aa6b582',
        'hmc_sine1/scores_a.jsonl': '5c6a09efd2f27b5ee2844e9ee3930d30a69605aae33ced59a64dafa8c6149cd1',
        'hmc_sine1/scores_b.jsonl': 'ce2eb7b054e6d466efdcb9e1a8172ca5563ae1b98d50a284b84c5355d666aa66',
        'csghmc_sine1/status': '4092d740743a2db2e74bdab735eb1121be3dfa3aa6b33903ee4b31a951090fc7',
        'csghmc_sine1/scores_a.jsonl': '4e4c0f082be1906f2d8e445ef57109173f3c3aec19b236ddb5a0c0ac47bf6361',
        'csghmc_sine1/scores_b.jsonl': '86b93a34d6d14f064f7c62e8f725543a25a856781c3a7fb84b624dca2db6a9a2',
        'quam_abort/status': 'a7111aa28ee0e419596d0c0704696d1f1996bd07f829e3212a7557b66f889f60',
        'quam_abort/scores.jsonl': '02ce088aeb40d1bfde52a15746ceebe11c088cc3b537af7ce4249f0db5a782f9',
        'quam_abort/trajectory_0000_class0.jsonl': '184d188de57398b2ad168b1b59bd24559256b0caa86c6ed04594b044ced39941',
        'quam_abort/trajectory_0000_class1.jsonl': 'cab5e65b6957c4d63443cba9e2c4461d41e324087b26c8b963bfe1d03fa8ad58',
        'quam_abort/trajectory_0001_class0.jsonl': 'db66b51d8faadcf882bc49e2ffb0b5f2659b114b111a1261def5267f8f18e044',
        'quam_abort/trajectory_0001_class1.jsonl': '532ce1330a61ef1024b151892bf092941aebe09fbb0045dfe21f2bb39d30a113',
        'quam_abort/trajectory_0002_class0.jsonl': 'a660d446949549b0ab44d0af1526158a397333557f3c26cc741d19b9ee837830',
        'quam_abort/trajectory_0002_class1.jsonl': '992b7bfd32ce5972ed2f31da60ddca6dec1e31d1bcd024e7b70732387e1219c0',
        'quam_abort_minibatch/status': 'c6a01cbd8b7d24fa93cf172e49992c925291057b50e62bed7c1ba1711e279cd2',
        'quam_abort_minibatch/scores.jsonl': '655d00ed5a46c0e102991811dc02fef49da7c1607e8996a6ecb5d8c3c0bd48a7',
        'quam_abort_minibatch/trajectory_0000_class0.jsonl': 'a2aba7f14a54edc6ce58e4f15a51f071819e565a156e969a45d06a2fcf8a3ec4',
        'quam_abort_minibatch/trajectory_0000_class1.jsonl': '00bd5179941038a817530332f2599dec770daf3edb27e7128c656901624a1eb1',
        'quam_abort_minibatch/trajectory_0001_class0.jsonl': '46648bd98edee05e8f7af8e1e8b149695961b09a7e0bfbbf47d050089998c27a',
        'quam_abort_minibatch/trajectory_0001_class1.jsonl': '45fdc29d90b7bda89c78e78c125c11451136431c03fc9b1a76c3ea68f8e78bcd',
        'quam_abort_minibatch/trajectory_0002_class0.jsonl': 'daadbcbc7f9b693a6fe54f07da3eea4ea75a87cbc77337ad93b57d29c5e75211',
        'quam_abort_minibatch/trajectory_0002_class1.jsonl': 'b4fa7e7e5959de50b9de440bb8c9a0459422bd5aa2f8a6a0b9ee92348c7c1088',
        'hmc/status': 'cba39221b27d6d353cd37d8bc0cb2db8c89426c734bebb563f25291ded360056',
        'hmc/scores_a.jsonl': '365ab8f4c29a5b3a290183a619d20fee9b8ec1e1d800e37c384c93336f897ec7',
        'hmc/scores_b.jsonl': '78c798d77336c65188f45d7e421895357bebfdf407ce2be8e39c92198c768571',
        'hmc_tuned/status': '64e1690a587092be6edadec7835a30d1a5c3b943df83193903e2f524b47b3f31',
        'hmc_tuned/scores_a.jsonl': '3f603589fa3bb33fd976bf9836a3aa2f08bc495ec57dd59ebdf1d03bf3c8cbaa',
        'hmc_tuned/scores_b.jsonl': 'e8698a6075fb3659cda2c6f653aa89c2fbad77588b8cdf169225b309f2c53deb',
        'hmc_static/status': '73e643cdc92e2e4a2e9437651a2b29e1cdfd7a48192236cbd7a13fc406e888de',
        'hmc_static/scores_a.jsonl': 'a93a2d04c2084eaacf4d2d440ed22cfea59d6506c51ce512bd51a3a52fce7e96',
        'hmc_static/scores_b.jsonl': '6cad2e3b09e06e49ea073a823e7cf007c1267602b84222cb2b5a54fa0e3eea2d',
        'mcd/status': '7637ae158fb12603f4f9b279b341ed31b3c9aeddaf91bf44e81b3b82d4f677ff',
        'mcd/scores_a.jsonl': '0381193c0ee52a2c3f8c8576b94339827891ebd8de785fc7644eef74a0242c5b',
        'mcd/scores_b.jsonl': 'bb520754a625ae199c620c599098a5f483a6f8e2c59586f6b78f73381607444a',
        'csghmc/status': '3242421583d20f75109a0af83e5f765f36a8306c028217f3919fdfb4b5c5e241',
        'csghmc/scores_a.jsonl': 'c5c9fe1d8ff6fc0588b4cb467ecfa08f34b2c5865e45a7befe55bfade81b07a1',
        'de/status': 'e390b9c909ef60f86bca5473a65e70909291e6710dbe93f2b9789158867a7d19',
        'de/scores_a.jsonl': '842d325cf0fe4ef289d8433463ff669d7b320110bcf891f8f15aaa670db2b74e',
        'grid/status': 'b3a7a478b9d1073469d8a6e58222e05a1d59d8d061507ffc602dc49efd14058e',
        'grid/grid.csv': 'b54c60ce6d22cc88480a11fb0469d69951e236a952d909730a8b6e6f1091813a',
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
    import subprocess
    import tempfile

    if sys.argv[1:] == ["--all"]:
        # one process per core: OpenBLAS picks its kernel once, when it loads
        for core in GOLDEN:
            subprocess.run([sys.executable, __file__], env={**os.environ, "OPENBLAS_CORETYPE": core}, check=True)
        sys.exit()
    with tempfile.TemporaryDirectory() as tmp:
        table = run_digests(tmp)
    sys.stdout.write(f"    {openblas_core()!r}: {{\n" + "".join(f"        {k!r}: {v!r},\n" for k, v in table.items()) + "    },\n")
