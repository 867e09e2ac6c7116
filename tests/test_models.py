import importlib
import pkgutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quam
from quam import models as M
from quam.data import LabeledDataset, gen_sine
from quam.measures import entropy, kl
from quam.rng import derive_rng
from tape_nll import tape_loss_and_grad


def blobs(n=100, seed=0):
    rng = derive_rng(seed)
    half = n // 2
    x = np.vstack([rng.normal([-2.0, 0.0], 0.4, (half, 2)), rng.normal([2.0, 0.0], 0.4, (half, 2))])
    y = np.array([0] * half + [1] * half)
    return LabeledDataset(x, y, "classification")


def test_zero_params_categorical_uniform():
    arch = M.ArchSpec((2, 4, 3))
    params = M.ModelParams(arch, np.zeros(arch.param_count()))
    (probs,) = M.predict_batch(params, np.array([0.4, -1.0]))
    assert np.allclose(probs, 1.0 / 3.0)


def test_zero_params_gaussian_standard():
    arch = M.ArchSpec((1, 4, 2), head="gaussian_scalar")
    params = M.ModelParams(arch, np.zeros(arch.param_count()))
    ((mean, variance),) = M.predict_batch(params, np.array([0.7]))
    assert mean == 0.0
    assert variance == 1.0


def test_predict_deterministic():
    arch = M.ArchSpec((3, 5, 4))
    params = M.init_params(arch, 11)
    x = derive_rng(1).normal(size=3)
    d1 = M.predict_batch(params, x)
    d2 = M.predict_batch(params, x)
    assert np.array_equal(d1, d2)


def test_predict_rejects_wrong_width():
    arch = M.ArchSpec((3, 5, 2))
    params = M.init_params(arch, 0)
    with pytest.raises(ValueError, match="input width"):
        M.predict_batch(params, np.array([1.0, 2.0]))


def test_train_separable_blobs_to_full_accuracy():
    data = blobs(100)
    params = M.train(data, M.ArchSpec((2, 8, 2)), M.TrainConfig(epochs=150, seed=1))
    acc = (M.predict_batch(params, data.x).argmax(1) == data.y).mean()
    assert acc == 1.0


def test_train_sine_fits_below_noise_floor():
    # targets carry variance-0.1 noise, so the fit is judged against the
    # clean signal
    data = gen_sine(200, seed=5)
    params = M.train(data, M.ArchSpec((1, 32, 2), head="gaussian_scalar"), M.TrainConfig(epochs=400, seed=2))
    mean = M.predict_batch(params, data.x)[:, 0]
    assert ((mean - np.sin(data.x[:, 0])) ** 2).mean() < 0.05


def test_zero_epochs_returns_initialization():
    data = blobs(20)
    arch = M.ArchSpec((2, 4, 2))
    params = M.train(data, arch, M.TrainConfig(epochs=0, seed=9))
    assert np.array_equal(params.values, M.init_params(arch, 9).values)


def test_training_is_seed_deterministic():
    data = blobs(60, seed=3)
    arch = M.ArchSpec((2, 6, 2))
    cfg = M.TrainConfig(epochs=40, batch_size=16, seed=7)
    p1 = M.train(data, arch, cfg)
    p2 = M.train(data, arch, cfg)
    assert np.array_equal(p1.values, p2.values)


@pytest.mark.parametrize("head, batch_size, dropout", [("categorical", None, 0.0), ("categorical", 32, 0.0), ("categorical", None, 0.2), ("categorical", 32, 0.2), ("gaussian_scalar", 32, 0.0)])
def test_training_is_a_loop_of_fresh_passes_bit_for_bit(head, batch_size, dropout):
    # the loop `train` runs, written with a new forward pass, loss and
    # `Backprop` at every step; 90 rows in batches of 32 end on a batch of 26
    data = blobs(90, seed=2) if head == "categorical" else gen_sine(90, 2)
    arch = M.ArchSpec((data.x.shape[1], 8, 6, 2), head=head, dropout_prob=dropout)
    cfg = M.TrainConfig(lr=1e-2, epochs=6, batch_size=batch_size, seed=3)
    values = M.init_params(arch, cfg.seed).values.copy()
    rng = derive_rng(cfg.seed, 1)
    opt = M.Adam(values.size, cfg.lr, cfg.weight_decay)
    n = len(data)
    batch = n if batch_size is None else batch_size
    targets = M.target_rows(arch, data.y)
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            masks = M.make_dropout_masks(arch, rng) if dropout else None
            params = M.ModelParams(arch, values)
            acts = M.forward(params, data.x[idx], masks)
            grad_out = M.cross_entropy(arch, acts[-1], targets[idx])[1]
            bufs, dz = [a.swapaxes(-1, -2) for a in acts], grad_out.swapaxes(-1, -2)
            opt.step(values, M.Backprop(arch, params.layers(), bufs, dz, np.empty(values.shape)).run(dropout_masks=masks))
    assert M.train(data, arch, cfg).values.tobytes() == values.tobytes()


def test_training_reduces_loss():
    data = blobs(80, seed=5)
    arch = M.ArchSpec((2, 8, 2))
    init_loss = M.mean_train_loss(M.init_params(arch, 4), data)
    final_loss = M.mean_train_loss(M.train(data, arch, M.TrainConfig(epochs=60, seed=4)), data)
    assert final_loss <= init_loss


def test_nan_loss_aborts_with_location():
    data = blobs(40)
    arch = M.ArchSpec((2, 4, 2))
    with np.errstate(all="ignore"), pytest.raises(M.TrainingDiverged, match=r"^non-finite loss at epoch \d+, batch \d+$"):
        M.train(data, arch, M.TrainConfig(lr=1e200, epochs=3, seed=0))


def test_log_posterior_equal_params_equal_values():
    data = blobs(30)
    arch = M.ArchSpec((2, 4, 2))
    a = M.init_params(arch, 2)
    b = M.ModelParams(arch, a.values.copy())
    assert M.log_posterior(a, data, 0.5) == M.log_posterior(b, data, 0.5)


def test_log_posterior_perfect_predictions_zero():
    # direct logits, no hidden layer: make the true class logit huge
    arch = M.ArchSpec((2, 2))
    data = blobs(10)
    values = np.zeros(arch.param_count())
    values[0] = -2000.0  # w[x0 -> class0] : x0 negative for class 0
    values[1] = 2000.0
    params = M.ModelParams(arch, values)
    assert abs(M.log_posterior(params, data, 0.0)) < 1e-9


def test_log_posterior_matches_pointwise_oracle():
    rng = derive_rng(8)
    data = LabeledDataset(rng.normal(size=(10, 3)), rng.integers(0, 3, 10), "classification")
    arch = M.ArchSpec((3, 6, 3))
    params = M.init_params(arch, 1)
    lam = 0.7
    total = 0.0
    for i in range(10):
        probs = M.predict_batch(params, data.x[i])[0]
        total -= -np.log(probs[data.y[i]])  # oracle accumulates +log p
    expected = total - 0.5 * lam * float(params.values @ params.values)
    assert abs(M.log_posterior(params, data, lam) - expected) < 1e-10


def test_log_posterior_invariant_under_permutation():
    rng = derive_rng(9)
    data = LabeledDataset(rng.normal(size=(25, 2)), rng.integers(0, 2, 25), "classification")
    arch = M.ArchSpec((2, 5, 2))
    params = M.init_params(arch, 3)
    perm = derive_rng(10).permutation(25)
    shuffled = LabeledDataset(data.x[perm], data.y[perm], "classification")
    assert abs(M.log_posterior(params, data, 0.1) - M.log_posterior(params, shuffled, 0.1)) < 1e-10


def test_mean_train_loss_perfect_and_uniform():
    arch = M.ArchSpec((2, 3))
    data = blobs(10)
    uniform = M.ModelParams(arch, np.zeros(arch.param_count()))
    data3 = LabeledDataset(data.x, np.zeros(len(data), dtype=int), "classification")
    assert abs(M.mean_train_loss(uniform, data3) - np.log(3.0)) < 1e-12


def test_mean_train_loss_matches_pointwise_oracle():
    rng = derive_rng(11)
    data = LabeledDataset(rng.normal(size=(12, 2)), rng.integers(0, 2, 12), "classification")
    params = M.init_params(M.ArchSpec((2, 4, 2)), 6)
    oracle = np.mean([-np.log(M.predict_batch(params, data.x[i])[0, data.y[i]]) for i in range(12)])
    assert abs(M.mean_train_loss(params, data) - oracle) < 1e-12


def test_target_rows_one_hot_rows_of_integral_labels():
    arch = M.ArchSpec((1, 4, 3))
    expected = np.eye(3)[[0, 2, 1]]
    assert np.array_equal(M.target_rows(arch, np.array([0, 2, 1])), expected)
    assert np.array_equal(M.target_rows(arch, np.array([0.0, 2.0, 1.0])), expected)


@pytest.mark.parametrize("label", [0.5, np.nan, np.inf, -np.inf])
def test_target_rows_rejects_a_label_that_is_not_an_integer(label):
    # cast to int, each would pick some class without a word
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"class labels must be integers.*got {label:g}"):
            M.target_rows(M.ArchSpec((1, 4, 3)), np.array([0.0, label]))


@pytest.mark.parametrize("widths, head", [((2, 4, 3), "categorical"), ((1, 5, 1), "gaussian_scalar"), ((1, 5, 2), "gaussian_scalar")])
def test_mean_train_loss_and_stacked_losses_are_cross_entropy_bit_for_bit(widths, head):
    # one loss expression: mean_train_loss skips the gradient, a stack of
    # models gives each model's unstacked loss, gradient and predictions
    rng = derive_rng(12)
    arch = M.ArchSpec(widths, head=head)
    y = rng.integers(0, widths[-1], 40) if head == "categorical" else rng.normal(size=40)
    data = LabeledDataset(rng.normal(size=(40, widths[0])) * 3.0, y, "classification" if head == "categorical" else "regression")
    targets = M.target_rows(arch, data.y)
    stack = M.ModelParams(arch, np.stack([M.init_params(arch, s).values for s in range(3)]))
    out = M.forward(stack, data.x)[-1]
    losses, grads = M.cross_entropy(arch, out, targets)
    for k in range(3):
        params = M.ModelParams(arch, stack.values[k])
        loss, grad = M.cross_entropy(arch, M.forward(params, data.x)[-1], targets)
        assert struct.pack("<d", M.mean_train_loss(params, data)) == struct.pack("<d", loss) == struct.pack("<d", losses[k])
        assert grads[k].tobytes() == grad.tobytes()
        assert M.head_predictions(arch, out)[k].tobytes() == M.predict_batch(params, data.x).tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=4),
    st.sampled_from(["labels", "soft_targets", "gaussian_1", "gaussian_2"]),
    st.booleans(),
    st.integers(1, 40),
    st.integers(0, 2**31),
)
def test_loss_and_grad_equals_the_tape_graph_to_rounding(widths, target, dropout, n, seed):
    # an input width, then 0-3 hidden layers
    rng = derive_rng(seed)
    if target.startswith("gaussian"):
        arch = M.ArchSpec(tuple(widths) + (int(target[-1]),), head="gaussian_scalar", dropout_prob=0.3 * dropout)
        y = rng.normal(size=n) * 2.0
    else:
        arch = M.ArchSpec(tuple(widths) + (int(rng.integers(2, 5)),), dropout_prob=0.3 * dropout)
        y = M.target_rows(arch, rng.integers(0, arch.n_classes, size=n)) if target == "labels" else rng.dirichlet(np.ones(arch.n_classes), size=n)
    params = M.ModelParams(arch, rng.normal(size=arch.param_count()))
    x = rng.normal(size=(n, widths[0]))
    masks = M.make_dropout_masks(arch, rng) if dropout else None
    # the Tape graph takes a Gaussian head's targets as plain values
    loss, grad = M.loss_and_grad(params, x, M.target_rows(arch, y) if target.startswith("gaussian") else y, masks)
    tape_loss, tape_grad = tape_loss_and_grad(params, x, y, masks)
    # the bias enters through the GEMM's ones row, not a separate sum: the order of the additions differs
    assert abs(loss - tape_loss) <= 1e-12 * abs(tape_loss)
    assert np.abs(grad - tape_grad).max() <= 1e-12 * np.abs(tape_grad).max()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from(["categorical", "gaussian_1", "gaussian_2"]), st.integers(1, 20), st.integers(0, 2**31))
def test_cross_entropy_is_target_entropy_plus_kl(head, n, seed):
    # CE(row, model) = H[row] + KL(row || model), averaged over the rows
    rng = derive_rng(seed)
    if head == "categorical":
        arch = M.ArchSpec((1, int(rng.integers(2, 6))))
        rows = rng.dirichlet(np.ones(arch.n_classes), size=n)
    else:
        arch = M.ArchSpec((1, int(head[-1])), head="gaussian_scalar")
        rows = np.column_stack([rng.normal(size=n) * 2.0, rng.uniform(0.05, 3.0, size=n)])
    out = rng.normal(size=(n, arch.widths[-1])) * 2.0
    preds = M.head_predictions(arch, out)
    expected = np.mean(entropy(arch.head, rows) + kl(arch.head, rows, preds))
    assert M.cross_entropy(arch, out, rows)[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_categorical_probs_valid_for_random_params():
    rng = derive_rng(13)
    for s in range(10):
        arch = M.ArchSpec((3, int(rng.integers(2, 12)), int(rng.integers(2, 6))))
        probs = M.predict_batch(M.init_params(arch, s), rng.normal(size=(20, 3)) * 5)
        assert (probs >= 0).all() and (probs <= 1).all()
        assert np.abs(probs.sum(1) - 1).max() < 1e-12


def test_checkpoint_round_trip_bit_identical(tmp_path):
    arch = M.ArchSpec((4, 7, 3), dropout_prob=0.25)
    params = M.init_params(arch, 17)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(params, path)
    loaded = M.load_checkpoint(path)
    assert loaded.arch == arch
    assert np.array_equal(loaded.values, params.values)
    M.save_checkpoint(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()


def test_checkpoint_magic_and_layout(tmp_path):
    # gaussian head of width 1 is encoded with tag byte 1
    arch = M.ArchSpec((2, 1), head="gaussian_scalar")
    params = M.init_params(arch, 0)
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(params, path)
    blob = path.read_bytes()
    assert blob[:8] == b"QUAMCKPT"
    assert int.from_bytes(blob[8:12], "little") == 1
    assert int.from_bytes(blob[12:16], "little") == 2  # two layer widths
    assert blob[24] == 1  # head tag


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(ValueError, match="magic"):
        M.load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_unknown_head_tags(tmp_path):
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(M.init_params(M.ArchSpec((2, 3, 2), dropout_prob=0.1), 0), path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(ValueError):
            M.load_checkpoint(cut)
    tag = 16 + 4 * 3  # magic, version, width count, three widths
    for head_tag in (2, 7, 255):
        cut.write_bytes(blob[:tag] + bytes([head_tag]) + blob[tag + 1 :])
        with pytest.raises(ValueError, match="head tag"):
            M.load_checkpoint(cut)
    cut.write_bytes(blob + b"\0" * 4)
    with pytest.raises(ValueError):
        M.load_checkpoint(cut)
    for value in (np.nan, np.inf):
        cut.write_bytes(blob[:-8] + np.float64(value).tobytes())
        with pytest.raises(ValueError, match="non-finite parameters"):
            M.load_checkpoint(cut)


def test_dropout_masks_preserve_expectation():
    arch = M.ArchSpec((2, 400, 2), dropout_prob=0.3)
    rng = derive_rng(14)
    masks = [M.make_dropout_masks(arch, rng)[0] for _ in range(200)]
    assert abs(np.mean(masks) - 1.0) < 0.02


@pytest.mark.parametrize("widths, head", [((3, 7, 5, 4), "categorical"), ((1, 6, 2), "gaussian_scalar"), ((2, 5, 4, 1), "gaussian_scalar")])
@pytest.mark.parametrize("stacked", [False, True])
def test_ones_rows_stay_one_and_each_layer_is_x_at_w_plus_b(widths, head, stacked):
    # the bias enters through each layer input's ones row: the ReLU and a
    # dropout mask that drops units must leave that row at exactly 1.0, in
    # a new pass and in a workspace's buffers over repeated passes
    rng = derive_rng(15)
    arch = M.ArchSpec(widths, head=head, dropout_prob=0.4)
    values = rng.normal(size=(3, arch.param_count()) if stacked else arch.param_count())
    x = rng.normal(size=(9, widths[0]))
    masks = M.make_dropout_masks(arch, rng)
    masks[0][0] = 0.0
    acts = M.forward(M.ModelParams(arch, values), x, masks)
    ws = M.Workspace(arch, values, len(x))
    ws.fill(x, M.target_rows(arch, rng.integers(0, widths[-1], len(x)) if head == "categorical" else rng.normal(size=len(x))))
    for _ in range(2):
        ws.forward(masks)
        ws.backward(dropout_masks=masks)
    for a in acts[:-1] + ws.acts[:-1]:
        assert (a[..., -1] == 1.0).all()
    # plain numpy, layer by layer: x @ W + b, then the ReLU and the mask on a hidden layer
    for k, v in enumerate(values if stacked else [values]):
        h = x
        for li, ((ws_, bs), o) in enumerate(zip(arch.layer_slices(), widths[1:])):
            h = h @ v[ws_].reshape(-1, o) + v[bs]
            if li < arch.n_layers - 1:
                h = np.maximum(h, 0.0) * masks[li]
            for got in (acts[li + 1], ws.acts[li + 1]):
                got = got[k] if stacked else got
                assert np.abs(got[:, :o] - h).max() <= 1e-13 * np.abs(h).max()


def test_adam_in_place_step_is_the_textbook_update_bit_for_bit():
    # 30 steps of a stack, each updating `values` in place, with a restart halfway
    rng = derive_rng(14)
    lr, wd, b1, b2, eps = 1e-2, 1e-3, 0.9, 0.999, 1e-8
    values = rng.normal(size=(3, 17))
    opt = M.Adam(values.shape, lr, wd, eps=eps)
    m, v, t = np.zeros_like(values), np.zeros_like(values), 0
    for step in range(30):
        if step == 15:
            opt.reset()
            m, v, t = np.zeros_like(values), np.zeros_like(values), 0
        grad = rng.normal(size=values.shape) * 10.0 ** rng.integers(-8, 3, size=values.shape)
        g = grad + wd * values
        t += 1
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mhat = m / (1.0 - b1**t)
        vhat = v / (1.0 - b2**t)
        expected = values - lr * mhat / (np.sqrt(vhat) + eps)
        opt.step(values, grad)  # `values` changes in place
        assert values.tobytes() == expected.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


def test_every_name_in_each_modules_all_resolves():
    # a stale entry would only fail a star import
    modules = [quam] + [importlib.import_module(f"quam.{m.name}") for m in pkgutil.iter_modules(quam.__path__)]
    assert [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)] == []
