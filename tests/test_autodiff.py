import numpy as np
import pytest

from quam.autodiff import ShapeMismatch, Tape, grad_check
from quam.models import ArchSpec, ModelParams, init_params, target_rows
from quam.rng import derive_rng
from tape_nll import tape_loss_and_grad


def test_relu_definition():
    t = Tape()
    out = t.forward_op("relu", t.leaf(np.array([-1.0, 0.0, 2.0])))
    assert np.array_equal(out.value, [0.0, 0.0, 2.0])


def test_log_softmax_symmetry():
    t = Tape()
    out = t.forward_op("log_softmax", t.leaf(np.array([[0.0, 0.0]])))
    assert np.allclose(out.value, [[-np.log(2.0), -np.log(2.0)]])


def test_log_softmax_normalized():
    rng = derive_rng(0)
    t = Tape()
    out = t.forward_op("log_softmax", t.leaf(rng.normal(size=(50, 7)) * 30))
    lse = np.log(np.exp(out.value).sum(axis=1))
    assert np.abs(lse).max() < 1e-12


def test_matmul_counting():
    t = Tape()
    out = t.forward_op("matmul", t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 1))))
    assert out.value.shape == (2, 1)
    assert np.array_equal(out.value, np.full((2, 1), 3.0))


def test_matmul_shape_mismatch_names_shapes():
    t = Tape()
    with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 1\)"):
        t.forward_op("matmul", t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 1))))


def test_add_rejects_non_scalar_broadcast():
    t = Tape()
    with pytest.raises(ShapeMismatch):
        t.forward_op("add", t.leaf(np.ones((2, 3))), t.leaf(np.ones((1, 3))))


def test_backward_square():
    t = Tape()
    w = t.leaf(np.array([[3.0]]))
    loss = t.forward_op("reduce_sum", t.forward_op("mul", w, w))
    grads = t.backward(loss)
    assert np.allclose(grads[w.id], [[6.0]])


def test_backward_rejects_non_scalar():
    t = Tape()
    w = t.leaf(np.ones((2, 2)))
    out = t.forward_op("relu", w)
    with pytest.raises(ShapeMismatch):
        t.backward(out)


def test_softmax_ce_gradient_identity():
    # grad of CE-after-softmax w.r.t. logits is softmax(logits) - onehot
    rng = derive_rng(1)
    logits = rng.normal(size=(4, 5))
    onehot = np.zeros((4, 5))
    onehot[np.arange(4), [0, 2, 1, 4]] = 1.0
    t = Tape()
    lg = t.leaf(logits)
    lp = t.forward_op("log_softmax", lg)
    loss = t.forward_op("scalar_mul", t.forward_op("reduce_sum", t.forward_op("mul", lp, t.constant(onehot))), -1.0)
    grads = t.backward(loss)
    softmax = np.exp(logits - logits.max(1, keepdims=True))
    softmax /= softmax.sum(1, keepdims=True)
    assert np.allclose(grads[lg.id], softmax - onehot, atol=1e-12)


def _mlp_loss_fn(arch, x, y):
    def fn(values):
        return tape_loss_and_grad(ModelParams(arch, values), x, target_rows(arch, y))

    return fn


def test_two_layer_network_matches_finite_differences():
    rng = derive_rng(2)
    arch = ArchSpec((3, 8, 4))
    x = rng.normal(size=(6, 3)) + 0.05  # nudge off relu kinks
    y = rng.integers(0, 4, size=6)
    report = grad_check(_mlp_loss_fn(arch, x, y), init_params(arch, 5).values, step=1e-5, tolerance=1e-5)
    assert report["passed"], report


def test_grad_check_quadratic_is_nearly_exact():
    def quad(values):
        return float(0.5 * values @ values), values.copy()

    report = grad_check(quad, np.array([0.3, -1.2, 4.0]), step=1e-4, tolerance=1e-9)
    assert report["passed"]
    assert report["max_rel_error"] < 1e-9


def test_grad_check_catches_corrupted_gradient():
    def bad(values):
        return float(0.5 * values @ values), 1.1 * values

    report = grad_check(bad, np.array([1.0, 2.0]), step=1e-5, tolerance=1e-4)
    assert not report["passed"]


def test_random_small_mlps_match_finite_differences():
    rng = derive_rng(3)
    for trial in range(12):
        n_hidden = int(rng.integers(0, 3))
        widths = [int(rng.integers(2, 6))] + [int(rng.integers(2, 17)) for _ in range(n_hidden)] + [int(rng.integers(2, 5))]
        arch = ArchSpec(tuple(widths))
        x = rng.normal(size=(5, widths[0])) + 0.07
        y = rng.integers(0, widths[-1], size=5)
        report = grad_check(_mlp_loss_fn(arch, x, y), init_params(arch, trial).values, step=1e-5, tolerance=1e-4)
        assert report["passed"], (widths, report)


def test_forward_backward_deterministic():
    rng = derive_rng(4)
    arch = ArchSpec((2, 6, 2))
    params = init_params(arch, 0)
    x = rng.normal(size=(10, 2))
    y = rng.integers(0, 2, size=10)
    fn = _mlp_loss_fn(arch, x, y)
    l1, g1 = fn(params.values)
    l2, g2 = fn(params.values)
    assert l1 == l2
    assert np.array_equal(g1, g2)
