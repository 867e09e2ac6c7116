"""The mean-NLL graph of an MLP on the generic `Tape`: the reference that
`models.loss_and_grad` must reproduce bit for bit.

Biases enter through a ones-column matmul, so that `add` keeps its
same-shape semantics, and dropout masks enter as a tiled constant.
"""

import numpy as np

from quam.autodiff import Tape
from quam.models import FIXED_GAUSSIAN_VARIANCE, ModelParams


def tape_loss_and_grad(params: ModelParams, x, targets, masks=None):
    """(mean NLL, flat gradient) of the rows of `x`; `targets` as `loss_and_grad` takes them."""
    arch = params.arch
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    tape = Tape()
    leaves = [(tape.leaf(w), tape.leaf(b.reshape(1, -1))) for w, b in params.layers()]
    ones = tape.constant(np.ones((n, 1)))
    h = tape.constant(x)
    for li, (w, b) in enumerate(leaves):
        h = tape.forward_op("add", tape.forward_op("matmul", h, w), tape.forward_op("matmul", ones, b))
        if li < arch.n_layers - 1:
            h = tape.forward_op("relu", h)
            if masks is not None:
                h = tape.forward_op("mul", h, tape.constant(np.broadcast_to(masks[li], (1, h.shape[1])) * np.ones((n, 1))))
    if arch.head == "categorical":
        picked = tape.forward_op("mul", tape.forward_op("log_softmax", h), tape.constant(np.asarray(targets, dtype=np.float64)))
        loss = tape.forward_op("scalar_mul", tape.forward_op("reduce_sum", picked), -1.0 / n)
    else:
        resid = tape.forward_op("sub", tape.constant(np.asarray(targets, dtype=np.float64).reshape(-1, 1)), tape.forward_op("take_col", h, aux=0))
        sq = tape.forward_op("square", resid)
        if arch.widths[-1] == 2:
            logvar = tape.forward_op("take_col", h, aux=1)
            inv_var = tape.forward_op("exp", tape.forward_op("scalar_mul", logvar, -1.0))
            total = tape.forward_op("add", logvar, tape.forward_op("mul", sq, inv_var))
            loss = tape.forward_op("scalar_mul", tape.forward_op("reduce_sum", total), 0.5 / n)
            loss = tape.forward_op("add", loss, tape.constant(np.array(0.5 * np.log(2.0 * np.pi))))
        else:
            loss = tape.forward_op("scalar_mul", tape.forward_op("reduce_sum", sq), 0.5 / (n * FIXED_GAUSSIAN_VARIANCE))
            loss = tape.forward_op("add", loss, tape.constant(np.array(0.5 * np.log(2.0 * np.pi * FIXED_GAUSSIAN_VARIANCE))))
    grads = tape.backward(loss)
    return loss.value.item(), np.concatenate([grads[leaf.id].ravel() for pair in leaves for leaf in pair])
