"""Fully connected probabilistic models and their training objective.

A model is a ReLU MLP with either a categorical head (softmax over C
classes) or a scalar Gaussian head.  The Gaussian head has output width 1
(mean only, fixed unit variance) or 2 (mean and log-variance).  Parameters
live in one flat float64 vector, the unit every sampler and search
manipulates: per layer the weights row-major, then the biases, a
(fan_in + 1, fan_out) matrix.  Inputs, targets and predictions (rows of
`head_predictions`: class probabilities, or (mean, variance)) are
row-major, one row per data point.  Activations are feature-major: a
layer's input is a (fan_in + 1, rows) buffer whose last row is all ones,
so each affine layer, and each weight-and-bias gradient, is one GEMM, and
the head pass runs on contiguous class rows.  One forward loop
(`forward_into`), one backward loop (`Backprop`) and one loss, the
cross-entropy against target rows, serve training, the samplers, the
search penalty and the search objectives; their buffers live in a
`Workspace` over a fixed number of rows, whose inputs `fill` writes.
Training keeps one per batch size, cSG-HMC and HMC one over the data rows,
a search batch one with its test rows as a second block, and
`loss_and_grad` is a single pass of one.

The log-posterior used as a sampling weight is the negative total training
loss plus an isotropic Gaussian log-prior whose precision equals the
optimizer's weight decay, so training and posterior weighting share one
objective.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import require
from .data import class_indices
from .rng import derive_rng

__all__ = [
    "ArchSpec",
    "ModelParams",
    "TrainConfig",
    "TrainingDiverged",
    "Adam",
    "FIXED_GAUSSIAN_VARIANCE",
    "init_params",
    "layer_views",
    "forward",
    "forward_into",
    "Backprop",
    "Workspace",
    "loss_and_grad",
    "head_predictions",
    "cross_entropy",
    "cross_entropy_grad",
    "cross_entropy_loss",
    "target_terms",
    "target_rows",
    "predict_batch",
    "train",
    "mean_train_loss",
    "log_posterior",
    "make_dropout_masks",
    "save_checkpoint",
    "load_checkpoint",
]

# Variance of a width-1 Gaussian head (mean-only regression).  The loss takes it as a
# width-2 head's log-variance 0: its inverse is 1 and its log 0.
FIXED_GAUSSIAN_VARIANCE = 1.0

CHECKPOINT_MAGIC = b"QUAMCKPT"

# Softmax probabilities below this count as 0 in the gradient: as subnormal operands of the
# backward GEMMs their terms stall the FPU (a pass took up to 3x as long along an HMC chain)
_NEGLIGIBLE = 1e-200


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during optimization; the message names where."""


@dataclass(frozen=True)
class ArchSpec:
    """Layer widths (input first, output last), head kind and dropout rate."""

    widths: tuple[int, ...]
    head: str = "categorical"  # "categorical" | "gaussian_scalar"
    dropout_prob: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise ValueError("ArchSpec needs at least input and output widths")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"layer widths must be positive, got {self.widths}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")
        if self.head == "categorical":
            if self.widths[-1] < 2:
                raise ValueError("categorical head needs output width >= 2 (one logit per class)")
        elif self.head == "gaussian_scalar":
            if self.widths[-1] not in (1, 2):
                raise ValueError("gaussian_scalar head needs output width 1 (mean) or 2 (mean, log-variance)")
        else:
            raise ValueError(f"unknown head {self.head!r}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def n_classes(self) -> int:
        if self.head != "categorical":
            raise ValueError("n_classes is only defined for categorical heads")
        return self.widths[-1]

    def param_count(self) -> int:
        return self.layer_slices()[-1][1].stop

    def layer_slices(self) -> tuple[tuple[slice, slice], ...]:
        """(weight slice, bias slice) into the flat vector, per layer."""
        return _layer_slices(self.widths)


@functools.lru_cache(maxsize=256)
def _layer_slices(widths: tuple[int, ...]) -> tuple[tuple[slice, slice], ...]:
    # every gradient and forward pass asks for the layout: build it once per architecture
    out = []
    pos = 0
    for i, o in zip(widths[:-1], widths[1:]):
        w = slice(pos, pos + i * o)
        pos += i * o
        b = slice(pos, pos + o)
        pos += o
        out.append((w, b))
    return tuple(out)


@dataclass(frozen=True)
class ModelParams:
    """Architecture descriptor plus the flat parameter vector.

    `values` may also be a (K, P) stack of K models' vectors: `forward`,
    `Backprop`, `cross_entropy` and `head_predictions` then carry the
    stack as a leading axis, and each model's slice of every result has
    the bits of its own unstacked call.
    """

    arch: ArchSpec
    values: np.ndarray

    def __post_init__(self):
        # private copy: freezing must never touch the caller's buffer
        v = np.array(self.values, dtype=np.float64, order="C")
        if v.ndim not in (1, 2) or v.shape[-1] != self.arch.param_count():
            raise ValueError(f"expected {self.arch.param_count()} parameter values, got array of shape {self.values.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def layers(self) -> list[np.ndarray]:
        """Per layer, the (fan_in + 1, fan_out) matrix of its weights and bias (`layer_views`)."""
        # built once per instance: MC dropout's `SamplerOutput.predictions` makes 500 passes on one model
        # (500 passes at 64 points of a 2-32-32-2 net: 19.1 ms with the cache, 21.4 ms without, one Xeon thread)
        if "_layers" not in self.__dict__:
            self.__dict__["_layers"] = layer_views(self.arch, self.values)
        return self.__dict__["_layers"]


def layer_views(arch: ArchSpec, values: np.ndarray) -> list[np.ndarray]:
    """Per layer, its slice of a vector or of each row of a (K, P) stack as a (fan_in + 1, fan_out) matrix, weights then the bias row: views."""
    shapes = zip(arch.layer_slices(), arch.widths[:-1], arch.widths[1:])
    return [values[..., ws.start : bs.stop].reshape(values.shape[:-1] + (i + 1, o)) for (ws, bs), i, o in shapes]


def init_params(arch: ArchSpec, seed: int) -> ModelParams:
    """Uniform fan-in initialization, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    rng = derive_rng(seed)
    chunks = []
    for i, o in zip(arch.widths[:-1], arch.widths[1:]):
        bound = 1.0 / np.sqrt(i)
        chunks.append(rng.uniform(-bound, bound, size=i * o))
        chunks.append(rng.uniform(-bound, bound, size=o))
    return ModelParams(arch, np.concatenate(chunks))


def make_dropout_masks(arch: ArchSpec, rng: np.random.Generator) -> list[np.ndarray]:
    """Inverted-dropout masks for each hidden layer (expected activation preserved)."""
    p = arch.dropout_prob
    masks = []
    for w in arch.widths[1:-1]:
        keep = rng.random(w) >= p
        masks.append(keep.astype(np.float64) / (1.0 - p))
    return masks


# --------------------------------------------------------------------------
# forward passes
# --------------------------------------------------------------------------


def _buffer(lead: tuple, width: int, rows: int, ones: bool) -> np.ndarray:
    """A feature-major (..., width, rows) buffer, with a ones row after the width rows when `ones` holds."""
    buf = np.empty(lead + (width + ones, rows))
    buf[..., width:, :] = 1.0
    return buf


def _inputs(x: np.ndarray) -> np.ndarray:
    """The feature-major input buffer of row-major inputs (..., n, width): (..., width + 1, n), ones row last."""
    buf = _buffer(x.shape[:-2], x.shape[-1], x.shape[-2], True)
    buf[..., :-1, :] = x.swapaxes(-1, -2)
    return buf


def _transposed(rows: np.ndarray) -> np.ndarray:
    """The class-major (..., k, n) transpose of row-major rows (..., n, k): a view when its rows are contiguous (a view of a buffer), else a contiguous copy."""
    t = np.swapaxes(rows, -1, -2)
    return t if t.strides[-1] == t.itemsize else np.ascontiguousarray(t)


def forward(params: ModelParams, x: np.ndarray, dropout_masks=None) -> list[np.ndarray]:
    """The input of every layer, ones column last, then the head outputs, at the rows of `x`: row-major views of `forward_into`'s buffers.

    Rows are the second-last axis: `x` of shape (..., n, input width) runs
    each leading index as its own pass, and a stack of models broadcasts
    against it.  Swapping the last two axes back gives the feature-major
    buffers that `Backprop` takes.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != params.arch.widths[0]:
        raise ValueError(f"input width {x.shape[-1]} does not match architecture input width {params.arch.widths[0]}")
    bufs = forward_into(params.arch, params.layers(), [_inputs(x)] + [None] * params.arch.n_layers, dropout_masks)
    return [b.swapaxes(-1, -2) for b in bufs]


def forward_into(arch: ArchSpec, layers, bufs: list, dropout_masks=None, blocks=None) -> list:
    """The forward pass of the per-layer parameter matrices `layers` (`layer_views`) through the feature-major buffers `bufs`.

    `bufs[0]` holds the inputs, each later entry a layer's output buffer or
    None for a new one; a layer's input has a ones row last, which adds the
    bias in its one GEMM and which the ReLU and dropout leave alone.  Each
    of `blocks`, (views, inputs) pairs, gets its own GEMMs: `views` are
    its columns of the buffers, and `inputs`, when not None, contiguous
    buffers into which each layer's input columns are copied for the GEMM
    to read.  An OpenBLAS gemv's bits depend on the stride of its vector,
    and a copied block of one column gets those of `forward` on its row.
    Returns `bufs`.
    """
    last = arch.n_layers - 1
    for li, a in enumerate(layers):
        fan_out = arch.widths[li + 1]
        if bufs[li + 1] is None:
            bufs[li + 1] = _buffer(np.broadcast_shapes(a.shape[:-2], bufs[li].shape[:-2]), fan_out, bufs[li].shape[-1], li < last)
        for views, inputs in blocks or ((bufs, None),):
            h = views[li]
            if inputs is not None:
                h = inputs[li]
                np.copyto(h, views[li])
            np.matmul(a.swapaxes(-1, -2), h, out=views[li + 1][..., :fan_out, :])
        if li < last:
            out = bufs[li + 1][..., :fan_out, :]
            np.maximum(out, 0.0, out=out)
            if dropout_masks is not None:
                out *= dropout_masks[li][:, None]
    return bufs


class Backprop:
    """The backward pass into fixed buffers, on views built once: a caller that backpropagates at every step builds one over the buffers each pass writes.

    `layers` are the per-layer parameter matrices, `bufs` the feature-major
    layer inputs of a pass, (..., fan_in + 1, rows) with the ones row last,
    as `forward_into` fills them, `dz` the class-major (..., k, rows)
    gradients at its head outputs and `grad` the flat gradients of
    sum_i dz[:, i] . out[:, i], one row per model, that `run` writes.  It
    keeps views of these arrays, so each `run` reads what they hold then.
    A layer's gradient is one GEMM, h_aug @ dz^T, into its
    (fan_in + 1, fan_out) view: the input's ones row gives the bias
    gradient.  The ReLU mask is a float 1[h > 0] buffer (multiplying by the
    bool array casts it inside the loop, slower).  A stack's arrays have
    the stack as their leading axis, except a shared first-layer input.
    """

    def __init__(self, arch: ArchSpec, layers, bufs: Sequence[np.ndarray], dz: np.ndarray, grad: np.ndarray):
        lead, slices, widths = grad.shape[:-1], arch.layer_slices(), arch.widths
        self.grad, self.steps = grad, []
        for li in range(len(slices) - 1, -1, -1):
            fan_in, fan_out = widths[li], widths[li + 1]
            g = grad[..., slices[li][0].start : slices[li][1].stop].reshape(lead + (fan_in + 1, fan_out))
            h = bufs[li]
            step = [h, dz.swapaxes(-1, -2), g]
            if li:
                hidden = h[..., :fan_in, :]
                step += [layers[li][..., :fan_in, :], dz, np.empty(hidden.shape), hidden, np.empty(hidden.shape)]
                dz = step[5]
            self.steps.append(step)

    def run(self, rows: Optional[slice] = None, dropout_masks=None) -> np.ndarray:
        """Backpropagate `dz` into `grad` and return it; `rows`, a slice of a stack, backpropagates those models alone, in place.

        A hidden layer's gradient is multiplied by its `dropout_masks` entry, when given, then by 1[h > 0].
        """
        for li, step in zip(range(len(self.steps) - 1, -1, -1), self.steps):
            if rows is not None:
                step = [v if v.ndim < 3 else v[rows] for v in step]
            h, dz_t, g = step[:3]
            np.matmul(h, dz_t, out=g)
            if li:
                w, dz, dz_in, hidden, relu = step[3:]
                np.matmul(w, dz, out=dz_in)
                if dropout_masks is not None:
                    dz_in *= dropout_masks[li - 1][:, None]
                np.greater(hidden, 0.0, out=relu)
                dz_in *= relu
        return self.grad


class Workspace:
    """The buffers of gradient passes over a fixed number of rows, built once: a caller that takes many gradients keeps one.

    `values` is the caller's parameter vector or (K, P) stack, read through
    its per-layer matrices `layers`, so writes to it show through.  `bufs`
    are `forward_into`'s feature-major buffers and `acts` their row-major
    views.  The input rows are the workspace's own, one set per model of a
    stack, which `fill` writes.  `targets` holds the class-major
    cross-entropy targets; `weights` each row's weight in the loss, a
    (..., 1, rows) row (None: 1/n on each of the n rows), and `fixed` their
    `target_terms`.  `dz` holds the class-major gradients at the head
    outputs, and `backward` writes the flat ones into `grad`.  With `extra`
    rows, the n rows and the extra rows (the search's test rows) are two
    blocks, each with its own GEMMs and its own `Backprop`; the extra
    block's GEMMs read contiguous copies of its columns (`forward_into`).

    A pass is `fill`, then `forward`, whose head pass keeps the cross-entropy
    terms that `loss` reduces, then `backward`.  Each result has the bits of
    `forward`, `cross_entropy` and a new `Backprop` on the same rows.
    """

    def __init__(self, arch: ArchSpec, values: np.ndarray, n: int, weights=None, extra: int = 0):
        self.arch, self.values, self.n, self.weights = arch, values, n, weights
        self.layers = layer_views(arch, values)
        lead, rows, last = values.shape[:-1], n + extra, arch.n_layers
        self.bufs = [_buffer(lead, w, rows, li < last) for li, w in enumerate(arch.widths)]
        self.acts = [b.swapaxes(-1, -2) for b in self.bufs]
        self.targets = np.zeros(lead + (arch.widths[-1] if arch.head == "categorical" else 2, rows))
        self.fixed = target_terms(arch, self.targets, weights)
        self.dz = np.empty(self.bufs[-1].shape)
        self.grad = np.empty(values.shape)
        self.backprop = Backprop(arch, self.layers, self.bufs, self.dz, self.grad)
        self.blocks = self.extra_backprop = None
        if extra:
            views = [b[..., n:] for b in self.bufs]
            self.blocks = ([b[..., :n] for b in self.bufs], None), (views, [np.empty(v.shape) for v in views[:-1]])
            self.extra_backprop = Backprop(arch, self.layers, views, self.dz[..., n:], self.grad)
        self.terms = None  # the cross-entropy terms of the last `forward`

    def fill(self, x: np.ndarray, targets: np.ndarray) -> None:
        """Write the row-major inputs and targets of the n rows: one set for every model of a stack, or one each."""
        self.acts[0][..., : self.n, :-1] = x
        self.targets[..., : self.n] = np.swapaxes(targets, -1, -2)
        if self.arch.head == "categorical":  # a Gaussian head's terms do not depend on the targets
            self.fixed = target_terms(self.arch, self.targets, self.weights)

    def forward(self, dropout_masks=None) -> None:
        """The forward pass at `values` and one head pass that writes `dz`."""
        out = forward_into(self.arch, self.layers, self.bufs, dropout_masks, self.blocks)[-1]
        self.terms = cross_entropy_grad(self.arch, out, self.targets, self.fixed, self.dz)

    def loss(self, split: Optional[int] = None):
        """The loss of the last `forward`, as `cross_entropy_loss` gives it."""
        return cross_entropy_loss(self.arch, self.bufs[-1], self.targets, self.terms, split)

    def backward(self, rows: Optional[slice] = None, dropout_masks=None, extra: bool = False) -> np.ndarray:
        """`Backprop.run` of `dz` on all rows, or on the extra rows alone; returns `grad`."""
        return (self.extra_backprop if extra else self.backprop).run(rows, dropout_masks)


def _sum_classes(a: np.ndarray) -> np.ndarray:
    """The (..., 1, n) sum of the class rows of a class-major (..., k, n) array, added in class order: each column has the bits of its own pass."""
    s = a[..., 0:1, :] + a[..., 1:2, :]
    for j in range(2, a.shape[-2]):
        s += a[..., j : j + 1, :]
    return s


def head_predictions(arch: ArchSpec, out: np.ndarray) -> np.ndarray:
    """Row-major head outputs to (..., n, C) class probabilities, or (..., n, 2) mean/variance."""
    if arch.head == "categorical":
        _, e, s = _nll_terms(arch, _transposed(out), None)
        return np.ascontiguousarray((e / s).swapaxes(-1, -2))
    pred = np.empty(out.shape[:-1] + (2,))
    pred[..., 0] = out[..., 0]
    pred[..., 1] = np.exp(out[..., 1]) if arch.widths[-1] == 2 else FIXED_GAUSSIAN_VARIANCE
    return pred


def predict_batch(params: ModelParams, x: np.ndarray, dropout_masks=None) -> np.ndarray:
    """Vectorized predictions: (n, C) class probabilities, or (n, 2) mean/variance."""
    return head_predictions(params.arch, forward(params, x, dropout_masks)[-1])


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def target_rows(arch: ArchSpec, y: np.ndarray) -> np.ndarray:
    """`cross_entropy`'s targets for observed labels `y`: one-hot rows, or (y, 0) rows for a Gaussian head.

    Callers that take the loss of the same labels many times build the rows once.
    """
    if arch.head != "categorical":
        y = np.asarray(y, dtype=np.float64)
        return np.column_stack([y, np.zeros_like(y)])
    y = class_indices(y)
    if y.size and not 0 <= y.min() <= y.max() < arch.n_classes:
        raise ValueError(f"class labels must lie in 0..{arch.n_classes - 1} for the model's head, got {y.min()}..{y.max()}")
    out = np.zeros((y.size, arch.n_classes))
    out[np.arange(y.size), y] = 1.0
    return out


def _nll_terms(arch: ArchSpec, out: np.ndarray, targets: np.ndarray) -> tuple:
    """The terms of the class-major head outputs `out` that the cross-entropy and its gradient share.

    For a categorical head: z = the logits less their class maximum, e =
    exp(z) and s, the class sum of e; softmax is e / s, log-softmax z - log(s).
    For a Gaussian head: the residual, the expected squared residual and the
    inverse variance, 1 for a width-1 head.
    """
    if arch.head == "categorical":
        m = np.maximum(out[..., 0:1, :], out[..., 1:2, :])
        for j in range(2, out.shape[-2]):
            np.maximum(m, out[..., j : j + 1, :], out=m)
        z = out - m
        e = np.exp(z)
        return z, e, _sum_classes(e)
    resid = targets[..., 0:1, :] - out[..., 0:1, :]
    sq = resid * resid + targets[..., 1:2, :]  # E[(t - mean)^2] under the target row
    return resid, sq, np.exp(out[..., 1:2, :] * -1.0) if arch.widths[-1] == 2 else 1.0


def target_terms(arch: ArchSpec, targets: np.ndarray, weights=None):
    """The terms of the cross-entropy gradient that do not depend on the head outputs, from class-major targets (..., k, n).

    `weights` holds each row's weight in the loss, as a (..., 1, n) row
    that broadcasts against `targets`; the default, 1/n for each of the n
    rows, gives the mean.  A negative weight gives the gradient of the
    row's negated loss, with the bits of the negated gradient.  For a
    categorical head the terms are -weight * targets and their class sum,
    for a Gaussian head the scale 0.5 * weight.  A caller that takes many
    gradients against the same rows builds them once and passes them as
    `fixed`; the results keep their bits.
    """
    w = 1.0 / targets.shape[-1] if weights is None else weights
    if arch.head != "categorical":
        return 0.5 * w
    g = -w * targets
    return g, _sum_classes(g)


def _mean_loss(arch: ArchSpec, rows: np.ndarray):
    """The loss of n columns from their (..., 1, n) summands (`cross_entropy_loss`), one per leading index."""
    n = rows.shape[-1]
    total = rows.sum(axis=(-2, -1))
    if arch.head == "categorical":
        return total * (-1.0 / n)
    return total * (0.5 / n) + 0.5 * np.log(2.0 * np.pi)


def cross_entropy_loss(arch: ArchSpec, out: np.ndarray, targets: np.ndarray, terms: Optional[tuple] = None, split: Optional[int] = None):
    """The cross-entropy of class-major head outputs (..., k, n) against class-major targets: a float, or one per leading index.

    `terms`, when given, are those `cross_entropy_grad` returned for the
    same `out` and `targets`: the loss then costs its reduction and the
    log-softmax.  With `split`, columns :split and split: are two blocks,
    each the mean of its own columns, and the two blocks' losses are
    returned, each with the bits of a call on its columns alone.
    """
    if terms is None:
        terms = _nll_terms(arch, out, targets)
    if arch.head == "categorical":
        rows = _sum_classes((terms[0] - np.log(terms[2])) * targets)
    else:
        rows = terms[1] * terms[2]
        if arch.widths[-1] == 2:
            rows = out[..., 1:2, :] + rows
    if split is not None:
        return _mean_loss(arch, rows[..., :split]), _mean_loss(arch, rows[..., split:])
    loss = _mean_loss(arch, rows)
    return loss if out.ndim > 2 else float(loss)


def cross_entropy_grad(arch: ArchSpec, out: np.ndarray, targets: np.ndarray, fixed, grad: np.ndarray) -> tuple:
    """The head pass: the cross-entropy gradient at class-major head outputs `out` into `grad`, and the terms `cross_entropy_loss` reduces.

    `fixed` are the targets' `target_terms`.  A categorical head's gradient takes the softmax as e / s, 0 below `_NEGLIGIBLE`.
    """
    terms = _nll_terms(arch, out, targets)
    if arch.head == "categorical":
        g, g_sum = fixed
        np.divide(terms[1], terms[2], out=grad)
        np.putmask(grad, grad < _NEGLIGIBLE, 0.0)
        grad *= g_sum
        np.subtract(g, grad, out=grad)
    else:
        resid, sq, inv_var = terms
        grad[..., 0:1, :] = -((2.0 * resid) * (fixed * inv_var))
        if arch.widths[-1] == 2:
            grad[..., 1:2, :] = fixed - (fixed * sq) * inv_var
    return terms


def cross_entropy(arch: ArchSpec, out: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy of the target rows under row-major head outputs `out`, and its row-major gradient at `out`.

    `targets` hold one row per row of `out` in `head_predictions`' format:
    class probabilities, or the (mean, variance) of a Gaussian target,
    variance 0 for an observed value (`target_rows`).  CE(row, model) =
    H[row] + KL(row || model): it is the training NLL of observed targets,
    and H[row] less it is the divergence a search maximizes.  The pass is
    a `Workspace`'s head pass on the class-major transposes, with its
    bits: the sampler chains depend on them.  A stacked `out` of shape
    (K, n, k) gives K losses.
    """
    out, targets = _transposed(out), _transposed(targets)
    grad = np.empty(out.shape)
    terms = cross_entropy_grad(arch, out, targets, target_terms(arch, targets), grad)
    return cross_entropy_loss(arch, out, targets, terms), grad.swapaxes(-1, -2)


def loss_and_grad(params: ModelParams, x: np.ndarray, targets: np.ndarray, masks=None) -> tuple[float, np.ndarray]:
    """`cross_entropy` of the rows of `x` against `targets` and its flat gradient: one pass of a `Workspace` over them.

    `masks` are hidden-layer dropout masks.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    ws = Workspace(params.arch, params.values, x.shape[-2])
    ws.fill(x, targets)
    ws.forward(masks)
    return ws.loss(), ws.backward(dropout_masks=masks)


def mean_train_loss(params: ModelParams, data) -> float:
    """Mean negative log-likelihood of the training targets."""
    return cross_entropy_loss(params.arch, forward(params, data.x)[-1].swapaxes(-1, -2), _transposed(target_rows(params.arch, data.y)))


def log_posterior(params: ModelParams, data, prior_precision: float) -> float:
    """log p(D|w) + log p(w) up to an additive constant.

    Equals -sum of per-point losses minus (prior_precision/2)*||values||^2,
    consistent with Adam-plus-weight-decay training.
    """
    if len(data) == 0:
        raise ValueError("log_posterior needs a nonempty dataset")
    nll = len(data) * mean_train_loss(params, data)
    return float(-nll - 0.5 * prior_precision * float(params.values @ params.values))


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-3
    weight_decay: float = 1e-3
    epochs: int = 200
    batch_size: Optional[int] = None  # None = full batch
    seed: int = 0

    def __post_init__(self):
        require(0, epochs=self.epochs, lr=self.lr, weight_decay=self.weight_decay)
        require(1, batch_size=self.batch_size)


class Adam:
    """Adam with classic L2-style weight decay (decay folded into gradients).

    `size` is the parameter count, or the (K, P) shape of a stack of K models
    that take their steps together; every update is elementwise.
    """

    beta1, beta2 = 0.9, 0.999

    def __init__(self, size, lr: float, weight_decay: float = 0.0, eps: float = 1e-8) -> None:
        self.lr = lr
        self.weight_decay = weight_decay
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, values: np.ndarray, grad: np.ndarray) -> None:
        """One update of `values` in place; `m` and `v` change in place too.

        Each line keeps the operations, and their order, of the textbook
        update m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * g * g,
        values - lr * mhat / (sqrt(vhat) + eps), so the bits are the same.
        """
        if self.weight_decay:
            grad = grad + self.weight_decay * values
        self.t += 1
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        g2 = (1.0 - self.beta2) * grad
        g2 *= grad
        v += g2
        mhat = m / (1.0 - self.beta1**self.t)
        den = v / (1.0 - self.beta2**self.t)
        np.sqrt(den, out=den)
        den += self.eps
        mhat *= self.lr
        mhat /= den
        values -= mhat

    def reset(self) -> None:
        """Zero the moments and the step count in place: the next step is a fresh Adam's first."""
        self.m.fill(0.0)
        self.v.fill(0.0)
        self.t = 0


def train(data, arch: ArchSpec, cfg: TrainConfig, log=None, extra_loss=None) -> ModelParams:
    """Adam training on the mean NLL of each batch, plus `extra_loss`.

    `extra_loss(params) -> (loss, flat gradient)`, when given, is added to
    every batch's loss and gradient.  `log`, when given, gets one
    `{"epoch", "loss"}` row per epoch, the loss on the full training set.

    Seed-deterministic: initialization, batch order and dropout masks all
    derive from cfg.seed.  Raises `TrainingDiverged` when a batch loss, the
    final parameters or the final training loss is not finite.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if np.shape(data.x)[-1] != arch.widths[0]:
        raise ValueError(f"input width {np.shape(data.x)[-1]} does not match architecture input width {arch.widths[0]}")
    values = init_params(arch, cfg.seed).values.copy()  # each Adam step updates it in place
    workspaces = {}  # batch rows -> the `Workspace` of a batch that size, built once
    rng = derive_rng(cfg.seed, 1)
    opt = Adam(values.size, cfg.lr, cfg.weight_decay)
    n = len(data)
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    targets = target_rows(arch, data.y)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for bi, start in enumerate(range(0, n, batch)):
            idx = order[start : start + batch]
            masks = make_dropout_masks(arch, rng) if arch.dropout_prob > 0 else None
            if idx.size not in workspaces:
                workspaces[idx.size] = Workspace(arch, values, idx.size)
            ws = workspaces[idx.size]
            if batch < n or not epoch:  # a full batch's rows never change
                ws.fill(data.x[idx], targets[idx])
            ws.forward(masks)
            loss, grad = ws.loss(), ws.backward(dropout_masks=masks)
            if extra_loss is not None:
                extra, extra_grad = extra_loss(ModelParams(arch, values))
                loss, grad = loss + extra, grad + extra_grad
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {bi}")
            opt.step(values, grad)
        if log is not None:
            log.append({"epoch": epoch, "loss": mean_train_loss(ModelParams(arch, values), data)})
    params = ModelParams(arch, values)
    # each batch's loss is checked before its update; the last update is checked here
    if not (np.isfinite(params.values).all() and np.isfinite(mean_train_loss(params, data))):
        raise TrainingDiverged(f"non-finite parameters or training loss after the last epoch ({cfg.epochs - 1})")
    return params


# --------------------------------------------------------------------------
# checkpoint format (bit-exact)
# --------------------------------------------------------------------------
# magic "QUAMCKPT" | u32 version=1 | u32 layer-width count | u32 widths...
# | u8 head tag (0 categorical, 1 gaussian) | f64 dropout | f64 values...
# all integers and floats little-endian, values in layer-major order.


def save_checkpoint(params: ModelParams, path):
    arch = params.arch
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", 1))
        f.write(struct.pack("<I", len(arch.widths)))
        f.write(struct.pack(f"<{len(arch.widths)}I", *arch.widths))
        f.write(struct.pack("<B", 0 if arch.head == "categorical" else 1))
        f.write(struct.pack("<d", arch.dropout_prob))
        f.write(np.ascontiguousarray(params.values, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as f:
        blob = f.read()

    def unpack(fmt, off):
        if len(blob) < off + struct.calcsize(fmt):
            raise ValueError(f"{path}: checkpoint truncated at {len(blob)} bytes")
        return struct.unpack_from(fmt, blob, off)

    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:8]!r}")
    (version,) = unpack("<I", 8)
    if version != 1:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (n_widths,) = unpack("<I", 12)
    widths = unpack(f"<{n_widths}I", 16)
    off = 16 + 4 * n_widths
    head_tag, dropout = unpack("<Bd", off)
    off += 9
    if head_tag not in (0, 1):
        raise ValueError(f"{path}: unknown head tag {head_tag}")
    arch = ArchSpec(widths=widths, head="categorical" if head_tag == 0 else "gaussian_scalar", dropout_prob=dropout)
    if len(blob) - off != 8 * arch.param_count():
        raise ValueError(f"{path}: expected {arch.param_count()} values, file carries {(len(blob) - off) / 8:g}")
    values = np.frombuffer(blob, dtype="<f8", offset=off)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    return ModelParams(arch, values.astype(np.float64))
