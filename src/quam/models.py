"""Fully connected probabilistic models and their training objective.

A model is a ReLU MLP with either a categorical head (softmax over C
classes) or a scalar Gaussian head.  The Gaussian head has output width 1
(mean only, fixed unit variance) or 2 (mean and log-variance).  Parameters
live in one flat float64 vector, weights then biases per layer, which is
the unit every sampler and search manipulates.  A prediction is one row of
`head_predictions`: the class probabilities, or (mean, variance).  One
loss, `cross_entropy` against such rows, serves training, the samplers,
the search penalty and the search objectives.

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
    "forward_layers",
    "backward",
    "backward_layers",
    "loss_and_grad",
    "head_predictions",
    "cross_entropy",
    "cross_entropy_and_predictions",
    "cross_entropy_loss",
    "target_rows",
    "predict_batch",
    "train",
    "mean_train_loss",
    "log_posterior",
    "make_dropout_masks",
    "save_checkpoint",
    "load_checkpoint",
]

# Variance of a width-1 Gaussian head (mean-only regression).
FIXED_GAUSSIAN_VARIANCE = 1.0

CHECKPOINT_MAGIC = b"QUAMCKPT"


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during optimization."""

    def __init__(self, message: str, epoch: int = -1, batch: int = -1):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class ArchSpec:
    """Layer widths (input first, output last), head kind and dropout rate."""

    widths: tuple[int, ...]
    head: str = "categorical"  # "categorical" | "gaussian_scalar"
    dropout_prob: float = 0.0
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise ValueError("ArchSpec needs at least input and output widths")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"layer widths must be positive, got {self.widths}")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")
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
    `backward`, `cross_entropy` and `head_predictions` then carry the
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

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer, views of the (fan_in, fan_out) weights and the bias; a stack's are (K, fan_in, fan_out) and (K, 1, fan_out)."""
        # built once per instance: a search step's passes all read the same views
        if "_layers" not in self.__dict__:
            self.__dict__["_layers"] = layer_views(self.arch, self.values)
        return self.__dict__["_layers"]

    def with_values(self, values: np.ndarray) -> "ModelParams":
        return ModelParams(self.arch, values)


def layer_views(arch: ArchSpec, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """`ModelParams.layers` of a flat vector or a (K, P) stack: views, so writes to `values` show through them."""
    shapes = zip(arch.layer_slices(), arch.widths[:-1], arch.widths[1:])
    if values.ndim == 1:
        return [(values[ws].reshape(i, o), values[bs]) for (ws, bs), i, o in shapes]
    k = len(values)
    return [(values[:, ws].reshape(k, i, o), values[:, bs].reshape(k, 1, o)) for (ws, bs), i, o in shapes]


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


def forward(params: ModelParams, x: np.ndarray, dropout_masks=None) -> list[np.ndarray]:
    """The input of every layer, then the head outputs, at the rows of `x`.

    The search backpropagates through the kept layer inputs (`backward`);
    predictions and losses use the last entry.  Rows are the second-last
    axis: `x` of shape (..., n, input width) runs each leading index as its
    own pass, and a stack of models broadcasts against it.
    """
    return forward_layers(params.arch, params.layers(), x, dropout_masks)


def forward_layers(arch: ArchSpec, layers, x: np.ndarray, dropout_masks=None) -> list[np.ndarray]:
    """`forward` on the per-layer weights and biases `layers`, as `ModelParams.layers` or `layer_views` gives them."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != arch.widths[0]:
        raise ValueError(f"input width {x.shape[-1]} does not match architecture input width {arch.widths[0]}")
    acts = [x]
    n_layers = arch.n_layers
    for li, (w, b) in enumerate(layers):
        h = acts[-1] @ w + b
        if li < n_layers - 1:
            h = np.maximum(h, 0.0)
            if dropout_masks is not None:
                h = h * dropout_masks[li]
        acts.append(h)
    return acts


def backward(params: ModelParams, acts: Sequence[np.ndarray], grad_out: np.ndarray, dropout_masks=None) -> np.ndarray:
    """Flat gradient of sum_i grad_out[i] . out[i] with respect to the parameters.

    `acts` comes from `forward` with the same `dropout_masks`, and
    `grad_out` holds one output gradient per row; for a stack of models the
    result is one flat gradient per model.  A layer's flat slice
    (weights row-major, then the bias) is a (fan_in + 1, fan_out) matrix,
    so each layer's gradient is written straight into the flat vector.  The
    bias gradient is the product ones(1, n) @ dz, and a hidden layer's
    gradient is multiplied by its dropout mask, then by 1[h > 0].
    """
    return backward_layers(params.arch, params.layers(), acts, grad_out, np.empty(params.values.shape), dropout_masks)


def backward_layers(arch: ArchSpec, layers, acts: Sequence[np.ndarray], grad_out: np.ndarray, grad: np.ndarray, dropout_masks=None) -> np.ndarray:
    """`backward` on the per-layer weights and biases `layers`, written into `grad` (one flat row per model) and returned."""
    slices = arch.layer_slices()
    lead = grad.shape[:-1]
    ones = _ones_row(grad_out.shape[-2])
    dz = grad_out
    for li in range(arch.n_layers - 1, -1, -1):
        ws, bs = slices[li]
        fan_in, fan_out = arch.widths[li], arch.widths[li + 1]
        g = grad[..., ws.start : bs.stop].reshape(lead + (fan_in + 1, fan_out))
        h = acts[li]
        np.matmul(h.swapaxes(-1, -2), dz, out=g[..., :fan_in, :])
        np.matmul(ones, dz, out=g[..., fan_in:, :])
        if li:
            dz = dz @ layers[li][0].swapaxes(-1, -2)
            if dropout_masks is not None:
                dz *= dropout_masks[li - 1]
            # a float 1[h > 0]: multiplying by the bool array casts it inside the loop, slower
            dz *= (h > 0.0).astype(np.float64)
    return grad


@functools.lru_cache(maxsize=16)
def _ones_row(n: int) -> np.ndarray:
    """A read-only (1, n) row of ones, the left factor of `backward_layers`' bias gradients."""
    ones = np.ones((1, n))
    ones.setflags(write=False)
    return ones


# Widest class axis that `_class_max` and `_class_sum` walk column by column.
_COLUMN_CLASSES = 8


def _class_max(a: np.ndarray) -> np.ndarray:
    """`a.max(axis=-1, keepdims=True)`, bit for bit, at a fraction of its cost on a short class axis.

    numpy reduces a short contiguous last axis one row at a time; k - 1
    column-wise `np.maximum` calls give the same value and the same +-0
    choice, and a NaN where numpy gives one (its sign and payload are not
    pinned: numpy's own choice between NaN operands depends on its loop).
    Past `_COLUMN_CLASSES` classes, or on a class axis that is not
    contiguous, numpy's own reduction runs (it then vectorizes or runs
    column by column, and its order or +-0 choice differs).
    """
    k = a.shape[-1]
    if not 2 <= k <= _COLUMN_CLASSES or a.strides[-1] != a.itemsize:
        return a.max(axis=-1, keepdims=True)
    m = np.maximum(a[..., 0:1], a[..., 1:2])
    for j in range(2, k):
        np.maximum(m, a[..., j : j + 1], out=m)
    return m


def _class_sum(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1, keepdims=True)`, bit for bit, summed column by column in numpy's order.

    Below 8 classes numpy adds each row's entries left to right onto +0.0;
    at 8 it adds them pairwise, ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)).
    A NaN's sign and payload are not pinned, as in `_class_max`.  Past
    `_COLUMN_CLASSES` classes, or on a class axis that is not contiguous,
    numpy's own reduction runs.
    """
    k = a.shape[-1]
    if not 2 <= k <= _COLUMN_CLASSES or a.strides[-1] != a.itemsize:
        return a.sum(axis=-1, keepdims=True)
    col = [a[..., j : j + 1] for j in range(k)]
    if k == 8:
        s = ((col[0] + col[1]) + (col[2] + col[3])) + ((col[4] + col[5]) + (col[6] + col[7]))
        s += 0.0
        return s
    s = col[0] + 0.0
    for c in col[1:]:
        s += c
    return s


def _softmax_terms(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z = logits - their class maximum, e = exp(z) and s, the class sum of e: softmax is e / s, log-softmax z - log(s)."""
    z = logits - _class_max(logits)
    e = np.exp(z)
    return z, e, _class_sum(e)


def _softmax(logits: np.ndarray) -> np.ndarray:
    _, e, s = _softmax_terms(logits)
    return e / s


def head_predictions(arch: ArchSpec, out: np.ndarray) -> np.ndarray:
    """Head outputs to (..., n, C) class probabilities, or (..., n, 2) mean/variance."""
    if arch.head == "categorical":
        return _softmax(out)
    mean = out[..., 0]
    if arch.widths[-1] == 2:
        var = np.exp(out[..., 1])
    else:
        var = np.full_like(mean, FIXED_GAUSSIAN_VARIANCE)
    return np.stack([mean, var], axis=-1)


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
    y = y.astype(int)
    if y.size and not 0 <= y.min() <= y.max() < arch.n_classes:
        raise ValueError(f"class labels must lie in 0..{arch.n_classes - 1} for the model's head, got {y.min()}..{y.max()}")
    out = np.zeros((y.size, arch.n_classes))
    out[np.arange(y.size), y] = 1.0
    return out


def _mean_nll(arch: ArchSpec, out: np.ndarray, targets: np.ndarray):
    """The mean cross-entropy over the rows of `out`, one per leading index, and the terms its gradient reuses."""
    n = out.shape[-2]
    if arch.head == "categorical":
        z, e, s = _softmax_terms(out)
        logp = z - np.log(s)
        return (logp * targets).sum(axis=(-2, -1)) * (-1.0 / n), (logp, e, s)
    resid = targets[..., 0:1] - out[..., 0:1]
    sq = resid * resid + targets[..., 1:2]  # E[(t - mean)^2] under the target row
    if arch.widths[-1] == 2:
        c = 0.5 / n
        inv_var = np.exp(out[..., 1:2] * -1.0)
        return (out[..., 1:2] + sq * inv_var).sum(axis=(-2, -1)) * c + 0.5 * np.log(2.0 * np.pi), (resid, sq, inv_var, c)
    c = 0.5 / (n * FIXED_GAUSSIAN_VARIANCE)
    return sq.sum(axis=(-2, -1)) * c + 0.5 * np.log(2.0 * np.pi * FIXED_GAUSSIAN_VARIANCE), (resid, c)


def cross_entropy_loss(arch: ArchSpec, out: np.ndarray, targets: np.ndarray):
    """`cross_entropy`'s loss alone, with the same bits: a float, or one per leading index of a stacked `out`."""
    loss = _mean_nll(arch, out, targets)[0]
    return loss if out.ndim > 2 else float(loss)


def cross_entropy(arch: ArchSpec, out: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy of the target rows under head outputs `out`, and its gradient at `out`.

    `targets` hold one row per row of `out` in `head_predictions`' format:
    class probabilities, or the (mean, variance) of a Gaussian target,
    variance 0 for an observed value (`target_rows`).  CE(row, model) =
    H[row] + KL(row || model): it is the training NLL of observed targets,
    and H[row] less it is the divergence a search maximizes.  The steps
    repeat the floating-point operations of reverse-mode differentiation
    through the same graph, in the same order, so the results are
    reproducible to the bit: the sampler chains depend on it.  A stacked
    `out` of shape (K, n, k) gives K losses.
    """
    loss, grad, _ = _cross_entropy(arch, out, targets)
    return loss, grad


def cross_entropy_and_predictions(arch: ArchSpec, out: np.ndarray, targets: np.ndarray):
    """`cross_entropy` and `head_predictions` of the same head outputs, each with the bits of its own call.

    A categorical head's class probabilities reuse the softmax terms of
    the loss.  Returns (loss, gradient, predictions).
    """
    loss, grad, terms = _cross_entropy(arch, out, targets)
    if arch.head == "categorical":
        _, e, s = terms
        return loss, grad, e / s
    return loss, grad, head_predictions(arch, out)


def _cross_entropy(arch: ArchSpec, out: np.ndarray, targets: np.ndarray):
    """`cross_entropy`, and the terms of `_mean_nll`."""
    n = out.shape[-2]
    loss, terms = _mean_nll(arch, out, targets)
    if arch.head == "categorical":
        logp = terms[0]
        g = (-1.0 / n) * targets
        grad = g - np.exp(logp) * _class_sum(g)
    elif arch.widths[-1] == 2:
        resid, sq, inv_var, c = terms
        grad = np.concatenate([-((2.0 * resid) * (c * inv_var)), c - (c * sq) * inv_var], axis=-1)
    else:
        resid, c = terms
        grad = -((2.0 * resid) * c)
    return (loss if out.ndim > 2 else float(loss)), grad, terms


def loss_and_grad(params: ModelParams, x: np.ndarray, targets: np.ndarray, masks=None) -> tuple[float, np.ndarray]:
    """`cross_entropy` of the rows of `x` against `targets` and its flat gradient.

    `masks` are hidden-layer dropout masks.
    """
    acts = forward(params, x, masks)
    loss, grad_out = cross_entropy(params.arch, acts[-1], targets)
    return loss, backward(params, acts, grad_out, masks)


def mean_train_loss(params: ModelParams, data) -> float:
    """Mean negative log-likelihood of the training targets."""
    return cross_entropy_loss(params.arch, forward(params, data.x)[-1], target_rows(params.arch, data.y))


def log_posterior(params: ModelParams, data, prior_precision: float) -> float:
    """log p(D|w) + log p(w) up to an additive constant.

    Equals -sum of per-point losses minus (prior_precision/2)*||values||^2,
    consistent with Adam-plus-weight-decay training.
    """
    if len(data) == 0:
        raise ValueError("log_posterior needs a nonempty dataset")
    nll = len(data) * cross_entropy_loss(params.arch, forward(params, data.x)[-1], target_rows(params.arch, data.y))
    return float(-nll - 0.5 * prior_precision * float(params.values @ params.values))


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


@dataclass
class TrainConfig:
    lr: float = 5e-3
    weight_decay: float = 1e-3
    epochs: int = 200
    batch_size: Optional[int] = None  # None = full batch
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


class Adam:
    """Adam with classic L2-style weight decay (decay folded into gradients).

    `size` is the parameter count, or the (K, P) shape of a stack of K models
    that take their steps together; every update is elementwise.
    """

    def __init__(self, size, lr: float, weight_decay: float = 0.0, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, values: np.ndarray, grad: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The updated values, written into `out` when given (it may be `values`); `m` and `v` change in place.

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
        return np.subtract(values, mhat, out=out)

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
    params = init_params(arch, cfg.seed)
    rng = derive_rng(cfg.seed, 1)
    opt = Adam(params.values.size, cfg.lr, cfg.weight_decay)
    n = len(data)
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    targets = target_rows(arch, data.y)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for bi, start in enumerate(range(0, n, batch)):
            idx = order[start : start + batch]
            masks = make_dropout_masks(arch, rng) if arch.dropout_prob > 0 else None
            loss, grad = loss_and_grad(params, data.x[idx], targets[idx], masks)
            if extra_loss is not None:
                extra, extra_grad = extra_loss(params)
                loss, grad = loss + extra, grad + extra_grad
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {bi}", epoch=epoch, batch=bi)
            params = params.with_values(opt.step(params.values, grad))
        if log is not None:
            log.append({"epoch": epoch, "loss": mean_train_loss(params, data)})
    # each batch's loss is checked before its update; the last update is checked here
    if not (np.isfinite(params.values).all() and np.isfinite(mean_train_loss(params, data))):
        raise TrainingDiverged(f"non-finite parameters or training loss after the last epoch ({cfg.epochs - 1})", epoch=cfg.epochs - 1)
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
    return ModelParams(arch, values.astype(np.float64))
