"""Fully connected probabilistic models and their training objective.

A model is a ReLU MLP with either a categorical head (softmax over C
classes) or a scalar Gaussian head.  The Gaussian head has output width 1
(mean only, fixed unit variance) or 2 (mean and log-variance).  Parameters
live in one flat float64 vector, weights then biases per layer, which is
the unit every sampler and search manipulates.  A prediction is one row of
`head_predictions`: the class probabilities, or (mean, variance).

The log-posterior used as a sampling weight is the negative total training
loss plus an isotropic Gaussian log-prior whose precision equals the
optimizer's weight decay, so training and posterior weighting share one
objective.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .autodiff import Node, Tape
from .rng import derive_rng

__all__ = [
    "ArchSpec",
    "ModelParams",
    "TrainConfig",
    "TrainingDiverged",
    "Adam",
    "FIXED_GAUSSIAN_VARIANCE",
    "init_params",
    "forward",
    "backward",
    "head_predictions",
    "head_nll",
    "head_nll_grad",
    "predict_batch",
    "train",
    "train_with_point_loss",
    "mean_train_loss",
    "log_posterior",
    "posterior_weight",
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
        return sum((i + 1) * o for i, o in zip(self.widths[:-1], self.widths[1:]))

    def layer_slices(self) -> list[tuple[slice, slice]]:
        """(weight slice, bias slice) into the flat vector, per layer."""
        out = []
        pos = 0
        for i, o in zip(self.widths[:-1], self.widths[1:]):
            w = slice(pos, pos + i * o)
            pos += i * o
            b = slice(pos, pos + o)
            pos += o
            out.append((w, b))
        return out


@dataclass(frozen=True)
class ModelParams:
    """Architecture descriptor plus the flat parameter vector."""

    arch: ArchSpec
    values: np.ndarray

    def __post_init__(self):
        # private copy: freezing must never touch the caller's buffer
        v = np.array(self.values, dtype=np.float64, order="C")
        if v.ndim != 1 or v.size != self.arch.param_count():
            raise ValueError(f"expected {self.arch.param_count()} parameter values, got array of shape {self.values.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        for (ws, bs), (i, o) in zip(self.arch.layer_slices(), zip(self.arch.widths[:-1], self.arch.widths[1:])):
            out.append((self.values[ws].reshape(i, o), self.values[bs]))
        return out

    def with_values(self, values: np.ndarray) -> "ModelParams":
        return ModelParams(self.arch, values)


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


def forward_graph(
    tape: Tape,
    layer_nodes: Sequence[tuple[Node, Node]],
    x: np.ndarray,
    arch: ArchSpec,
    dropout_masks: Optional[Sequence[np.ndarray]] = None,
) -> Node:
    """Build the network's forward pass on `tape`; returns the head output node.

    `x` is a (n, input_width) batch.  Biases are added through a ones-column
    matmul so that `add` stays within same-shape semantics.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != arch.widths[0]:
        raise ValueError(f"input width {x.shape[1]} does not match architecture input width {arch.widths[0]}")
    ones = tape.constant(np.ones((x.shape[0], 1)))
    h = tape.constant(x)
    for li, (w_node, b_node) in enumerate(layer_nodes):
        z = tape.forward_op("matmul", h, w_node)
        z = tape.forward_op("add", z, tape.forward_op("matmul", ones, b_node))
        if li < arch.n_layers - 1:
            z = tape.forward_op("relu", z)
            if dropout_masks is not None:
                z = tape.forward_op("mul", z, tape.constant(np.broadcast_to(dropout_masks[li], (1, z.value.shape[1])) * np.ones((x.shape[0], 1))))
        h = z
    return h


def param_leaves(tape: Tape, params: ModelParams) -> list[tuple[Node, Node]]:
    """Register each layer's weight matrix and bias row as tape leaves."""
    nodes = []
    for w, b in params.layers():
        nodes.append((tape.leaf(w), tape.leaf(b.reshape(1, -1))))
    return nodes


def flatten_layer_grads(arch: ArchSpec, layer_nodes, grads: dict[int, np.ndarray]) -> np.ndarray:
    flat = np.zeros(arch.param_count())
    for (ws, bs), (w_node, b_node) in zip(arch.layer_slices(), layer_nodes):
        gw = grads.get(w_node.id)
        gb = grads.get(b_node.id)
        if gw is not None:
            flat[ws] = gw.ravel()
        if gb is not None:
            flat[bs] = gb.ravel()
    return flat


def forward(params: ModelParams, x: np.ndarray, dropout_masks=None) -> list[np.ndarray]:
    """The input of every layer, then the head outputs, at the rows of `x`.

    The search backpropagates through the kept layer inputs (`backward`);
    predictions and losses use the last entry.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.arch.widths[0]:
        raise ValueError(f"input width {x.shape[1]} does not match architecture input width {params.arch.widths[0]}")
    acts = [x]
    n_layers = params.arch.n_layers
    for li, (w, b) in enumerate(params.layers()):
        h = acts[-1] @ w + b
        if li < n_layers - 1:
            h = np.maximum(h, 0.0)
            if dropout_masks is not None:
                h = h * dropout_masks[li]
        acts.append(h)
    return acts


def backward(params: ModelParams, acts: Sequence[np.ndarray], grad_out: np.ndarray) -> np.ndarray:
    """Flat gradient of sum_i grad_out[i] . out[i] with respect to the parameters.

    `acts` comes from `forward` without dropout masks and `grad_out` holds
    one output gradient per row.  A layer's flat slice (weights row-major,
    then the bias) is a (fan_in + 1, fan_out) matrix, so each layer's
    gradient is written straight into the flat vector.
    """
    arch = params.arch
    slices = arch.layer_slices()
    grad = np.empty(arch.param_count())
    dz = grad_out
    for li in range(arch.n_layers - 1, -1, -1):
        ws, bs = slices[li]
        fan_in, fan_out = arch.widths[li], arch.widths[li + 1]
        g = grad[ws.start : bs.stop].reshape(fan_in + 1, fan_out)
        h = acts[li]
        np.matmul(h.T, dz, out=g[:fan_in])
        g[fan_in] = dz.sum(axis=0)
        if li:
            dz = (dz @ params.values[ws].reshape(fan_in, fan_out).T) * (h > 0.0)
    return grad


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def head_predictions(arch: ArchSpec, out: np.ndarray) -> np.ndarray:
    """Head outputs to (n, C) class probabilities, or (n, 2) mean/variance."""
    if arch.head == "categorical":
        return _softmax(out)
    mean = out[:, 0]
    if arch.widths[-1] == 2:
        var = np.exp(out[:, 1])
    else:
        var = np.full_like(mean, FIXED_GAUSSIAN_VARIANCE)
    return np.column_stack([mean, var])


def predict_batch(params: ModelParams, x: np.ndarray, dropout_masks=None) -> np.ndarray:
    """Vectorized predictions: (n, C) class probabilities, or (n, 2) mean/variance."""
    return head_predictions(params.arch, forward(params, x, dropout_masks)[-1])


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def _onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels.astype(int)] = 1.0
    return out


def nll_graph(
    tape: Tape,
    layer_nodes,
    x: np.ndarray,
    targets: np.ndarray,
    arch: ArchSpec,
    dropout_masks=None,
) -> Node:
    """Mean negative log-likelihood of a batch, as a tape node.

    For categorical heads `targets` may be integer labels or rows of target
    probabilities (the latter is what targeted searches use).
    """
    out = forward_graph(tape, layer_nodes, x, arch, dropout_masks)
    n = np.atleast_2d(x).shape[0]
    if arch.head == "categorical":
        targets = np.asarray(targets)
        t = _onehot(targets, arch.n_classes) if targets.ndim == 1 else np.asarray(targets, dtype=np.float64)
        logp = tape.forward_op("log_softmax", out)
        picked = tape.forward_op("mul", logp, tape.constant(t))
        return tape.forward_op("scalar_mul", tape.forward_op("reduce_sum", picked), -1.0 / n)
    y = tape.constant(np.asarray(targets, dtype=np.float64).reshape(-1, 1))
    mean = tape.forward_op("take_col", out, aux=0)
    resid = tape.forward_op("sub", y, mean)
    sq = tape.forward_op("square", resid)
    if arch.widths[-1] == 2:
        logvar = tape.forward_op("take_col", out, aux=1)
        inv_var = tape.forward_op("exp", tape.forward_op("scalar_mul", logvar, -1.0))
        quad = tape.forward_op("mul", sq, inv_var)
        total = tape.forward_op("add", logvar, quad)
        loss = tape.forward_op("scalar_mul", tape.forward_op("reduce_sum", total), 0.5 / n)
        return tape.forward_op("add", loss, tape.constant(np.array(0.5 * np.log(2.0 * np.pi))))
    loss = tape.forward_op("scalar_mul", tape.forward_op("reduce_sum", sq), 0.5 / (n * FIXED_GAUSSIAN_VARIANCE))
    const = 0.5 * np.log(2.0 * np.pi * FIXED_GAUSSIAN_VARIANCE)
    return tape.forward_op("add", loss, tape.constant(np.array(const)))


def head_nll(arch: ArchSpec, out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row negative log-likelihood of targets `y` under head outputs `out`."""
    if arch.head == "categorical":
        z = out - out.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -logp[np.arange(len(y)), np.asarray(y, dtype=int)]
    y = np.asarray(y, dtype=np.float64)
    mean = out[:, 0]
    if arch.widths[-1] == 2:
        logvar = out[:, 1]
        return 0.5 * (logvar + (y - mean) ** 2 * np.exp(-logvar) + np.log(2.0 * np.pi))
    return 0.5 * ((y - mean) ** 2 / FIXED_GAUSSIAN_VARIANCE + np.log(2.0 * np.pi * FIXED_GAUSSIAN_VARIANCE))


def head_nll_grad(arch: ArchSpec, out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of each row's `head_nll` with respect to that row's outputs."""
    if arch.head == "categorical":
        g = _softmax(out)
        g[np.arange(len(y)), np.asarray(y, dtype=int)] -= 1.0
        return g
    resid = out[:, 0] - np.asarray(y, dtype=np.float64)
    if arch.widths[-1] == 2:
        inv_var = np.exp(-out[:, 1])
        return np.column_stack([resid * inv_var, 0.5 - 0.5 * resid**2 * inv_var])
    return (resid / FIXED_GAUSSIAN_VARIANCE)[:, None]


def _pointwise_nll(params: ModelParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return head_nll(params.arch, forward(params, x)[-1], y)


def mean_train_loss(params: ModelParams, data) -> float:
    """Arithmetic mean of the per-point negative log-likelihood."""
    return float(_pointwise_nll(params, data.x, data.y).mean())


def log_posterior(params: ModelParams, data, prior_precision: float) -> float:
    """log p(D|w) + log p(w) up to an additive constant.

    Equals -sum of per-point losses minus (prior_precision/2)*||values||^2,
    consistent with Adam-plus-weight-decay training.
    """
    if len(data) == 0:
        raise ValueError("log_posterior needs a nonempty dataset")
    nll = _pointwise_nll(params, data.x, data.y).sum()
    return float(-nll - 0.5 * prior_precision * float(params.values @ params.values))


def posterior_weight(params: ModelParams, data, temperature: float) -> float:
    """exp(-mean_train_loss / T)."""
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    return float(np.exp(-mean_train_loss(params, data) / temperature))


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


class Adam:
    """Adam with classic L2-style weight decay (decay folded into gradients)."""

    def __init__(self, size: int, lr: float, weight_decay: float = 0.0, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, values: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            grad = grad + self.weight_decay * values
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1**self.t)
        vhat = self.v / (1.0 - self.beta2**self.t)
        return values - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _loss_and_grad(params: ModelParams, x, y, dropout_masks=None, extra=None):
    tape = Tape()
    leaves = param_leaves(tape, params)
    loss = nll_graph(tape, leaves, x, y, params.arch, dropout_masks)
    if extra is not None:
        loss = tape.forward_op("add", loss, extra(tape, leaves))
    grads = tape.backward(loss)
    return loss.value.item(), flatten_layer_grads(params.arch, leaves, grads)


def train_with_point_loss(data, arch: ArchSpec, cfg: TrainConfig, extra_loss=None, log=None) -> ModelParams:
    """Adam training; `extra_loss(tape, leaves)` adds a differentiable term.

    Seed-deterministic: initialization, batch order and dropout masks all
    derive from cfg.seed.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    params = init_params(arch, cfg.seed)
    rng = derive_rng(cfg.seed, 1)
    opt = Adam(params.values.size, cfg.lr, cfg.weight_decay)
    n = len(data)
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for bi, start in enumerate(range(0, n, batch)):
            idx = order[start : start + batch]
            masks = make_dropout_masks(arch, rng) if arch.dropout_prob > 0 else None
            loss, grad = _loss_and_grad(params, data.x[idx], data.y[idx], masks, extra_loss)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {bi}", epoch=epoch, batch=bi)
            params = params.with_values(opt.step(params.values, grad))
        if log is not None:
            log.append({"epoch": epoch, "loss": mean_train_loss(params, data)})
    return params


def train(data, arch: ArchSpec, cfg: TrainConfig, log=None) -> ModelParams:
    return train_with_point_loss(data, arch, cfg, extra_loss=None, log=log)


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
