"""Independent recomputation of the quam CLI's outputs.

Nothing here imports quam.  Checkpoints are read from their documented
byte layout, the datasets are rebuilt from their documented generators,
and predictions, losses and uncertainty splits come from this module's
own numpy code, so a fault in the program cannot hide in the check.

Setting "a" splits a weighted set of candidate predictions against their
own mixture m: total = H[m], aleatoric = sum_i w_i H[p_i] and epistemic =
sum_i w_i KL(p_i || m).  Categorical splits are closed form; Gaussian
splits integrate on a dense fixed grid.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"QUAMCKPT"
FIXED_GAUSSIAN_VARIANCE = 1.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# checkpoints and forward pass
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Net:
    widths: tuple[int, ...]
    head: str  # "categorical" | "gaussian"
    dropout: float
    values: np.ndarray

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Weights then biases per layer, in the flat layer-major order."""
        out, pos = [], 0
        for i, o in zip(self.widths[:-1], self.widths[1:]):
            w = self.values[pos : pos + i * o].reshape(i, o)
            pos += i * o
            out.append((w, self.values[pos : pos + o]))
            pos += o
        return out


def read_checkpoint(path) -> Net:
    """magic "QUAMCKPT" | u32 version 1 | u32 n | n x u32 widths | u8 head | f64 dropout | f64 values."""
    with open(path, "rb") as f:
        blob = f.read()
    expect(blob[:8] == CHECKPOINT_MAGIC, f"{path}: bad magic {blob[:8]!r}")
    version, n = struct.unpack_from("<II", blob, 8)
    expect(version == 1, f"{path}: version {version}")
    widths = struct.unpack_from(f"<{n}I", blob, 16)
    off = 16 + 4 * n
    (tag,) = struct.unpack_from("<B", blob, off)
    (dropout,) = struct.unpack_from("<d", blob, off + 1)
    expect(tag in (0, 1), f"{path}: head tag {tag}")
    values = np.frombuffer(blob, dtype="<f8", offset=off + 9).astype(np.float64)
    count = sum((i + 1) * o for i, o in zip(widths[:-1], widths[1:]))
    expect(values.size == count, f"{path}: {values.size} values, architecture needs {count}")
    return Net(tuple(widths), "categorical" if tag == 0 else "gaussian", dropout, values)


def forward(net: Net, x, masks=None) -> np.ndarray:
    """Raw head outputs for a (n, d) batch; `masks` scale each hidden layer."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    layers = net.layers()
    for li, (w, b) in enumerate(layers):
        h = h @ w + b
        if li < len(layers) - 1:
            h = np.maximum(h, 0.0)
            if masks is not None:
                h = h * masks[li]
    return h


def predict(net: Net, x, masks=None) -> np.ndarray:
    """(n, C) class probabilities, or (n, 2) mean and variance."""
    out = forward(net, x, masks)
    if net.head == "categorical":
        z = np.exp(out - out.max(axis=1, keepdims=True))
        return z / z.sum(axis=1, keepdims=True)
    var = np.exp(out[:, 1]) if net.widths[-1] == 2 else np.full(len(out), FIXED_GAUSSIAN_VARIANCE)
    return np.column_stack([out[:, 0], var])


def mean_loss(net: Net, x, y) -> float:
    """Mean per-point negative log-likelihood."""
    pred = predict(net, x)
    if net.head == "categorical":
        return float(-np.log(pred[np.arange(len(y)), np.asarray(y, dtype=int)]).mean())
    mean, var = pred[:, 0], pred[:, 1]
    return float((0.5 * np.log(2.0 * np.pi * var) + 0.5 * (y - mean) ** 2 / var).mean())


def dropout_masks(widths, p: float, seed: int, n_samples: int) -> list[list[np.ndarray]]:
    """Inverted-dropout masks as MC dropout draws them: one stream seeded by
    SeedSequence((seed,)), one uniform per hidden unit, layer after layer."""
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    hidden = widths[1:-1]
    out = []
    for _ in range(n_samples):
        out.append([(stream.random(w) >= p) / (1.0 - p) for w in hidden])
    return out


# --------------------------------------------------------------------------
# datasets, rebuilt from their documented generators
# --------------------------------------------------------------------------


def _stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))


def two_moons(n: int, noise: float, seed: int):
    """Upper moon (cos t, sin t), lower moon (1 - cos t, 0.5 - sin t), t on [0, pi]."""
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    x = np.vstack([np.column_stack([np.cos(t), np.sin(t)]), np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])])
    x = x + _stream(seed).normal(scale=noise, size=x.shape)
    return x, np.repeat([0, 1], half)


def sine(n: int, seed: int):
    """x uniform on [-pi, pi], y = sin(x) + N(0, 0.1)."""
    rng = _stream(seed)
    x = rng.uniform(-np.pi, np.pi, size=n)
    y = np.sin(x) + rng.normal(scale=np.sqrt(0.1), size=n)
    return x.reshape(-1, 1), y


# --------------------------------------------------------------------------
# uncertainty splits
# --------------------------------------------------------------------------


def loss_weights(losses, temperature: float) -> np.ndarray:
    """Self-normalized exp(-loss / T)."""
    logw = -np.asarray(losses, dtype=np.float64) / temperature
    w = np.exp(logw - logw.max())
    return w / w.sum()


def xlogy(p, q):
    return np.where(p > 0, p * np.log(np.where(p > 0, q, 1.0)), 0.0)


def entropy(p) -> np.ndarray:
    """Shannon entropy along the last axis."""
    p = np.asarray(p, dtype=np.float64)
    return -xlogy(p, p).sum(axis=-1)


def split_categorical(probs, w):
    """Setting-a split of candidates probs[S, ..., C] with weights w[S].

    Returns (total, aleatoric, epistemic), each of shape probs.shape[1:-1].
    """
    probs = np.asarray(probs, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64).reshape((-1,) + (1,) * (probs.ndim - 1))
    mix = (w * probs).sum(axis=0)
    total = entropy(mix)
    aleatoric = (w[..., 0] * entropy(probs)).sum(axis=0)
    epistemic = (w[..., 0] * (xlogy(probs, probs) - xlogy(probs, mix[None])).sum(axis=-1)).sum(axis=0)
    return total, aleatoric, epistemic


def entropy_gauss(var) -> np.ndarray:
    return 0.5 * np.log(2.0 * np.pi * np.e * np.asarray(var, dtype=np.float64))


REACH = 12.0  # standard deviations covered beyond every component
PER_SD = 10  # nodes per standard deviation
MAX_UNIFORM_NODES = 100_000


def _nodes(means, variances):
    """Integration nodes and trapezoid weights for scalar Gaussian mixtures.

    One uniform grid over all components, spaced at a tenth of the narrowest
    standard deviation, when that takes at most MAX_UNIFORM_NODES nodes: the
    trapezoid rule is spectrally accurate on these smooth, decaying
    integrands.  Otherwise (draws whose scales differ by orders of
    magnitude) the union of such a grid around each component, which is
    second-order accurate.
    """
    sd = np.sqrt(variances)
    lo, hi = float((means - REACH * sd).min()), float((means + REACH * sd).max())
    n = int(math.ceil((hi - lo) / (sd.min() / PER_SD))) + 1
    if n <= MAX_UNIFORM_NODES:
        y, h = np.linspace(lo, hi, n, retstep=True)
        return y, np.full(n, h)
    t = np.linspace(-REACH, REACH, int(2 * REACH * PER_SD) + 1)
    y = np.unique((means[:, None] + sd[:, None] * t[None, :]).ravel())
    gaps = np.diff(y)
    return y, 0.5 * (np.concatenate([gaps, [0.0]]) + np.concatenate([[0.0], gaps]))


def _log_pdf(y, means, variances) -> np.ndarray:
    """log N(y; mean_i, var_i) as a (components, nodes) array."""
    return -0.5 * (y[None, :] - means[:, None]) ** 2 / variances[:, None] - 0.5 * np.log(2.0 * np.pi * variances)[:, None]


def split_gaussian(means, variances, w):
    """Setting-a split of scalar Gaussians, integrated on fixed nodes."""
    keep = np.asarray(w) > 0  # weights that underflowed to 0 contribute nothing
    means = np.asarray(means, dtype=np.float64)[keep]
    variances = np.asarray(variances, dtype=np.float64)[keep]
    w = np.asarray(w, dtype=np.float64)[keep]
    y, weights = _nodes(means, variances)
    logw = np.log(w)[:, None]
    total, kls = 0.0, np.zeros(len(means))
    step = max(1, 2_000_000 // len(means))  # bounds the (components, nodes) block
    for start in range(0, len(y), step):
        logp = _log_pdf(y[start : start + step], means, variances)
        h = weights[start : start + step]
        top = (logp + logw).max(axis=0)
        logm = top + np.log(np.exp(logp + logw - top).sum(axis=0))
        total -= float((h * np.exp(logm) * logm).sum())
        kls += (h * np.exp(logp) * (logp - logm[None, :])).sum(axis=1)
    aleatoric = float((w * entropy_gauss(variances)).sum())
    return total, aleatoric, float((w * kls).sum())


def kl_gauss_grid(mp, vp, mq, vq) -> float:
    """KL(p || q) on the split's nodes; tests hold it against the closed form."""
    means, variances = np.array([mp, mq], dtype=np.float64), np.array([vp, vq], dtype=np.float64)
    y, h = _nodes(means, variances)
    logp, logq = _log_pdf(y, means, variances)
    return float((h * np.exp(logp) * (logp - logq)).sum())


def spearman(a, b) -> float:
    """Rank correlation with average ranks for ties."""

    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="mergesort")
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=np.float64)
        for value in np.unique(v):
            tie = v == value
            if tie.sum() > 1:
                r[tie] = r[tie].mean()
        return r

    ra, rb = ranks(a), ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))


# --------------------------------------------------------------------------
# CLI outputs
# --------------------------------------------------------------------------


def read_jsonl(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def check_row_identities(row: dict, where: str, tol: float = 1e-9):
    """total = aleatoric + epistemic, and epistemic >= 0.

    A setting-b row flagged `support_violation` (a candidate puts exactly
    zero probability where the reference has mass) carries infinite
    epistemic and total by the program's documented rule.
    """
    if "support_violation" in row["flags"]:
        expect(row["setting"] == "b" and row["epistemic"] == math.inf and row["total"] == math.inf, f"{where}: support-violation row {row} is not infinite")
        return
    expect(close(row["total"], row["aleatoric"] + row["epistemic"], tol), f"{where}: total {row['total']} != aleatoric + epistemic {row['aleatoric'] + row['epistemic']}")
    expect(row["epistemic"] >= 0.0, f"{where}: negative epistemic {row['epistemic']}")


def check_quam_point(row: dict, trajectories: list[list[dict]], ref: Net, data, x, temperature: float, where: str) -> None:
    """Recompute one `quam quam` setting-a score from its trajectory files."""
    check_row_identities(row, where)
    expect(row["setting"] == "a", f"{where}: setting {row['setting']!r}")
    expect(len(trajectories) > 0, f"{where}: no trajectory files")
    ref_pred = predict(ref, x)[0]
    ref_loss = mean_loss(ref, *data)
    for records in trajectories:
        first = records[0]
        expect(close(first["mean_train_loss"], ref_loss, 1e-9), f"{where}: first record loss {first['mean_train_loss']} != reference loss {ref_loss}")
        expect(np.allclose(_dist_vector(first["dist"]), ref_pred, rtol=1e-9, atol=1e-12), f"{where}: first record prediction {first['dist']} != reference {ref_pred}")
    if "no_feasible_adversary" in row["flags"]:
        h = float(entropy(ref_pred)) if ref.head == "categorical" else float(entropy_gauss(ref_pred[1]))
        expect(close(row["aleatoric"], h, 1e-9) and row["epistemic"] == 0.0, f"{where}: no-feasible row {row} != reference entropy {h}")
        return
    records = [r for rs in trajectories for r in rs]
    w = loss_weights([r["mean_train_loss"] for r in records], temperature)
    dists = np.array([_dist_vector(r["dist"]) for r in records])
    if ref.head == "categorical":
        total, aleatoric, epistemic = (float(v) for v in split_categorical(dists, w))
        tol = 1e-9
    else:
        total, aleatoric, epistemic = split_gaussian(dists[:, 0], dists[:, 1], w)
        tol = 1e-8  # the program integrates each KL term with adaptive quadrature
    for name, value in (("total", total), ("aleatoric", aleatoric), ("epistemic", epistemic)):
        expect(close(row[name], value, tol), f"{where}: {name} {row[name]} != recomputed {value}")


def _dist_vector(dist: dict) -> np.ndarray:
    if dist["kind"] == "categorical":
        return np.asarray(dist["probs"], dtype=np.float64)
    return np.array([dist["mean"], dist["variance"]], dtype=np.float64)
