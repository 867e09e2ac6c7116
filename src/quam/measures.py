"""Entropy and KL kernels over prediction rows, and the two uncertainty splits.

All entropies are in nats.  The kernels `entropy(head, rows)` and
`kl(head, p, q)` take rows as `models.head_predictions` gives them, class
probabilities or (mean, variance), broadcast over any leading axes, and
return one value per row, with the bits of that row's own call.  They do
not check their rows, except that the Gaussian entropy, through
`entropy_gauss`, rejects a variance that is not positive.  The search's
records and objectives, the estimator's reference-only score and the
setting-b split take their entropies and KLs from them; setting a keeps
its own mixture arithmetic.

Two decompositions of the total predictive uncertainty are provided:

* setting "a": expected uncertainty when a model is still to be selected.
  The reference is the weighted mixture of the candidates themselves, so
  total = H[mixture], aleatoric = E[H[candidate]], epistemic =
  E[KL(candidate || mixture)], and total == aleatoric + epistemic exactly
  at the sample level.

* setting "b": uncertainty of a fixed, pre-selected model.  aleatoric =
  H[reference], epistemic = E[KL(reference || candidate)].

Both splits take `preds` of shape (samples, points, k), rows as
`models.head_predictions` gives them, and one nonnegative weight per
sample, self-normalized here; they validate once per call and return one
breakdown per point.  The categorical splits run over blocks of points, so
their temporaries stay at a fixed element count.  They and the Gaussian
setting-b split are closed form.  KL(N_i || sum_j w_j N_j) is not, so the
Gaussian setting-a split integrates it per point by the trapezoid rule on
fixed nodes: a uniform grid spaced at a tenth of the narrowest standard
deviation, reaching 12 standard deviations past every component.  When
that grid would exceed 100,000 nodes, each KL term is integrated on its
own component's grid, centred on its mean and joined by the grids of the
narrower components it meets.  Samples of zero weight are dropped first; they add
nothing to the mixture or to the expectation.  The densities and the
log-sum-exp mixture are evaluated in (samples, nodes) blocks of bounded
size, and each KL term is divided by its component's mass on the nodes.

The clamp rule: a probability is clamped at 1e-300 only where its log
multiplies another row's mass (q in KL(p || q), the mixture in setting
a), so rounding never produces -inf; p log p is taken as 0 at p == 0.  An
exact zero in q where p has mass still gives +inf, which setting b flags
as `support_violation`.  KL(p || p) is exactly 0 when every entry of p is
0 or >= 1e-300.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "UncertaintyBreakdown",
    "entropy",
    "kl",
    "entropy_gauss",
    "decompose_a",
    "decompose_b",
]

_CLAMP = 1e-300
# fixed nodes of the Gaussian setting-a split (see the module docstring)
_NODE_STEP = 0.1  # node spacing, in narrowest standard deviations
_NODE_REACH = 12.0  # standard deviations past every component
_MAX_UNIFORM_NODES = 100_000
_BLOCK = 1 << 16  # elements of one (samples, nodes) block
_POINT_BLOCK = 1 << 13  # elements of one (samples, points, classes) block


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.

    Importing scipy.integrate takes most of a CLI command's start-up, and
    only the variance study integrates.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


@dataclass(frozen=True)
class UncertaintyBreakdown:
    """Per-test-point total/aleatoric/epistemic record for one setting."""

    setting: str  # "a" | "b"
    total: float
    aleatoric: float
    epistemic: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        # total and aleatoric are differential entropies for Gaussian heads
        # and may be negative; only the epistemic part is a divergence
        if self.epistemic < -1e-12:
            raise ValueError(f"epistemic must be nonnegative, got {self.epistemic}")
        for name in ("total", "aleatoric", "epistemic"):
            v = float(getattr(self, name))
            # a value this close below zero is the roundoff of a zero
            object.__setattr__(self, name, 0.0 if -1e-12 <= v <= 0.0 else v)


def entropy_gauss(variance):
    """Differential entropy 0.5 log(variance) + 0.5 log(2 pi) + 0.5, elementwise."""
    variance = np.asarray(variance, dtype=np.float64)
    if not (variance > 0.0).all():
        raise ValueError(f"variances must be positive, got {variance}")
    return 0.5 * np.log(variance) + 0.5 * np.log(2.0 * np.pi) + 0.5


# --------------------------------------------------------------------------
# kernels over prediction rows
# --------------------------------------------------------------------------


def entropy(head: str, rows: np.ndarray) -> np.ndarray:
    """Entropy of each prediction row, in nats: -sum p log p with 0 log 0 := 0, or the Gaussian `entropy_gauss`."""
    if head == "categorical":
        return -_xlogx(rows).sum(axis=-1)
    return entropy_gauss(rows[..., 1])


def kl(head: str, p: np.ndarray, q: np.ndarray, p_terms: Optional[tuple] = None) -> np.ndarray:
    """KL(p || q) of each pair of prediction rows, broadcast over the leading axes.

    Categorical rows give sum(xlogx(p) - p log max(q, 1e-300)), +inf
    exactly where q == 0 < p; (mean, variance) rows give
    0.5 log(vq/vp) + (vp + (mp-mq)^2)/(2 vq) - 0.5.  `p_terms`, when a
    caller scores many q against the same categorical p, is the pair
    (xlogx(p), p > 0) that it keeps.
    """
    if head != "categorical":
        mp, vp, mq, vq = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
        # np.square, not ** 2: a float scalar's ** 2 calls pow(), which can round
        # differently from an array's, and one row must match its array's entry
        return 0.5 * np.log(vq / vp) + (vp + np.square(mp - mq)) / (2.0 * vq) - 0.5
    xlogx_p, support = (_xlogx(p), p > 0.0) if p_terms is None else p_terms
    div = (xlogx_p - p * np.log(np.maximum(q, _CLAMP))).sum(axis=-1)
    zero = q == 0.0  # rare: most calls skip the support mask
    return np.where((zero & support).any(axis=-1), np.inf, div) if zero.any() else div


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p elementwise, with 0 log 0 := 0."""
    return p * np.log(np.where(p > 0, p, 1.0))


# --------------------------------------------------------------------------
# uncertainty splits over prediction arrays
# --------------------------------------------------------------------------


def _check_rows(head: str, rows: np.ndarray, name: str, inputs: Optional[np.ndarray] = None) -> None:
    """Rows must be probability vectors over 2 or more classes (entries >= -1e-12, sums within 1e-9 of 1), or (mean, variance > 0).

    A bad row is the caller's ValueError.  With `inputs`, the finite inputs
    a model predicted the rows at, one per point of the rows' next-to-last
    axis, it is the model's numerical fault: a FloatingPointError naming
    the inputs of the bad rows.
    """
    if head == "categorical":
        dev = rows.sum(axis=-1, keepdims=True)  # changed in place: the one temporary the size of the points
        dev -= 1.0
        # NaN fails both comparisons
        ok = rows.shape[-1] >= 2 and rows.min() >= -1e-12 and (np.abs(dev, out=dev) <= 1e-9).all()
        domain = "probability vectors over 2 or more classes"
    elif head == "gaussian_scalar":
        ok = rows.shape[-1] == 2 and (rows[..., 1] > 0.0).all()
        domain = "(mean, variance > 0) pairs"
    else:
        raise ValueError(f"unknown head {head!r}")
    if ok:
        return
    if inputs is None:
        raise ValueError(f"{name}: rows are not {domain}")
    if head == "categorical":
        good = (rows.min(axis=-1) >= -1e-12) & (np.abs(rows.sum(axis=-1) - 1.0) <= 1e-9)
    else:
        good = rows[..., 1] > 0.0
    bad = ~good.reshape(-1, len(inputs)).all(axis=0)
    raise FloatingPointError(f"{name} at inputs {np.asarray(inputs)[bad].tolist()}: rows are not {domain}")


def _checked(head: str, preds, w) -> tuple[np.ndarray, np.ndarray]:
    """`preds` (S, N, k) and `w` (S,) validated once; returns them with w normalized."""
    preds = np.asarray(preds, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if preds.ndim != 3 or 0 in preds.shape:
        raise ValueError(f"predictions must have shape (samples, points, k), none of them 0, got {preds.shape}")
    if w.shape != preds.shape[:1]:
        raise ValueError(f"need one weight per sample: {w.shape} weights for {preds.shape[0]} samples")
    if not (w >= 0.0).all() or w.sum() <= 0.0:
        raise ValueError("weights must be nonnegative and not all zero")
    _check_rows(head, preds, "predictions")
    return preds, w / w.sum()


def _point_blocks(preds: np.ndarray):
    """Slices of the point axis whose (S, points, k) temporaries stay near _POINT_BLOCK elements."""
    s, n, k = preds.shape
    step = max(1, _POINT_BLOCK // (s * k))
    return (slice(a, a + step) for a in range(0, n, step))


def _trapezoid(y: np.ndarray) -> np.ndarray:
    """Trapezoid weights of sorted nodes."""
    gaps = np.diff(y)
    dy = np.zeros_like(y)
    dy[:-1] += 0.5 * gaps
    dy[1:] += 0.5 * gaps
    return dy


def _gauss_nodes(means: np.ndarray, sds: np.ndarray):
    """The uniform grid covering every component, with its trapezoid weights; None above _MAX_UNIFORM_NODES nodes."""
    lo = float((means - _NODE_REACH * sds).min())
    hi = float((means + _NODE_REACH * sds).max())
    span = (hi - lo) / (_NODE_STEP * sds.min())  # in gaps of the uniform grid
    if span >= _MAX_UNIFORM_NODES:
        return None
    y = np.linspace(lo, hi, int(np.ceil(span)) + 1)
    return y, _trapezoid(y)


def _component_nodes(i: int, means: np.ndarray, sds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of component i's KL term, in coordinates centred on its mean, and the components they resolve.

    The nodes are component i's own grid joined with the grid of every
    narrower component that meets its range.  A component whose node
    spacing in this frame is below a few float spacings is not resolved:
    its mass sits on a set far narrower than any node gap here, so it adds
    nothing to component i's term, and a node that happened to fall on its
    mean would count it at a whole gap's width.
    """
    steps = _NODE_STEP * np.arange(-round(_NODE_REACH / _NODE_STEP), round(_NODE_REACH / _NODE_STEP) + 1)
    offsets = means - means[i]
    reach = _NODE_REACH * sds
    resolved = _NODE_STEP * sds >= 4.0 * np.spacing(np.abs(offsets) + reach)
    joined = resolved & (sds < sds[i]) & (np.abs(offsets) < reach + reach[i])
    y = np.unique(np.concatenate([sds[i] * steps, (offsets[joined, None] + sds[joined, None] * steps).ravel()]))
    return y, resolved


def _split_gauss_a(means: np.ndarray, variances: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(aleatoric, epistemic) of setting a for scalar Gaussians with normalized weights w."""
    keep = w > 0
    means, variances, w = means[keep], variances[keep], w[keep]
    log_peak = -0.5 * np.log(2.0 * np.pi * variances)  # log density at the mean
    aleatoric = float(w @ (0.5 - log_peak))
    sds = np.sqrt(variances)
    # the split is shift-invariant; centering on the narrowest component keeps
    # its nodes apart even where its scale is below the float spacing at its mean
    means = means - means[np.argmin(sds)]
    log_w = np.log(w)[:, None]
    nodes = _gauss_nodes(means, sds)
    if nodes is None:
        # one frame per component: each KL term on its own nodes
        kl, mass = np.zeros(len(w)), np.zeros(len(w))
        for i in range(len(w)):
            y, resolved = _component_nodes(i, means, sds)
            j = int(resolved[:i].sum())  # component i among the resolved ones
            offsets = (means - means[i])[resolved, None]
            kl_i, mass_i = _kl_terms(y, _trapezoid(y), offsets, sds[resolved, None], log_peak[resolved, None], log_w[resolved])
            kl[i], mass[i] = kl_i[j], mass_i[j]
    else:
        kl, mass = _kl_terms(*nodes, means[:, None], sds[:, None], log_peak[:, None], log_w)
    # a component narrower than the float spacing at its mean collapses onto
    # one node; dividing by its node mass (1 wherever the nodes resolve it)
    # keeps that node from counting at the width of its neighbors' gaps
    return aleatoric, max(0.0, float(w @ (kl / mass)))


def _kl_terms(y, dy, means, sds, log_peak, log_w) -> tuple[np.ndarray, np.ndarray]:
    """Per component, the integrals on nodes y (weights dy) of N_i log(N_i / mixture) and of N_i.

    The densities and the log-sum-exp mixture are evaluated in blocks of
    nodes; the component arguments are (components, 1) columns.
    """
    kl, mass = np.zeros(len(means)), np.zeros(len(means))
    step = max(1, _BLOCK // len(means))
    for a in range(0, len(y), step):
        z = (y[a : a + step] - means) / sds
        log_p = log_peak - 0.5 * z * z
        t = log_p + log_w
        top = t.max(axis=0)
        log_mix = top + np.log(np.exp(t - top).sum(axis=0))
        p = np.exp(log_p)
        kl += (p * (log_p - log_mix)) @ dy[a : a + step]
        mass += p @ dy[a : a + step]
    return kl, mass


def decompose_a(head: str, preds, w) -> list[UncertaintyBreakdown]:
    """Uncertainty split of each point against the samples' own weighted mixture.

    `preds` has shape (S, N, k): S sampled models at N points, each row in
    the format of `models.head_predictions` for `head` ("categorical" or
    "gaussian_scalar").  `w` holds S nonnegative weights, self-normalized
    here.  Returns one breakdown per point.
    """
    preds, w = _checked(head, preds, w)
    if head == "gaussian_scalar":
        splits = [_split_gauss_a(preds[:, i, 0], preds[:, i, 1], w) for i in range(preds.shape[1])]
        return [UncertaintyBreakdown("a", a + e, a, e) for a, e in splits]
    out = []
    for block in _point_blocks(preds):
        probs = np.maximum(preds[:, block], 0.0)
        bma = np.tensordot(w, probs, axes=1)
        log_bma = np.log(np.maximum(bma, _CLAMP))
        neg_ent = _xlogx(probs).sum(axis=-1)
        total, aleatoric = -(bma * log_bma).sum(axis=-1), -(w @ neg_ent)
        epistemic = w @ (neg_ent - (probs * log_bma).sum(axis=-1))
        out += [UncertaintyBreakdown("a", t, a, e) for t, a, e in zip(total, aleatoric, epistemic)]
    return out


def decompose_b(head: str, ref, preds, w) -> list[UncertaintyBreakdown]:
    """Uncertainty split of a fixed reference model against sampled models, per point.

    `ref` has shape (N, k), one reference prediction per point; `preds`,
    `w` and the result are as in `decompose_a`.  A categorical point where
    a sample puts exactly zero mass on a class the reference supports gets
    infinite epistemic and total, and `support_violation` in its flags.
    """
    preds, w = _checked(head, preds, w)
    ref = np.asarray(ref, dtype=np.float64)
    if ref.shape != preds.shape[1:]:
        raise ValueError(f"reference shape {ref.shape} does not match the predictions' points and classes {preds.shape[1:]}")
    _check_rows(head, ref, "reference")
    if head == "gaussian_scalar":
        return [UncertaintyBreakdown("b", a + e, a, e) for a, e in zip(entropy(head, ref), w @ kl(head, ref, preds))]
    ref = np.maximum(ref, 0.0)
    aleatoric = entropy(head, ref)
    out = []
    for block in _point_blocks(preds):
        div = kl(head, ref[block], np.maximum(preds[:, block], 0.0))
        violation = np.isinf(div).any(axis=0)
        # a violating point's KLs stay out of the sum, where a zero weight would make them NaN
        epistemic = np.where(violation, np.inf, w @ np.where(violation, 0.0, div))
        out += [UncertaintyBreakdown("b", a + e, a, e, ("support_violation",) if v else ()) for a, e, v in zip(aleatoric[block], epistemic, violation)]
    return out

