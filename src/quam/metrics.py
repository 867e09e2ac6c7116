"""Detection and calibration metrics and the simplex likelihood-surface
experiment.

Ranking metrics follow the usual conventions: AUROC is the probability a
random positive outranks a random negative with half credit for ties
(mid-rank Mann-Whitney); AUPR uses step interpolation over descending
score thresholds; FPR@TPR is the smallest false-positive rate over
thresholds reaching the target true-positive rate (score >= t counts as
positive).

Tie rule: scores that compare equal, ``inf`` and ``-inf`` included, form
one threshold, so every metric moves past a tie in one step. NaN scores
have no place in a ranking and are rejected with ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import require
from .data import LabeledDataset
from .models import ArchSpec, TrainConfig, TrainingDiverged, loss_and_grad, mean_train_loss, train

__all__ = [
    "ScoredLabels",
    "auroc",
    "aupr",
    "fpr_at_tpr",
    "ece",
    "simplex_grid",
    "simplex_surface",
]

ECE_BINS = 10  # `ece`'s equal-width confidence bins on [0, 1]


@dataclass(frozen=True)
class ScoredLabels:
    """Real scores with binary labels (1 = positive: OOD / misclassified)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if s.shape != y.shape or s.ndim != 1:
            raise ValueError(f"scores {s.shape} and labels {y.shape} must be equal-length vectors")
        if not set(np.unique(y)) <= {0, 1}:
            raise ValueError("labels must be 0/1")
        if np.isnan(s).any():
            raise ValueError("scores must not be NaN")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", y)

    def require_both_classes(self):
        if self.labels.sum() in (0, len(self.labels)):
            raise ValueError("ranking metrics need at least one positive and one negative")


def _tie_groups(scores: np.ndarray, hits: np.ndarray):
    """Group equal scores from the highest down; the one tie rule of every metric.

    Sorts once (stable) and returns, per group, the number of items scored
    at or above it (its end index) and the number of hits among them.
    """
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    ends = np.r_[np.flatnonzero(s[1:] != s[:-1]) + 1, len(s)]
    return ends, np.cumsum(hits[order])[ends - 1]


def auroc(s: ScoredLabels) -> float:
    """Mid-rank Mann-Whitney statistic (ties get half credit): the trapezoid under the ROC steps."""
    s.require_both_classes()
    ends, tp = _tie_groups(s.scores, s.labels)
    fp = ends - tp
    return float(np.trapezoid(np.r_[0, tp], np.r_[0, fp]) / (tp[-1] * fp[-1]))


def aupr(s: ScoredLabels) -> float:
    """Area under precision-recall by step interpolation (positives = 1)."""
    s.require_both_classes()
    ends, tp = _tie_groups(s.scores, s.labels)
    return float(np.sum(np.diff(tp / tp[-1], prepend=0.0) * (tp / ends)))


def fpr_at_tpr(s: ScoredLabels, tpr_target: float = 0.95) -> float:
    """Minimal FPR over thresholds with TPR >= target (score >= t is positive)."""
    if not 0.0 < tpr_target <= 1.0:
        raise ValueError(f"the TPR target must lie in (0, 1], got {tpr_target}")
    s.require_both_classes()
    ends, tp = _tie_groups(s.scores, s.labels)
    # fp never falls as the threshold falls, so the first group to reach the target has the minimum
    first = np.argmax(tp / tp[-1] >= tpr_target)
    return float((ends[first] - tp[first]) / (ends[-1] - tp[-1]))


def ece(pred_probs, labels) -> float:
    """Expected calibration error: sum over `ECE_BINS` bins of (n_b/n)|acc_b - conf_b|; a confidence above 1 falls in no bin, and n counts the binned rows."""
    probs = np.asarray(pred_probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    conf = probs.max(axis=1)
    hit = probs.argmax(axis=1) == y
    edges = np.linspace(0.0, 1.0, ECE_BINS + 1)
    counts, gaps = [], []
    for b in range(ECE_BINS):
        lo, hi = edges[b], edges[b + 1]
        mask = (conf >= lo) & (conf < hi) if b < ECE_BINS - 1 else (conf >= lo) & (conf <= hi)
        if mask.any():
            counts.append(int(mask.sum()))
            gaps.append(abs(float(hit[mask].mean()) - float(conf[mask].mean())))
    n = sum(counts)
    return float(sum(c / n * gap for c, gap in zip(counts, gaps)))


# --------------------------------------------------------------------------
# simplex likelihood surface
# --------------------------------------------------------------------------


def simplex_grid(resolution: int) -> np.ndarray:
    """Triangular grid on the 3-class probability simplex: r(r+1)/2 points."""
    require(2, resolution=resolution)
    pts = []
    m = resolution - 1
    for i in range(resolution):
        for j in range(resolution - i):
            k = m - i - j
            pts.append((i / m, j / m, k / m))
    return np.array(pts)


def simplex_surface(
    data: LabeledDataset,
    x,
    arch: ArchSpec,
    resolution: int = 15,
    repeats: int = 20,
    cfg: TrainConfig = TrainConfig(),
):
    """Best achievable training likelihood when the prediction at `x` is pinned.

    For every simplex grid point, trains `repeats` models on the combined
    loss (mean training cross-entropy plus cross-entropy at `x` against the
    pinned target) and records the median per-sample training likelihood
    exp(-mean CE).  Non-convergent runs are excluded and counted.
    """
    if arch.head != "categorical" or arch.n_classes != 3:
        raise ValueError(f"simplex_surface needs a 3-class categorical head, got {arch.head} with output width {arch.widths[-1]}")
    require(1, repeats=repeats)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape != (1, arch.widths[0]):
        raise ValueError(f"simplex test point needs {arch.widths[0]} coordinates, got array of shape {x.shape}")
    targets = simplex_grid(resolution)
    rows = []
    for ti, target in enumerate(targets):
        t_row = target.reshape(1, -1)
        likes = []
        failures = 0
        for rep in range(repeats):
            try:
                params = train(data, arch, replace(cfg, seed=cfg.seed + 1000 * ti + rep), extra_loss=lambda p: loss_and_grad(p, x, t_row))
            except TrainingDiverged:
                failures += 1
                continue
            likes.append(np.exp(-mean_train_loss(params, data)))
        med = float(np.median(likes)) if likes else float("nan")
        rows.append({"target": tuple(float(v) for v in target), "median_likelihood": med, "failures": failures})
    return rows
