"""Entropy, cross-entropy and KL calculus with the two uncertainty splits.

All entropies are in nats.  Two decompositions of the total predictive
uncertainty are provided:

* setting "a": expected uncertainty when a model is still to be selected.
  The reference is the weighted mixture of the candidates themselves, so
  total = H[mixture], aleatoric = E[H[candidate]], epistemic =
  E[KL(candidate || mixture)], and total == aleatoric + epistemic exactly
  at the sample level.

* setting "b": uncertainty of a fixed, pre-selected model.  aleatoric =
  H[reference], epistemic = E[KL(reference || candidate)].

Probabilities are clamped at 1e-300 before logs so rounding never produces
-inf; exact-zero support violations still surface as +inf with a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Categorical, GaussianScalar, PredictiveDist

__all__ = [
    "UncertaintyBreakdown",
    "entropy_cat",
    "cross_entropy_cat",
    "kl_cat",
    "entropy_gauss",
    "kl_gauss",
    "decompose_a",
    "decompose_b",
    "epistemic_homoscedastic",
]

_CLAMP = 1e-300


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.

    Importing scipy.integrate takes most of a CLI command's start-up, and
    only Gaussian-head splits and the variance study integrate.
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
    support_violation: bool = False
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


def _simplex(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"expected a probability vector, got shape {p.shape}")
    if (p < -1e-12).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"not a probability vector: sum {p.sum()!r}, min {p.min()!r}")
    return np.maximum(p, 0.0)


def entropy_cat(p) -> float:
    """Shannon entropy -sum p_i log p_i, with 0 log 0 := 0."""
    p = _simplex(p)
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


def cross_entropy_cat(p, q) -> float:
    """-sum p_i log q_i; +inf if q lacks support where p has mass."""
    p, q = _simplex(p), _simplex(q)
    if p.shape != q.shape:
        raise ValueError(f"distribution sizes differ: {p.shape} vs {q.shape}")
    mask = p > 0
    if (q[mask] == 0.0).any():
        return float("inf")
    return float(-(p[mask] * np.log(np.maximum(q[mask], _CLAMP))).sum())


def kl_cat(p, q) -> float:
    """sum p_i log(p_i / q_i) >= 0; +inf on support violation."""
    p, q = _simplex(p), _simplex(q)
    if p.shape != q.shape:
        raise ValueError(f"distribution sizes differ: {p.shape} vs {q.shape}")
    mask = p > 0
    if (q[mask] == 0.0).any():
        return float("inf")
    return float((p[mask] * (np.log(p[mask]) - np.log(np.maximum(q[mask], _CLAMP)))).sum())


def entropy_gauss(variance: float) -> float:
    """Differential entropy 0.5 log(variance) + 0.5 log(2 pi) + 0.5."""
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    return float(0.5 * np.log(variance) + 0.5 * np.log(2.0 * np.pi) + 0.5)


def kl_gauss(p: GaussianScalar, q: GaussianScalar) -> float:
    """KL between scalar Gaussians: 0.5 log(vq/vp) + (vp + (mp-mq)^2)/(2 vq) - 0.5."""
    return float(0.5 * np.log(q.variance / p.variance) + (p.variance + (p.mean - q.mean) ** 2) / (2.0 * q.variance) - 0.5)


# --------------------------------------------------------------------------
# weighted-sample decompositions
# --------------------------------------------------------------------------


def _prep(samples):
    if len(samples) == 0:
        raise ValueError("decomposition needs at least one weighted sample")
    dists = [d for d, _ in samples]
    w = np.asarray([float(wt) for _, wt in samples])
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be nonnegative and not all zero")
    kinds = {type(d) for d in dists}
    if len(kinds) != 1:
        raise ValueError("all sample distributions must share one kind")
    return dists, w / w.sum()


def _mixture_entropy_gauss(means, variances, w) -> float:
    lo = float((means - 8.0 * np.sqrt(variances)).min())
    hi = float((means + 8.0 * np.sqrt(variances)).max())

    def m(y):
        return (w * np.exp(-0.5 * (y - means) ** 2 / variances) / np.sqrt(2.0 * np.pi * variances)).sum()

    val, _ = quad(lambda y: -m(y) * np.log(max(m(y), _CLAMP)), lo, hi, limit=200)
    return float(val)


def _kl_gauss_vs_mixture(mean, var, means, variances, w) -> float:
    lo = mean - 10.0 * np.sqrt(var)
    hi = mean + 10.0 * np.sqrt(var)

    def integrand(y):
        py = np.exp(-0.5 * (y - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
        my = (w * np.exp(-0.5 * (y - means) ** 2 / variances) / np.sqrt(2.0 * np.pi * variances)).sum()
        return py * (np.log(max(py, _CLAMP)) - np.log(max(my, _CLAMP)))

    val, _ = quad(integrand, lo, hi, limit=200)
    return float(val)


def decompose_a(samples) -> UncertaintyBreakdown:
    """Uncertainty split against the samples' own weighted mixture.

    `samples` is a sequence of (PredictiveDist, nonnegative weight); weights
    are self-normalized here.
    """
    dists, w = _prep(samples)
    if isinstance(dists[0], Categorical):
        probs = np.maximum(np.vstack([d.probs for d in dists]), 0.0)
        bma = w @ probs
        log_bma = np.log(np.maximum(bma, _CLAMP))
        # 0 log 0 := 0: log 1 stands in where a sample has no mass
        neg_ent = (probs * np.log(np.where(probs > 0, probs, 1.0))).sum(axis=1)
        total = float(-(bma @ log_bma))
        aleatoric = float(-(w @ neg_ent))
        epistemic = float(w @ (neg_ent - probs @ log_bma))
        return UncertaintyBreakdown("a", total, aleatoric, epistemic)
    means = np.array([d.mean for d in dists])
    variances = np.array([d.variance for d in dists])
    aleatoric = float(sum(wi * entropy_gauss(v) for wi, v in zip(w, variances)))
    epistemic = float(sum(wi * _kl_gauss_vs_mixture(m, v, means, variances, w) for wi, m, v in zip(w, means, variances)))
    epistemic = max(0.0, epistemic)
    return UncertaintyBreakdown("a", aleatoric + epistemic, aleatoric, epistemic)


def decompose_b(reference: PredictiveDist, samples) -> UncertaintyBreakdown:
    """Uncertainty split of a fixed reference model against candidates."""
    dists, w = _prep(samples)
    if isinstance(reference, Categorical):
        aleatoric = entropy_cat(reference.probs)
        kls = np.array([kl_cat(reference.probs, d.probs) for d in dists])
        if np.isinf(kls).any():
            return UncertaintyBreakdown("b", float("inf"), aleatoric, float("inf"), support_violation=True, flags=("support_violation",))
        epistemic = float((w * kls).sum())
        return UncertaintyBreakdown("b", aleatoric + epistemic, aleatoric, epistemic)
    aleatoric = entropy_gauss(reference.variance)
    epistemic = float(sum(wi * kl_gauss(reference, d) for wi, d in zip(w, dists)))
    return UncertaintyBreakdown("b", aleatoric + epistemic, aleatoric, epistemic)


def epistemic_homoscedastic(reference_mean: float, sample_means, weights, noise_variance: float) -> float:
    """Mean-shift epistemic score under shared, input-independent noise.

    (1 / noise_variance) * sum_n w_n (reference_mean - mean_n)^2 with
    normalized weights; the variable part of the homoscedastic total.
    """
    if not noise_variance > 0:
        raise ValueError("noise_variance must be positive")
    means = np.asarray(sample_means, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be nonnegative and not all zero")
    w = w / w.sum()
    return float((w * (reference_mean - means) ** 2).sum() / noise_variance)
