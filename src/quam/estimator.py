"""Epistemic uncertainty scores from pooled search trajectories, plus the
plain importance-sampling estimate and the proposal-variance study.

The practical score pools every model visited by the per-class (or
per-direction) searches, weights each by exp(-mean_train_loss / T) and
self-normalizes, then takes the weighted expected KL divergence: against
the fixed reference model (setting "b") or against the pooled weighted
mixture itself (setting "a").  Self-normalization makes the score
invariant to adding a constant to all training losses.  The pool is one
(samples, classes) prediction array with a weight vector, and the split
is one call of `measures.decompose_a` or `decompose_b`.

The idealized estimator, the plain ratio mean, is exposed separately for
the variance studies: a proposal must place mass wherever the integrand
is large, otherwise the ratio variance explodes, which is the point the
analytic study quantifies on a two-component Gaussian target against a
single-Gaussian proposal.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .config import require
from .measures import UncertaintyBreakdown, decompose_a, decompose_b, entropy, quad
from .models import ModelParams
from .search import SearchConfig, SearchTrajectory, search_suites

__all__ = [
    "pool_trajectories",
    "quam_scores",
    "mis_estimate",
    "analytic_variance_study",
    "variance_sweep",
]


def pool_trajectories(trajectories: Sequence[SearchTrajectory], temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Every model the searches visited: its prediction at the test input and its weight.

    Returns `(preds, w)`: preds has shape (S, k), rows as in
    `models.head_predictions`; w holds the S self-normalized weights
    exp(-mean_train_loss / temperature).
    """
    require(0, above=True, temperature=temperature)
    preds = np.concatenate([t.pred for t in trajectories])
    logw = -np.concatenate([t.mean_train_loss for t in trajectories]) / temperature
    if not np.isfinite(logw).all():
        raise ValueError("every pooled model needs a finite training loss")
    w = np.exp(logw - logw.max())
    return preds, w / w.sum()


def quam_scores(
    xs: np.ndarray,
    data,
    reference: ModelParams,
    config: SearchConfig,
    temperature: float = 0.1,
    setting: str = "b",
    classes=None,
) -> tuple[list[UncertaintyBreakdown], list[list[SearchTrajectory]]]:
    """Adversarial-search epistemic uncertainty at each row of `xs`: `(breakdowns, suites)`.

    Runs every point's searches in lock-step batches: the targeted
    per-class suite (categorical head; per point, the classes in its entry
    of `classes` when given) or the two-sided regression pair (gaussian
    head).  Each point pools the models its own searches visited and gets
    an UncertaintyBreakdown for the requested setting: "b" against the
    reference, "a" against the pooled mixture.  A point whose searches all
    found no feasible iterate that diverges from the reference scores the
    reference alone, flagged `no_feasible_adversary`; when only some of
    them did, the pool keeps every search's models and the breakdown
    carries `partial_no_feasible_adversary`.  A breakdown carries the
    `nan_abort` flag when any search of its point stopped on a non-finite
    loss.  A point's result does not depend on the other points in `xs`.
    `suites` holds each point's trajectories, in the order of its searches.
    """
    if setting not in ("a", "b"):
        raise ValueError(f"setting must be 'a' or 'b', got {setting!r}")
    # checked before any search: a point whose searches find no adversary never pools
    require(0, above=True, temperature=temperature)
    head = reference.arch.head
    suites = search_suites(xs, data, reference, config, classes)
    breakdowns = []
    for trajectories in suites:
        ref = trajectories[0].reference_pred
        infeasible = [t.no_feasible for t in trajectories]
        if all(infeasible):
            aleatoric = entropy(head, ref)
            breakdown = UncertaintyBreakdown(setting, aleatoric, aleatoric, 0.0, flags=("no_feasible_adversary",))
        else:
            preds, w = pool_trajectories(trajectories, temperature)
            (breakdown,) = decompose_b(head, ref[None], preds[:, None], w) if setting == "b" else decompose_a(head, preds[:, None], w)
            if any(infeasible):
                breakdown = replace(breakdown, flags=breakdown.flags + ("partial_no_feasible_adversary",))
        if any(t.nan_abort for t in trajectories):
            breakdown = replace(breakdown, flags=breakdown.flags + ("nan_abort",))
        breakdowns.append(breakdown)
    return breakdowns, suites


# --------------------------------------------------------------------------
# idealized importance-sampling estimator
# --------------------------------------------------------------------------


def mis_estimate(u_values, q_densities) -> float:
    """(1/N) sum u_n / q_n."""
    u = np.asarray(u_values, dtype=np.float64)
    q = np.asarray(q_densities, dtype=np.float64)
    if u.shape != q.shape:
        raise ValueError(f"u and q lengths differ: {u.shape} vs {q.shape}")
    if (q <= 0).any():
        raise ValueError("proposal densities must be positive")
    return float((u / q).mean())


# --------------------------------------------------------------------------
# analytic variance of a single-Gaussian proposal on a two-mode target
# --------------------------------------------------------------------------


def _gauss_logpdf(x, mu, var):
    return -0.5 * (x - mu) ** 2 / var - 0.5 * np.log(2.0 * np.pi * var)


def analytic_variance_study(target: tuple[tuple[float, float, float], tuple[float, float, float]], proposal: tuple[float, float]) -> float:
    """Asymptotic ratio variance  int (p/q)^2 q dx - 1  by adaptive quadrature.

    `target` is ((weight1, mean1, var1), (weight2, mean2, var2)); `proposal`
    is (mean, var).  The integral is evaluated on [-50, 50] to an absolute
    tolerance of 1e-10; past the integrability threshold (unmatched
    component wider than twice the proposal) the truncated value is still
    finite and still monotone in the sweeps, which is what the study
    reports.  A quadrature that misses its
    tolerance says so with scipy's `IntegrationWarning`.
    """
    (w1, m1, v1), (w2, m2, v2) = target
    mq, vq = proposal
    require(0, above=True, var1=v1, var2=v2, proposal_var=vq)
    if abs(w1 + w2 - 1.0) > 1e-12:
        raise ValueError("target component weights must sum to 1")

    def integrand(x):
        # log-space ratio: the densities underflow far into the tails while
        # the ratio itself stays representable
        with np.errstate(divide="ignore"):
            log_p = np.logaddexp(np.log(w1) + _gauss_logpdf(x, m1, v1), np.log(w2) + _gauss_logpdf(x, m2, v2))
        return np.exp(2.0 * log_p - _gauss_logpdf(x, mq, vq))

    value, _ = quad(integrand, -50.0, 50.0, points=[m1, m2, mq], limit=400, epsabs=1e-10, epsrel=1e-12)
    return float(value - 1.0)


def variance_sweep(parameter: str, grid) -> list[tuple[float, float]]:
    """Rows (parameter value, variance) for one of the three standard sweeps.

    Baseline: equally weighted target components at 0 and 3, all variances
    1, proposal centered on the first component.  `parameter` is one of
    "sigma_p2" (the second component's variance), "mu_p2" (its mean) and
    "sigma_q" (the proposal's variance).
    """
    baseline = {"sigma_p2": 1.0, "mu_p2": 3.0, "sigma_q": 1.0}
    if parameter not in baseline:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    rows = []
    for val in grid:
        c = baseline | {parameter: float(val)}
        rows.append((float(val), analytic_variance_study(((0.5, 0.0, 1.0), (0.5, c["mu_p2"], c["sigma_p2"])), (0.0, c["sigma_q"]))))
    return rows
