"""Posterior-sampling baselines: Deep Ensembles, MC dropout, cyclical
stochastic-gradient HMC, and full Hamiltonian Monte Carlo.

All samplers are seed-deterministic end to end.  Ensemble members,
dropout masks and MCMC draws carry equal weights; weighting happens in the
decompositions, not here.  `SamplerOutput.predictions` evaluates every
sample at a batch of inputs as one (samples, points, k) array, the input
of `measures.decompose_a` and `decompose_b`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .models import (
    ArchSpec,
    ModelParams,
    TrainConfig,
    TrainingDiverged,
    init_params,
    log_posterior,
    loss_and_grad,
    make_dropout_masks,
    predict_batch,
    target_rows,
    train,
)
from .rng import derive_rng

__all__ = [
    "SamplerOutput",
    "deep_ensemble",
    "mc_dropout",
    "csghmc",
    "hmc",
    "hmc_posterior",
    "cosine_step_size",
    "HMCAborted",
]


class HMCAborted(RuntimeError):
    pass


@dataclass
class SamplerOutput:
    """Equally weighted posterior samples plus per-method diagnostics.

    `params` holds model draws (ensembles, posterior MCMC); `masks`, when
    set, holds one set of hidden-layer dropout masks per entry of `params`
    (MC dropout, where every entry is the same model).  `draws` holds raw
    vectors (HMC on a generic density).  Exactly one of `params` and
    `draws` is set.
    """

    method: str
    params: Optional[list[ModelParams]] = None
    draws: Optional[np.ndarray] = None
    masks: Optional[list[list[np.ndarray]]] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.params is None) == (self.draws is None):
            raise ValueError("exactly one of params/draws must be provided")
        if self.params is not None and not self.params or self.draws is not None and not len(self.draws):
            raise ValueError("sampler output must be nonempty")
        if self.masks is not None and (self.params is None or len(self.masks) != len(self.params)):
            raise ValueError("dropout masks need one set per model")

    def predictions(self, xs) -> np.ndarray:
        """(S, N, k) predictions of the S samples at the N rows of `xs`, as `models.predict_batch` gives them."""
        if self.params is None:
            raise ValueError("raw draws are not models and have no predictions")
        xs = np.atleast_2d(xs)
        out = None
        for i, (p, m) in enumerate(zip(self.params, self.masks or [None] * len(self.params))):
            pred = predict_batch(p, xs, m)
            if out is None:  # filled in place: no list of per-sample arrays
                out = np.empty((len(self.params),) + pred.shape)
            out[i] = pred
        return out


def deep_ensemble(data, arch: ArchSpec, n_members: int, base_cfg: TrainConfig) -> SamplerOutput:
    """Independently initialized and trained members; member i uses seed base+i."""
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    members = []
    for i in range(n_members):
        cfg = TrainConfig(lr=base_cfg.lr, weight_decay=base_cfg.weight_decay, epochs=base_cfg.epochs, batch_size=base_cfg.batch_size, seed=base_cfg.seed + i)
        members.append(train(data, arch, cfg))
    return SamplerOutput(method="de", params=members, diagnostics={"n_members": n_members, "base_seed": base_cfg.seed})


def mc_dropout(params: ModelParams, n_samples: int, seed: int = 0) -> SamplerOutput:
    """Stochastic forward passes with dropout active at inference: n_samples mask sets drawn once."""
    if not params.arch.dropout_prob > 0:
        raise ValueError("mc_dropout needs a model with dropout_prob > 0")
    rng = derive_rng(seed)
    masks = [make_dropout_masks(params.arch, rng) for _ in range(n_samples)]
    return SamplerOutput(method="mcd", params=[params] * n_samples, masks=masks, diagnostics={"n_samples": n_samples, "dropout_prob": params.arch.dropout_prob})


# --------------------------------------------------------------------------
# cyclical SG-HMC
# --------------------------------------------------------------------------


def cosine_step_size(step0: float, t: int, steps_per_cycle: int) -> float:
    """Cosine decay within a cycle: step0 at t=0, exactly 0 at the last step."""
    if steps_per_cycle <= 1:
        return step0
    return step0 * 0.5 * (1.0 + np.cos(np.pi * t / (steps_per_cycle - 1)))


def csghmc(
    data,
    arch: ArchSpec,
    cycles: int,
    steps_per_cycle: int,
    step_size: float,
    temperature: float = 1.0,
    seed: int = 0,
    friction: float = 0.05,
    batch_size: Optional[int] = None,
    prior_precision: float = 1.0,
    tail_fraction: float = 0.25,
    init: Optional[ModelParams] = None,
) -> SamplerOutput:
    """Stochastic-gradient HMC with a cosine step-size schedule per cycle.

    Samples are collected in the low-step-size tail of each cycle.  The
    friction/temperature constants are declared here rather than inherited
    from any particular reference implementation.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    if steps_per_cycle < 1:
        raise ValueError("steps_per_cycle must be >= 1")
    rng = derive_rng(seed)
    params = init if init is not None else init_params(arch, seed)
    values = params.values.copy()
    velocity = np.zeros_like(values)
    n = len(data)
    batch = n if batch_size is None else min(batch_size, n)
    targets = target_rows(arch, data.y)
    samples: list[ModelParams] = []
    step_log: list[float] = []

    for cycle in range(cycles):
        for t in range(steps_per_cycle):
            lr = cosine_step_size(step_size, t, steps_per_cycle)
            step_log.append(lr)
            idx = rng.choice(n, size=batch, replace=False) if batch < n else np.arange(n)
            loss, grad = loss_and_grad(ModelParams(arch, values), data.x[idx], targets[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"cSG-HMC diverged in cycle {cycle}", epoch=cycle, batch=t)
            # grad of U = n * mean-loss + prior quadratic
            grad_u = n * grad + prior_precision * values
            noise_scale = np.sqrt(2.0 * friction * lr * temperature) if lr > 0 else 0.0
            velocity = (1.0 - friction) * velocity - lr * grad_u + noise_scale * rng.standard_normal(values.size)
            values = values + velocity
            if t >= int(np.ceil(steps_per_cycle * (1.0 - tail_fraction))):
                samples.append(ModelParams(arch, values.copy()))
    if not samples:
        samples.append(ModelParams(arch, values.copy()))
    return SamplerOutput(
        method="csghmc",
        params=samples,
        diagnostics={"cycles": cycles, "steps_per_cycle": steps_per_cycle, "step_sizes": step_log, "friction": friction, "temperature": temperature},
    )


# --------------------------------------------------------------------------
# full HMC
# --------------------------------------------------------------------------


def leapfrog(q, p, grad_fn, step: float, n_steps: int):
    """Velocity-Verlet integration of Hamiltonian dynamics; returns (q, p)."""
    q = q.copy()
    p = p.copy()
    g = grad_fn(q)
    for _ in range(n_steps):
        p = p + 0.5 * step * g
        q = q + step * p
        g = grad_fn(q)
        p = p + 0.5 * step * g
    return q, p


def hmc(
    log_density: Callable[[np.ndarray], float],
    grad_log_density: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    n_samples: int,
    n_leapfrog: int,
    step_size: float,
    seed: int = 0,
    burn_in: int = 0,
    auto_tune: bool = False,
    thin: int = 1,
) -> SamplerOutput:
    """Standard HMC with unit-Gaussian momenta and Metropolis correction.

    During burn-in, `auto_tune` doubles the step size while the recent
    acceptance rate exceeds 0.8 and halves it below 0.6.  A hundred
    consecutive rejections abort the chain.  `n_leapfrog = 0` is legal: the
    chain never moves.  `sampling_acceptance_rate` and
    `mean_abs_energy_error` cover the sampling iterations only: burn-in
    starts far from the mode and tunes the step size.
    """
    if n_leapfrog < 0 or n_samples < 1 or burn_in < 0 or thin < 1:
        raise ValueError(f"hmc needs n_leapfrog >= 0, n_samples >= 1, burn_in >= 0 and thin >= 1, got {n_leapfrog}, {n_samples}, {burn_in}, {thin}")
    rng = derive_rng(seed)
    q = np.array(x0, dtype=np.float64)
    logp = float(log_density(q))
    draws = []
    accepted = 0
    accepted_sampling = 0
    consecutive_rejects = 0
    window: list[int] = []
    energy_errors = []  # |dH| of each sampling iteration
    step = float(step_size)

    for it in range(burn_in + n_samples * thin):
        p = rng.standard_normal(q.size)
        h0 = -logp + 0.5 * float(p @ p)
        if n_leapfrog > 0:
            q_new, p_new = leapfrog(q, p, grad_log_density, step, n_leapfrog)
            logp_new = float(log_density(q_new))
        else:
            q_new, p_new, logp_new = q, p, logp  # degenerate: the chain never moves
        h1 = -logp_new + 0.5 * float(p_new @ p_new)
        delta_h = h1 - h0
        if it >= burn_in:
            energy_errors.append(abs(delta_h))
        if np.isfinite(delta_h) and rng.random() < min(1.0, np.exp(-delta_h)):
            q, logp = q_new, logp_new
            accepted += 1
            accepted_sampling += it >= burn_in
            window.append(1)
            consecutive_rejects = 0
        else:
            window.append(0)
            consecutive_rejects += 1
            if consecutive_rejects >= 100:
                raise HMCAborted(f"100 consecutive rejections at iteration {it} (step size {step:g})")
        if auto_tune and it < burn_in and len(window) >= 25:
            rate = sum(window) / len(window)
            if rate > 0.8 and it < burn_in - 50:
                # no doubling in the last stretch: an untested doubling onto
                # the low-acceptance cliff would hobble the sampling phase
                step *= 2.0
            elif rate < 0.6:
                step *= 0.5
            if it >= burn_in - 50 and rate < 0.9:
                # terminal safety halve: the doubling rule settles in its
                # hysteresis band, one notch below it keeps acceptance high
                step *= 0.5
            window.clear()
        if it >= burn_in and (it - burn_in) % thin == 0:
            draws.append(q.copy())

    return SamplerOutput(
        method="hmc",
        draws=np.array(draws),
        diagnostics={
            "acceptance_rate": accepted / (burn_in + n_samples * thin),
            "sampling_acceptance_rate": accepted_sampling / len(energy_errors),
            "step_size": step,
            "mean_abs_energy_error": float(np.mean(energy_errors)),
        },
    )


def hmc_posterior(
    data,
    arch: ArchSpec,
    prior_precision: float,
    n_samples: int,
    n_leapfrog: int,
    step_size: float,
    seed: int = 0,
    burn_in: int = 500,
    auto_tune: bool = True,
    thin: int = 1,
    init: Optional[ModelParams] = None,
) -> SamplerOutput:
    """HMC over a network's log-posterior; draws wrapped as ModelParams."""
    n = len(data)
    targets = target_rows(arch, data.y)

    def logp(v):
        return log_posterior(ModelParams(arch, v), data, prior_precision)

    def grad_logp(v):
        return -n * loss_and_grad(ModelParams(arch, v), data.x, targets)[1] - prior_precision * v

    start = (init if init is not None else init_params(arch, seed)).values
    raw = hmc(logp, grad_logp, start, n_samples, n_leapfrog, step_size, seed=seed, burn_in=burn_in, auto_tune=auto_tune, thin=thin)
    return SamplerOutput(method="hmc", params=[ModelParams(arch, d) for d in raw.draws], diagnostics=raw.diagnostics)
