"""Posterior-sampling baselines: Deep Ensembles, MC dropout, cyclical
stochastic-gradient HMC, and full Hamiltonian Monte Carlo.

All samplers are seed-deterministic end to end.  Ensemble members,
dropout masks and MCMC draws carry equal weights; weighting happens in the
decompositions, not here.  `SamplerOutput.predictions` evaluates every
sample at a batch of inputs as one (samples, points, k) array, the input
of `measures.decompose_a` and `decompose_b`.

HMC runs K chains in lock-step on (K, P) position and momentum stacks,
one seed per chain, and its callbacks are stacked: the log densities and
gradients of K positions at once.  Each chain's draws and diagnostics are
those of its own single-chain run, bit for bit.  `hmc_posterior` takes
its gradients from one `models.Workspace` per call, over the data rows,
and the log-posterior at a trajectory's end, its one log-softmax, from
the last gradient's head pass; `csghmc` keeps one for its batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .config import require
from .models import ArchSpec, ModelParams, TrainConfig, TrainingDiverged, Workspace, init_params, make_dropout_masks, predict_batch, target_rows, train
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


def deep_ensemble(data, arch: ArchSpec, n_members: int = 5, base_cfg: TrainConfig = TrainConfig()) -> SamplerOutput:
    """Independently initialized and trained members; member i uses seed base+i."""
    require(1, n_members=n_members)
    members = [train(data, arch, replace(base_cfg, seed=base_cfg.seed + i)) for i in range(n_members)]
    return SamplerOutput(method="de", params=members, diagnostics={"n_members": n_members, "base_seed": base_cfg.seed})


def mc_dropout(params: ModelParams, n_samples: int = 500, seed: int = 0) -> SamplerOutput:
    """Stochastic forward passes with dropout active at inference: n_samples mask sets drawn once."""
    require(1, n_samples=n_samples)
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
    cycles: int = 4,
    steps_per_cycle: int = 200,
    step_size: float = 1e-3,
    temperature: float = 1.0,
    seed: int = 0,
    friction: float = 0.05,
    batch_size: Optional[int] = None,
    prior_precision: float = 1.0,
    tail_fraction: float = 0.25,
) -> SamplerOutput:
    """Stochastic-gradient HMC with a cosine step-size schedule per cycle.

    Samples are collected in the low-step-size tail of each cycle.  The
    friction/temperature constants are declared here rather than inherited
    from any particular reference implementation.
    """
    require(1, cycles=cycles, steps_per_cycle=steps_per_cycle)
    require(0, step_size=step_size, temperature=temperature, prior_precision=prior_precision)
    rng = derive_rng(seed)
    values = init_params(arch, seed).values.copy()  # each step updates it in place
    velocity = np.zeros_like(values)
    n = len(data)
    batch = n if batch_size is None else min(batch_size, n)
    ws = Workspace(arch, values, batch)
    targets = target_rows(arch, data.y)
    ws.fill(data.x[:batch], targets[:batch])  # a full batch's rows never change
    draws: list[np.ndarray] = []
    step_log: list[float] = []

    for cycle in range(cycles):
        for t in range(steps_per_cycle):
            lr = cosine_step_size(step_size, t, steps_per_cycle)
            step_log.append(lr)
            if batch < n:
                idx = rng.choice(n, size=batch, replace=False)
                ws.fill(data.x[idx], targets[idx])
            ws.forward()
            if not np.isfinite(ws.loss()):
                raise TrainingDiverged(f"cSG-HMC diverged in cycle {cycle}", epoch=cycle, batch=t)
            # grad of U = n * mean-loss + prior quadratic
            grad_u = n * ws.backward() + prior_precision * values
            noise_scale = np.sqrt(2.0 * friction * lr * temperature) if lr > 0 else 0.0
            velocity = (1.0 - friction) * velocity - lr * grad_u + noise_scale * rng.standard_normal(values.size)
            values += velocity
            if t >= int(np.ceil(steps_per_cycle * (1.0 - tail_fraction))):
                draws.append(values.copy())
    return SamplerOutput(
        method="csghmc",
        params=[ModelParams(arch, d) for d in draws or [values]],
        diagnostics={"cycles": cycles, "steps_per_cycle": steps_per_cycle, "step_sizes": step_log, "friction": friction, "temperature": temperature},
    )


# --------------------------------------------------------------------------
# full HMC
# --------------------------------------------------------------------------


def leapfrog(q, p, grad_fn, step, n_steps: int):
    """Velocity-Verlet integration of Hamiltonian dynamics; returns (q, p).

    `step` is a float, or a (K, 1) column of step sizes for a (K, P) stack
    of chains.
    """
    q = np.array(q, dtype=np.float64)
    p = np.array(p, dtype=np.float64)
    _leapfrog(q, p, grad_fn(q), grad_fn, step, n_steps)
    return q, p


def _leapfrog(q, p, g, grad_fn, step, n_steps: int):
    """`leapfrog` in place on `q` and `p`, from the gradient `g` at `q`; returns the gradient at the final `q`.

    Each in-place update has the bits of its textbook form: p += (0.5 *
    step) * g is p + 0.5 * step * g.
    """
    half = 0.5 * step
    for _ in range(n_steps):
        p += half * g
        q += step * p
        g = grad_fn(q)
        p += half * g
    return g


def hmc(
    log_density: Callable[[np.ndarray], np.ndarray],
    grad_log_density: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    n_samples: int,
    n_leapfrog: int,
    step_size: float,
    seed: Union[int, Sequence[int]] = 0,
    burn_in: int = 0,
    auto_tune: bool = False,
    thin: int = 1,
):
    """Standard HMC with unit-Gaussian momenta and Metropolis correction, K chains in lock-step.

    The callbacks are stacked: `log_density` maps a (K, P) stack of
    positions to their K log densities, `grad_log_density` to their (K, P)
    gradients.  `seed` is one int, for one chain started at the (P,) vector
    `x0`, or one seed per chain, with `x0` a (K, P) stack.  Every chain
    keeps its own `derive_rng(seed)` stream, step size, acceptance counts
    and rejection run, and its own `p @ p`, so its draws and diagnostics
    are those of its own single-chain run, bit for bit.  Returns one
    `SamplerOutput` for an int seed, else one per chain.

    During burn-in, `auto_tune` looks at each chain's acceptances over a
    window of 25 iterations that all chains share: it doubles a chain's
    step size when more than 80% were accepted and halves it below 60%.
    A hundred consecutive rejections of one chain raise `HMCAborted`,
    naming the chain and its seed.  `n_leapfrog = 0` is legal: every
    proposal is the chain's own position, and is accepted.
    `sampling_acceptance_rate` and `mean_abs_energy_error` cover the
    sampling iterations only: burn-in starts far from the mode and tunes
    the step size.  A trajectory starts from the gradient its chain's
    current position got at the end of the trajectory that moved it there.
    """
    require(0, n_leapfrog=n_leapfrog, burn_in=burn_in)
    require(1, n_samples=n_samples, thin=thin)
    require(0, above=True, step_size=step_size)
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    k = len(seeds)
    q = np.array(x0, dtype=np.float64, ndmin=2)
    if q.shape[0] != k or q.ndim != 2 or single and np.ndim(x0) != 1:
        raise ValueError(f"hmc needs a (P,) start for one seed and a (K, P) stack for K seeds, got shape {np.shape(x0)} for {k} seed(s)")
    size = q.shape[1]
    rngs = [derive_rng(s) for s in seeds]
    g = np.array(grad_log_density(q), dtype=np.float64)
    logp = np.array(log_density(q), dtype=np.float64)
    total = burn_in + n_samples * thin
    draws = np.empty((k, n_samples, size))
    energy_errors = np.empty((k, n_samples * thin))  # |dH| of each sampling iteration
    accepted, accepted_sampling, rejects, window = (np.zeros(k, dtype=int) for _ in range(4))
    steps = np.full((k, 1), float(step_size))
    p = np.empty((k, size))

    for it in range(total):
        for c, rng in enumerate(rngs):
            p[c] = rng.standard_normal(size)
        h0 = -logp + [0.5 * float(p[c] @ p[c]) for c in range(k)]
        q_new = q.copy()
        g_new = _leapfrog(q_new, p, g, grad_log_density, steps, n_leapfrog)
        logp_new = np.array(log_density(q_new), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite energy error is a rejection
            delta_h = -logp_new + [0.5 * float(p[c] @ p[c]) for c in range(k)] - h0
        # a chain draws its uniform only for a finite energy error
        accept = np.array([np.isfinite(d) and rng.random() < min(1.0, np.exp(-d)) for d, rng in zip(delta_h, rngs)], dtype=bool)
        np.copyto(q, q_new, where=accept[:, None])
        np.copyto(g, g_new, where=accept[:, None])
        np.copyto(logp, logp_new, where=accept)
        accepted += accept
        window += accept
        if it >= burn_in:
            accepted_sampling += accept
            energy_errors[:, it - burn_in] = np.abs(delta_h)
        rejects += 1
        rejects[accept] = 0
        if rejects.max() >= 100:
            c = int(np.argmax(rejects >= 100))
            raise HMCAborted(f"chain {c} (seed {seeds[c]}): 100 consecutive rejections at iteration {it} (step size {steps[c, 0]:g})")
        if auto_tune and it < burn_in and (it + 1) % 25 == 0:
            rate = window / 25
            # no doubling in the last stretch: an untested doubling onto
            # the low-acceptance cliff would hobble the sampling phase
            steps[(rate > 0.8) & (it < burn_in - 50)] *= 2.0
            steps[rate < 0.6] *= 0.5
            if it >= burn_in - 50:
                # terminal safety halve: the doubling rule settles in its
                # hysteresis band, one notch below it keeps acceptance high
                steps[rate < 0.9] *= 0.5
            window[:] = 0
        if it >= burn_in and (it - burn_in) % thin == 0:
            draws[:, (it - burn_in) // thin] = q

    outs = [
        SamplerOutput(
            method="hmc",
            draws=draws[c],
            diagnostics={
                "acceptance_rate": int(accepted[c]) / total,
                "sampling_acceptance_rate": int(accepted_sampling[c]) / (n_samples * thin),
                "step_size": float(steps[c, 0]),
                "mean_abs_energy_error": float(np.mean(energy_errors[c])),
            },
        )
        for c in range(k)
    ]
    return outs[0] if single else outs


class _PosteriorWorkspace(Workspace):
    """K lock-step chains' log-posterior gradients and log densities, on one `models.Workspace` over the data rows.

    The log density at the position of the last gradient, a trajectory's
    end, reads that gradient's head pass.  Both keep the bits of
    `models.loss_and_grad` and `models.log_posterior`.
    """

    def __init__(self, data, arch: ArchSpec, prior_precision: float, k: int):
        if len(data) == 0:
            raise ValueError("hmc_posterior needs a nonempty dataset")
        super().__init__(arch, np.empty((k, arch.param_count())), len(data), x=np.asarray(data.x, dtype=np.float64), targets=target_rows(arch, data.y))
        self.prior = prior_precision

    def grad_log_density(self, q: np.ndarray) -> np.ndarray:
        """The (K, P) gradients of the log-posterior at the positions `q`: -n * dCE - prior * q."""
        self.values[...] = q
        self.forward()
        g = np.multiply(self.backward(), -self.n)
        g -= self.prior * q
        return g

    def log_density(self, q: np.ndarray) -> np.ndarray:
        """The K log-posteriors at the positions `q`, read from the last pass when `q` is its position."""
        if self.terms is None or not np.array_equal(q, self.values):
            self.values[...] = q
            self.forward()
        return np.array([-(self.n * float(l)) - 0.5 * self.prior * float(v @ v) for l, v in zip(self.loss(), q)])


def hmc_posterior(
    data,
    arch: ArchSpec,
    prior_precision: float = 1e-3,
    n_samples: int = 500,
    n_leapfrog: int = 25,
    step_size: float = 2e-3,
    seed: Union[int, Sequence[int]] = 0,
    burn_in: int = 500,
    auto_tune: bool = True,
    thin: int = 1,
    init: Optional[ModelParams] = None,
):
    """HMC over a network's log-posterior (`models.log_posterior`); draws wrapped as ModelParams.

    `seed` is one int, for one chain, or one seed per chain: the chains then
    run in lock-step (`hmc`) and each starts at `init` or at
    `init_params(arch, its seed)`.  The gradients come from one
    preallocated workspace per call.  Returns one `SamplerOutput` for an
    int seed, else one per chain, each that chain's single-chain run.
    """
    require(0, prior_precision=prior_precision)
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    start = np.array([(init if init is not None else init_params(arch, s)).values for s in seeds])
    ws = _PosteriorWorkspace(data, arch, prior_precision, len(seeds))
    # an int seed reaches `hmc` as an int: bench/tracer.py reads the one SamplerOutput it then returns
    raw = hmc(ws.log_density, ws.grad_log_density, start[0] if single else start, n_samples, n_leapfrog, step_size, seed=seed, burn_in=burn_in, auto_tune=auto_tune, thin=thin)
    outs = [SamplerOutput(method="hmc", params=[ModelParams(arch, d) for d in r.draws], diagnostics=r.diagnostics) for r in ([raw] if single else raw)]
    return outs[0] if single else outs
