import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from quam import models as M
from quam import samplers as S
from quam.data import LabeledDataset, gen_two_moons
from quam.measures import decompose_a
from quam.rng import derive_rng
from tape_nll import tape_loss_and_grad


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(120, noise=0.1, seed=0)


def test_deep_ensemble_singleton_zero_epistemic(moons):
    out = S.deep_ensemble(moons, M.ArchSpec((2, 8, 2)), 1, M.TrainConfig(epochs=60, seed=0))
    assert len(out.params) == 1
    (br,) = decompose_a("categorical", out.predictions(np.array([0.0, 1.0])), np.ones(1))
    assert br.epistemic == pytest.approx(0.0, abs=1e-12)


def test_deep_ensemble_members_fit_and_differ(moons):
    out = S.deep_ensemble(moons, M.ArchSpec((2, 16, 2)), 10, M.TrainConfig(epochs=600, seed=5))
    for p in out.params:
        acc = (M.predict_batch(p, moons.x).argmax(1) == moons.y).mean()
        assert acc >= 0.95
    for i in range(10):
        for j in range(i + 1, 10):
            assert not np.array_equal(out.params[i].values, out.params[j].values)


def test_deep_ensemble_members_keep_every_setting_but_the_seed(moons, monkeypatch):
    cfgs = []
    arch = M.ArchSpec((2, 4, 2))
    monkeypatch.setattr(S, "train", lambda data, arch, cfg: cfgs.append(cfg) or M.init_params(arch, cfg.seed))
    base = M.TrainConfig(lr=1e-2, weight_decay=0.0, epochs=7, batch_size=16, seed=3)
    S.deep_ensemble(moons, arch, 3, base)
    assert cfgs == [replace(base, seed=3 + i) for i in range(3)]


def test_mc_dropout_requires_dropout():
    arch = M.ArchSpec((2, 8, 2))
    params = M.init_params(arch, 0)
    with pytest.raises(ValueError):
        S.mc_dropout(params, 10)


def test_mc_dropout_vanishing_rate_matches_deterministic(moons):
    arch = M.ArchSpec((2, 10, 2), dropout_prob=1e-9)
    params = M.train(moons, arch, M.TrainConfig(epochs=100, seed=1))
    x = np.array([0.4, 0.3])
    out = S.mc_dropout(params, 20, seed=3)
    base = M.predict_batch(params, x)[0]
    preds = out.predictions(x)
    assert preds.shape == (20, 1, 2)
    assert np.abs(preds[:, 0] - base).max() < 1e-6


def test_mc_dropout_seeded(moons):
    arch = M.ArchSpec((2, 10, 2), dropout_prob=0.2)
    params = M.train(moons, arch, M.TrainConfig(epochs=100, seed=1))
    x = np.array([0.4, 0.3])
    a = S.mc_dropout(params, 25, seed=9)
    b = S.mc_dropout(params, 25, seed=9)
    assert np.array_equal(a.predictions(x), b.predictions(x))
    # the masks are drawn once: every point sees the same mask stream
    rng = derive_rng(9)
    xs = np.array([x, [1.0, -0.2], [-0.5, 0.8]])
    expected = np.stack([M.predict_batch(params, xs, M.make_dropout_masks(params.arch, rng)) for _ in range(25)])
    assert np.array_equal(a.predictions(xs), expected)


def test_mc_dropout_far_point_more_epistemic(moons):
    # far point beyond the lower moon's end vs the median training point
    arch = M.ArchSpec((2, 16, 2), dropout_prob=0.2)
    params = M.train(moons, arch, M.TrainConfig(epochs=200, seed=2))
    preds = S.mc_dropout(params, 300, seed=0).predictions(np.vstack([[3.0, 0.5], moons.x[::10]]))
    far, *train = decompose_a("categorical", preds, np.ones(300))
    assert far.epistemic > np.median([br.epistemic for br in train])


# -- cyclical SG-HMC -----------------------------------------------------------


def test_cosine_schedule_endpoints():
    assert S.cosine_step_size(0.1, 0, 100) == pytest.approx(0.1, abs=1e-15)
    assert S.cosine_step_size(0.1, 99, 100) <= 1e-3 * 0.1


def test_csghmc_zero_step_size_stays_at_init(moons):
    arch = M.ArchSpec((2, 6, 2))
    init = M.init_params(arch, 3)
    out = S.csghmc(moons, arch, cycles=1, steps_per_cycle=20, step_size=0.0, seed=3)
    for p in out.params:
        assert np.array_equal(p.values, init.values)


def test_csghmc_conjugate_gaussian_posterior_mean():
    # constant-input model: y ~ N(bias, 1) with prior precision lam on the
    # bias gives an analytic posterior N(sum(y)/(n+lam), 1/(n+lam))
    rng = derive_rng(4)
    n = 40
    y = rng.normal(1.5, 1.0, size=n)
    data = LabeledDataset(np.zeros((n, 1)), y, "regression")
    arch = M.ArchSpec((1, 1), head="gaussian_scalar")
    lam = 1.0
    post_mean = y.sum() / (n + lam)
    post_var = 1.0 / (n + lam)
    out = S.csghmc(data, arch, cycles=6, steps_per_cycle=400, step_size=2e-4, seed=1, friction=0.1, prior_precision=lam, tail_fraction=0.5)
    bias_draws = np.array([p.values[1] for p in out.params])
    stderr = np.sqrt(post_var) / np.sqrt(len(bias_draws) / 10.0)  # conservative autocorrelation discount
    assert abs(bias_draws.mean() - post_mean) < 3 * max(stderr, np.sqrt(post_var) / 3)


def test_csghmc_diagnostics_present(moons):
    out = S.csghmc(moons, M.ArchSpec((2, 4, 2)), cycles=2, steps_per_cycle=30, step_size=1e-4, seed=0)
    assert out.diagnostics["cycles"] == 2
    assert len(out.diagnostics["step_sizes"]) == 60
    assert out.diagnostics["step_sizes"][0] == pytest.approx(1e-4)


@pytest.mark.parametrize("batch_size", [None, 50])
def test_csghmc_is_a_loop_of_fresh_passes_bit_for_bit(moons, batch_size):
    # the update `csghmc` runs, written with a new forward pass, loss and `Backprop` at every step
    arch = M.ArchSpec((2, 6, 5, 2))
    steps, step0, friction, temperature, prior = 8, 1e-3, 0.05, 0.7, 2.0
    out = S.csghmc(moons, arch, cycles=2, steps_per_cycle=steps, step_size=step0, temperature=temperature, seed=7, batch_size=batch_size, prior_precision=prior)
    rng = derive_rng(7)
    values = M.init_params(arch, 7).values
    velocity = np.zeros_like(values)
    n = len(moons)
    batch = n if batch_size is None else batch_size
    targets = M.target_rows(arch, moons.y)
    draws = []
    for _ in range(2):
        for t in range(steps):
            lr = S.cosine_step_size(step0, t, steps)
            idx = rng.choice(n, size=batch, replace=False) if batch < n else np.arange(n)
            params = M.ModelParams(arch, values)
            acts = M.forward(params, moons.x[idx])
            grad_out = M.cross_entropy(arch, acts[-1], targets[idx])[1]
            bufs, dz = [a.swapaxes(-1, -2) for a in acts], grad_out.swapaxes(-1, -2)
            grad_u = n * M.Backprop(arch, params.layers(), bufs, dz, np.empty(values.shape)).run() + prior * values
            noise_scale = np.sqrt(2.0 * friction * lr * temperature) if lr > 0 else 0.0
            velocity = (1.0 - friction) * velocity - lr * grad_u + noise_scale * rng.standard_normal(values.size)
            values = values + velocity
            if t >= 6:
                draws.append(values)
    assert np.array([p.values for p in out.params]).tobytes() == np.array(draws).tobytes()


# -- HMC -----------------------------------------------------------------------


def stacked(f):
    """A stacked callback, (K, P) positions to K results, that runs `f` on each row."""
    return lambda qs: np.array([f(q) for q in qs])


def correlated_gaussian():
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    prec = np.linalg.inv(cov)

    def logp(q):
        return -0.5 * q @ prec @ q

    def grad(q):
        return -prec @ q

    return cov, stacked(logp), stacked(grad)


def test_hmc_recovers_covariance():
    cov, logp, grad = correlated_gaussian()
    out = S.hmc(logp, grad, np.zeros(2), n_samples=8000, n_leapfrog=20, step_size=0.2, seed=1, burn_in=1000, auto_tune=True)
    emp = np.cov(out.draws.T)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.1
    assert 0.5 <= out.diagnostics["acceptance_rate"] <= 0.99


def test_hmc_acceptance_rate_high_after_tuning():
    cov, logp, grad = correlated_gaussian()
    out = S.hmc(logp, grad, np.zeros(2), n_samples=2000, n_leapfrog=20, step_size=0.05, seed=2, burn_in=1000, auto_tune=True)
    assert out.diagnostics["sampling_acceptance_rate"] >= 0.9


def test_hmc_energy_error_leaves_out_burn_in():
    # burn-in starts 100 standard deviations out, where a leapfrog step's
    # energy error is 10^4 times that at the mode; the sampling phase
    # runs at the mode, where it is about 1e-3 at this step size
    out = S.hmc(stacked(lambda q: -0.5 * float(q @ q)), lambda qs: -qs, np.array([100.0]), n_samples=200, n_leapfrog=10, step_size=0.1, seed=0, burn_in=200)
    assert out.diagnostics["mean_abs_energy_error"] < 0.005


def test_leapfrog_energy_error_scales_quadratically():
    cov, logp, grad = correlated_gaussian()

    def mean_abs_dh(eps, n_steps, seed=0):
        rng = derive_rng(seed)
        errs = []
        for _ in range(300):
            q = rng.multivariate_normal(np.zeros(2), cov)[None]
            p = rng.standard_normal(2)[None]
            h0 = -logp(q)[0] + 0.5 * p[0] @ p[0]
            q1, p1 = S.leapfrog(q, p, grad, eps, n_steps)
            errs.append(abs(-logp(q1)[0] + 0.5 * p1[0] @ p1[0] - h0))
        return np.mean(errs)

    ratio = mean_abs_dh(0.2, 16) / mean_abs_dh(0.1, 32)  # same trajectory time
    assert 3.5 <= ratio <= 4.5


def test_hmc_zero_leapfrog_never_moves():
    _, logp, grad = correlated_gaussian()
    out = S.hmc(logp, grad, np.array([2.0, -1.0]), n_samples=50, n_leapfrog=0, step_size=0.1, seed=3)
    assert np.allclose(out.draws, out.draws[0])


@pytest.mark.parametrize("setting", [{"n_leapfrog": -1}, {"n_samples": 0}, {"burn_in": -1}, {"thin": 0}])
def test_hmc_rejects_settings_that_do_no_work(setting):
    _, logp, grad = correlated_gaussian()
    kwargs = dict(n_samples=5, n_leapfrog=3, step_size=0.1, seed=0) | setting
    with pytest.raises(ValueError):
        S.hmc(logp, grad, np.zeros(2), **kwargs)


@pytest.mark.parametrize("x0, seed", [(np.zeros(2), [1, 2]), (np.zeros((3, 2)), [1, 2]), (np.zeros((1, 2)), 1)], ids=["vector_for_two_seeds", "three_rows_for_two_seeds", "stack_for_one_seed"])
def test_hmc_needs_one_start_row_per_seed(x0, seed):
    _, logp, grad = correlated_gaussian()
    with pytest.raises(ValueError):
        S.hmc(logp, grad, x0, n_samples=5, n_leapfrog=3, step_size=0.1, seed=seed)


def test_csghmc_rejects_empty_cycles(moons):
    with pytest.raises(ValueError):
        S.csghmc(moons, M.ArchSpec((2, 4, 2)), cycles=1, steps_per_cycle=0, step_size=1e-4)


def test_hmc_aborts_on_hundred_rejections():
    # a pathological step size on a narrow target rejects everything
    def logp(q):
        with np.errstate(over="ignore"):  # the target's own overflow at a rejected proposal
            return -0.5 * 1e8 * q @ q

    def grad(q):
        return -1e8 * q

    with pytest.raises(S.HMCAborted, match=r"chain 0 \(seed 4\)"):
        S.hmc(stacked(logp), stacked(grad), np.array([1.0]), n_samples=300, n_leapfrog=30, step_size=1.0, seed=4)


def test_lock_step_abort_names_the_chain_and_its_seed():
    # chain 1's target is 1e8 times narrower: at this step size only it rejects everything
    scale = np.array([[1.0], [1e8], [1.0]])

    def logp(qs):
        with np.errstate(over="ignore"):  # the target's own overflow at a rejected proposal
            return -0.5 * (scale * qs * qs).sum(axis=1)

    with pytest.raises(S.HMCAborted, match=r"^chain 1 \(seed 8\): 100 consecutive rejections"):
        S.hmc(logp, lambda qs: -scale * qs, np.ones((3, 1)), n_samples=300, n_leapfrog=30, step_size=1.0, seed=[7, 8, 9])


@pytest.mark.parametrize("abort_test", [test_hmc_aborts_on_hundred_rejections, test_lock_step_abort_names_the_chain_and_its_seed])
def test_aborting_chains_warn_nothing_from_quam(abort_test):
    # an energy error that overflows is a rejection, not a warning; the targets' own overflows are the tests'
    with warnings.catch_warnings():
        warnings.filterwarnings("error", category=RuntimeWarning, module=r"quam\.")
        abort_test()


def test_hmc_seed_deterministic():
    _, logp, grad = correlated_gaussian()
    a = S.hmc(logp, grad, np.zeros(2), n_samples=200, n_leapfrog=10, step_size=0.3, seed=7)
    b = S.hmc(logp, grad, np.zeros(2), n_samples=200, n_leapfrog=10, step_size=0.3, seed=7)
    assert np.array_equal(a.draws, b.draws)


def test_hmc_posterior_wraps_models(moons):
    arch = M.ArchSpec((2, 4, 2))
    out = S.hmc_posterior(moons, arch, prior_precision=1e-2, n_samples=30, n_leapfrog=10, step_size=1e-3, seed=0, burn_in=50)
    assert len(out.params) == 30
    assert all(p.arch == arch for p in out.params)
    assert "acceptance_rate" in out.diagnostics


def test_hmc_posterior_chain_matches_a_chain_on_tape_gradients(moons):
    # the closed-form gradient must reproduce the Tape's to rounding: a
    # chain amplifies any larger difference until the draws decorrelate.
    # The bias enters through the GEMM's ones row, not the Tape's separate
    # sum, so the bits differ.  The chains accept and reject the same
    # proposals and tune the same step sizes; the mean energy error, a mean
    # of differences of two large Hamiltonians, agrees to rounding
    arch = M.ArchSpec((2, 6, 5, 2))
    prior = 1e-2
    out = S.hmc_posterior(moons, arch, prior_precision=prior, n_samples=20, n_leapfrog=8, step_size=2e-3, seed=4, burn_in=30)

    def logp(v):
        return M.log_posterior(M.ModelParams(arch, v), moons, prior)

    targets = M.target_rows(arch, moons.y)

    def grad(v):
        return -len(moons) * tape_loss_and_grad(M.ModelParams(arch, v), moons.x, targets)[1] - prior * v

    oracle = S.hmc(stacked(logp), stacked(grad), M.init_params(arch, 4).values, 20, 8, 2e-3, seed=4, burn_in=30, auto_tune=True)
    draws = np.array([p.values for p in out.params])
    assert np.abs(draws - oracle.draws).max() <= 1e-12 * np.abs(oracle.draws).max()
    energy_error = out.diagnostics.pop("mean_abs_energy_error")
    assert energy_error == pytest.approx(oracle.diagnostics.pop("mean_abs_energy_error"), rel=1e-9)
    assert out.diagnostics == oracle.diagnostics


def sine_data():
    rng = derive_rng(21)
    x = rng.uniform(-3.0, 3.0, size=(50, 1))
    return LabeledDataset(x, np.sin(x[:, 0]) + 0.1 * rng.normal(size=50), "regression")


WORKSPACE_MODELS = [
    ((2, 16, 16, 2), "categorical"),
    ((2, 6, 5, 2), "categorical"),
    ((1, 16, 2), "gaussian_scalar"),
    ((1, 16, 1), "gaussian_scalar"),
]


@pytest.mark.parametrize("widths, head", WORKSPACE_MODELS)
@pytest.mark.parametrize("k", [1, 3])
def test_workspace_gradient_and_log_density_are_the_models_bit_for_bit(moons, widths, head, k):
    # the workspace's gradient is -n * loss_and_grad - prior * v, and its log
    # density log_posterior, for each chain of a stack
    data = moons if head == "categorical" else sine_data()
    arch = M.ArchSpec(widths, head=head)
    prior = 1e-2
    targets = M.target_rows(arch, data.y)
    ws = S._PosteriorWorkspace(data, arch, prior, k)
    for seed in (0, 5):
        qs = np.stack([M.init_params(arch, seed + c).values for c in range(k)]) * 3.0
        fresh = ws.log_density(qs)  # no gradient at qs yet: a forward pass of its own
        grads = ws.grad_log_density(qs)
        at_end = ws.log_density(qs)  # read from the gradient's pass
        for c, v in enumerate(qs):
            params = M.ModelParams(arch, v)
            assert grads[c].tobytes() == (-len(data) * M.loss_and_grad(params, data.x, targets)[1] - prior * v).tobytes()
            expected = struct.pack("<d", M.log_posterior(params, data, prior))
            assert struct.pack("<d", fresh[c]) == struct.pack("<d", at_end[c]) == expected


def test_lock_step_chains_are_their_single_chain_runs(moons):
    arch = M.ArchSpec((2, 6, 5, 2))
    kw = dict(prior_precision=1e-2, n_samples=15, n_leapfrog=6, step_size=2e-3, burn_in=40, thin=2)
    chains = S.hmc_posterior(moons, arch, seed=[3, 11, 12], **kw)
    assert len(chains) == 3
    for seed, chain in zip([3, 11, 12], chains):
        alone = S.hmc_posterior(moons, arch, seed=seed, **kw)
        assert np.array([p.values for p in chain.params]).tobytes() == np.array([p.values for p in alone.params]).tobytes()
        assert chain.diagnostics == alone.diagnostics


def test_tuned_generic_chains_are_their_solo_runs():
    # the chains share one tuning window, yet each tunes its own step size:
    # here they end on different ones, each that of its solo run
    _, logp, grad = correlated_gaussian()
    starts, seeds = np.array([[0.0, 0.0], [3.0, -2.0], [10.0, 10.0]]), [5, 6, 7]
    kw = dict(n_samples=40, n_leapfrog=7, step_size=0.2, burn_in=130, auto_tune=True, thin=3)
    chains = S.hmc(logp, grad, starts, seed=seeds, **kw)
    assert len({chain.diagnostics["step_size"] for chain in chains}) > 1
    for x0, seed, chain in zip(starts, seeds, chains):
        alone = S.hmc(logp, grad, x0, seed=seed, **kw)
        assert chain.draws.tobytes() == alone.draws.tobytes()
        assert chain.diagnostics == alone.diagnostics
