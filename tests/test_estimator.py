import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from quam import estimator as E
from quam import models as M
from quam.data import gen_two_moons
from quam.measures import decompose_a, decompose_b
from quam.rng import derive_rng
from quam.search import SearchConfig


@pytest.fixture(scope="module")
def moons_setup():
    data = gen_two_moons(120, noise=0.1, seed=0)
    ref = M.train(data, M.ArchSpec((2, 12, 2)), M.TrainConfig(epochs=200, seed=0))
    return data, ref


def test_quam_score_zero_lr_gives_zero_epistemic(moons_setup):
    data, ref = moons_setup
    cfg = SearchConfig(steps=2, lr=0.0, seed=0)
    (br,), _ = E.quam_scores(np.array([-1.0, 1.0]), data, ref, cfg, temperature=0.1)
    assert br.epistemic == pytest.approx(0.0, abs=1e-12)
    assert "no_feasible_adversary" in br.flags


def test_quam_score_flags_a_point_where_only_some_searches_found_no_adversary(moons_setup):
    data, ref = moons_setup
    cfg = SearchConfig(steps=40, lr=2e-2, seed=0)
    xs = np.array([[-1.0, 1.0], [0.5, 0.5]])
    (clean, partial), suites = E.quam_scores(xs, data, ref, cfg, temperature=0.1, setting="b")
    assert [t.no_feasible for t in suites[0]] == [False, False]
    assert clean.flags == ()
    assert [t.no_feasible for t in suites[1]] == [False, True]
    assert partial.flags == ("partial_no_feasible_adversary",)
    # the flag changes nothing else: the pool keeps every search's models
    preds, w = E.pool_trajectories(suites[1], 0.1)
    (pooled,) = decompose_b("categorical", M.predict_batch(ref, xs[1][None]), preds[:, None], w)
    assert dataclasses.replace(partial, flags=()) == pooled


def test_quam_score_rejects_a_point_without_a_class_to_search(moons_setup):
    data, ref = moons_setup
    with pytest.raises(ValueError, match="at least one class"):
        E.quam_scores(np.array([[-1.0, 1.0], [0.5, 0.5]]), data, ref, SearchConfig(steps=2), temperature=0.1, classes=[[0], []])


def test_quam_score_far_point_exceeds_train_point(moons_setup):
    data, ref = moons_setup
    cfg = SearchConfig(steps=80, lr=2e-2, seed=0)
    (far,), _ = E.quam_scores(np.array([-1.2, 1.2]), data, ref, cfg, temperature=0.1)
    (near,), _ = E.quam_scores(data.x[30], data, ref, cfg, temperature=0.1)
    assert far.epistemic > near.epistemic


def test_quam_score_setting_a_consistency(moons_setup):
    data, ref = moons_setup
    cfg = SearchConfig(steps=40, lr=2e-2, seed=0)
    (br,), _ = E.quam_scores(np.array([-1.0, 1.0]), data, ref, cfg, temperature=0.1, setting="a")
    # mutual-information identity at the sample level
    assert br.total == pytest.approx(br.aleatoric + br.epistemic, abs=1e-10)


def test_pooled_samples_weighting_two_models():
    # one sample equals the reference, one diverges by ln 2 at equal loss:
    # equal weights average to half the divergence
    ref = np.array([[1.0, 0.0]])
    preds = np.array([[[1.0, 0.0]], [[0.5, 0.5]]])
    (br,) = decompose_b("categorical", ref, preds, np.exp([-1.0, -1.0]))
    assert br.epistemic == pytest.approx(0.5 * np.log(2.0), abs=1e-12)


def test_setting_a_two_onehots():
    (br,) = decompose_a("categorical", np.array([[[1.0, 0.0]], [[0.0, 1.0]]]), np.ones(2))
    assert br.epistemic == pytest.approx(np.log(2.0), abs=1e-12)


def test_weight_shift_invariance(moons_setup):
    # adding a constant to every training loss must not change the score
    data, ref = moons_setup
    cfg = SearchConfig(steps=30, lr=2e-2, seed=0)
    _, (trajs,) = E.quam_scores(np.array([-1.0, 1.0]), data, ref, cfg, temperature=0.1)
    shifted = [dataclasses.replace(t, mean_train_loss=t.mean_train_loss + 12.3456) for t in trajs]
    preds1, w1 = E.pool_trajectories(trajs, 0.1)
    preds2, w2 = E.pool_trajectories(shifted, 0.1)
    assert np.array_equal(preds1, preds2)
    assert np.allclose(w1, w2, atol=1e-12)


def test_pool_trajectories_rejects_nonfinite_losses(moons_setup):
    data, ref = moons_setup
    _, (trajs,) = E.quam_scores(np.array([-1.0, 1.0]), data, ref, SearchConfig(steps=5, seed=0), temperature=0.1)
    for loss in (np.inf, np.nan):
        broken = [dataclasses.replace(trajs[0], mean_train_loss=np.r_[loss, trajs[0].mean_train_loss[1:]])]
        with pytest.raises(ValueError):
            E.pool_trajectories(broken + trajs[1:], 0.1)


def pooled(losses):
    """Trajectories whose record columns carry these training losses, one record each."""
    return [SimpleNamespace(pred=np.array([[0.5, 0.5]]), mean_train_loss=np.array([float(loss)])) for loss in losses]


def test_pool_trajectories_weight_values():
    data = gen_two_moons(40, noise=0.1, seed=12)
    losses = np.array([M.mean_train_loss(M.init_params(M.ArchSpec((2, 4, 2)), s), data) for s in range(3)])
    _, w = E.pool_trajectories(pooled(losses), 1.0)
    assert w == pytest.approx(np.exp(-losses) / np.exp(-losses).sum())


def test_pool_trajectories_weight_ratio():
    # losses {0.1, 0.2} at T=0.05 give a ratio of e^2
    _, (w1, w2) = E.pool_trajectories(pooled([0.1, 0.2]), 0.05)
    assert w1 / w2 == pytest.approx(np.exp(2.0), rel=1e-12)


def test_pool_trajectories_weights_monotone_in_loss():
    data = gen_two_moons(40, noise=0.1, seed=12)
    losses = np.array([M.mean_train_loss(M.init_params(M.ArchSpec((2, 6, 2)), s), data) for s in range(6)])
    for temp in (0.05, 0.5, 2.0):
        _, weights = E.pool_trajectories(pooled(losses), temp)
        assert np.array_equal(np.argsort(-weights), np.argsort(losses))


def test_quam_epistemic_invariant_under_sample_permutation(moons_setup):
    data, ref = moons_setup
    cfg = SearchConfig(steps=30, lr=2e-2, seed=0)
    _, (trajs,) = E.quam_scores(np.array([-1.0, 1.0]), data, ref, cfg, temperature=0.1)
    preds, w = E.pool_trajectories(trajs, 0.1)
    ref_row = M.predict_batch(ref, np.array([[-1.0, 1.0]]))
    (br1,) = decompose_b("categorical", ref_row, preds[:, None], w)
    perm = derive_rng(5).permutation(len(preds))
    (br2,) = decompose_b("categorical", ref_row, preds[perm, None], w[perm])
    assert br1.epistemic == pytest.approx(br2.epistemic, abs=1e-12)


# -- idealized estimators ------------------------------------------------------


def test_mis_estimate_trivial():
    assert E.mis_estimate([0.3, 0.7], [0.3, 0.7]) == pytest.approx(1.0, abs=1e-15)
    assert E.mis_estimate([2.0], [1.0]) == 2.0


def test_mis_estimate_matches_quadrature_on_bimodal():
    rng = derive_rng(0)

    def u(x):
        return 0.5 * np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi) + 0.5 * np.exp(-0.5 * (x - 4.0) ** 2) / np.sqrt(2 * np.pi)

    def q(x):
        return 0.5 * np.exp(-0.5 * x**2 / 1.5**2) / (1.5 * np.sqrt(2 * np.pi)) + 0.5 * np.exp(-0.5 * (x - 4.0) ** 2 / 1.5**2) / (1.5 * np.sqrt(2 * np.pi))

    truth, _ = quad(u, -30, 30)
    comps = rng.integers(0, 2, size=10_000)
    xs = rng.normal(0, 1.5, size=10_000) + 4.0 * comps
    ratios = u(xs) / q(xs)
    est = E.mis_estimate(u(xs), q(xs))
    stderr = ratios.std(ddof=1) / np.sqrt(len(xs))
    assert abs(est - truth) < 3 * stderr


def test_mis_estimate_squared_error_within_4_over_n_bound():
    # bounded-ratio construction: u = 0.5 q1 + 0.5 q2, sample from the mixture
    rng = derive_rng(2)

    def pdf(x, mu, s):
        return np.exp(-0.5 * (x - mu) ** 2 / s**2) / (s * np.sqrt(2 * np.pi))

    def u(x):
        return 0.5 * pdf(x, 0, 1) + 0.5 * pdf(x, 3, 1)

    def q(x):
        return 0.5 * pdf(x, 0, 1.3) + 0.5 * pdf(x, 3, 1.3)

    truth, _ = quad(u, -30, 30)
    n = 200
    errors = []
    bounds = []
    for _ in range(1000):
        comps = rng.integers(0, 2, size=n)
        xs = rng.normal(0, 1.3, size=n) + 3.0 * comps
        est = E.mis_estimate(u(xs), q(xs))
        errors.append((est - truth) ** 2)
        bounds.append(4.0 / n * np.mean((u(xs) / q(xs)) ** 2))  # the sample estimate of the 4/N bound
    assert np.mean(errors) <= np.mean(bounds)


# -- analytic variance study ---------------------------------------------------


def test_variance_zero_when_proposal_matches_target():
    assert E.analytic_variance_study(((1.0, 0.0, 1.0), (0.0, 3.0, 1.0)), (0.0, 1.0)) == pytest.approx(0.0, abs=1e-9)


def test_variance_monotone_in_unmatched_component_width():
    rows = E.variance_sweep("sigma_p2", np.linspace(1.0, 3.0, 9))
    values = [v for _, v in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_variance_monotone_in_unmatched_component_distance():
    rows = E.variance_sweep("mu_p2", np.linspace(3.0, 6.0, 7))
    values = [v for _, v in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_widening_proposal_changes_less_than_moving_mode():
    q_rows = E.variance_sweep("sigma_q", [1.0, 4.0])
    m_rows = E.variance_sweep("mu_p2", [3.0, 6.0])
    q_factor = max(q_rows[1][1], q_rows[0][1]) / min(q_rows[1][1], q_rows[0][1])
    m_factor = m_rows[1][1] / m_rows[0][1]
    assert q_factor < m_factor


def test_mixture_proposal_variance_reduction():
    # two-mode integrand: a proposal covering both modes beats a single-mode
    # proposal of equal total mass by far more than 5x in repeated-estimate
    # variance
    rng = derive_rng(3)

    def pdf(x, mu, s):
        return np.exp(-0.5 * (x - mu) ** 2 / s**2) / (s * np.sqrt(2 * np.pi))

    def u(x):
        return 0.5 * pdf(x, 0, 1) + 0.5 * pdf(x, 3, 1)

    n = 1000
    single_estimates = []
    mixture_estimates = []
    for _ in range(100):
        xs = rng.normal(0, 1, size=n)
        single_estimates.append(E.mis_estimate(u(xs), pdf(xs, 0, 1)))
        comps = rng.integers(0, 2, size=n)
        xm = rng.normal(0, 1.5, size=n) + 3.0 * comps
        qm = 0.5 * pdf(xm, 0, 1.5) + 0.5 * pdf(xm, 3, 1.5)
        mixture_estimates.append(E.mis_estimate(u(xm), qm))
    assert np.var(single_estimates) >= 5.0 * np.var(mixture_estimates)
