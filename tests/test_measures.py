import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from quam import measures as U
from quam import models as M
from quam.data import gen_sine
from quam.estimator import pool_trajectories, quam_score
from quam.models import Categorical, GaussianScalar
from quam.rng import derive_rng
from quam.search import SearchConfig


def random_simplex(rng, k):
    p = rng.dirichlet(np.ones(k))
    return p / p.sum()


def test_entropy_onehot_zero():
    assert U.entropy_cat([1.0, 0.0, 0.0]) == 0.0


def test_entropy_uniform_maximal():
    assert U.entropy_cat([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(np.log(3.0), abs=1e-12)


def test_entropy_quarter_three_quarters():
    # oracle: direct high-precision summation
    expected = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
    assert U.entropy_cat([0.25, 0.75]) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.5623351446188083, abs=1e-12)


def test_cross_entropy_definition_cases():
    p = [0.3, 0.7]
    assert U.cross_entropy_cat(p, p) == pytest.approx(U.entropy_cat(p), abs=1e-12)
    assert U.cross_entropy_cat([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0), abs=1e-12)


def test_cross_entropy_support_violation_is_infinite():
    assert U.cross_entropy_cat([0.5, 0.5], [1.0, 0.0]) == float("inf")
    assert U.kl_cat([0.5, 0.5], [1.0, 0.0]) == float("inf")


def test_kl_cases():
    assert U.kl_cat([0.2, 0.8], [0.2, 0.8]) == pytest.approx(0.0, abs=1e-15)
    assert U.kl_cat([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0), abs=1e-12)


def test_ce_equals_h_plus_kl_on_many_random_pairs():
    rng = derive_rng(0)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 8))
        p, q = random_simplex(rng, k), random_simplex(rng, k)
        gap = abs(U.cross_entropy_cat(p, q) - (U.entropy_cat(p) + U.kl_cat(p, q)))
        worst = max(worst, gap)
    assert worst < 1e-12


def test_kl_nonnegative_and_zero_iff_equal():
    rng = derive_rng(1)
    for _ in range(500):
        p, q = random_simplex(rng, 4), random_simplex(rng, 4)
        kl = U.kl_cat(p, q)
        assert kl >= 0.0
        if kl < 1e-12:
            assert np.abs(p - q).max() < 1e-5
    assert U.kl_cat([0.4, 0.6], [0.4, 0.6]) == pytest.approx(0.0, abs=1e-15)


def test_entropy_gauss_closed_form():
    assert U.entropy_gauss(1.0 / (2.0 * np.pi * np.e)) == pytest.approx(0.0, abs=1e-12)
    assert U.entropy_gauss(1.0) == pytest.approx(0.5 * np.log(2 * np.pi) + 0.5, abs=1e-12)
    assert U.entropy_gauss(2.0) - U.entropy_gauss(1.0) == pytest.approx(0.5 * np.log(2.0), abs=1e-12)


def test_kl_gauss_cases():
    p = GaussianScalar(0.0, 1.0)
    assert U.kl_gauss(p, p) == 0.0
    assert U.kl_gauss(GaussianScalar(0.0, 1.0), GaussianScalar(1.0, 1.0)) == pytest.approx(0.5, abs=1e-12)


def _kl_gauss_quadrature(p, q):
    def integrand(y):
        lp = -0.5 * (y - p.mean) ** 2 / p.variance - 0.5 * np.log(2 * np.pi * p.variance)
        lq = -0.5 * (y - q.mean) ** 2 / q.variance - 0.5 * np.log(2 * np.pi * q.variance)
        return np.exp(lp) * (lp - lq)

    lo = p.mean - 14 * np.sqrt(p.variance)
    hi = p.mean + 14 * np.sqrt(p.variance)
    val, _ = quad(integrand, lo, hi, limit=300)
    return val


def test_kl_gauss_against_quadrature_spot():
    p, q = GaussianScalar(0.0, 1.0), GaussianScalar(3.0, 2.0)
    assert U.kl_gauss(p, q) == pytest.approx(_kl_gauss_quadrature(p, q), abs=1e-6)


def test_kl_gauss_against_quadrature_many():
    rng = derive_rng(2)
    for _ in range(100):
        p = GaussianScalar(rng.uniform(-5, 5), rng.uniform(0.1, 10))
        q = GaussianScalar(rng.uniform(-5, 5), rng.uniform(0.1, 10))
        assert U.kl_gauss(p, q) == pytest.approx(_kl_gauss_quadrature(p, q), abs=1e-6)


def test_decompose_a_identical_samples():
    d = Categorical([0.2, 0.8])
    br = U.decompose_a([(d, 1.0), (d, 2.0), (d, 0.5)])
    assert br.epistemic == pytest.approx(0.0, abs=1e-12)
    assert br.total == pytest.approx(br.aleatoric, abs=1e-12)


def test_decompose_a_disagreeing_onehots():
    br = U.decompose_a([(Categorical([1.0, 0.0]), 1.0), (Categorical([0.0, 1.0]), 1.0)])
    assert br.aleatoric == pytest.approx(0.0, abs=1e-12)
    assert br.epistemic == pytest.approx(np.log(2.0), abs=1e-12)


def test_decompose_a_additivity_random():
    rng = derive_rng(3)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 7))
        samples = [(Categorical(random_simplex(rng, k)), float(rng.uniform(0.01, 2.0))) for _ in range(n)]
        br = U.decompose_a(samples)
        assert abs(br.total - (br.aleatoric + br.epistemic)) < 1e-10


def test_decompose_a_epistemic_equals_mutual_information():
    # mutual information computed independently as H[mixture] - E[H]
    rng = derive_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        samples = [(Categorical(random_simplex(rng, k)), float(rng.uniform(0.1, 1.0))) for _ in range(5)]
        br = U.decompose_a(samples)
        w = np.array([wt for _, wt in samples])
        w = w / w.sum()
        probs = np.vstack([d.probs for d, _ in samples])
        mi = U.entropy_cat(w @ probs) - sum(wi * U.entropy_cat(p) for wi, p in zip(w, probs))
        assert abs(br.epistemic - mi) < 1e-10


def test_decompose_a_matches_per_sample_formula_with_exact_zeros():
    rng = derive_rng(6)
    for _ in range(300):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 9))
        probs = rng.dirichlet(np.ones(k), size=n)
        probs[rng.random((n, k)) < 0.3] = 0.0  # exact zeros, some whole classes unsupported
        probs[probs.sum(axis=1) == 0.0, 0] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        weights = rng.uniform(0.01, 2.0, n)
        br = U.decompose_a([(Categorical(p), wt) for p, wt in zip(probs, weights)])
        w = weights / weights.sum()
        bma = w @ probs
        assert abs(br.total - U.entropy_cat(bma)) < 1e-12
        assert abs(br.aleatoric - sum(wi * U.entropy_cat(p) for wi, p in zip(w, probs))) < 1e-12
        assert abs(br.epistemic - sum(wi * U.kl_cat(p, bma) for wi, p in zip(w, probs))) < 1e-12


def test_decompose_a_rejects_empty():
    with pytest.raises(ValueError):
        U.decompose_a([])


def test_decompose_a_gaussian_additivity():
    samples = [(GaussianScalar(0.0, 1.0), 1.0), (GaussianScalar(2.0, 0.5), 1.0)]
    br = U.decompose_a(samples)
    assert br.total == pytest.approx(br.aleatoric + br.epistemic, abs=1e-10)
    assert br.epistemic > 0.1  # clearly separated means


def _log_gauss_mixture(y, means, variances, w):
    a = np.log(w) - 0.5 * (y - means) ** 2 / variances - 0.5 * np.log(2 * np.pi * variances)
    top = a.max()
    return top + np.log(np.exp(a - top).sum())


def _mixture_entropy_quadrature(means, variances, w):
    def integrand(y):
        log_m = _log_gauss_mixture(y, means, variances, w)
        return -np.exp(log_m) * log_m

    sd = np.sqrt(variances)
    lo, hi = (means - 12 * sd).min(), (means + 12 * sd).max()
    val, _ = quad(integrand, lo, hi, points=np.sort(means), limit=100 * len(means), epsabs=0.0, epsrel=1e-12)
    return val


def _kl_vs_mixture_quadrature(mean, var, means, variances, w):
    def integrand(y):
        lp = -0.5 * (y - mean) ** 2 / var - 0.5 * np.log(2 * np.pi * var)
        return np.exp(lp) * (lp - _log_gauss_mixture(y, means, variances, w))

    sd = np.sqrt(var)
    val, _ = quad(integrand, mean - 12 * sd, mean + 12 * sd, limit=400, epsabs=0.0, epsrel=1e-11)
    return val


def test_decompose_a_gaussian_matches_quadrature_on_random_mixtures():
    # total = H[mixture], so its quadrature checks the epistemic part
    rng = derive_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 41))
        means = rng.uniform(-3, 3, k)
        variances = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), k))
        w = rng.uniform(0.01, 1.0, k)
        w /= w.sum()
        br = U.decompose_a([(GaussianScalar(m, v), wt) for m, v, wt in zip(means, variances, w)])
        assert br.aleatoric == pytest.approx(sum(wt * U.entropy_gauss(v) for wt, v in zip(w, variances)), abs=1e-12)
        err = abs(br.total - _mixture_entropy_quadrature(means, variances, w))
        if k == 1:
            assert br.epistemic == 0.0 and err < 1e-12
        else:
            assert err <= 1e-8 * br.epistemic


def test_decompose_a_gaussian_matches_quadrature_on_sine_pooled_set():
    # sine seed 0, 1-16-2 Gaussian head, x = -5: weights down to 1e-319,
    # most of them exact zeros, and variances from 1e-24 up
    data = gen_sine(200, seed=0)
    ref = M.train(data, M.ArchSpec((1, 16, 2), head="gaussian_scalar"), M.TrainConfig(epochs=300, seed=0))
    _, trajs = quam_score(np.array([-5.0]), data, ref, SearchConfig(steps=100, lr=0.01, seed=0), 0.1, setting="a", return_trajectories=True)
    samples = pool_trajectories(trajs, 0.1)
    logw = np.array([s.log_weight for s in samples])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    assert (w == 0.0).any()
    br = U.decompose_a([(s.dist, wt) for s, wt in zip(samples, w)])
    keep = w > 0
    means = np.array([s.dist.mean for s in samples])[keep]
    variances = np.array([s.dist.variance for s in samples])[keep]
    kls = [_kl_vs_mixture_quadrature(m, v, means, variances, w[keep]) for m, v in zip(means, variances)]
    expected = float(w[keep] @ kls)
    assert abs(br.epistemic - expected) <= 1e-8 * expected
    assert br.total == br.aleatoric + br.epistemic


def test_decompose_a_gaussian_drops_zero_weight_samples_exactly():
    rng = derive_rng(8)
    kept = [(GaussianScalar(m, v), wt) for m, v, wt in zip(rng.normal(size=6), rng.uniform(0.1, 2.0, 6), rng.uniform(0.1, 1.0, 6))]
    dropped = [(GaussianScalar(1e6, 1e-36), 0.0), (GaussianScalar(-3.0, 1e12), 0.0)]
    assert U.decompose_a(dropped[:1] + kept + dropped[1:]) == U.decompose_a(kept)


def test_decompose_a_gaussian_extreme_scales_use_component_nodes_in_bounded_memory():
    # a uniform grid at a tenth of the narrowest scale would need about 1e14
    # nodes; zero-weight components of variance 1e-36 must not size the grid
    means = np.array([0.0, 0.3, 2.0, 5.0, -1.0, 0.7])
    variances = np.array([1e-12, 1e12, 1.0, 1e-36, 1e-36, 1e-4])
    w = np.array([0.2, 0.3, 0.3, 0.0, 0.0, 0.2])
    keep = w > 0
    y, _ = U._gauss_nodes(means[keep], np.sqrt(variances[keep]))
    assert len(y) <= keep.sum() * 241  # the union of per-component grids
    tracemalloc.start()
    try:
        br = U.decompose_a([(GaussianScalar(m, v), wt) for m, v, wt in zip(means, variances, w)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.isfinite([br.total, br.aleatoric, br.epistemic]).all()
    assert br.epistemic > 0.0 and br.total == br.aleatoric + br.epistemic


def test_decompose_a_gaussian_scales_below_float_spacing():
    # the split is shift-invariant, also where a standard deviation is far
    # below the spacing of floats at the component's mean
    unit = U.decompose_a([(GaussianScalar(0.0, 1.0), 0.5), (GaussianScalar(0.0, 4.0), 0.5)]).epistemic
    for c in (0.0, 5.0, 1e6):
        br = U.decompose_a([(GaussianScalar(c, 1e-34), 0.5), (GaussianScalar(c, 4e-34), 0.5)])
        assert br.epistemic == pytest.approx(unit, abs=1e-12)
    # two components that do not overlap: epistemic = log 2
    br = U.decompose_a([(GaussianScalar(5.0, 1e-36), 0.5), (GaussianScalar(0.0, 1.0), 0.5)])
    assert br.epistemic == pytest.approx(np.log(2.0), abs=1e-12)


def test_decompose_b_matches_per_sample_kl_with_exact_zeros():
    rng = derive_rng(9)
    violations = 0
    for _ in range(300):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 9))
        probs = rng.dirichlet(np.ones(k), size=n)
        probs[rng.random((n, k)) < 0.15] = 0.0
        probs[probs.sum(axis=1) == 0.0, 0] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        ref = rng.dirichlet(np.ones(k))
        ref[rng.random(k) < 0.3] = 0.0
        ref[0] += ref.sum() == 0.0
        ref /= ref.sum()
        weights = rng.uniform(0.01, 2.0, n)
        br = U.decompose_b(Categorical(ref), [(Categorical(p), wt) for p, wt in zip(probs, weights)])
        kls = np.array([U.kl_cat(ref, p) for p in probs])
        assert abs(br.aleatoric - U.entropy_cat(ref)) < 1e-12
        if np.isinf(kls).any():
            violations += 1
            assert br.support_violation and br.flags == ("support_violation",)
            assert br.epistemic == float("inf") and br.total == float("inf")
        else:
            assert not br.support_violation
            assert abs(br.epistemic - (weights / weights.sum()) @ kls) < 1e-12
    assert 0 < violations < 300
    with pytest.raises(ValueError):
        U.decompose_b(Categorical([0.5, 0.5]), [(Categorical([0.2, 0.3, 0.5]), 1.0)])


def test_decompose_b_gaussian_matches_per_sample_kl():
    rng = derive_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        ref = GaussianScalar(rng.uniform(-3, 3), rng.uniform(0.01, 5.0))
        dists = [GaussianScalar(m, v) for m, v in zip(rng.uniform(-3, 3, n), rng.uniform(0.01, 5.0, n))]
        weights = rng.uniform(0.01, 2.0, n)
        br = U.decompose_b(ref, list(zip(dists, weights)))
        expected = sum(wt * U.kl_gauss(ref, d) for wt, d in zip(weights / weights.sum(), dists))
        assert abs(br.epistemic - expected) < 1e-12
        assert br.aleatoric == U.entropy_gauss(ref.variance)


def test_decompose_b_reference_equal_samples():
    ref = Categorical([0.6, 0.4])
    br = U.decompose_b(ref, [(ref, 1.0), (ref, 1.0)])
    assert br.epistemic == pytest.approx(0.0, abs=1e-12)
    assert br.aleatoric == pytest.approx(U.entropy_cat(ref.probs), abs=1e-12)


def test_decompose_b_support_violation_flagged():
    ref = Categorical([0.5, 0.5])
    br = U.decompose_b(ref, [(Categorical([1.0, 0.0]), 1.0)])
    assert br.support_violation
    assert br.epistemic == float("inf")
    assert br.aleatoric == pytest.approx(np.log(2.0), abs=1e-12)


def test_decompose_b_gaussian_pair():
    ref = GaussianScalar(0.0, 1.0)
    br = U.decompose_b(ref, [(GaussianScalar(1.0, 1.0), 1.0), (GaussianScalar(-1.0, 1.0), 1.0)])
    assert br.epistemic == pytest.approx(0.5, abs=1e-12)


def test_epistemic_homoscedastic():
    assert U.epistemic_homoscedastic(1.0, [1.0, 1.0], [0.3, 0.7], 2.0) == 0.0
    assert U.epistemic_homoscedastic(0.0, [1.0], [1.0], 1.0) == pytest.approx(1.0, abs=1e-15)
    v1 = U.epistemic_homoscedastic(0.0, [1.0, -2.0], [0.5, 0.5], 1.0)
    v2 = U.epistemic_homoscedastic(0.0, [1.0, -2.0], [0.5, 0.5], 2.0)
    assert v1 == pytest.approx(2.0 * v2, abs=1e-12)


def test_breakdown_clamps_tiny_negative():
    br = U.UncertaintyBreakdown("a", 1.0, 1.0, -5e-13)
    assert br.epistemic == 0.0
    br = U.UncertaintyBreakdown("a", -6e-16, -6e-16, 0.0)
    assert br.total == 0.0 and br.aleatoric == 0.0
    with pytest.raises(ValueError):
        U.UncertaintyBreakdown("a", 1.0, 1.0, -1e-6)


def test_breakdown_allows_negative_differential_entropy():
    # a Gaussian with variance below 1/(2 pi e) has negative entropy
    h = U.entropy_gauss(0.01)
    br = U.UncertaintyBreakdown("b", h + 0.25, h, 0.25)
    assert br.total < 0.0 and br.aleatoric == h
