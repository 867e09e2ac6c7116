import numpy as np
import pytest
from scipy.integrate import quad

from quam import measures as U
from quam.models import Categorical, GaussianScalar
from quam.rng import derive_rng


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
