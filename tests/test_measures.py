import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from quam import measures as U
from quam import models as M
from quam.data import gen_sine
from quam.estimator import pool_trajectories, quam_scores
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
    p = np.array([0.0, 1.0])
    assert U.kl_gauss(p, p) == 0.0
    assert U.kl_gauss([0.0, 1.0], [1.0, 1.0]) == pytest.approx(0.5, abs=1e-12)
    for bad in ([0.0, 0.0], [0.0, -1.0], [0.0, np.nan], [0.0, 1.0, 2.0]):
        with pytest.raises(ValueError):
            U.kl_gauss(p, bad)
        with pytest.raises(ValueError):
            U.kl_gauss(bad, p)


def test_gauss_calculus_on_arrays_equals_scalar_calls():
    rng = derive_rng(13)
    p = np.column_stack([rng.uniform(-5, 5, 60), rng.uniform(0.01, 10, 60)]).reshape(3, 20, 2)
    q = np.column_stack([rng.uniform(-5, 5, 20), rng.uniform(0.01, 10, 20)])
    kl = U.kl_gauss(p, q)  # q broadcast over the leading axis
    assert kl.shape == (3, 20)
    assert np.array_equal(kl, [[U.kl_gauss(p[i, j], q[j]) for j in range(20)] for i in range(3)])
    assert np.array_equal(U.kl_gauss(q, p), [[U.kl_gauss(q[j], p[i, j]) for j in range(20)] for i in range(3)])
    h = U.entropy_gauss(p[..., 1])
    assert h.shape == (3, 20)
    assert np.array_equal(h, [[U.entropy_gauss(v) for v in row] for row in p[..., 1]])
    with pytest.raises(ValueError):
        U.entropy_gauss(np.array([1.0, 0.0]))


def _kl_gauss_quadrature(p, q):
    (mp, vp), (mq, vq) = p, q

    def integrand(y):
        lp = -0.5 * (y - mp) ** 2 / vp - 0.5 * np.log(2 * np.pi * vp)
        lq = -0.5 * (y - mq) ** 2 / vq - 0.5 * np.log(2 * np.pi * vq)
        return np.exp(lp) * (lp - lq)

    lo = mp - 14 * np.sqrt(vp)
    hi = mp + 14 * np.sqrt(vp)
    val, _ = quad(integrand, lo, hi, limit=300)
    return val


def test_kl_gauss_against_quadrature_spot():
    p, q = (0.0, 1.0), (3.0, 2.0)
    assert U.kl_gauss(p, q) == pytest.approx(_kl_gauss_quadrature(p, q), abs=1e-6)


def test_kl_gauss_against_quadrature_many():
    rng = derive_rng(2)
    for _ in range(100):
        p = (rng.uniform(-5, 5), rng.uniform(0.1, 10))
        q = (rng.uniform(-5, 5), rng.uniform(0.1, 10))
        assert U.kl_gauss(p, q) == pytest.approx(_kl_gauss_quadrature(p, q), abs=1e-6)


def split_a(head, rows, weights):
    """decompose_a at one point: `rows` holds one prediction per sample."""
    (br,) = U.decompose_a(head, np.asarray(rows, dtype=float)[:, None], weights)
    return br


def split_b(head, ref, rows, weights):
    (br,) = U.decompose_b(head, np.asarray(ref, dtype=float)[None], np.asarray(rows, dtype=float)[:, None], weights)
    return br


def test_decompose_a_identical_samples():
    d = [0.2, 0.8]
    br = split_a("categorical", [d, d, d], [1.0, 2.0, 0.5])
    assert br.epistemic == pytest.approx(0.0, abs=1e-12)
    assert br.total == pytest.approx(br.aleatoric, abs=1e-12)


def test_decompose_a_disagreeing_onehots():
    br = split_a("categorical", [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    assert br.aleatoric == pytest.approx(0.0, abs=1e-12)
    assert br.epistemic == pytest.approx(np.log(2.0), abs=1e-12)


def test_decompose_a_additivity_random():
    rng = derive_rng(3)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 7))
        draws = [(random_simplex(rng, k), float(rng.uniform(0.01, 2.0))) for _ in range(n)]
        br = split_a("categorical", [p for p, _ in draws], [wt for _, wt in draws])
        assert abs(br.total - (br.aleatoric + br.epistemic)) < 1e-10


def test_decompose_a_epistemic_equals_mutual_information():
    # mutual information computed independently as H[mixture] - E[H]
    rng = derive_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        draws = [(random_simplex(rng, k), float(rng.uniform(0.1, 1.0))) for _ in range(5)]
        probs = np.vstack([p for p, _ in draws])
        w = np.array([wt for _, wt in draws])
        br = split_a("categorical", probs, w)
        w = w / w.sum()
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
        br = split_a("categorical", probs, weights)
        w = weights / weights.sum()
        bma = w @ probs
        assert abs(br.total - U.entropy_cat(bma)) < 1e-12
        assert abs(br.aleatoric - sum(wi * U.entropy_cat(p) for wi, p in zip(w, probs))) < 1e-12
        assert abs(br.epistemic - sum(wi * U.kl_cat(p, bma) for wi, p in zip(w, probs))) < 1e-12


def test_decompose_a_rejects_empty():
    with pytest.raises(ValueError):
        U.decompose_a("categorical", np.zeros((0, 1, 2)), np.zeros(0))


def test_decompose_a_gaussian_additivity():
    br = split_a("gaussian_scalar", [(0.0, 1.0), (2.0, 0.5)], [1.0, 1.0])
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
        br = split_a("gaussian_scalar", np.column_stack([means, variances]), w)
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
    _, (trajs,) = quam_scores(np.array([-5.0]), data, ref, SearchConfig(steps=100, lr=0.01, seed=0), 0.1, setting="a")
    preds, w = pool_trajectories(trajs, 0.1)
    assert (w == 0.0).any()
    br = split_a("gaussian_scalar", preds, w)
    keep = w > 0
    means, variances = preds[keep, 0], preds[keep, 1]
    kls = [_kl_vs_mixture_quadrature(m, v, means, variances, w[keep]) for m, v in zip(means, variances)]
    expected = float(w[keep] @ kls)
    assert abs(br.epistemic - expected) <= 1e-8 * expected
    assert br.total == br.aleatoric + br.epistemic


def test_decompose_a_gaussian_drops_zero_weight_samples_exactly():
    rng = derive_rng(8)
    kept = np.column_stack([rng.normal(size=6), rng.uniform(0.1, 2.0, 6)])
    w = rng.uniform(0.1, 1.0, 6)
    with_dropped = np.vstack([[(1e6, 1e-36)], kept, [(-3.0, 1e12)]])
    assert split_a("gaussian_scalar", with_dropped, np.r_[0.0, w, 0.0]) == split_a("gaussian_scalar", kept, w)


def test_decompose_a_gaussian_extreme_scales_use_component_nodes_in_bounded_memory():
    # a uniform grid at a tenth of the narrowest scale would need about 1e14
    # nodes; zero-weight components of variance 1e-36 must not size the grid
    means = np.array([0.0, 0.3, 2.0, 5.0, -1.0, 0.7])
    variances = np.array([1e-12, 1e12, 1.0, 1e-36, 1e-36, 1e-4])
    w = np.array([0.2, 0.3, 0.3, 0.0, 0.0, 0.2])
    keep = w > 0
    assert U._gauss_nodes(means[keep], np.sqrt(variances[keep])) is None
    for i in range(keep.sum()):
        y, _ = U._component_nodes(i, means[keep], np.sqrt(variances[keep]))
        assert len(y) <= keep.sum() * 241  # at most every component's grid
    tracemalloc.start()
    try:
        br = split_a("gaussian_scalar", np.column_stack([means, variances]), w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.isfinite([br.total, br.aleatoric, br.epistemic]).all()
    assert br.epistemic > 0.0 and br.total == br.aleatoric + br.epistemic


def test_decompose_a_gaussian_scales_below_float_spacing():
    # the split is shift-invariant, also where a standard deviation is far
    # below the spacing of floats at the component's mean
    unit = split_a("gaussian_scalar", [(0.0, 1.0), (0.0, 4.0)], [0.5, 0.5]).epistemic
    for c in (0.0, 5.0, 1e6):
        br = split_a("gaussian_scalar", [(c, 1e-34), (c, 4e-34)], [0.5, 0.5])
        assert br.epistemic == pytest.approx(unit, abs=1e-12)
    # two components that do not overlap: epistemic = log 2
    br = split_a("gaussian_scalar", [(5.0, 1e-36), (0.0, 1.0)], [0.5, 0.5])
    assert br.epistemic == pytest.approx(np.log(2.0), abs=1e-12)
    # nor do three, when a narrow one sits where the wide one's nodes fall
    # and another is narrower than the float spacing at its mean
    br = split_a("gaussian_scalar", [(5.0, 1e-36), (0.0, 1.0), (-5.0, 1e-34)], [1 / 3, 1 / 3, 1 / 3])
    assert br.epistemic == pytest.approx(np.log(3.0), abs=1e-12)


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
        br = split_b("categorical", ref, probs, weights)
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
        split_b("categorical", [0.5, 0.5], [[0.2, 0.3, 0.5]], [1.0])


def test_decompose_b_gaussian_matches_per_sample_kl():
    rng = derive_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        ref = (rng.uniform(-3, 3), rng.uniform(0.01, 5.0))
        rows = list(zip(rng.uniform(-3, 3, n), rng.uniform(0.01, 5.0, n)))
        weights = rng.uniform(0.01, 2.0, n)
        br = split_b("gaussian_scalar", ref, rows, weights)
        expected = sum(wt * U.kl_gauss(ref, row) for wt, row in zip(weights / weights.sum(), rows))
        assert abs(br.epistemic - expected) < 1e-12
        assert br.aleatoric == U.entropy_gauss(ref[1])


def test_decompose_b_reference_equal_samples():
    ref = [0.6, 0.4]
    br = split_b("categorical", ref, [ref, ref], [1.0, 1.0])
    assert br.epistemic == pytest.approx(0.0, abs=1e-12)
    assert br.aleatoric == pytest.approx(U.entropy_cat(ref), abs=1e-12)


def test_decompose_b_support_violation_flagged():
    br = split_b("categorical", [0.5, 0.5], [[1.0, 0.0]], [1.0])
    assert br.support_violation
    assert br.epistemic == float("inf")
    assert br.aleatoric == pytest.approx(np.log(2.0), abs=1e-12)


def test_decompose_b_gaussian_pair():
    br = split_b("gaussian_scalar", (0.0, 1.0), [(1.0, 1.0), (-1.0, 1.0)], [1.0, 1.0])
    assert br.epistemic == pytest.approx(0.5, abs=1e-12)


def test_decompose_many_points_match_single_points():
    # 300 samples of 3 classes: the categorical splits run 9 points per
    # block, so 40 points take 5 blocks, the last one partial
    rng = derive_rng(11)
    s, n = 300, 40
    probs = rng.dirichlet(np.ones(3), size=(s, n))
    probs[rng.random((s, n, 3)) < 0.002] = 0.0
    probs /= probs.sum(axis=-1, keepdims=True)
    ref = rng.dirichlet(np.ones(3), size=n)
    ref[::7, 1] = 0.0
    ref /= ref.sum(axis=-1, keepdims=True)
    w = rng.uniform(0.0, 1.0, s)
    rows_a = U.decompose_a("categorical", probs, w)
    rows_b = U.decompose_b("categorical", ref, probs, w)
    assert len(rows_a) == len(rows_b) == n
    assert 0 < sum(br.support_violation for br in rows_b) < n
    for i in range(n):
        one_a, one_b = split_a("categorical", probs[:, i], w), split_b("categorical", ref[i], probs[:, i], w)
        for many, one in ((rows_a[i], one_a), (rows_b[i], one_b)):
            assert many.flags == one.flags
            for name in ("total", "aleatoric", "epistemic"):
                assert getattr(many, name) == pytest.approx(getattr(one, name), abs=1e-12, rel=0)
    gauss = np.stack([rng.normal(size=(20, 4)), rng.uniform(0.1, 2.0, (20, 4))], axis=-1)
    ref_g = np.column_stack([rng.normal(size=4), rng.uniform(0.1, 2.0, 4)])
    wg = rng.uniform(0.1, 1.0, 20)
    for i, (br_a, br_b) in enumerate(zip(U.decompose_a("gaussian_scalar", gauss, wg), U.decompose_b("gaussian_scalar", ref_g, gauss, wg))):
        assert br_a == split_a("gaussian_scalar", gauss[:, i], wg)
        assert br_b.epistemic == pytest.approx(split_b("gaussian_scalar", ref_g[i], gauss[:, i], wg).epistemic, abs=1e-12, rel=0)


def test_decompose_rejects_malformed_inputs():
    probs = np.full((3, 2, 2), 0.5)
    gauss = np.ones((3, 2, 2))
    w = np.ones(3)
    bad_a = [
        ("categorical", probs[:0], w[:0]),  # no samples
        ("categorical", probs[0], w),  # no sample axis
        ("categorical", probs, w[:2]),  # one weight short
        ("categorical", probs, np.array([1.0, -0.5, 1.0])),
        ("categorical", probs, np.zeros(3)),
        ("categorical", probs, np.array([1.0, np.nan, 1.0])),
        ("categorical", probs + np.array([0.0, 1e-8]), w),  # rows sum to 1 + 1e-8
        ("categorical", np.where(np.arange(2) == 0, 1.0 + 1e-11, -1e-11) * np.ones((3, 2, 2)), w),
        ("categorical", np.full((3, 2, 2), np.nan), w),
        ("categorical", np.ones((3, 2, 1)), w),  # one class
        ("gaussian_scalar", gauss * np.array([1.0, 0.0]), w),  # zero variance
        ("gaussian_scalar", np.ones((3, 2, 3)), w),
        ("poisson", probs, w),
    ]
    for head, preds, weights in bad_a:
        with pytest.raises(ValueError):
            U.decompose_a(head, preds, weights)
        with pytest.raises(ValueError):
            U.decompose_b(head, probs[0], preds, weights)
    bad_b = [
        ("categorical", np.full((2, 3), 1 / 3), probs),  # class counts differ
        ("categorical", np.full((1, 2), 0.5), probs),  # point counts differ
        ("categorical", np.array([[0.5, 0.6], [0.5, 0.5]]), probs),
        ("gaussian_scalar", np.array([[0.0, -1.0], [0.0, 1.0]]), gauss),
    ]
    for head, ref, preds in bad_b:
        with pytest.raises(ValueError):
            U.decompose_b(head, ref, preds, w)
    # within the row check's tolerances
    assert len(U.decompose_a("categorical", probs + np.array([5e-10, -1e-12]), w)) == 2


def test_decompose_categorical_temporaries_stay_in_blocks():
    rng = derive_rng(12)
    probs = rng.dirichlet(np.ones(2), size=(500, 400))
    ref = probs[0]
    w = np.ones(500)
    for split in (lambda: U.decompose_a("categorical", probs, w), lambda: U.decompose_b("categorical", ref, probs, w)):
        tracemalloc.start()
        try:
            split()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the validation keeps one (samples, points) array; a split over all
        # points at once would hold several arrays the size of `probs`
        assert peak < 0.75 * probs.nbytes


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
