"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch).  Criteria 10 and 11 need the real
MNIST/FashionMNIST IDX files and skip, with the expected layout under
data/ or $QUAM_DATA_DIR, when the files are not present; their pipeline
also runs on a synthetic IDX stand-in.
"""

import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import spearmanr

from quam import estimator as E
from quam import metrics as X
from quam import models as M
from quam import samplers as S
from quam.autodiff import grad_check
from quam.data import LabeledDataset, gen_three_gaussians, gen_two_moons, load_idx, save_idx, subsample
from quam.measures import decompose_a, decompose_b, entropy, kl
from quam.rng import derive_rng
from quam.search import SearchConfig, _Workspace, search_batch, search_suites
from test_golden import openblas_core

pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


def report(criterion: int, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- criterion 1: gradient correctness ----------------------------------------


def search_loss_and_grad(arch, x, ref, objective, bound, bx, by, c):
    """One search's objective at penalty weight c, as a function of the parameters to (loss, flat gradient), from a search workspace.

    L = L_adv + c * relu(batch_loss - bound) + c * relu(violation), as the
    module docstring of `quam.search` documents it; `bx` and `by` are the
    batch rows and their `models.target_rows`.
    """

    def loss_and_grad(values):
        ws = _Workspace(arch, values[None], len(bx), x[None], ref[None], (objective,), bound)
        ws.fill(bx, by)
        batch_loss, adv = ws.losses()
        loss = adv + c * np.maximum(batch_loss - bound, 0.0) + c * np.maximum(ws.violation(), 0.0)
        return loss[0], ws.gradient(c)[0]

    return loss_and_grad


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    rng = derive_rng(100)
    # dropout masks and soft targets come from their own stream, so the 50 MLPs stay the same
    extra = derive_rng(101)
    worst = 0.0
    n_masked = n_soft = 0
    for trial in range(50):
        n_hidden = int(rng.integers(0, 4))
        widths = [int(rng.integers(2, 6))] + [int(rng.integers(2, 17)) for _ in range(n_hidden)] + [int(rng.integers(2, 5))]
        head = "categorical" if rng.random() < 0.7 else "gaussian_scalar"
        if head == "gaussian_scalar":
            widths[-1] = int(rng.integers(1, 3))
        arch = M.ArchSpec(tuple(widths), head=head, dropout_prob=0.3 if trial % 2 and n_hidden else 0.0)
        x = rng.normal(size=(5, widths[0])) + 0.07  # keep inputs off relu kinks
        y = rng.integers(0, widths[-1], size=5) if head == "categorical" else rng.normal(size=5)
        masks = M.make_dropout_masks(arch, extra) if arch.dropout_prob else None
        soft = head == "categorical" and trial % 3 == 0
        y = extra.dirichlet(np.ones(widths[-1]), size=5) if soft else M.target_rows(arch, y)
        n_masked += masks is not None
        n_soft += soft

        def loss_fn(values, arch=arch, x=x, y=y, masks=masks):
            return M.loss_and_grad(M.ModelParams(arch, values), x, y, masks)

        result = grad_check(loss_fn, M.init_params(arch, trial).values, step=1e-5, tolerance=1e-4)
        worst = max(worst, result["max_rel_error"])
        assert result["passed"], (widths, masks is not None, soft, result)

    # the search objective: each (output width, objective) case runs with the
    # penalty and the direction violation each active and inactive
    cases = [(2, "class"), (2, "divergence"), (1, "divergence_g"), (2, "divergence_g"), (1, +1), (1, -1), (2, +1), (2, -1)]
    worst_search = 0.0
    for trial in range(50):
        out_width, target = cases[trial % len(cases)]
        pen_active, viol_active = (trial // 8) % 2 == 0, (trial // 16) % 2 == 0
        n_hidden = int(rng.integers(0, 4))
        widths = [int(rng.integers(1, 6))] + [int(rng.integers(2, 17)) for _ in range(n_hidden)]
        if target in ("class", "divergence"):
            arch = M.ArchSpec(tuple(widths + [int(rng.integers(2, 5))]))
        else:
            arch = M.ArchSpec(tuple(widths + [out_width]), head="gaussian_scalar")
        params = M.init_params(arch, 1000 + trial)
        bx = rng.normal(size=(6, widths[0])) + 0.07
        x = rng.normal(size=(1, widths[0])) + 0.07
        by = M.target_rows(arch, rng.integers(0, arch.widths[-1], size=6) if arch.head == "categorical" else rng.normal(size=6))
        out_x = M.forward(params, x)[-1]
        if arch.head == "categorical":
            ref = rng.dirichlet(np.ones(arch.widths[-1]))
            objective = ("class", int(rng.integers(0, arch.widths[-1]))) if target == "class" else "divergence"
        else:
            direction = 0 if target == "divergence_g" else target
            # the violation direction * (ref_mean - mean(x)) sits 1 away from its kink
            shift = 1.0 if viol_active else -1.0
            ref = np.array([out_x[0, 0] + (direction or 1) * shift, rng.uniform(0.2, 2.0)])
            objective = ("direction", direction) if direction else "divergence"
        batch_loss = M.cross_entropy(arch, M.forward(params, bx)[-1], by)[0]
        bound = batch_loss - 0.5 if pen_active else batch_loss + 0.5
        c = float(rng.uniform(0.5, 3.0))
        result = grad_check(search_loss_and_grad(arch, x, ref, objective, bound, bx, by, c), params.values, step=1e-5, tolerance=1e-4)
        worst_search = max(worst_search, result["max_rel_error"])
        assert result["passed"], (arch, objective, pen_active, viol_active, result)
    ok = worst < 1e-4 and worst_search < 1e-4
    report(
        1,
        ok,
        f"50 random MLPs ({n_masked} with dropout masks, {n_soft} with soft targets), worst elementwise relative error {worst:.2e} < 1e-4; "
        f"search objective on 50 more, worst {worst_search:.2e} < 1e-4 ({time.time() - t0:.1f}s)",
    )


# -- criterion 2: uncertainty-calculus identities ------------------------------


def test_criterion_02_uncertainty_identities():
    t0 = time.time()
    rng = derive_rng(200)
    worst_ce = 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        # CE oracle: the defining sum -sum p log q
        worst_ce = max(worst_ce, abs(-(p * np.log(q)).sum() - (entropy("categorical", p) + kl("categorical", p, q))))

    worst_add = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        draws = [(rng.dirichlet(np.ones(k)), float(rng.uniform(0.01, 2.0))) for _ in range(int(rng.integers(1, 8)))]
        (br,) = decompose_a("categorical", np.array([p for p, _ in draws])[:, None], np.array([wt for _, wt in draws]))
        worst_add = max(worst_add, abs(br.total - (br.aleatoric + br.epistemic)))

    worst_kl = 0.0
    for _ in range(100):
        (mp, vp), (mq, vq) = (rng.uniform(-5, 5), rng.uniform(0.1, 10)), (rng.uniform(-5, 5), rng.uniform(0.1, 10))

        def integrand(y):
            lp = -0.5 * (y - mp) ** 2 / vp - 0.5 * np.log(2 * np.pi * vp)
            lq = -0.5 * (y - mq) ** 2 / vq - 0.5 * np.log(2 * np.pi * vq)
            return np.exp(lp) * (lp - lq)

        ref, _ = quad(integrand, mp - 14 * np.sqrt(vp), mp + 14 * np.sqrt(vp), limit=300)
        worst_kl = max(worst_kl, abs(kl("gaussian_scalar", np.array([mp, vp]), np.array([mq, vq])) - ref))

    ok = worst_ce < 1e-12 and worst_add < 1e-10 and worst_kl < 1e-6
    report(2, ok, f"CE=H+KL err {worst_ce:.1e} < 1e-12; additivity err {worst_add:.1e} < 1e-10; KL-vs-quadrature err {worst_kl:.1e} < 1e-6 ({time.time() - t0:.1f}s)")


# -- criterion 3: ranking-metric oracle equivalence ----------------------------


def auroc_pair_count(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def aupr_threshold_enum(scores, labels):
    order = np.argsort(-scores, kind="mergesort")
    s, y = scores[order], labels[order]
    area, prev_recall = 0.0, 0.0
    n_pos = y.sum()
    for t in sorted(set(s), reverse=True):
        flag = s >= t
        tp = (flag & (y == 1)).sum()
        fp = (flag & (y == 0)).sum()
        area += (tp / n_pos - prev_recall) * (tp / (tp + fp))
        prev_recall = tp / n_pos
    return area


def fpr_threshold_enum(scores, labels, target):
    best = 1.0
    n_pos = labels.sum()
    n_neg = len(labels) - n_pos
    for t in set(scores):
        flag = scores >= t
        if (flag & (labels == 1)).sum() / n_pos >= target:
            best = min(best, (flag & (labels == 0)).sum() / n_neg)
    return best


def test_criterion_03_metric_oracles():
    t0 = time.time()
    rng = derive_rng(300)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 201))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        s = X.ScoredLabels(scores, labels)
        worst = max(worst, abs(X.auroc(s) - auroc_pair_count(scores, labels)))
        worst = max(worst, abs(X.aupr(s) - aupr_threshold_enum(scores, labels)))
        worst = max(worst, abs(X.fpr_at_tpr(s, 0.95) - fpr_threshold_enum(scores, labels, 0.95)))
    report(3, worst < 1e-12, f"AUROC/AUPR/FPR@TPR vs enumeration oracles, worst gap {worst:.1e} < 1e-12 on 100 instances ({time.time() - t0:.1f}s)")


# -- criterion 4: HMC validity --------------------------------------------------


def test_criterion_04_hmc_validity():
    t0 = time.time()
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    prec = np.linalg.inv(cov)

    # stacked callbacks, (K, 2) positions to K log densities or gradients; here K = 1
    def logp(qs):
        return np.array([-0.5 * q @ prec @ q for q in qs])

    def grad(qs):
        return np.array([-prec @ q for q in qs])

    out = S.hmc(logp, grad, np.zeros(2), n_samples=10_000, n_leapfrog=20, step_size=0.2, seed=41, burn_in=1000, auto_tune=True)
    emp = np.cov(out.draws.T)
    cov_err = np.linalg.norm(emp - cov) / np.linalg.norm(cov)

    def mean_abs_dh(eps, n_steps, seed=0):
        rng = derive_rng(seed)
        errs = []
        for _ in range(400):
            q = rng.multivariate_normal(np.zeros(2), cov)[None]
            p = rng.standard_normal(2)[None]
            h0 = -logp(q)[0] + 0.5 * p[0] @ p[0]
            q1, p1 = S.leapfrog(q, p, grad, eps, n_steps)
            errs.append(abs(-logp(q1)[0] + 0.5 * p1[0] @ p1[0] - h0))
        return np.mean(errs)

    ratio = mean_abs_dh(0.2, 16) / mean_abs_dh(0.1, 32)
    ok = cov_err < 0.10 and 3.5 <= ratio <= 4.5
    report(4, ok, f"covariance error {cov_err:.3f} < 0.10; |dH| reduction {ratio:.2f} in [3.5, 4.5] at halved step ({time.time() - t0:.1f}s)")


# -- criterion 5: constrained-search optimality ---------------------------------


def _logistic_problem(seed):
    rng = derive_rng(seed)
    x0 = rng.uniform(-2.0, -0.5, 10)
    x1 = rng.uniform(0.5, 2.0, 10)
    data = LabeledDataset(np.concatenate([x0, x1]).reshape(-1, 1), np.array([0] * 10 + [1] * 10), "classification")
    ref = M.train(data, M.ArchSpec((1, 2)), M.TrainConfig(epochs=30, lr=2e-2, weight_decay=1e-1, seed=seed))
    return data, ref


def _logistic_grid_max(data, ref, gamma, x_test, box=8.0, res=400):
    w0, b0 = ref.values[0], ref.values[2]
    l_ref = M.mean_train_loss(ref, data)
    g = np.linspace(-box, box, res)
    W1, B1 = np.meshgrid(g, g, indexing="ij")
    loss = np.zeros_like(W1)
    for xi, yi in zip(data.x[:, 0], data.y):
        l0 = w0 * xi + b0
        l1 = W1 * xi + B1
        m = np.maximum(l0, l1)
        loss += (m + np.log(np.exp(l0 - m) + np.exp(l1 - m))) - (l1 if yi == 1 else l0)
    loss /= len(data)
    p = M.predict_batch(ref, x_test)[0]
    l0t = w0 * x_test[0] + b0
    l1t = W1 * x_test[0] + B1
    mt = np.maximum(l0t, l1t)
    lset = mt + np.log(np.exp(l0t - mt) + np.exp(l1t - mt))
    kl = p[0] * (np.log(max(p[0], 1e-300)) - (l0t - lset)) + p[1] * (np.log(max(p[1], 1e-300)) - (l1t - lset))
    return kl[loss <= l_ref + gamma].max()


def test_criterion_05_constrained_search_optimality():
    t0 = time.time()
    box = 8.0
    ratios = []
    for seed in range(5):
        data, ref = _logistic_problem(seed)
        gamma = 0.5 * abs(M.mean_train_loss(ref, data))
        x_test = np.array([4.0])
        grid_max = _logistic_grid_max(data, ref, gamma, x_test, box=box)
        mask = np.zeros(4, dtype=bool)
        mask[[1, 3]] = True  # the class-1 logit's weight and bias
        cfg = SearchConfig(
            c0=1.0, eta_factor=1.5, eta_every=10, steps=2500, lr=2e-2, weight_decay=0.0,
            seed=seed, gamma=gamma, free_mask=mask, param_box=(-box, box), adam_eps=1e-18,
        )
        # both targeted searches and six divergence restarts, as one lock-step batch
        searches = [(0, ("class", c), (c,)) for c in (0, 1)] + [(0, "divergence", (10 + restart,)) for restart in range(6)]
        candidates = search_batch(x_test[None], data, ref, cfg, searches)
        best = max(t.divergence[t.best_index] for t in candidates)
        ratios.append(best / grid_max)
        assert abs(best - grid_max) <= 0.10 * grid_max, (seed, best, grid_max)
    report(5, True, f"best-vs-grid-max ratios {['%.3f' % r for r in ratios]} all within 10% on 5 seeds ({time.time() - t0:.1f}s)")


# -- criterion 8 first (shares setup with 6's battery) --------------------------


@pytest.fixture(scope="module")
def simplex_setup():
    data = gen_three_gaussians(seed=0)
    arch = M.ArchSpec((2, 10, 3))
    x = np.array([-6.0, 2.0])
    ref = M.train(data, arch, M.TrainConfig(epochs=300, seed=0))
    return data, arch, x, ref


def test_criterion_08_simplex_starved_class(simplex_setup):
    t0 = time.time()
    data, arch, x, ref = simplex_setup
    ensemble = S.deep_ensemble(data, arch, 10, M.TrainConfig(epochs=300, seed=20))
    de_max = np.vstack([M.predict_batch(p, x) for p in ensemble.params]).max(axis=0)
    starved = [c for c in range(3) if de_max[c] <= 0.5]
    assert starved, f"deep ensemble assigns > 0.5 to every class: {de_max}"

    cfg = SearchConfig(c0=1.0, eta_factor=1.5, eta_every=10, steps=150, lr=2e-2, seed=0)
    trajectories = search_suites(x, data, ref, cfg)[0]
    found = {}
    for traj in trajectories:
        cls = int(traj.target.split(":")[1])
        feasible = traj.pred[traj.full_pen <= 0.0, cls]
        found[cls] = feasible.max() if feasible.size else 0.0
    hit = [c for c in starved if found[c] > 0.5]
    ok = bool(hit)
    report(
        8,
        ok,
        f"deep-ensemble max prob per class {np.round(de_max, 4).tolist()}; "
        f"search reaches {np.round([found[c] for c in starved], 4).tolist()} on the starved class(es) {starved} ({time.time() - t0:.1f}s)",
    )


# -- criterion 9: proposal variance ---------------------------------------------


def test_criterion_09_mixture_proposal_variance():
    t0 = time.time()
    rng = derive_rng(900)

    def pdf(x, mu, s):
        return np.exp(-0.5 * (x - mu) ** 2 / s**2) / (s * np.sqrt(2 * np.pi))

    def u(x):
        return 0.5 * pdf(x, 0, 1) + 0.5 * pdf(x, 3, 1)

    n = 1000
    single, mixture = [], []
    for _ in range(100):
        xs = rng.normal(0, 1, size=n)
        single.append(E.mis_estimate(u(xs), pdf(xs, 0, 1)))
        comps = rng.integers(0, 2, size=n)
        xm = rng.normal(0, 1.5, size=n) + 3.0 * comps
        mixture.append(E.mis_estimate(u(xm), 0.5 * pdf(xm, 0, 1.5) + 0.5 * pdf(xm, 3, 1.5)))
    factor = np.var(single) / np.var(mixture)

    sweeps_ok = True
    for parameter, grid in (("sigma_p2", np.linspace(1.0, 3.0, 9)), ("mu_p2", np.linspace(3.0, 6.0, 7))):
        values = [v for _, v in E.variance_sweep(parameter, grid)]
        sweeps_ok &= all(b > a for a, b in zip(values, values[1:]))
    q_rows = E.variance_sweep("sigma_q", [1.0, 4.0])
    m_rows = E.variance_sweep("mu_p2", [3.0, 6.0])
    q_factor = max(q_rows[0][1], q_rows[1][1]) / min(q_rows[0][1], q_rows[1][1])
    sweeps_ok &= q_factor < m_rows[1][1] / m_rows[0][1]

    ok = factor >= 5.0 and sweeps_ok
    report(9, ok, f"mixture proposal cuts repeated-estimate variance {factor:.0f}x (>= 5x); three analytic sweeps monotone ({time.time() - t0:.1f}s)")


# -- criterion 7: two-moons reproduction ----------------------------------------

# Criterion 7's printed numbers (Spearman QUAM / ensembles / dropout, corner
# ratio), keyed like `test_golden.GOLDEN` by the OpenBLAS core: their bits
# depend on the kernel that runs the GEMMs.  Each line was printed with
# `OPENBLAS_CORETYPE=<core>` on an AVX-512 host.
PRINTED_07 = {
    "SkylakeX": "0.881 / 0.738 / 0.732 / 49.1x",
    "Haswell": "0.867 / 0.636 / 0.652 / 49.1x",
    "Sandybridge": "0.793 / 0.530 / 0.540 / 49.1x",
}


def test_criterion_07_two_moons_reproduction():
    t0 = time.time()
    moons = gen_two_moons(200, noise=0.1, seed=0)
    arch = M.ArchSpec((2, 16, 16, 2))
    ref = M.train(moons, arch, M.TrainConfig(epochs=300, seed=0))

    res = 40
    xs = np.linspace(-1.5, 2.5, res)
    ys = np.linspace(-1.0, 1.5, res)
    points = np.array([(x, y) for x in xs for y in ys])

    # ground truth: merged HMC chains from independent starts, run in lock-step
    chains = S.hmc_posterior(
        moons, arch, prior_precision=1e-3, n_samples=300, n_leapfrog=25,
        step_size=2e-3, seed=list(range(100, 106)), burn_in=500, auto_tune=True, thin=2,
    )
    hmc_params = [p for out in chains for p in out.params]
    hmc_probs = np.stack([M.predict_batch(p, points) for p in hmc_params])

    def epistemic_map(prob_stack):
        return np.array([br.epistemic for br in decompose_a("categorical", prob_stack, np.ones(len(prob_stack)))])

    hmc_map = epistemic_map(hmc_probs)

    ensemble = S.deep_ensemble(moons, arch, 5, M.TrainConfig(epochs=300, seed=10))
    de_map = epistemic_map(np.stack([M.predict_batch(p, points) for p in ensemble.params]))

    arch_do = M.ArchSpec((2, 16, 16, 2), dropout_prob=0.2)
    ref_do = M.train(moons, arch_do, M.TrainConfig(epochs=300, seed=0))
    rng = derive_rng(7)
    mcd_probs = np.stack([M.predict_batch(ref_do, points, M.make_dropout_masks(arch_do, rng)) for _ in range(500)])
    mcd_map = epistemic_map(mcd_probs)

    cfg = SearchConfig(c0=1.0, eta_factor=1.5, eta_every=10, steps=100, lr=1e-2, seed=0)
    quam_map = np.array([br.epistemic for br in E.quam_scores(points, moons, ref, cfg, temperature=0.1, setting="a")[0]])

    rho_quam = spearmanr(quam_map, hmc_map).statistic
    rho_de = spearmanr(de_map, hmc_map).statistic
    rho_mcd = spearmanr(mcd_map, hmc_map).statistic

    def corner_mean(values):
        m1 = (points[:, 0] >= -1.5) & (points[:, 0] <= -0.5) & (points[:, 1] >= -1.0) & (points[:, 1] <= -0.25)
        m2 = (points[:, 0] >= 1.5) & (points[:, 0] <= 2.5) & (points[:, 1] >= 0.75) & (points[:, 1] <= 1.5)
        return 0.5 * (values[m1].mean() + values[m2].mean())

    corner_ratio = corner_mean(quam_map) / max(corner_mean(de_map), 1e-12)
    ok = rho_quam >= 0.6 and rho_quam > rho_de and rho_quam > rho_mcd and corner_ratio >= 2.0
    report(
        7,
        ok,
        f"Spearman vs HMC: ours {rho_quam:.3f} (>= 0.6), ensembles {rho_de:.3f}, dropout {rho_mcd:.3f}; "
        f"corner-box epistemic ratio {corner_ratio:.1f}x (>= 2x) ({time.time() - t0:.0f}s)",
    )
    printed, core = f"{rho_quam:.3f} / {rho_de:.3f} / {rho_mcd:.3f} / {corner_ratio:.1f}x", openblas_core()
    if core not in PRINTED_07:
        print(f"criterion 7: no printed line recorded for OpenBLAS core {core!r}; only the thresholds were checked")
    else:
        assert printed == PRINTED_07[core], f"criterion 7 printed {printed}, recorded for OpenBLAS core {core!r}: {PRINTED_07[core]}"


# -- criterion 6: feasibility contract (audited over everything above) ----------


def test_criterion_06_feasibility_contract(simplex_setup, feasibility_audit):
    t0 = time.time()
    data3, arch3, x3, ref3 = simplex_setup
    moons = gen_two_moons(160, noise=0.1, seed=2)
    ref_m = M.train(moons, M.ArchSpec((2, 12, 2)), M.TrainConfig(epochs=200, seed=2))

    from quam.data import gen_sine

    sine = gen_sine(120, seed=3)
    ref_s = M.train(sine, M.ArchSpec((1, 16, 2), head="gaussian_scalar"), M.TrainConfig(epochs=250, seed=3))

    battery = []
    for seed in range(3):
        cfg = SearchConfig(steps=80, lr=2e-2, seed=seed)
        for traj in search_suites(np.array([-1.2, 1.2]), moons, ref_m, cfg)[0]:
            battery.append((traj, moons))
        for traj in search_suites(np.array([2.2, 1.0]), moons, ref_m, cfg)[0]:
            battery.append((traj, moons))
        for traj in search_suites(x3, data3, ref3, cfg)[0]:
            battery.append((traj, data3))
        for traj in search_suites(np.array([-np.pi - 1.0]), sine, ref_s, cfg)[0]:
            battery.append((traj, sine))

    violations = 0
    for traj, dataset in battery:
        recheck = M.mean_train_loss(traj.best_params, dataset)
        bound = traj.reference_loss + traj.gamma
        if not (traj.no_feasible or recheck <= bound + 1e-10):
            violations += 1

    audit_violations = sum(1 for _, pen, flagged in feasibility_audit if not (flagged or pen <= 1e-12))
    ok = violations == 0 and audit_violations == 0
    report(
        6,
        ok,
        f"{len(battery)} battery searches re-verified from returned parameters, {violations} violations; "
        f"audit log of {len(feasibility_audit)} searches this session, {audit_violations} violations ({time.time() - t0:.1f}s)",
    )


# -- criteria 10 and 11: MNIST-scale ranking and calibration --------------------


def _find_idx_data():
    root = os.environ.get("QUAM_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data"))
    layout = {
        "mnist_train": ("mnist/train-images-idx3-ubyte", "mnist/train-labels-idx1-ubyte"),
        "mnist_test": ("mnist/t10k-images-idx3-ubyte", "mnist/t10k-labels-idx1-ubyte"),
        "fmnist_test": ("fmnist/t10k-images-idx3-ubyte", "fmnist/t10k-labels-idx1-ubyte"),
    }
    resolved = {}
    for key, (img, lab) in layout.items():
        ipath, lpath = os.path.join(root, img), os.path.join(root, lab)
        if not (os.path.exists(ipath) and os.path.exists(lpath)):
            return None, f"missing {ipath} / {lpath}"
        resolved[key] = (ipath, lpath)
    return resolved, None


MNIST_SKIP = (
    "real MNIST/FashionMNIST IDX files not found; to run this criterion, put train-images-idx3-ubyte, "
    "train-labels-idx1-ubyte, t10k-images-idx3-ubyte and t10k-labels-idx1-ubyte of MNIST under mnist/, "
    "and t10k-images-idx3-ubyte and t10k-labels-idx1-ubyte of FashionMNIST under fmnist/, "
    "in $QUAM_DATA_DIR or data/ at the repository root; on a 2-core host without a GPU the QUAM searches take about "
    "0.65 s per scored point (10,000 x 784 synthetic stand-in, 7 points per lock-step batch), so the 12,000 points of "
    "the three seeds take about 2 hours"
)


# test points per quam_scores call in criterion 10: each last-layer trajectory carries the full
# 784-64-10 best_params (50,890 values, 407 kB), so a call holds about 1.6 MB per point
QUAM_CHUNK = 64


def mnist_pipeline(train_full, id_full, ood_full, seeds, n_train, n_test):
    """Criteria 10 and 11's runs: QUAM, ensembles and MC dropout on 784-64-10 MLPs, one run per seed.

    Each run draws n_train training rows and n_test in- and out-of-distribution
    test rows.  QUAM searches the last layer for the top-4 classes of each
    test point with mini-batch penalties.
    """
    runs = []
    for seed in seeds:
        train = subsample(train_full, n_train, seed=seed)
        id_test = subsample(id_full, n_test, seed=seed)
        ood_test = subsample(ood_full, n_test, seed=seed)

        arch = M.ArchSpec((784, 64, 10), dropout_prob=0.2)
        ref = M.train(train, arch, M.TrainConfig(lr=5e-3, weight_decay=1e-3, epochs=12, batch_size=128, seed=seed))

        search_cfg = SearchConfig(
            c0=6.0, eta_factor=2.0, eta_every=14, steps=60, lr=5e-3, weight_decay=1e-3,
            batch_size=128, delta_scope="last_layer", seed=seed,
        )

        def quam_scores_and_bma(points):
            # search budget: each point's top-4 classes.  A chunk's trajectories are dropped
            # before the next chunk runs; no score depends on the split
            top = [sorted(int(c) for c in np.argsort(-row)[:4]) for row in M.predict_batch(ref, points[:, None, :])[:, 0]]
            epistemic, bma = [], []
            for start in range(0, len(points), QUAM_CHUNK):
                chunk = slice(start, start + QUAM_CHUNK)
                breakdowns, suites = E.quam_scores(points[chunk], train, ref, search_cfg, 1e-3, setting="b", classes=top[chunk])
                epistemic += [br.epistemic for br in breakdowns]
                bma += [w @ preds for preds, w in (E.pool_trajectories(trajs, 1e-3) for trajs in suites)]
            return np.array(epistemic), np.array(bma)

        quam_id, bma_id = quam_scores_and_bma(id_test.x)
        quam_ood, _ = quam_scores_and_bma(ood_test.x)

        ensemble = S.deep_ensemble(train, M.ArchSpec((784, 64, 10)), 5, M.TrainConfig(lr=5e-3, weight_decay=1e-3, epochs=12, batch_size=128, seed=seed + 1000))

        def epistemic(ref_probs, stack):
            # setting b: the mean KL(reference || sample) over equally weighted samples
            return np.array([br.epistemic for br in decompose_b("categorical", ref_probs, stack, np.ones(len(stack)))])

        def de_scores(points):
            return epistemic(M.predict_batch(ref, points), np.stack([M.predict_batch(p, points) for p in ensemble.params]))

        rng = derive_rng(seed, 77)
        mcd_stack_id = np.stack([M.predict_batch(ref, id_test.x, M.make_dropout_masks(arch, rng)) for _ in range(512)])
        mcd_stack_ood = np.stack([M.predict_batch(ref, ood_test.x, M.make_dropout_masks(arch, rng)) for _ in range(512)])
        ref_id = M.predict_batch(ref, id_test.x)
        ref_ood = M.predict_batch(ref, ood_test.x)

        def auroc_of(id_s, ood_s):
            return X.auroc(X.ScoredLabels(np.concatenate([id_s, ood_s]), np.concatenate([np.zeros(len(id_s), dtype=int), np.ones(len(ood_s), dtype=int)])))

        runs.append(
            {
                "seed": seed,
                "quam_scores": np.concatenate([quam_id, quam_ood]),
                "auroc_quam": auroc_of(quam_id, quam_ood),
                "auroc_de": auroc_of(de_scores(id_test.x), de_scores(ood_test.x)),
                "auroc_mcd": auroc_of(epistemic(ref_id, mcd_stack_id), epistemic(ref_ood, mcd_stack_ood)),
                "ece_ref": X.ece(ref_id, id_test.y),
                "ece_quam": X.ece(bma_id, id_test.y),
            }
        )
    return runs


@pytest.fixture(scope="module")
def mnist_runs():
    resolved, why = _find_idx_data()
    if resolved is None:
        pytest.skip(f"{MNIST_SKIP} [{why}]")
    idx = [load_idx(*resolved[key]) for key in ("mnist_train", "mnist_test", "fmnist_test")]
    return mnist_pipeline(*idx, seeds=(42, 142, 242), n_train=10_000, n_test=2_000)


def test_mnist_pipeline_runs_on_a_synthetic_idx_stand_in(tmp_path):
    # noisy 28 x 28 prototypes of ten classes; ten other prototypes are the
    # out-of-distribution set.  The run only has to finish with valid
    # numbers: no paper threshold applies to this data.
    rng = derive_rng(5)
    protos = rng.random((20, 784)) * (rng.random((20, 784)) < 0.3)

    def idx_set(name, n, first_proto):
        y = rng.integers(0, 10, size=n)
        x = np.clip(protos[first_proto + y] + rng.normal(scale=0.15, size=(n, 784)), 0.0, 1.0)
        paths = (tmp_path / f"{name}-images", tmp_path / f"{name}-labels")
        save_idx(LabeledDataset(x, y, "classification"), *paths, rows=28, cols=28)
        return load_idx(*paths)

    train, id_test, ood_test = idx_set("train", 500, 0), idx_set("id", 40, 0), idx_set("ood", 40, 10)
    (run,) = mnist_pipeline(train, id_test, ood_test, seeds=(7,), n_train=500, n_test=40)
    for key in ("auroc_quam", "auroc_de", "auroc_mcd", "ece_ref", "ece_quam"):
        assert 0.0 <= run[key] <= 1.0, (key, run[key])
    assert (run["quam_scores"] >= 0.0).all()


def test_criterion_10_mnist_ranking(mnist_runs):
    lines = []
    ok = True
    for run in mnist_runs:
        ok &= run["auroc_quam"] >= run["auroc_de"] - 0.005
        ok &= run["auroc_de"] >= run["auroc_mcd"] and run["auroc_quam"] >= run["auroc_mcd"]
        lines.append(f"seed {run['seed']}: ours {run['auroc_quam']:.4f}, ensembles {run['auroc_de']:.4f}, dropout {run['auroc_mcd']:.4f}")
    report(10, ok, "; ".join(lines))


def test_criterion_11_mnist_calibration(mnist_runs):
    lines = []
    ok = True
    for run in mnist_runs:
        ok &= run["ece_quam"] <= run["ece_ref"]
        lines.append(f"seed {run['seed']}: weighted-average ECE {run['ece_quam']:.4f} <= reference {run['ece_ref']:.4f}")
    report(11, ok, "; ".join(lines))
