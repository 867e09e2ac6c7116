from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quam import metrics as X
from quam import models as M
from quam.data import gen_three_gaussians
from quam.rng import derive_rng


def auroc_pair_count(scores, labels):
    """O(n^2) oracle: fraction of positive/negative pairs ranked correctly."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def aupr_threshold_enum(scores, labels):
    """Enumerate every distinct threshold; step-interpolated area."""
    order = np.argsort(-scores, kind="mergesort")
    s, y = scores[order], labels[order]
    area, prev_recall = 0.0, 0.0
    n_pos = y.sum()
    for t in sorted(set(s), reverse=True):
        flag = s >= t
        tp = (flag & (y == 1)).sum()
        fp = (flag & (y == 0)).sum()
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
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


def test_auroc_trivial_cases():
    s = X.ScoredLabels([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert X.auroc(s) == 1.0
    tied = X.ScoredLabels([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1])
    assert X.auroc(tied) == 0.5


def test_auroc_worked_example():
    s = X.ScoredLabels([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert X.auroc(s) == pytest.approx(0.75, abs=1e-15)


def test_auroc_matches_pair_counting():
    rng = derive_rng(0)
    for _ in range(100):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        s = X.ScoredLabels(scores, labels)
        assert X.auroc(s) == pytest.approx(auroc_pair_count(scores, labels), abs=1e-12)


def test_auroc_invariant_under_monotone_transform():
    rng = derive_rng(1)
    scores = rng.normal(size=60)
    labels = rng.integers(0, 2, size=60)
    labels[0], labels[1] = 0, 1
    a = X.auroc(X.ScoredLabels(scores, labels))
    b = X.auroc(X.ScoredLabels(np.exp(3.0 * scores) + 5.0, labels))
    assert a == pytest.approx(b, abs=1e-12)


def test_auroc_negation_symmetry_without_ties():
    rng = derive_rng(2)
    scores = rng.normal(size=50)  # continuous, ties have measure zero
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    a = X.auroc(X.ScoredLabels(scores, labels))
    b = X.auroc(X.ScoredLabels(-scores, labels))
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_aupr_trivial_and_single_positive():
    assert X.aupr(X.ScoredLabels([0.1, 0.9], [0, 1])) == 1.0
    # single positive ranked last among 4: only the full set reaches recall 1
    s = X.ScoredLabels([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1])
    assert X.aupr(s) == pytest.approx(0.25, abs=1e-12)


def test_aupr_matches_threshold_enumeration():
    rng = derive_rng(3)
    for _ in range(100):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        s = X.ScoredLabels(scores, labels)
        assert X.aupr(s) == pytest.approx(aupr_threshold_enum(scores, labels), abs=1e-12)


def test_aupr_random_scores_near_prevalence():
    rng = derive_rng(4)
    n = 10_000
    scores = rng.normal(size=n)
    labels = np.array([0, 1] * (n // 2))
    assert X.aupr(X.ScoredLabels(scores, labels)) == pytest.approx(0.5, abs=0.05)


def test_fpr_at_tpr_cases():
    assert X.fpr_at_tpr(X.ScoredLabels([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]), 0.95) == 0.0
    assert X.fpr_at_tpr(X.ScoredLabels([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]), 0.95) == 1.0


def test_fpr_at_tpr_matches_enumeration():
    rng = derive_rng(5)
    for _ in range(100):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        s = X.ScoredLabels(scores, labels)
        assert X.fpr_at_tpr(s, 0.95) == pytest.approx(fpr_threshold_enum(scores, labels, 0.95), abs=1e-12)


def test_fpr_nonincreasing_in_tpr_slack():
    rng = derive_rng(6)
    scores = rng.normal(size=80)
    labels = rng.integers(0, 2, size=80)
    labels[0], labels[1] = 0, 1
    s = X.ScoredLabels(scores, labels)
    assert X.fpr_at_tpr(s, 0.9) <= X.fpr_at_tpr(s, 0.95)


# a small pool forces ties, at +-inf too
TIED_SCORE = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(TIED_SCORE, min_size=2, max_size=40), st.data())
def test_ranking_metrics_match_oracles_on_tied_and_infinite_scores(scores, data):
    scores = np.array(scores)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))))
    labels[0], labels[1] = 0, 1  # both classes
    s = X.ScoredLabels(scores, labels)
    assert X.auroc(s) == pytest.approx(auroc_pair_count(scores, labels), abs=1e-12)
    assert X.aupr(s) == pytest.approx(aupr_threshold_enum(scores, labels), abs=1e-12)
    for target in (0.1, 0.5, 0.95, 1.0):
        assert X.fpr_at_tpr(s, target) == fpr_threshold_enum(scores, labels, target)


def test_ece_trivial_cases():
    probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1, 0])
    assert X.ece(probs, labels) == 0.0
    half = np.full((100, 2), 0.5)
    labels = np.array([0, 1] * 50)
    assert X.ece(half, labels) == pytest.approx(0.0, abs=1e-12)


def test_ece_worked_example_weights_each_bin_by_its_binned_rows():
    # ten bins: [0.4, 0.5) holds confidence 0.44 with accuracy 1, [0.5, 0.6)
    # 0.56 with accuracy 0, [0.6, 0.7) 0.66 with accuracy 1, and [0.8, 0.9)
    # 0.86 and 0.84 with accuracy 1/2 (two bins would read 0.296, five 0.208)
    probs = np.array([[0.44, 0.30, 0.26], [0.56, 0.44, 0.0], [0.66, 0.34, 0.0], [0.86, 0.14, 0.0], [0.84, 0.16, 0.0]])
    labels = np.array([0, 1, 0, 0, 1])
    assert X.ece(probs, labels) == pytest.approx(1 / 5 * 0.56 + 1 / 5 * 0.56 + 1 / 5 * 0.34 + 2 / 5 * 0.35, abs=1e-15)
    # a confidence above 1 falls in no bin and leaves the weights alone
    assert X.ece(np.vstack([probs, [1.5, 0.0, 0.0]]), np.append(labels, 0)) == X.ece(probs, labels)


def test_ece_calibrated_generator_small():
    rng = derive_rng(8)
    n = 10_000
    p1 = rng.uniform(size=n)
    probs = np.column_stack([1 - p1, p1])
    labels = (rng.uniform(size=n) < p1).astype(int)
    assert X.ece(probs, labels) <= 0.02


def test_simplex_grid_counts():
    for r in (2, 4, 15):
        assert len(X.simplex_grid(r)) == r * (r + 1) // 2
    pts = X.simplex_grid(5)
    assert np.allclose(pts.sum(axis=1), 1.0)


def test_simplex_surface_small():
    data = gen_three_gaussians(seed=0)
    arch = M.ArchSpec((2, 10, 3))
    rows = X.simplex_surface(data, np.array([-6.0, 2.0]), arch, resolution=2, repeats=2, cfg=M.TrainConfig(epochs=80, seed=0))
    assert len(rows) == 3  # the three vertices
    for row in rows:
        assert row["failures"] == 0
        assert 0.0 < row["median_likelihood"] <= 1.0


def test_simplex_surface_runs_keep_every_setting_but_the_seed(monkeypatch):
    cfgs = []
    arch = M.ArchSpec((2, 4, 3))
    monkeypatch.setattr(X, "train", lambda data, arch, cfg, extra_loss: cfgs.append(cfg) or M.init_params(arch, cfg.seed))
    base = M.TrainConfig(lr=1e-2, weight_decay=0.0, epochs=7, batch_size=16, seed=3)
    X.simplex_surface(gen_three_gaussians(seed=0), np.array([0.0, 0.0]), arch, resolution=2, repeats=2, cfg=base)
    assert cfgs == [replace(base, seed=3 + 1000 * ti + rep) for ti in range(3) for rep in range(2)]


def test_simplex_surface_rejects_heads_without_three_classes():
    data = gen_three_gaussians(seed=0)
    for arch in (M.ArchSpec((2, 4, 2)), M.ArchSpec((2, 4, 2), head="gaussian_scalar")):
        with pytest.raises(ValueError, match="3-class categorical head"):
            X.simplex_surface(data, np.array([0.0, 0.0]), arch, resolution=2, repeats=1, cfg=M.TrainConfig(epochs=1))


def test_simplex_surface_center_at_least_min_vertex():
    # pinning the uniform prediction at x is a weaker constraint than at
    # least one of the vertex pins
    data = gen_three_gaussians(seed=0)
    arch = M.ArchSpec((2, 10, 3))
    cfg = M.TrainConfig(epochs=250, seed=1)
    rows = X.simplex_surface(data, np.array([-6.0, 2.0]), arch, resolution=4, repeats=5, cfg=cfg)
    by_target = {row["target"]: row["median_likelihood"] for row in rows}
    vertices = [v for t, v in by_target.items() if max(t) == 1.0]
    (center,) = [v for t, v in by_target.items() if max(t) < 0.4]
    assert center >= min(vertices) - 1e-9


def test_scored_labels_validation():
    with pytest.raises(ValueError):
        X.ScoredLabels([0.1, 0.2], [0, 2])
    with pytest.raises(ValueError):
        X.auroc(X.ScoredLabels([0.1, 0.2], [1, 1]))
    with pytest.raises(ValueError):
        X.ScoredLabels([0.1, np.nan], [0, 1])
    for target in (0.0, 1.5, np.nan):
        with pytest.raises(ValueError):
            X.fpr_at_tpr(X.ScoredLabels([0.1, 0.2], [0, 1]), target)
