import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quam import estimator as E
from quam import models as M
from quam import search as S
from quam.data import LabeledDataset, gen_sine, gen_two_moons
from quam.measures import kl
from quam.rng import derive_rng
from quam.search import SearchConfig, SearchTrajectory, _Workspace, search_batch, search_suites, trajectory_to_jsonl


def moons_reference():
    data = gen_two_moons(200, noise=0.1, seed=0)
    arch = M.ArchSpec((2, 16, 16, 2))
    return data, M.train(data, arch, M.TrainConfig(epochs=300, seed=0))


def test_zero_lr_single_step_returns_reference():
    data, ref = moons_reference()
    cfg = SearchConfig(c0=1.0, eta_factor=1.5, steps=1, lr=0.0, gamma=0.0, seed=0)
    traj = search_batch(np.array([0.0, 2.0]), data, ref, cfg, [(0, "divergence", ())])[0]
    assert traj.no_feasible
    assert traj.divergence[traj.best_index] == 0.0
    assert np.array_equal(traj.best_params.values, ref.values)


def test_far_point_search_flips_class_feasibly():
    data, ref = moons_reference()
    x = np.array([-1.2, 1.2])
    ref_class = int(np.argmax(M.predict_batch(ref, x)[0]))
    cfg = SearchConfig(c0=1.0, eta_factor=1.5, eta_every=10, steps=100, lr=2e-2, seed=0)
    traj = search_batch(x, data, ref, cfg, [(0, ("class", 1 - ref_class), (1 - ref_class,))])[0]
    best = traj.best_index
    assert traj.full_pen[best] <= 0.0
    assert int(np.argmax(traj.pred[best])) == 1 - ref_class
    # re-verify feasibility from the returned parameters themselves
    mtl = M.mean_train_loss(traj.best_params, data)
    assert mtl - (traj.reference_loss + traj.gamma) <= 1e-12
    # a full-batch record reads its loss off the update's own forward pass
    assert traj.mean_train_loss[best] == mtl


def test_best_is_max_divergence_among_feasible():
    data, ref = moons_reference()
    cfg = SearchConfig(steps=60, lr=2e-2, seed=1)
    traj = search_batch(np.array([-1.2, 1.2]), data, ref, cfg, [(0, ("class", 1), (1,))])[0]
    feas = traj.full_pen <= 0.0
    assert traj.divergence[traj.best_index] == traj.divergence[feas].max()


def test_record_divergence_is_kl_bit_for_bit():
    data, ref = moons_reference()
    x = np.array([-1.2, 1.2])
    ref_probs = M.predict_batch(ref, x)[0]
    cfg = SearchConfig(steps=40, lr=2e-2, seed=2)
    for objective, keys in ((("class", 0), (0,)), (("class", 1), (1,)), ("divergence", ())):
        traj = search_batch(x, data, ref, cfg, [(0, objective, keys)])[0]
        divs = traj.divergence.tolist()
        assert divs == [float(kl("categorical", ref_probs, pred)) for pred in traj.pred]
        assert max(divs) > 0.0


@pytest.mark.parametrize("reference, batch_size, scope", [("moons", None, "all_params"), ("moons", 50, "last_layer"), ("sine", None, "all_params")])
def test_an_unmoved_iterate_has_the_reference_row_bit_for_bit(reference, batch_size, scope):
    # each search's test row has its own GEMMs on contiguous copies of its
    # columns: on a strided column a gemv can round differently from
    # predict_batch's one-row pass, and an unmoved iterate would diverge
    # from the reference by a spurious KL > 0.  A class search is never
    # nudged, so every record is unmoved; a direction or a divergence search
    # is, and its record at step 0 is the exact reference, taken through the
    # same test-row GEMMs
    data, ref = moons_reference() if reference == "moons" else sine_reference()
    xs = derive_rng(16).uniform(-2.0, 2.5, size=(8, ref.arch.widths[0]))
    cfg = SearchConfig(steps=2, lr=0.0, batch_size=batch_size, delta_scope=scope, seed=0)
    suites = search_suites(xs, data, ref, cfg)
    if reference == "moons":
        divergence = search_batch(xs, data, ref, cfg, [(i, "divergence", ()) for i in range(len(xs))])
        suites = [suite + [traj] for suite, traj in zip(suites, divergence)]
    for x, suite in zip(xs, suites):
        row = M.predict_batch(ref, x)[0]
        for traj in suite:
            unmoved = len(traj.pred) if traj.target.startswith("class") else 1
            assert traj.step[0] == 0 and traj.reference_pred.tobytes() == row.tobytes()
            assert traj.pred[:unmoved].tobytes() == np.tile(row, (unmoved, 1)).tobytes()
            assert (traj.divergence[:unmoved] == 0.0).all()


def test_penalty_weight_strictly_increases():
    data, ref = moons_reference()
    cfg = SearchConfig(c0=2.0, eta_factor=1.5, eta_every=5, steps=30, lr=1e-2, seed=0)
    traj = search_batch(np.array([0.0, 2.0]), data, ref, cfg, [(0, ("class", 0), (0,))])[0]
    cs = traj.c.tolist()
    stages = sorted(set(cs))
    assert all(b > a for a, b in zip(stages, stages[1:]))
    assert np.isclose(stages[1] / stages[0], 1.5)


def test_targeted_suite_one_trajectory_per_class():
    data, ref = moons_reference()
    cfg = SearchConfig(steps=20, lr=1e-2, seed=0)
    trajs = search_suites(np.array([0.5, 0.5]), data, ref, cfg)[0]
    assert [t.target for t in trajs] == ["class:0", "class:1"]


def test_targeted_suite_confident_class_gains_least():
    # at a far corner the reference is confident; its own class's search has
    # near-zero achievable gain while the opposite class finds real adversaries
    data, ref = moons_reference()
    x = np.array([-1.2, 1.2])
    confident = int(np.argmax(M.predict_batch(ref, x)[0]))
    cfg = SearchConfig(steps=100, lr=2e-2, seed=0)
    trajs = search_suites(x, data, ref, cfg)[0]
    divs = {int(t.target.split(":")[1]): t.divergence[t.best_index] for t in trajs}
    assert divs[confident] <= min(d for c, d in divs.items() if c != confident) + 1e-9


def test_targeted_suite_keyed_by_class_identity():
    data, ref = moons_reference()
    x = np.array([-1.0, 1.0])
    cfg = SearchConfig(steps=25, lr=1e-2, seed=3)
    full = search_suites(x, data, ref, cfg)[0]
    reordered = search_suites(x, data, ref, cfg, [[1, 0]])[0]
    by_class = {t.target: t for t in reordered}
    for t in full:
        assert np.array_equal(t.best_params.values, by_class[t.target].best_params.values)


def test_last_layer_scope_only_touches_last_layer():
    data, ref = moons_reference()
    cfg = SearchConfig(steps=150, lr=2e-2, seed=0, delta_scope="last_layer", gamma=0.05, eta_every=5)
    traj = search_batch(np.array([-1.2, 1.2]), data, ref, cfg, [(0, ("class", 1), (1,))])[0]
    assert not traj.no_feasible
    ws, bs = ref.arch.layer_slices()[-1]
    frozen = np.ones(ref.arch.param_count(), dtype=bool)
    frozen[ws] = False
    frozen[bs] = False
    assert np.array_equal(traj.best_params.values[frozen], ref.values[frozen])
    assert not np.array_equal(traj.best_params.values[~frozen], ref.values[~frozen])
    # a one-layer network's last layer is all of it
    data = gen_two_moons(200, noise=0.1, seed=0)
    ref = M.train(data, M.ArchSpec((2, 2)), M.TrainConfig(epochs=100, seed=0))
    last, every = (search_batch(np.array([-1.2, 1.2]), data, ref, SearchConfig(steps=40, lr=2e-2, seed=0, delta_scope=scope), [(0, ("class", 1), (1,))])[0] for scope in ("last_layer", "all_params"))
    assert not last.no_feasible
    for field in ("pred", "mean_train_loss", "divergence"):
        assert getattr(last, field).tobytes() == getattr(every, field).tobytes()
    assert last.best_params.values.tobytes() == every.best_params.values.tobytes()


def test_search_deterministic():
    data, ref = moons_reference()
    cfg = SearchConfig(steps=40, lr=1e-2, seed=2, batch_size=64)
    a = search_batch(np.array([0.0, 1.5]), data, ref, cfg, [(0, ("class", 0), (0,))])[0]
    b = search_batch(np.array([0.0, 1.5]), data, ref, cfg, [(0, ("class", 0), (0,))])[0]
    assert np.array_equal(a.best_params.values, b.best_params.values)
    assert a.mean_train_loss.tolist() == b.mean_train_loss.tolist()
    # mini-batch records take their loss from a separate full-data pass
    assert a.mean_train_loss[a.best_index] == M.mean_train_loss(a.best_params, data)


def test_trajectory_serialization(tmp_path):
    import json

    data, ref = moons_reference()
    cfg = SearchConfig(steps=10, lr=1e-2, seed=0)
    traj = search_batch(np.array([0.0, 1.5]), data, ref, cfg, [(0, ("class", 0), (0,))])[0]
    path = tmp_path / "traj.jsonl"
    trajectory_to_jsonl(traj, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(traj.step)
    assert {"step", "c", "L_adv", "L_pen", "mean_train_loss", "dist"} <= set(rows[0])
    assert rows[0]["dist"]["kind"] == "categorical"


def test_trajectory_lines_carry_the_record_rows_bit_for_bit(tmp_path):
    import json

    cfg = SearchConfig(steps=10, lr=1e-2, seed=0)
    moons, moons_ref = moons_reference()
    sine, sine_ref = sine_reference()
    cat = search_batch(np.array([0.0, 1.5]), moons, moons_ref, cfg, [(0, ("class", 0), (0,))])[0]
    gauss = search_batch(np.array([-np.pi - 1.0]), sine, sine_ref, cfg, [(0, ("direction", +1), (0,))])[0]
    for traj, head, kind in ((cat, "categorical", "categorical"), (gauss, "gaussian_scalar", "gaussian")):
        assert traj.head == head
        path = tmp_path / f"{kind}.jsonl"
        trajectory_to_jsonl(traj, path)
        dists = [json.loads(line)["dist"] for line in path.read_text().splitlines()]
        assert len(dists) == len(traj.step)
        for d, pred in zip(dists, traj.pred):
            assert d["kind"] == kind
            row = d["probs"] if kind == "categorical" else [d["mean"], d["variance"]]
            assert np.array_equal(np.array(row), pred)


def json_lines(traj):
    """The trajectory file as `json.dumps` writes each record's dict."""
    import json

    lines = []
    for step, c, adv, pen, loss, pred in zip(traj.step.tolist(), traj.c.tolist(), traj.adv_loss.tolist(), traj.pen_loss.tolist(), traj.mean_train_loss.tolist(), traj.pred):
        if traj.head == "categorical":
            dist = {"kind": "categorical", "probs": [float(p) for p in pred]}
        else:
            dist = {"kind": "gaussian", "mean": float(pred[0]), "variance": float(pred[1])}
        lines.append(json.dumps({"step": step, "c": c, "L_adv": adv, "L_pen": pen, "mean_train_loss": loss, "dist": dist}) + "\n")
    return "".join(lines)


FLOATS = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1]), st.floats(allow_nan=True, allow_infinity=True))


@settings(derandomize=True, deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["categorical", "gaussian_scalar"]), st.lists(st.tuples(st.integers(0, 10**6), st.lists(FLOATS, min_size=5, max_size=5)), max_size=5), st.data())
def test_trajectory_lines_are_json_dumps_byte_for_byte(tmp_path, head, rows, data):
    width = 2 if head == "gaussian_scalar" else data.draw(st.integers(2, 5))
    preds = [data.draw(st.lists(FLOATS, min_size=width, max_size=width)) for _ in rows]
    floats = np.array([values for _, values in rows], dtype=float).reshape(len(rows), 5)
    steps = np.array([step for step, _ in rows], dtype=int)
    traj = SearchTrajectory("class:0", head, steps, *floats.T, np.array(preds, dtype=float).reshape(len(rows), width), 0, None, False, False, 0.0, 0.0, np.zeros(width))
    path = tmp_path / "traj.jsonl"
    trajectory_to_jsonl(traj, path)
    assert path.read_bytes() == json_lines(traj).encode()


def test_search_rejects_a_reference_without_a_valid_prediction():
    data, ref = moons_reference()
    broken = M.ModelParams(ref.arch, np.full(ref.values.size, np.nan))
    with pytest.raises(ValueError, match="reference prediction"):
        search_batch(np.array([0.0, 1.5]), data, broken, SearchConfig(steps=2), [(0, "divergence", ())])


def test_search_names_the_input_where_a_finite_reference_underflows():
    # log variance = -x: at x = 1e6 the variance exp(-1e6) underflows to 0
    ref = M.ModelParams(M.ArchSpec((1, 2), head="gaussian_scalar"), np.array([0.0, -1.0, 0.0, 0.0]))
    data = gen_sine(20, seed=0)
    with pytest.raises(FloatingPointError, match=r"reference prediction at inputs \[\[1000000.0\]\]"):
        search_suites(np.array([[0.0], [1e6]]), data, ref, SearchConfig(steps=2))
    # the caller's non-finite inputs are a ValueError
    with pytest.raises(ValueError, match="finite"):
        search_suites(np.array([[np.nan]]), data, ref, SearchConfig(steps=2))


# -- regression searches ------------------------------------------------------


def sine_reference():
    data = gen_sine(150, seed=1)
    arch = M.ArchSpec((1, 24, 2), head="gaussian_scalar")
    return data, M.train(data, arch, M.TrainConfig(epochs=300, seed=1))


def test_regression_pair_zero_movement():
    data, ref = sine_reference()
    cfg = SearchConfig(steps=1, lr=0.0, gamma=0.0, seed=0)
    up, down = search_suites(np.array([0.3]), data, ref, cfg)[0]
    for traj in (up, down):
        assert traj.no_feasible
        assert np.array_equal(traj.best_params.values, ref.values)


def test_regression_pair_brackets_reference_outside_support():
    data, ref = sine_reference()
    x = np.array([-np.pi - 1.0])
    cfg = SearchConfig(steps=120, lr=1e-2, seed=0)
    up, down = search_suites(x, data, ref, cfg)[0]
    ref_mean = M.predict_batch(ref, x)[0, 0]
    assert up.pred[up.best_index, 0] > ref_mean
    assert down.pred[down.best_index, 0] < ref_mean
    assert up.full_pen[up.best_index] <= 0.0 and down.full_pen[down.best_index] <= 0.0
    for traj in (up, down):
        assert traj.mean_train_loss[traj.best_index] == M.mean_train_loss(traj.best_params, data)


def test_regression_divergence_larger_far_from_data():
    data, ref = sine_reference()
    cfg = SearchConfig(steps=120, lr=1e-2, seed=0)
    far = search_suites(np.array([-np.pi - 1.0]), data, ref, cfg)[0]
    near = search_suites(np.array([0.5]), data, ref, cfg)[0]
    far_div = max(t.divergence[t.best_index] for t in far)
    near_div = max(t.divergence[t.best_index] for t in near)
    assert far_div > near_div


def test_nan_abort_flag():
    data, ref = moons_reference()
    cfg = SearchConfig(steps=10, lr=1e220, seed=0, weight_decay=0.0)
    with np.errstate(all="ignore"):
        traj = search_batch(np.array([0.0, 1.0]), data, ref, cfg, [(0, ("class", 1), (1,))])[0]
    assert traj.nan_abort
    assert len(traj.step) >= 1


def record_rows(traj):
    """Each record as (step, c, adv_loss, pen_loss, mean_train_loss, full_pen, divergence, pred bytes)."""
    columns = (traj.step, traj.c, traj.adv_loss, traj.pen_loss, traj.mean_train_loss, traj.full_pen, traj.divergence)
    return list(zip(*(col.tolist() for col in columns), (pred.tobytes() for pred in traj.pred)))


def test_a_search_that_aborts_at_its_first_step_returns_the_reference_record(tmp_path):
    # a last layer scaled by 1e308: the training loss is NaN, yet the
    # prediction at (0.5, 0.5) is [0, 1].  A class search records no
    # reference row, and both abort at step 1, so each returns the reference
    # as its one record
    data = gen_two_moons(60, noise=0.1, seed=0)
    arch = M.ArchSpec((2, 8, 2))
    values = M.train(data, arch, M.TrainConfig(epochs=50, seed=0)).values.copy()
    ws, bs = arch.layer_slices()[-1]
    values[ws] *= 1e308
    values[bs] *= 1e308
    with np.errstate(all="ignore"):
        (br,), (trajs,) = E.quam_scores(np.array([0.5, 0.5]), data, M.ModelParams(arch, values), SearchConfig(), temperature=0.1)
    assert br.flags == ("no_feasible_adversary", "nan_abort")
    assert [t.target for t in trajs] == ["class:0", "class:1"]
    for traj in trajs:
        assert traj.no_feasible and traj.nan_abort and traj.best_index == 0
        assert np.array_equal(traj.best_params.values, values)
        (row,) = record_rows(traj)
        np.testing.assert_array_equal(np.array(row[:7], dtype=float), [0, 1.0, 0.0, np.nan, np.nan, np.nan, 0.0])
        assert row[7] == np.array([0.0, 1.0]).tobytes()
        path = tmp_path / f"{traj.target}.jsonl"
        trajectory_to_jsonl(traj, path)
        expected = '{"step": 0, "c": 1.0, "L_adv": 0.0, "L_pen": NaN, "mean_train_loss": NaN, "dist": {"kind": "categorical", "probs": [0.0, 1.0]}}\n'
        assert path.read_text() == expected


# -- lock-step batches ----------------------------------------------------------


def trajectory_bits(traj):
    """Everything a trajectory carries, with floats as their exact reprs."""
    return repr((traj.target, record_rows(traj), traj.best_index, traj.best_params.values.tobytes(), traj.no_feasible, traj.nan_abort, traj.reference_loss, traj.gamma))


def assert_batch_independent(xs, data, ref, cfg, searches):
    """Each search gives the same bits alone (K = 1), in the batch, and in a reversed and a shuffled batch."""
    alone = [trajectory_bits(search_batch(xs, data, ref, cfg, [s])[0]) for s in searches]
    assert [trajectory_bits(t) for t in search_batch(xs, data, ref, cfg, searches)] == alone
    assert [trajectory_bits(t) for t in search_batch(xs, data, ref, cfg, searches[::-1])] == alone[::-1]
    order = derive_rng(11).permutation(len(searches))
    assert [trajectory_bits(t) for t in search_batch(xs, data, ref, cfg, [searches[i] for i in order])] == [alone[i] for i in order]
    return alone


def test_batch_class_searches_across_points_match_their_single_runs():
    data, ref = moons_reference()
    xs = np.array([[-1.2, 1.2], [0.5, 0.5], [2.2, 1.0]])
    searches = [(i, ("class", c), (c,)) for i in range(3) for c in (0, 1)]
    assert_batch_independent(xs, data, ref, SearchConfig(steps=40, lr=1e-2, seed=0), searches)


def test_batch_direction_pair_and_nudged_divergence_match_their_single_runs():
    data, ref = sine_reference()
    xs = np.array([[-np.pi - 1.0], [0.5]])
    searches = [(0, ("direction", +1), (0,)), (0, ("direction", -1), (1,)), (1, ("direction", +1), (0,)), (1, "divergence", (7,)), (0, "divergence", (8,))]
    assert_batch_independent(xs, data, ref, SearchConfig(steps=40, lr=1e-2, seed=0), searches)


def test_batch_minibatch_last_layer_searches_match_their_single_runs():
    data, ref = moons_reference()
    xs = np.array([[-1.2, 1.2], [0.0, 1.5]])
    cfg = SearchConfig(steps=30, lr=2e-2, seed=4, batch_size=64, delta_scope="last_layer", gamma=0.05, eta_every=5)
    searches = [(0, ("class", 1), (1,)), (1, ("class", 0), (0,)), (1, "divergence", (3,)), (0, ("class", 0), (0,))]
    assert_batch_independent(xs, data, ref, cfg, searches)


@pytest.mark.parametrize("scope, batches", [("all_params", [5, 5, 1]), ("last_layer", [5, 6])])
def test_search_suites_splits_its_points_into_batches_that_move_no_bit(monkeypatch, scope, batches):
    # a search holds (300 + 1) rows x sum(fan_in + 1) elements: 3 + 17 + 129 = 149 over every
    # layer fits 5 searches in 2^18, and 129 over the last layer 6, so the suites of 1, 4, 2, 3
    # and 1 classes run as points 0-1, 2-3 and 4, or as points 0-1 and 2-4
    rng = derive_rng(5)
    data = LabeledDataset(rng.standard_normal((300, 2)), rng.integers(0, 4, 300), "classification")
    ref = M.train(data, M.ArchSpec((2, 16, 128, 4)), M.TrainConfig(epochs=5, seed=0))
    xs = rng.standard_normal((5, 2))
    classes = [[2], [0, 1, 2, 3], [1, 3], [0, 2, 3], [1]]
    cfg = SearchConfig(steps=8, lr=1e-2, seed=0, delta_scope=scope)
    calls = []

    def spy(xs, data, reference, config, searches):
        calls.append(len(searches))
        return search_batch(xs, data, reference, config, searches)

    monkeypatch.setattr(S, "search_batch", spy)
    runs = []
    for block, expected in ((1, [len(c) for c in classes]), (S._BATCH_BLOCK, batches), (1 << 30, [11])):
        monkeypatch.setattr(S, "_BATCH_BLOCK", block)
        calls.clear()
        suites = search_suites(xs, data, ref, cfg, classes)
        assert calls == expected, block
        assert [[t.target for t in suite] for suite in suites] == [[f"class:{c}" for c in cs] for cs in classes]
        runs.append([[trajectory_bits(t) for t in suite] for suite in suites])
    assert runs[0] == runs[1] == runs[2]


def test_batch_search_that_overflows_aborts_alone():
    # at the first point the test-row outputs overflow after some updates
    # (one search aborts mid-run); the other searches keep their bits
    data, ref = moons_reference()
    xs = np.array([[1e307, -1e307], [-1.2, 1.2], [0.5, 0.5]])
    searches = [(i, ("class", c), (c,)) for i in range(3) for c in (0, 1)]
    cfg = SearchConfig(steps=30, lr=1e-2, seed=0)
    with np.errstate(all="ignore"):
        alone = assert_batch_independent(xs, data, ref, cfg, searches)
        batch = search_batch(xs, data, ref, cfg, searches)
    assert [t.nan_abort for t in batch] == [False, True, False, False, False, False]
    assert 1 < len(batch[1].step) < len(batch[0].step) == cfg.steps + 1
    assert len(alone) == len(searches)


def test_batch_minibatch_search_that_overflows_aborts_alone():
    # the same searches on mini-batches: after the abort, the full-data
    # losses of the other searches keep their bits
    data, ref = moons_reference()
    xs = np.array([[1e307, -1e307], [-1.2, 1.2], [0.5, 0.5]])
    searches = [(i, ("class", c), (c,)) for i in range(3) for c in (0, 1)]
    cfg = SearchConfig(steps=30, lr=1e-2, seed=0, batch_size=64)
    with np.errstate(all="ignore"):
        assert_batch_independent(xs, data, ref, cfg, searches)
        batch = search_batch(xs, data, ref, cfg, searches)
    assert [t.nan_abort for t in batch] == [False, True, False, False, False, False]
    assert 1 < len(batch[1].step) < len(batch[0].step) == cfg.steps + 1


def test_batch_of_three_that_keeps_an_aborted_row_between_searches_on_both_sides_of_the_slack():
    # the search at the first point overflows after 20 updates; at that step
    # one of the other two pays the penalty and the other sits inside the
    # slack, so the steps after the abort run both backward branches with the
    # aborted search's row still in the stack
    data, ref = moons_reference()
    xs = np.array([[1e307, -1e307], [-1.2, 1.2], [0.5, 0.5]])
    searches = [(0, ("class", 1), (1,)), (1, ("class", 1), (1,)), (2, ("class", 0), (0,))]
    cfg = SearchConfig(steps=30, lr=1e-2, seed=0)
    with np.errstate(all="ignore"):
        assert_batch_independent(xs, data, ref, cfg, searches)
        batch = search_batch(xs, data, ref, cfg, searches)
    assert [t.nan_abort for t in batch] == [True, False, False]
    abort = batch[0].step[-1] + 1
    active, inside = (t.pen_loss[t.step == abort][0] for t in batch[1:])
    assert active > 0.0 >= inside



# -- the step's head pass and backprop ----------------------------------------


def random_workspace(widths, head, objectives, n, seed):
    """A workspace of K = len(objectives) random models and test inputs, with a bound of 0."""
    rng = derive_rng(seed)
    arch = M.ArchSpec(widths, head=head)
    k = len(objectives)
    if head == "categorical":
        refs = rng.dirichlet(np.ones(widths[-1]), size=k)
    else:
        refs = np.column_stack([rng.normal(size=k), rng.uniform(0.2, 2.0, size=k)])
    x = rng.normal(size=(k, 1, widths[0]))
    return _Workspace(arch, rng.normal(size=(k, arch.param_count())), n, x, refs, objectives, 0.0), rng


def random_targets(arch, rng, shape):
    y = rng.integers(0, arch.widths[-1], size=shape) if arch.head == "categorical" else rng.normal(size=shape)
    return M.target_rows(arch, y.ravel()).reshape(shape + (-1,))


CATEGORICAL_OBJECTIVES = [[("class", 0)], ["divergence"], [("class", 1), ("class", 0), ("class", 1)], ["divergence"] * 3, [("class", 1), "divergence", ("class", 0)]]
GAUSSIAN_OBJECTIVES = [[("direction", +1)], ["divergence"], [("direction", +1), ("direction", -1), "divergence"]]
HEAD_CASES = [((3, 5, c), "categorical", o) for c in (2, 3, 10) for o in CATEGORICAL_OBJECTIVES] + [((1, 5, w), "gaussian_scalar", o) for w in (1, 2) for o in GAUSSIAN_OBJECTIVES]


@pytest.mark.parametrize("widths, head, objectives", HEAD_CASES)
@pytest.mark.parametrize("minibatch", [False, True])
def test_head_pass_is_the_batch_cross_entropy_and_the_adversarial_term_bit_for_bit(widths, head, objectives, minibatch):
    # one pass over all n + 1 rows: the batch rows give each search's mean
    # cross-entropy and its gradient, the test row L_adv (CE of the
    # objective's target for a class objective, H[ref] - CE otherwise), its
    # gradient and the prediction row, each with the bits of its own call
    n = 7
    ws, rng = random_workspace(widths, head, objectives, n, seed=len(objectives) + widths[-1])
    arch, k = ws.arch, len(objectives)
    # each test row's target: the one-hot row of a class objective, else the reference row
    target = np.array([np.eye(widths[-1])[o[1]] if isinstance(o, tuple) and o[0] == "class" else ref for o, ref in zip(objectives, ws.ref)])[:, None]
    fixed = random_targets(arch, rng, (n,))
    for _ in range(2 if minibatch else 1):
        # a mini-batch search fills new rows at every step, a full batch once
        shape = (k, n) if minibatch else (n,)
        bx, bt = rng.normal(size=shape + (widths[0],)), random_targets(arch, rng, shape) if minibatch else fixed
        ws.fill(bx, bt)
        batch_loss, adv = ws.losses()
        out, grad_out = ws.acts[-1], ws.dz.swapaxes(-1, -2)
        loss, grad = M.cross_entropy(arch, out[:, :n].copy(), bt)
        assert batch_loss.tobytes() == loss.tobytes()
        assert grad_out[:, :n].tobytes() == grad.tobytes()
        ce, ce_grad = M.cross_entropy(arch, out[:, n:].copy(), target)
        assert adv.tobytes() == np.where(ws.is_class, ce, ws.ref_entropy - ce).tobytes()
        assert grad_out[:, n:].tobytes() == np.where(ws.is_class[:, None, None], ce_grad, -ce_grad).tobytes()
        assert ws.test_preds.tobytes() == M.head_predictions(arch, out[:, n:].copy()).tobytes()


@pytest.mark.parametrize("head", ["categorical", "gaussian_scalar"])
@pytest.mark.parametrize("active", [(True, True, True), (False, False, False), (False, True, True), (True, False, True)])
def test_workspace_backward_is_a_fresh_backprop_bit_for_bit(head, active):
    # all searches penalized: one pass over every row; none: the test rows
    # alone; some (a consecutive and a non-consecutive subset): the test rows
    # of every search, then all rows of the penalized ones.  The workspace
    # runs on views of its buffers, the expected gradients on fresh
    # contiguous copies of the rows they take
    objectives = [("class", 0), "divergence", ("class", 1)] if head == "categorical" else [("direction", +1), ("direction", -1), "divergence"]
    widths = (3, 6, 5, 4) if head == "categorical" else (1, 6, 5, 2)
    n, c = 7, 2.5
    ws, rng = random_workspace(widths, head, objectives, n, seed=5)
    arch = ws.arch
    ws.fill(rng.normal(size=(n, widths[0])), random_targets(arch, rng, (n,)))
    ws.losses()
    ws.batch_loss = ws.bound + np.where(active, 1.0, -1.0)
    # the expected gradients: the direction penalty enters at the test row's mean
    dz = ws.dz.copy()
    pushed = ws.violation() > 0.0
    dz[pushed, 0, n] -= c * ws.direction[pushed]

    def backprop(models, rows):
        values = ws.values[models]
        bufs = [b[models][..., rows].copy() for b in ws.bufs]
        return M.Backprop(arch, M.layer_views(arch, values), bufs, dz[models][..., rows].copy(), np.empty(values.shape)).run()

    k = len(objectives)
    expected = backprop(np.arange(k), slice(n, None))
    models = np.flatnonzero(active)
    if models.size:
        dz[models, :, :n] *= c
        expected[models] = backprop(models, slice(None))
    assert ws.gradient(c).tobytes() == expected.tobytes()
