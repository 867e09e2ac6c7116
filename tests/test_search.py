import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quam import models as M
from quam.data import LabeledDataset, gen_sine, gen_two_moons
from quam.measures import kl_cat
from quam.rng import derive_rng
from quam.search import SearchConfig, SearchTrajectory, TrajectoryRecord, search_batch, search_suites, trajectory_to_jsonl


def moons_reference():
    data = gen_two_moons(200, noise=0.1, seed=0)
    arch = M.ArchSpec((2, 16, 16, 2))
    return data, M.train(data, arch, M.TrainConfig(epochs=300, seed=0))


def test_zero_lr_single_step_returns_reference():
    data, ref = moons_reference()
    cfg = SearchConfig(c0=1.0, eta_factor=1.5, steps=1, lr=0.0, gamma=0.0, seed=0, bias_nudge=0.0)
    traj = search_batch(np.array([0.0, 2.0]), data, ref, cfg, [(0, "divergence", ())])[0]
    assert traj.no_feasible
    assert traj.best.divergence == 0.0
    assert np.array_equal(traj.best_params.values, ref.values)


def test_far_point_search_flips_class_feasibly():
    data, ref = moons_reference()
    x = np.array([-1.2, 1.2])
    ref_class = int(np.argmax(M.predict_batch(ref, x)[0]))
    cfg = SearchConfig(c0=1.0, eta_factor=1.5, eta_every=10, steps=100, lr=2e-2, seed=0)
    traj = search_batch(x, data, ref, cfg, [(0, ("class", 1 - ref_class), (1 - ref_class,))])[0]
    best = traj.best
    assert best.full_pen <= 0.0
    assert int(np.argmax(best.pred)) == 1 - ref_class
    # re-verify feasibility from the returned parameters themselves
    mtl = M.mean_train_loss(traj.best_params, data)
    assert mtl - (traj.reference_loss + traj.gamma) <= 1e-12
    # a full-batch record reads its loss off the update's own forward pass
    assert best.mean_train_loss == mtl


def test_best_is_max_divergence_among_feasible():
    data, ref = moons_reference()
    cfg = SearchConfig(steps=60, lr=2e-2, seed=1)
    traj = search_batch(np.array([-1.2, 1.2]), data, ref, cfg, [(0, ("class", 1), (1,))])[0]
    feas = [r for r in traj.records if r.full_pen <= 0.0]
    assert traj.best.divergence == max(r.divergence for r in feas)


def test_record_divergence_is_kl_cat_bit_for_bit():
    data, ref = moons_reference()
    x = np.array([-1.2, 1.2])
    ref_probs = M.predict_batch(ref, x)[0]
    cfg = SearchConfig(steps=40, lr=2e-2, seed=2)
    for objective, keys in ((("class", 0), (0,)), (("class", 1), (1,)), ("divergence", ())):
        traj = search_batch(x, data, ref, cfg, [(0, objective, keys)])[0]
        divs = [r.divergence for r in traj.records]
        assert divs == [kl_cat(ref_probs, r.pred) for r in traj.records]
        assert max(divs) > 0.0


def test_penalty_weight_strictly_increases():
    data, ref = moons_reference()
    cfg = SearchConfig(c0=2.0, eta_factor=1.5, eta_every=5, steps=30, lr=1e-2, seed=0)
    traj = search_batch(np.array([0.0, 2.0]), data, ref, cfg, [(0, ("class", 0), (0,))])[0]
    cs = [r.c for r in traj.records]
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
    divs = {int(t.target.split(":")[1]): t.best.divergence for t in trajs}
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


def test_bias_only_scope():
    data, ref = moons_reference()
    cfg = SearchConfig(steps=20, lr=2e-2, seed=0, delta_scope="bias_only")
    traj = search_batch(np.array([-1.2, 1.2]), data, ref, cfg, [(0, ("class", 1), (1,))])[0]
    weight_mask = np.zeros(ref.arch.param_count(), dtype=bool)
    for ws, _ in ref.arch.layer_slices():
        weight_mask[ws] = True
    assert np.array_equal(traj.best_params.values[weight_mask], ref.values[weight_mask])


def test_search_deterministic():
    data, ref = moons_reference()
    cfg = SearchConfig(steps=40, lr=1e-2, seed=2, batch_size=64)
    a = search_batch(np.array([0.0, 1.5]), data, ref, cfg, [(0, ("class", 0), (0,))])[0]
    b = search_batch(np.array([0.0, 1.5]), data, ref, cfg, [(0, ("class", 0), (0,))])[0]
    assert np.array_equal(a.best_params.values, b.best_params.values)
    assert [r.mean_train_loss for r in a.records] == [r.mean_train_loss for r in b.records]
    # mini-batch records take their loss from a separate full-data pass
    assert a.best.mean_train_loss == M.mean_train_loss(a.best_params, data)


def test_trajectory_serialization(tmp_path):
    import json

    data, ref = moons_reference()
    cfg = SearchConfig(steps=10, lr=1e-2, seed=0)
    traj = search_batch(np.array([0.0, 1.5]), data, ref, cfg, [(0, ("class", 0), (0,))])[0]
    path = tmp_path / "traj.jsonl"
    trajectory_to_jsonl(traj, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(traj.records)
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
        assert len(dists) == len(traj.records)
        for d, r in zip(dists, traj.records):
            assert d["kind"] == kind
            row = d["probs"] if kind == "categorical" else [d["mean"], d["variance"]]
            assert np.array_equal(np.array(row), r.pred)


def json_lines(traj):
    """The trajectory file as `json.dumps` writes each record's dict."""
    import json

    lines = []
    for r in traj.records:
        if traj.head == "categorical":
            dist = {"kind": "categorical", "probs": [float(p) for p in r.pred]}
        else:
            dist = {"kind": "gaussian", "mean": float(r.pred[0]), "variance": float(r.pred[1])}
        lines.append(json.dumps({"step": r.step, "c": r.c, "L_adv": r.adv_loss, "L_pen": r.pen_loss, "mean_train_loss": r.mean_train_loss, "dist": dist}) + "\n")
    return "".join(lines)


FLOATS = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1]), st.floats(allow_nan=True, allow_infinity=True))


@settings(derandomize=True, deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["categorical", "gaussian_scalar"]), st.lists(st.tuples(st.integers(0, 10**6), st.lists(FLOATS, min_size=6, max_size=6)), max_size=5), st.data())
def test_trajectory_lines_are_json_dumps_byte_for_byte(tmp_path, head, rows, data):
    width = 2 if head == "gaussian_scalar" else data.draw(st.integers(2, 5))
    records = [TrajectoryRecord(step, *values, np.array(data.draw(st.lists(FLOATS, min_size=width, max_size=width)))) for step, values in rows]
    traj = SearchTrajectory("class:0", head, records, 0, None, False, False, 0.0, 0.0)
    path = tmp_path / "traj.jsonl"
    trajectory_to_jsonl(traj, path)
    assert path.read_bytes() == json_lines(traj).encode()


def test_search_rejects_a_reference_without_a_valid_prediction():
    data, ref = moons_reference()
    broken = ref.with_values(np.full(ref.values.size, np.nan))
    with pytest.raises(ValueError, match="reference prediction"):
        search_batch(np.array([0.0, 1.5]), data, broken, SearchConfig(steps=2), [(0, "divergence", ())])


# -- regression searches ------------------------------------------------------


def sine_reference():
    data = gen_sine(150, seed=1)
    arch = M.ArchSpec((1, 24, 2), head="gaussian_scalar")
    return data, M.train(data, arch, M.TrainConfig(epochs=300, seed=1))


def test_regression_pair_zero_movement():
    data, ref = sine_reference()
    cfg = SearchConfig(steps=1, lr=0.0, gamma=0.0, bias_nudge=0.0, seed=0)
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
    assert up.best.pred[0] > ref_mean
    assert down.best.pred[0] < ref_mean
    assert up.best.full_pen <= 0.0 and down.best.full_pen <= 0.0
    for traj in (up, down):
        assert traj.best.mean_train_loss == M.mean_train_loss(traj.best_params, data)


def test_regression_divergence_larger_far_from_data():
    data, ref = sine_reference()
    cfg = SearchConfig(steps=120, lr=1e-2, seed=0)
    far = search_suites(np.array([-np.pi - 1.0]), data, ref, cfg)[0]
    near = search_suites(np.array([0.5]), data, ref, cfg)[0]
    far_div = max(t.best.divergence for t in far)
    near_div = max(t.best.divergence for t in near)
    assert far_div > near_div


def test_nan_abort_flag():
    data, ref = moons_reference()
    cfg = SearchConfig(steps=10, lr=1e220, seed=0, weight_decay=0.0)
    with np.errstate(all="ignore"):
        traj = search_batch(np.array([0.0, 1.0]), data, ref, cfg, [(0, ("class", 1), (1,))])[0]
    assert traj.nan_abort
    assert len(traj.records) >= 1


# -- lock-step batches ----------------------------------------------------------


def trajectory_bits(traj):
    """Everything a trajectory carries, with floats as their exact reprs."""
    records = [(r.step, r.c, r.adv_loss, r.pen_loss, r.mean_train_loss, r.full_pen, r.divergence, r.pred.tobytes()) for r in traj.records]
    return repr((traj.target, records, traj.best_index, traj.best_params.values.tobytes(), traj.no_feasible, traj.nan_abort, traj.reference_loss, traj.gamma))


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
    assert 1 < len(batch[1].records) < len(batch[0].records) == cfg.steps + 1
    assert len(alone) == len(searches)


def test_batch_of_three_that_shrinks_between_searches_on_both_sides_of_the_slack():
    # the search at the first point overflows after 20 updates; at that step
    # one of the other two pays the penalty and the other sits inside the
    # slack, so the shrunk workspace runs both backward branches
    data, ref = moons_reference()
    xs = np.array([[1e307, -1e307], [-1.2, 1.2], [0.5, 0.5]])
    searches = [(0, ("class", 1), (1,)), (1, ("class", 1), (1,)), (2, ("class", 0), (0,))]
    cfg = SearchConfig(steps=30, lr=1e-2, seed=0)
    with np.errstate(all="ignore"):
        assert_batch_independent(xs, data, ref, cfg, searches)
        batch = search_batch(xs, data, ref, cfg, searches)
    assert [t.nan_abort for t in batch] == [True, False, False]
    abort = batch[0].records[-1].step + 1
    active, inside = (next(r.pen_loss for r in t.records if r.step == abort) for t in batch[1:])
    assert active > 0.0 >= inside

