import warnings

import numpy as np
import pytest

from quam import data as D


def test_two_moons_upper_on_unit_circle_without_noise():
    ds = D.gen_two_moons(40, noise=0.0, seed=0)
    upper = ds.x[ds.y == 0]
    assert np.abs(np.linalg.norm(upper, axis=1) - 1.0).max() < 1e-12


def test_two_moons_lower_y_range_without_noise():
    ds = D.gen_two_moons(40, noise=0.0, seed=0)
    lower_y = ds.x[ds.y == 1][:, 1]
    assert lower_y.min() >= -0.5 - 1e-12
    assert lower_y.max() <= 0.5 + 1e-12


def test_two_moons_reproducible_and_rejects_odd():
    a = D.gen_two_moons(30, 0.1, seed=4)
    b = D.gen_two_moons(30, 0.1, seed=4)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    with pytest.raises(ValueError):
        D.gen_two_moons(31, 0.1, seed=4)


def test_three_gaussians_class_counts():
    ds = D.gen_three_gaussians(seed=1)
    assert len(ds) == 63
    assert np.array_equal(np.bincount(ds.y), [21, 21, 21])


def test_three_gaussians_class_mean_within_clt_bound():
    ds = D.gen_three_gaussians(seed=2)
    mean1 = ds.x[ds.y == 0].mean(axis=0)
    bound = 3.0 * np.sqrt(1.5) / np.sqrt(21.0)
    assert np.all(np.abs(mean1 - np.array([-4.0, -2.0])) < bound)


def test_three_gaussians_reproducible():
    assert np.array_equal(D.gen_three_gaussians(seed=3).x, D.gen_three_gaussians(seed=3).x)


def test_sine_noise_variance():
    ds = D.gen_sine(100_000, seed=0)
    resid = ds.y - np.sin(ds.x[:, 0])
    assert abs(resid.var() - 0.1) < 0.005  # within 5% of variance 0.1


def test_sine_support_and_reproducibility():
    ds = D.gen_sine(500, seed=9)
    assert ds.x.min() >= -np.pi and ds.x.max() <= np.pi
    assert np.array_equal(ds.y, D.gen_sine(500, seed=9).y)


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(5, 9)).astype(np.float64) / 255.0
    ds = D.LabeledDataset(pixels, rng.integers(0, 10, 5), "classification")
    D.save_idx(ds, tmp_path / "img", tmp_path / "lab", rows=3, cols=3)
    loaded = D.load_idx(tmp_path / "img", tmp_path / "lab")
    assert np.array_equal(loaded.x, ds.x)
    assert np.array_equal(loaded.y, ds.y)
    # a second write of the loaded data is byte-identical
    D.save_idx(loaded, tmp_path / "img2", tmp_path / "lab2", rows=3, cols=3)
    assert (tmp_path / "img").read_bytes() == (tmp_path / "img2").read_bytes()
    assert (tmp_path / "lab").read_bytes() == (tmp_path / "lab2").read_bytes()


def test_save_idx_rejects_a_label_that_is_not_a_byte(tmp_path):
    # cast to uint8, the first would be written as 44
    ds = D.LabeledDataset(np.zeros((3, 4)), np.array([3, 300, 256]), "classification")
    with pytest.raises(ValueError, match=r"label 300 lies outside 0\.\.255"):
        D.save_idx(ds, tmp_path / "img", tmp_path / "lab", rows=2, cols=2)
    assert not (tmp_path / "img").exists() and not (tmp_path / "lab").exists()


def test_idx_pixel_scaling(tmp_path):
    import struct

    with open(tmp_path / "img", "wb") as f:
        f.write(struct.pack(">IIII", 0x803, 2, 2, 2))
        f.write(bytes([255, 0, 128, 64, 1, 2, 3, 4]))
    with open(tmp_path / "lab", "wb") as f:
        f.write(struct.pack(">II", 0x801, 2))
        f.write(bytes([7, 3]))
    ds = D.load_idx(tmp_path / "img", tmp_path / "lab")
    assert len(ds) == 2
    assert ds.x[0, 0] == 1.0
    assert ds.x[0, 1] == 0.0
    assert np.array_equal(ds.y, [7, 3])


def test_idx_count_mismatch_rejected(tmp_path):
    import struct

    with open(tmp_path / "img", "wb") as f:
        f.write(struct.pack(">IIII", 0x803, 2, 2, 2))
        f.write(bytes(8))
    with open(tmp_path / "lab", "wb") as f:
        f.write(struct.pack(">II", 0x801, 3))
        f.write(bytes(3))
    with pytest.raises(ValueError, match="does not match"):
        D.load_idx(tmp_path / "img", tmp_path / "lab")


def test_idx_bad_magic_names_offset(tmp_path):
    (tmp_path / "img").write_bytes(bytes(20))
    (tmp_path / "lab").write_bytes(bytes(20))
    with pytest.raises(ValueError, match="magic"):
        D.load_idx(tmp_path / "img", tmp_path / "lab")


def test_idx_truncated_rejected(tmp_path):
    import struct

    with open(tmp_path / "img", "wb") as f:
        f.write(struct.pack(">IIII", 0x803, 4, 2, 2))
        f.write(bytes(7))  # needs 16
    (tmp_path / "lab").write_bytes(struct.pack(">II", 0x801, 4) + bytes(4))
    with pytest.raises(ValueError, match="truncated"):
        D.load_idx(tmp_path / "img", tmp_path / "lab")


def test_subset_split_counts_disjoint_exhaustive():
    ds = D.gen_two_moons(100, 0.1, seed=0)
    a, b = D.subset_split(ds, [70, 30], seed=1)
    assert len(a) == 70 and len(b) == 30
    merged = np.vstack([a.x, b.x])
    assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.x, axis=0))


def test_subset_split_seeded():
    ds = D.gen_two_moons(60, 0.1, seed=0)
    a1, _ = D.subset_split(ds, [40, 20], seed=5)
    a2, _ = D.subset_split(ds, [40, 20], seed=5)
    assert np.array_equal(a1.x, a2.x)


def test_subset_split_fractions_and_infeasible():
    ds = D.gen_two_moons(50, 0.1, seed=0)
    a, b = D.subset_split(ds, [0.8, 0.2], seed=0)
    assert len(a) == 40 and len(b) == 10
    with pytest.raises(ValueError):
        D.subset_split(ds, [60], seed=0)


def test_csv_round_trip(tmp_path):
    # 17 significant digits give every float back bit for bit
    ds = D.gen_sine(20, seed=3)
    path = tmp_path / "d.csv"
    path.write_text("x0,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(ds.x[:, 0], ds.y)))
    loaded = D.from_csv(path, "regression")
    assert np.array_equal(loaded.x, ds.x)
    assert np.array_equal(loaded.y, ds.y)


@pytest.mark.parametrize("label", [0.7, np.nan, np.inf, -np.inf])
def test_classification_labels_must_be_integers(label):
    # cast to int, [0.7, 1.9, 0.2] would read [0, 1, 0] without a word
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"class labels must be integers, got {label:g}"):
            D.LabeledDataset(np.zeros((3, 1)), [1.0, label, 0.0], "classification")


def test_integral_float_labels_are_class_indices():
    ds = D.LabeledDataset(np.zeros((3, 1)), [1.0, 0.0, 2.0], "classification")
    assert ds.y.dtype == np.int64 and ds.y.tolist() == [1, 0, 2]
