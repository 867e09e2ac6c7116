"""Hand-computable cases for the benchmark's output checker.

    python3 -m pytest bench/test_check.py
"""

import math
import struct

import numpy as np
import pytest

import check as C


def test_two_equal_one_hot_candidates_give_ln2():
    total, aleatoric, epistemic = C.split_categorical([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    assert epistemic == pytest.approx(math.log(2), abs=1e-15)
    assert aleatoric == 0.0
    assert total == pytest.approx(math.log(2), abs=1e-15)


def test_single_candidate_has_no_epistemic():
    total, aleatoric, epistemic = C.split_categorical([[0.3, 0.7]], [1.0])
    assert epistemic == pytest.approx(0.0, abs=1e-15)
    assert total == pytest.approx(aleatoric, abs=1e-15)
    assert aleatoric == pytest.approx(-(0.3 * math.log(0.3) + 0.7 * math.log(0.7)), abs=1e-15)


@pytest.mark.parametrize("mp, vp, mq, vq", [(0.3, 0.5, -1.0, 2.0), (0.0, 0.002, 0.5, 0.1), (1.0, 1.0, 1.0, 1.0)])
def test_grid_gaussian_kl_matches_closed_form(mp, vp, mq, vq):
    closed = 0.5 * math.log(vq / vp) + (vp + (mp - mq) ** 2) / (2 * vq) - 0.5
    assert C.kl_gauss_grid(mp, vp, mq, vq) == pytest.approx(closed, abs=1e-10)


def test_gaussian_split_of_one_component_is_its_entropy():
    total, aleatoric, epistemic = C.split_gaussian([0.2], [0.3], [1.0])
    assert aleatoric == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 0.3), abs=1e-15)
    assert total == pytest.approx(aleatoric, abs=1e-10)
    assert epistemic == pytest.approx(0.0, abs=1e-10)


def test_checkpoint_layout(tmp_path):
    values = np.arange(9, dtype=np.float64)  # 2-3 layer: 6 weights, 3 biases
    blob = b"QUAMCKPT" + struct.pack("<II", 1, 2) + struct.pack("<2I", 2, 3) + struct.pack("<B", 0) + struct.pack("<d", 0.25) + values.astype("<f8").tobytes()
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob)
    net = C.read_checkpoint(path)
    assert (net.widths, net.head, net.dropout) == ((2, 3), "categorical", 0.25)
    (w, b), = net.layers()
    assert w.tolist() == [[0, 1, 2], [3, 4, 5]] and b.tolist() == [6, 7, 8]
    path.write_bytes(blob[:-8])
    with pytest.raises(C.CheckFailed):
        C.read_checkpoint(path)


def test_spearman_ranks():
    assert C.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert C.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert C.spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9486832980505138)
