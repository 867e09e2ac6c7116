"""Synthetic dataset generators, IDX image files and the CSV dataset reader.

All generators are pure functions of their arguments and seed; datasets
are immutable after construction.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .rng import derive_rng

__all__ = [
    "LabeledDataset",
    "class_indices",
    "gen_two_moons",
    "gen_three_gaussians",
    "gen_sine",
    "load_idx",
    "save_idx",
    "subset_split",
    "from_csv",
    "THREE_GAUSSIAN_TEST_POINT",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Far-out probe point used by the three-Gaussian simplex experiment.
THREE_GAUSSIAN_TEST_POINT = np.array([-6.0, 2.0])


def class_indices(labels) -> np.ndarray:
    """`labels` as int64 class indices; a label that is not an integer, NaN and infinities included, raises ValueError naming it."""
    labels = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # a NaN or infinite label is rejected just below
        y = labels.astype(np.int64)
    bad = labels[y != labels]
    if bad.size:
        raise ValueError(f"class labels must be integers, got {bad[0]:g}")
    return y


@dataclass(frozen=True)
class LabeledDataset:
    """Uniform-shape inputs with class indices or real targets."""

    x: np.ndarray
    y: np.ndarray
    kind: str  # "classification" | "regression"

    def __post_init__(self):
        # private copies: freezing must never touch the caller's buffers
        x = np.array(self.x, dtype=np.float64, order="C")
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if self.kind == "classification":
            y = class_indices(self.y)
        elif self.kind == "regression":
            y = np.array(self.y, dtype=np.float64)
        else:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if len(x) != len(y):
            raise ValueError(f"inputs ({len(x)}) and labels ({len(y)}) differ in length")
        if self.kind == "classification" and len(y) and y.min() < 0:
            raise ValueError("classification labels must be nonnegative class indices")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def n_classes(self) -> int:
        if self.kind != "classification":
            raise ValueError("n_classes only defined for classification datasets")
        return int(self.y.max()) + 1 if len(self.y) else 0

    def take(self, idx) -> "LabeledDataset":
        return LabeledDataset(self.x[idx], self.y[idx], self.kind)


def gen_two_moons(n: int = 200, noise: float = 0.1, seed: int = 0) -> LabeledDataset:
    """Two interleaving half circles with isotropic Gaussian jitter.

    Upper moon (cos t, sin t), lower moon (1 - cos t, 0.5 - sin t), with t
    evenly spaced on [0, pi], n/2 points per moon.
    """
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    x = np.vstack([upper, lower])
    if noise:
        x = x + derive_rng(seed).normal(scale=noise, size=x.shape)
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    return LabeledDataset(x, y, "classification")


def gen_three_gaussians(seed: int = 0) -> LabeledDataset:
    """21 points from each of three isotropic Gaussians (variance 1.5).

    Centers (-4, -2), (4, -2) and (0, 2*sqrt(2)); the label is the source
    component.
    """
    rng = derive_rng(seed)
    centers = np.array([[-4.0, -2.0], [4.0, -2.0], [0.0, 2.0 * np.sqrt(2.0)]])
    sigma = np.sqrt(1.5)
    xs, ys = [], []
    for c, center in enumerate(centers):
        xs.append(center + rng.normal(scale=sigma, size=(21, 2)))
        ys.append(np.full(21, c, dtype=int))
    return LabeledDataset(np.vstack(xs), np.concatenate(ys), "classification")


def gen_sine(n: int = 200, seed: int = 0) -> LabeledDataset:
    """x uniform on [-pi, pi]; y = sin(x) + eps with eps ~ N(0, 0.1) (variance 0.1)."""
    rng = derive_rng(seed)
    x = rng.uniform(-np.pi, np.pi, size=n)
    y = np.sin(x) + rng.normal(scale=np.sqrt(0.1), size=n)
    return LabeledDataset(x.reshape(-1, 1), y, "regression")


# --------------------------------------------------------------------------
# IDX files (big-endian magic, dimension sizes, unsigned-byte payload)
# --------------------------------------------------------------------------


def _read_exact(f, count: int, path, what: str) -> bytes:
    # a header's declared size is checked against the file before any
    # buffer of that size is asked for
    offset = f.tell()
    available = os.fstat(f.fileno()).st_size - offset
    if count > available:
        raise ValueError(f"{path}: truncated while reading {what} at byte offset {offset} (wanted {count} bytes, the file holds {available})")
    return f.read(count)


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an MNIST-format image/label file pair; pixels scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, images_path, "images magic"))
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"{images_path}: bad images magic 0x{magic:08x} at byte offset 0 (expected 0x{IDX_IMAGES_MAGIC:08x})")
        count, rows, cols = struct.unpack(">III", _read_exact(f, 12, images_path, "image dimensions"))
        pixels = np.frombuffer(_read_exact(f, count * rows * cols, images_path, "pixels"), dtype=np.uint8)
    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, labels_path, "labels magic"))
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(f"{labels_path}: bad labels magic 0x{magic:08x} at byte offset 0 (expected 0x{IDX_LABELS_MAGIC:08x})")
        (label_count,) = struct.unpack(">I", _read_exact(f, 4, labels_path, "label count"))
        labels = np.frombuffer(_read_exact(f, label_count, labels_path, "labels"), dtype=np.uint8)
    if count != label_count:
        raise ValueError(f"image count {count} ({images_path}) does not match label count {label_count} ({labels_path})")
    x = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return LabeledDataset(x, labels.astype(np.int64), "classification")


def save_idx(data: LabeledDataset, images_path, labels_path, rows: int, cols: int):
    """Write a classification dataset as an IDX pair (pixels quantized to bytes)."""
    if data.kind != "classification":
        raise ValueError("only classification datasets can be written as IDX")
    n, d = data.x.shape
    if d != rows * cols:
        raise ValueError(f"feature count {d} does not equal rows*cols = {rows * cols}")
    if len(data) and data.y.max() > 255:  # a uint8 cast would write 300 as 44
        raise ValueError(f"IDX labels are bytes: label {data.y[data.y > 255][0]} lies outside 0..255")
    pixels = np.clip(np.rint(data.x * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(data.y.astype(np.uint8).tobytes())


# --------------------------------------------------------------------------
# splits and CSV files
# --------------------------------------------------------------------------


def subset_split(data: LabeledDataset, sizes, seed: int = 0) -> list[LabeledDataset]:
    """Disjoint random partitions by counts (ints) or fractions (floats).

    Fractions must sum to 1 (the split is then exhaustive); counts may sum
    to less than the dataset size.
    """
    n = len(data)
    sizes = list(sizes)
    if all(isinstance(s, float) for s in sizes):
        if abs(sum(sizes) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(sizes)}")
        counts = [int(round(s * n)) for s in sizes]
        counts[-1] = n - sum(counts[:-1])
    else:
        counts = [int(s) for s in sizes]
    if any(c < 0 for c in counts) or sum(counts) > n:
        raise ValueError(f"requested sizes {counts} infeasible for dataset of {n}")
    order = derive_rng(seed).permutation(n)
    parts = []
    pos = 0
    for c in counts:
        parts.append(data.take(np.sort(order[pos : pos + c])))
        pos += c
    return parts


def from_csv(path, kind: str = "classification") -> LabeledDataset:
    """A dataset from a CSV file: a header row x0, ..., y, then one sample per line.

    Every cell is a finite number, and a classification row's last cell a
    nonnegative integer class label.  Blank lines are skipped.  A malformed
    file raises ValueError naming the file and line.
    """
    rows = []
    with open(path) as f:
        header = f.readline()
        width = len(header.split(","))
        if not header.startswith("x0") or width < 2:
            raise ValueError(f"{path}: expected a header row of x0, ..., y")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                row = [float(c) for c in line.split(",")]
            except ValueError:
                row = []
            ok = len(row) == width and np.isfinite(row).all()
            if ok and kind == "classification":
                ok = row[-1] >= 0 and row[-1] == int(row[-1])
            if not ok:
                labels = ", the last a nonnegative integer class label" if kind == "classification" else ""
                raise ValueError(f"{path}, line {lineno}: every row needs {width} finite numbers{labels}, got {line.strip()!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: dataset file has no rows")
    arr = np.asarray(rows)
    return LabeledDataset(arr[:, :-1], arr[:, -1], kind)
