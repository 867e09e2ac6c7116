"""Synthetic dataset generators, IDX image files, seeded subsets and CSV files of numbers.

All generators are pure functions of their arguments and seed; datasets
are immutable after construction.  `read_csv` holds the one CSV grammar:
`from_csv` reads dataset files through it, and the CLI its test inputs.
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
    "subsample",
    "read_csv",
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
    """(rows, features) inputs with class indices or real targets; any other shape of inputs is a ValueError."""

    x: np.ndarray
    y: np.ndarray
    kind: str  # "classification" | "regression"

    def __post_init__(self):
        # private copies: freezing must never touch the caller's buffers
        x = np.array(self.x, dtype=np.float64, order="C")
        if x.ndim != 2:
            raise ValueError(f"inputs must be a (rows, features) array, got shape {x.shape}")
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
# subsets and CSV files
# --------------------------------------------------------------------------


def subsample(data: LabeledDataset, n: int, seed: int = 0) -> LabeledDataset:
    """`n` rows drawn without replacement by the seeded permutation, kept in the dataset's order."""
    if not 0 <= n <= len(data):
        raise ValueError(f"cannot draw {n} rows from a dataset of {len(data)}")
    return data.take(np.sort(derive_rng(seed).permutation(len(data))[:n]))


def read_csv(path) -> np.ndarray:
    """The (rows, width) array of the numbers in a CSV file under a header.

    Line 1, the header, is any line that is not all finite numbers.  Every
    later row holds as many finite numbers as the first; blank lines are
    skipped.  A bad file raises ValueError naming the file and the line.
    """
    rows = []
    with open(path) as f:
        if _finite_row(header := f.readline()) is not None:
            raise ValueError(f"{path}, line 1: expected a header row such as x0,x1, got the numbers {header.strip()!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            row = _finite_row(line)
            if row is None or rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}, line {lineno}: every row needs the same number of finite numbers, got {line.strip()!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: the file has no rows")
    return np.asarray(rows)


def _finite_row(line: str):
    """The cells of a CSV line as floats, or None when one of them is not a finite number."""
    try:
        row = [float(c) for c in line.split(",")]
    except ValueError:
        return None
    return row if np.isfinite(row).all() else None


def from_csv(path, kind: str = "classification") -> LabeledDataset:
    """A dataset from a CSV file (`read_csv`), the label or target in its last column; a label the dataset rejects raises ValueError naming the file."""
    rows = read_csv(path)
    if rows.shape[1] < 2:
        raise ValueError(f"{path}: a dataset row needs at least one input and a label, got one number per row")
    try:
        return LabeledDataset(rows[:, :-1], rows[:, -1], kind)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
