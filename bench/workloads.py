"""The benchmark's workloads: datasets, configs and seeded rounds of commands.

Each workload is a list of set-up `quam train` commands and a source of
rounds.  A round is a fixed group of scoring commands; a run attempts whole
rounds only, so the share of failed operations is the same in every run.

The datasets, references and search settings are those of acceptance
criterion 7 (two moons) and of the regression experiments (sine), fixed so
that the stored long-chain HMC maps in data/hmc_reference.json apply.
"""

from __future__ import annotations

import numpy as np

MOONS_DATA = "name = two_moons\nn = 200\nnoise = 0.1\nseed = 0\n"
SINE_DATA = "name = sine\nn = 200\nseed = 0\n"

# Criterion-7 box, x-major 40 x 40 grid: point (i, j) is (xs[i], ys[j]).
GRID_X = (-1.5, 2.5)
GRID_Y = (-1.0, 1.5)
GRID_RES = 40
# Each moons round is a 4 x 4 sub-lattice of the grid, stride 10, so every
# round covers the box evenly; the seed orders the 100 sub-lattices.
LATTICE_STRIDE = 10

# Sine line: scored points run past the data range [-pi, pi] on both sides.
SINE_POINTS = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.5, 6.0)
# Here the reference variance is far below 1/(2 pi e), so every pooled
# differential entropy is negative and the command fails (see CHANGES.md).
SINE_FAULT_POINTS = (-5.0, -3.5)

# Criterion 7's ground-truth chains, reused for the stored reference maps.
HMC_CHAINS = {"seeds": [100, 101, 102, 103, 104, 105], "n_samples": 300, "thin": 2, "burn_in": 500, "n_leapfrog": 25, "step_size": 2e-3, "prior_precision": 1e-3}

TEMPERATURE = 0.1
SEARCH = "steps = 100\nlr = 0.01\nc0 = 1.0\neta_factor = 1.5\neta_every = 10\n"
TRAIN = "epochs = 300\nlr = 0.005\nweight_decay = 0.001\n"
MCD_SAMPLES = 500
# One fixed chain: with a chain seeded per run, the hmc map's Spearman against
# the long chains ranged 0.44-0.85 and its sampling time 20% over five seeds.
HMC_COMMAND_SEED = 0


def grid_points() -> np.ndarray:
    xs = np.linspace(*GRID_X, GRID_RES)
    ys = np.linspace(*GRID_Y, GRID_RES)
    return np.array([(x, y) for x in xs for y in ys])


def lattice_order(seed: int) -> list[np.ndarray]:
    """The grid's 100 sub-lattices (16 grid indices each), in seeded order."""
    rng = np.random.default_rng([seed, 7])
    offsets = rng.permutation(LATTICE_STRIDE * LATTICE_STRIDE)
    steps = np.arange(0, GRID_RES, LATTICE_STRIDE)
    out = []
    for off in offsets:
        ox, oy = divmod(int(off), LATTICE_STRIDE)
        out.append(np.array([(ox + i) * GRID_RES + (oy + j) for i in steps for j in steps]))
    return out


def _config(data: str, arch: str, sections: str) -> str:
    return f"[experiment]\nseed = 0\n[dataset]\n{data}[arch]\n{arch}[train]\n{TRAIN}{sections}"


MOONS_ARCH = "widths = 2 16 16 2\n"
MOONS_DROPOUT_ARCH = "widths = 2 16 16 2\ndropout_prob = 0.2\n"
SINE_ARCH = "widths = 1 16 2\nhead = gaussian_scalar\n"


def _quam_config(data: str, arch: str, reference: str) -> str:
    return _config(
        data,
        arch,
        f"[reference]\ncheckpoint = {{{reference}}}\n[test_inputs]\nfile = {{points}}\n[search]\n{SEARCH}"
        f"[estimator]\ntemperature = {TEMPERATURE}\nsetting = a\n[output]\ntrajectories = true\n",
    )


def _baseline_config(arch: str, reference: str, baseline: str) -> str:
    return _config(MOONS_DATA, arch, f"[reference]\ncheckpoint = {{{reference}}}\n[test_inputs]\nfile = {{points}}\n[baseline]\n{baseline}")


# name -> (dataset section, arch section) of each reference the set-up trains
REFERENCES = {
    "moons": (MOONS_DATA, MOONS_ARCH),
    "moons_dropout": (MOONS_DATA, MOONS_DROPOUT_ARCH),
    "sine": (SINE_DATA, SINE_ARCH),
}


def train_config(reference: str) -> str:
    return _config(*REFERENCES[reference], "")


class MoonsQuam:
    """One `quam quam` command per grid point; a round is one sub-lattice."""

    references = ("moons",)
    configs = {"quam": _quam_config(MOONS_DATA, MOONS_ARCH, "moons")}
    uniform_commands = True  # every command runs the same searches on one point
    reference_map = "moons"
    spearman_floor = 0.6  # criterion 7

    def rounds(self, seed):
        points = grid_points()
        for lattice in lattice_order(seed):
            yield [{"command": "quam", "config": "quam", "points": [points[g].tolist()], "key": int(g), "seed": seed} for g in lattice]


class MoonsBaselines:
    """`baseline --method hmc` and `--method mcd` on the same points; a
    round is four sub-lattices (64 points) scored once by each method.  The
    hmc command samples its own chain (CLI defaults: 500 draws after 500
    burn-in, 25 leapfrog steps) and scores against the plain reference; mcd
    draws 500 masks of the reference trained with dropout 0.2."""

    references = ("moons", "moons_dropout")
    uniform_commands = False
    reference_map = "moons"
    spearman_floor = None
    lattices_per_round = 4
    configs = {"hmc": _baseline_config(MOONS_ARCH, "moons", "method = hmc\n"), "mcd": _baseline_config(MOONS_DROPOUT_ARCH, "moons_dropout", f"method = mcd\nn_samples = {MCD_SAMPLES}\n")}

    def rounds(self, seed):
        points = grid_points()
        order = lattice_order(seed)
        for k in range(0, len(order), self.lattices_per_round):
            grid = np.concatenate(order[k : k + self.lattices_per_round]).tolist()
            pts = points[grid].tolist()
            yield [
                {"command": "baseline", "config": "hmc", "points": pts, "keys": grid, "seed": HMC_COMMAND_SEED},
                {"command": "baseline", "config": "mcd", "points": pts, "keys": grid, "seed": seed},
            ]


class SineQuam:
    """One `quam quam` command per point of the fixed sine line.

    The line is fixed because the failing points must not depend on the
    seed, and the full-batch direction searches draw no random numbers; the
    seed orders the commands and seeds the search.
    """

    references = ("sine",)
    uniform_commands = False
    reference_map = "sine"  # covers SINE_POINTS only, never the fault points
    spearman_floor = None
    configs = {"quam": _quam_config(SINE_DATA, SINE_ARCH, "sine")}

    def rounds(self, seed):
        rng = np.random.default_rng([seed, 11])
        points = SINE_POINTS + SINE_FAULT_POINTS
        while True:
            yield [{"command": "quam", "config": "quam", "points": [[points[i]]], "key": int(i), "seed": seed} for i in rng.permutation(len(points))]


WORKLOADS = {"moons_quam_cli": MoonsQuam(), "moons_baselines_cli": MoonsBaselines(), "sine_quam_cli": SineQuam()}
