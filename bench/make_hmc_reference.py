"""Regenerate the stored long-chain HMC reference maps, data/hmc_reference.json.

    python3 bench/make_hmc_reference.py        (from the repository root)

Runs criterion 7's ground-truth chains (6 chains, seeds 100-105, 300 draws
each at thin 2 after 500 burn-in iterations, 25 leapfrog steps, auto-tuned
step size from 2e-3, prior precision 1e-3) with quam's HMC sampler on the
two-moons and the sine training sets.  Moons chains start from random
initializations as in criterion 7.  Sine chains start at the trained sine
reference: from a random start, chain 101 stops after 100 consecutive
rejections.  The setting-a epistemic split of the merged 1800 draws comes
from the checker's own forward pass and split, not from quam.measures.
Takes about two minutes on 2 cores.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check as C  # noqa: E402
import workloads as W  # noqa: E402
from quam import data as D  # noqa: E402
from quam import models as M  # noqa: E402
from quam import samplers as S  # noqa: E402

OUT = os.path.join(HERE, "data", "hmc_reference.json")


def chains(dataset, arch, init=None):
    draws = []
    for seed in W.HMC_CHAINS["seeds"]:
        out = S.hmc_posterior(
            dataset,
            arch,
            prior_precision=W.HMC_CHAINS["prior_precision"],
            n_samples=W.HMC_CHAINS["n_samples"],
            n_leapfrog=W.HMC_CHAINS["n_leapfrog"],
            step_size=W.HMC_CHAINS["step_size"],
            seed=seed,
            burn_in=W.HMC_CHAINS["burn_in"],
            auto_tune=True,
            thin=W.HMC_CHAINS["thin"],
            init=init,
        )
        print(f"  chain {seed}: acceptance {out.diagnostics['sampling_acceptance_rate']:.3f}", flush=True)
        draws.extend(p.values for p in out.params)
    return draws


def main():
    t0 = time.time()
    moons = D.gen_two_moons(200, 0.1, 0)
    x, y = C.two_moons(200, 0.1, 0)
    C.expect(np.array_equal(moons.x, x) and np.array_equal(moons.y, y), "checker's two-moons generator disagrees with quam's")
    widths = (2, 16, 16, 2)
    print("moons chains", flush=True)
    draws = chains(moons, M.ArchSpec(widths))
    points = W.grid_points()
    probs = np.stack([C.predict(C.Net(widths, "categorical", 0.0, v), points) for v in draws])
    _, _, moons_map = C.split_categorical(probs, np.full(len(draws), 1.0 / len(draws)))

    sine = D.gen_sine(200, 0)
    x, y = C.sine(200, 0)
    C.expect(np.array_equal(sine.x, x) and np.array_equal(sine.y, y), "checker's sine generator disagrees with quam's")
    widths = (1, 16, 2)
    arch = M.ArchSpec(widths, head="gaussian_scalar")
    print("sine chains", flush=True)
    draws = chains(sine, arch, init=M.train(sine, arch, M.TrainConfig(epochs=300, lr=5e-3, weight_decay=1e-3, seed=0)))
    line = np.array(W.SINE_POINTS).reshape(-1, 1)
    preds = np.stack([C.predict(C.Net(widths, "gaussian", 0.0, v), line) for v in draws])
    w = np.full(len(draws), 1.0 / len(draws))
    sine_map = [C.split_gaussian(preds[:, k, 0], preds[:, k, 1], w)[2] for k in range(len(line))]

    blob = {
        "chains": W.HMC_CHAINS,
        "moons": {"grid_x": W.GRID_X, "grid_y": W.GRID_Y, "resolution": W.GRID_RES, "epistemic": [float(v) for v in moons_map]},
        "sine": {"points": list(W.SINE_POINTS), "epistemic": [float(v) for v in sine_map]},
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(blob, f)
        f.write("\n")
    print(f"wrote {OUT} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
