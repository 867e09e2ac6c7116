"""Epistemic uncertainty for small neural networks.

The estimator searches for adversarial models: networks that explain the
training data about as well as a reference model but predict differently
at one test input.  Their pooled, posterior-weighted predictions give a
mixture-importance-sampling estimate of the epistemic uncertainty that a
posterior-only sampler (deep ensemble, MC dropout, SG-MCMC) tends to miss.

Modules
-------
autodiff    reverse-mode AD on a generic tape; serves only grad_check
models      ReLU MLPs, closed-form loss gradients, training, checkpoints
data        synthetic generators, IDX ingestion, splits, CSV
measures    entropy/cross-entropy/KL calculus and uncertainty splits
search      lock-step adversarial model searches: search_batch runs any
            searches, search_suites each point's per-class/direction suite
estimator   pooled scores (quam_scores), importance sampling, variance study
samplers    deep ensembles, MC dropout, cyclical SG-HMC, HMC
metrics     AUROC/AUPR/FPR, selective prediction, ECE, simplex study
cli         experiment driver (`quam` entry point)
"""

from . import autodiff  # noqa: F401 -- bench/tracer.py patches Tape.backward; drop with ROADMAP item 1
from .data import LabeledDataset, gen_sine, gen_three_gaussians, gen_two_moons, load_idx
from .estimator import mis_estimate, mis_variance_estimate, mse_bound, quam_scores
from .measures import (
    UncertaintyBreakdown,
    cross_entropy_cat,
    decompose_a,
    decompose_b,
    entropy_cat,
    entropy_gauss,
    kl_cat,
    kl_gauss,
)
from .models import ArchSpec, ModelParams, TrainConfig, predict_batch, train
from .search import SearchConfig, search_batch, search_suites

__all__ = [
    "LabeledDataset",
    "gen_sine",
    "gen_three_gaussians",
    "gen_two_moons",
    "load_idx",
    "mis_estimate",
    "mis_variance_estimate",
    "mse_bound",
    "quam_scores",
    "UncertaintyBreakdown",
    "cross_entropy_cat",
    "decompose_a",
    "decompose_b",
    "entropy_cat",
    "entropy_gauss",
    "kl_cat",
    "kl_gauss",
    "ArchSpec",
    "ModelParams",
    "TrainConfig",
    "predict_batch",
    "train",
    "SearchConfig",
    "search_batch",
    "search_suites",
]

__version__ = "0.1.0"
