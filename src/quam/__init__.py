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
search      the penalty-method adversarial model search, in lock-step batches
estimator   pooled scores, importance-sampling estimators, variance study
samplers    deep ensembles, MC dropout, cyclical SG-HMC, HMC
metrics     AUROC/AUPR/FPR, selective prediction, ECE, simplex study
cli         experiment driver (`quam` entry point)
"""

from . import autodiff  # noqa: F401 -- bench/tracer.py patches Tape.backward; drop with ROADMAP item 1
from .data import LabeledDataset, gen_sine, gen_three_gaussians, gen_two_moons, load_idx
from .estimator import mis_estimate, mis_variance_estimate, mse_bound, quam_score, quam_scores
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
from .search import SearchConfig, adversarial_model_search, regression_search_pair, search_batch, targeted_search_suite

__all__ = [
    "LabeledDataset",
    "gen_sine",
    "gen_three_gaussians",
    "gen_two_moons",
    "load_idx",
    "mis_estimate",
    "mis_variance_estimate",
    "mse_bound",
    "quam_score",
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
    "adversarial_model_search",
    "regression_search_pair",
    "search_batch",
    "targeted_search_suite",
]

__version__ = "0.1.0"
