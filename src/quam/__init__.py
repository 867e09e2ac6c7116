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
data        synthetic generators, IDX ingestion, subsets, CSV
measures    entropy and KL kernels over prediction rows, uncertainty splits
search      lock-step adversarial model searches: search_batch runs any
            searches, search_suites each point's suite in batches it sizes
estimator   pooled scores (quam_scores), importance sampling, variance study
samplers    deep ensembles, MC dropout, cyclical SG-HMC, HMC
metrics     AUROC/AUPR/FPR, ECE, simplex study
config      experiment config files; `require`, the domain check of every
            numeric setting
cli         experiment driver (`quam` entry point)
"""

from . import autodiff  # noqa: F401 -- bench/tracer.py patches Tape.backward; drop with ROADMAP item 12
from .data import LabeledDataset, gen_sine, gen_three_gaussians, gen_two_moons, load_idx
from .estimator import mis_estimate, quam_scores
from .measures import UncertaintyBreakdown, decompose_a, decompose_b, entropy, entropy_gauss, kl
from .models import ArchSpec, ModelParams, TrainConfig, predict_batch, train
from .search import SearchConfig, search_batch, search_suites

__all__ = [
    "LabeledDataset",
    "gen_sine",
    "gen_three_gaussians",
    "gen_two_moons",
    "load_idx",
    "mis_estimate",
    "quam_scores",
    "UncertaintyBreakdown",
    "decompose_a",
    "decompose_b",
    "entropy",
    "entropy_gauss",
    "kl",
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
