"""Diffusion-based posterior estimation for classification.

Labels are corrupted by a uniform-rate continuous-time Markov process with
a closed-form marginal; a ratio-score network is trained with a
score-entropy objective; the posterior is recovered by Euler-stepping the
reverse process over class probabilities or sampled class labels.
"""

from .data import CorruptionSpec, MixtureTask, generate, true_posterior_batch
from .errors import DiffclassError, NumericalError, ValidationError
from .mlp import MlpConfig, MlpScorer
from .sampler import (PosteriorEstimate, SamplerConfig, posterior_cl, posterior_cp,
                      posterior_full, reverse_step_full)
from .schedule import LogLinearSchedule
from .score import Scorer
from .train import AdamState, TrainConfig, fit, train_step
from .transition import forward_marginal

__version__ = "0.1.0"

__all__ = [
    "AdamState", "CorruptionSpec", "DiffclassError", "LogLinearSchedule", "MixtureTask",
    "MlpConfig", "MlpScorer", "NumericalError", "PosteriorEstimate", "SamplerConfig",
    "Scorer", "ValidationError", "fit", "forward_marginal", "generate", "posterior_cl",
    "posterior_cp", "posterior_full", "reverse_step_full", "train_step", "true_posterior_batch",
]
