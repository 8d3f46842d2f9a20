"""Regression with subordinator-warped (non-Gaussian) Gaussian processes.

The package simulates Levy subordinators by shot-noise series, infers the
latent input warp with a Metropolis-Hastings-within-Gibbs sampler, and
aggregates the per-warp conditional GP posteriors into a Gaussian-mixture
predictive density.  A plain GP baseline and a synthetic data generator
are included.
"""

from .errors import NumericalError
from .levy import (GAMMA, STABLE, TEMPERED_STABLE, JumpSet, LevyMeasureSpec,
                   SubordinatorPath, assign_positions, normalize_scale, simulate_jumps,
                   simulate_path)
from .kernels import MATERN52, SQUARED_EXPONENTIAL, KernelSpec, build_gram, kernel_value
from .gp import (ConditionalPosterior, RegressionData, log_conditional_likelihood, posterior,
                 warp_inputs)
from .sampler import (MixturePosterior, SamplerConfig, acceptance_probability,
                      grid_search_length_scale, init_identity, mixture_moments,
                      partition_edges, pool_chains, predictive_moments, propose, run_chains,
                      run_mh_gibbs)
from .datagen import GenSpec, SyntheticDataset, generate

__version__ = "0.1.0"

__all__ = [
    "NumericalError",
    "JumpSet", "LevyMeasureSpec", "SubordinatorPath",
    "TEMPERED_STABLE", "GAMMA", "STABLE",
    "simulate_jumps", "assign_positions", "simulate_path",
    "normalize_scale",
    "KernelSpec", "SQUARED_EXPONENTIAL", "MATERN52", "kernel_value", "build_gram",
    "RegressionData", "ConditionalPosterior", "warp_inputs", "posterior",
    "log_conditional_likelihood", "grid_search_length_scale",
    "SamplerConfig", "MixturePosterior", "init_identity", "propose",
    "acceptance_probability", "run_mh_gibbs", "run_chains", "pool_chains",
    "mixture_moments", "predictive_moments", "partition_edges",
    "GenSpec", "SyntheticDataset", "generate",
]
