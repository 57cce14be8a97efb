"""Robust parameter estimation combining the minimum Hellinger distance
functional with exact random-histogram density posteriors."""

from .numerics import composite_nodes, worker_rng
from .densities import (
    DEFAULT_PADDING,
    GaussianFamily,
    HistogramDensity,
    ParametricFamily,
    SupportTransform,
    hellinger,
    transform_density,
)
from .posterior import (
    DEFAULT_ALPHA,
    HistogramPrior,
    RandomHistogramPosterior,
    bin_counts,
    fit_posterior,
    max_bin_count,
)
from .functional import (
    AsymptoticVariance,
    InfluenceFunction,
    MhdResult,
    asymptotic_variance,
    fisher_information,
    influence_function,
    l_norm_sq,
    mhd,
)
from .estimators import (
    BmhPosterior,
    MhbEstimate,
    bmh_fit,
    mhb_bootstrap_se,
    mhb_fit,
)
from .experiments import (
    StudyReport,
    bvm_diagnostic,
    efficiency_study,
    robustness_sweep,
)
from .datasets import Dataset, load_dataset

__version__ = "0.1.0"

__all__ = [
    "AsymptoticVariance", "BmhPosterior", "Dataset", "DEFAULT_ALPHA",
    "DEFAULT_PADDING", "GaussianFamily", "HistogramDensity", "HistogramPrior",
    "InfluenceFunction", "MhbEstimate", "MhdResult", "ParametricFamily",
    "RandomHistogramPosterior", "StudyReport", "SupportTransform",
    "asymptotic_variance", "bin_counts", "bmh_fit", "bvm_diagnostic",
    "composite_nodes", "efficiency_study", "fisher_information",
    "fit_posterior", "hellinger", "influence_function",
    "l_norm_sq", "load_dataset", "max_bin_count", "mhb_bootstrap_se",
    "mhb_fit", "mhd", "robustness_sweep", "transform_density",
    "worker_rng",
]
