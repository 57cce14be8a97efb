"""Robust parameter estimation combining the minimum Hellinger distance
functional with exact random-histogram density posteriors."""

from .numerics import (
    as_generator,
    composite_nodes,
    minimize,
    resolve_workers,
    worker_rng,
)
from .densities import (
    DEFAULT_PADDING,
    GaussianFamily,
    HistogramDensity,
    MixtureDensity,
    ParametricFamily,
    SupportTransform,
    UniformDensity,
    hellinger,
    project_to_histogram,
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
    ContaminationSpec,
    StudyReport,
    bvm_diagnostic,
    contaminated_density,
    efficiency_study,
    robustness_sweep,
    sample_contaminated,
)
from .datasets import Dataset, load_dataset

__version__ = "0.1.0"

__all__ = [
    "AsymptoticVariance", "BmhPosterior", "ContaminationSpec", "Dataset",
    "DEFAULT_ALPHA", "DEFAULT_PADDING", "GaussianFamily", "HistogramDensity",
    "HistogramPrior", "InfluenceFunction", "MhbEstimate", "MhdResult",
    "MixtureDensity", "ParametricFamily", "RandomHistogramPosterior",
    "StudyReport", "SupportTransform", "UniformDensity", "as_generator",
    "asymptotic_variance", "bin_counts", "bmh_fit", "bvm_diagnostic",
    "composite_nodes", "contaminated_density", "efficiency_study",
    "fisher_information", "fit_posterior", "hellinger", "influence_function",
    "l_norm_sq", "load_dataset", "max_bin_count", "mhb_bootstrap_se",
    "mhb_fit", "mhd", "minimize", "project_to_histogram", "resolve_workers",
    "robustness_sweep", "sample_contaminated", "transform_density",
    "worker_rng",
]
