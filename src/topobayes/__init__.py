"""Bayesian classification of 1-D signals through persistence diagrams.

Signals are summarized as sublevel-set persistence diagrams, diagrams are
modeled as Poisson point processes with Gaussian-mixture intensities on the
birth-persistence wedge, class posteriors are computed in closed form, and
class decisions come from Bayes factors of Poisson densities with pairwise
voting and k-fold cross validation.
"""

from .classifier import (
    ClassifyResult,
    LabeledDataset,
    classify,
    cross_validate,
    diagram_log_density,
    log_bayes_factor,
    stratified_folds,
)
from .errors import DataFileError, ValidationError
from .filtration import (
    PersistenceDiagram,
    bottleneck_distance,
    sublevel_pd,
    tilt,
    untilt,
)
from .intensity import (
    GaussianMixtureIntensity,
    intensity_grid,
    log_eval_intensity,
    total_mass,
)
from .posterior import (
    PosteriorConfig,
    default_clutter,
    default_prior,
    posterior_intensity,
)
from .signals import (
    ALPHA_BAND,
    BETA_BAND,
    Signal,
    add_noise,
    generate_band_signal,
)

__version__ = "0.1.0"
