"""Monte Carlo simulator of Gaussian quantum-optics experiments.

Vacuum fields are sampled as classical complex Gaussians (symmetric-order
convention), propagated through optical elements sample by sample, and
reduced to intensity-moment statistics that closed-form predictions verify.
"""

# Defined before the submodule imports: ``experiments`` reads it.
__version__ = "0.1.0"

from .elements import (GainParams, beam_split, detector_loss, parametric_amplify,
                       polarizer_project)
from .estimators import (DegenerateStatisticError, FeatureMoments, MomentEstimate,
                         chsh_coefficient, correlation_coefficient, covariance_intensity,
                         fourfold_covariance, intensity_snr, mean_intensity,
                         normal_intensities, variance_intensity)
from .experiments import ExperimentConfig, run_experiment
from .multimode import (DipCurve, Hom2dConfig, SchmidtDecomposition, build_kernel,
                        calibrate_gain, image_mean_intensities, run_hom2d,
                        sample_image_planes, schmidt_decompose, shift_field)
from .reporting import RunReport, StatisticRow, emit_results
from .sampling import RngStream, sample_vacuum
from . import theory
