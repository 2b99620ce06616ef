"""Kernel relative-risk estimation for censored survival data.

Fits penalised partial-likelihood estimators over a reproducing-kernel
function class, selects the regularisation level by validation likelihood,
and aggregates the result with pre-trained external risk models through a
cross-validated convex combination.
"""

from .data import (
    BadEventFlagError,
    DataFormatError,
    MissingColumnError,
    NonNumericCellError,
    NonPositiveTimeError,
    SurvivalDataset,
    load_csv,
    split_train_validation,
    write_csv,
)
from .estimators import KernelEstimator, fit_kernel_estimator
from .evaluation import (
    NoComparablePairsError,
    StepSurvival,
    breslow_survival,
    concordance_index,
    l2_error_mc,
)
from .kernels import (
    AdditiveKernel,
    GaussianKernel,
    KernelConfig,
    NotInSpaceError,
    PolynomialKernel,
    Sobolev1Kernel,
    Sobolev2Kernel,
    constant_norm_squared,
    cross_matrix,
    gram_matrix,
    kernel_from_json,
    kernel_to_json,
)
from .model_selection import (
    AllFitsFailed,
    CareEstimator,
    CenteredExternal,
    CvReport,
    ExternalSpec,
    GammaGrid,
    ThetaGrid,
    fit_care,
    theta_grid,
    validation_loss,
)
from .optimizer import OptimOptions, OptimResult, minimize_bfgs
from .partial_likelihood import (
    RepresenterContext,
    build_representer_basis,
    neg_log_partial_likelihood,
    penalized_gradient,
)
from .simulation import (
    DgpConfig,
    DgpTruth,
    covariate_sampler,
    external_predictor,
    simulate_dataset,
    true_f0,
)

__version__ = "0.1.0"
