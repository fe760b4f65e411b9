"""Inference toolkit for time-varying risk premia in affine term structure models.

The package estimates the three-step price-of-risk regressions, provides
identification-robust tests on the premia slope matrix (FAR, KLM, JKLM, and
the subset statistic computed through a Kronecker-factorized covariance),
inverts them into confidence sets, and ships a Monte Carlo harness for size,
power, and eigenvalue-bound experiments.
"""

from .confsets import (
    ConfidenceSet,
    GridAxis,
    GridSpec,
    ParameterBinding,
    full_lambda_binding,
    invert_surface,
    joint_confidence_set,
    project_cs,
    pvalue_curve,
    row_binding,
)
from .kronecker import KpsFactorization, kps_factorize, rearrange
from .moments import moment_vector, robust_tests
from .montecarlo import (
    DgpSpec,
    EigenLabSpec,
    calibrate,
    power_curve,
    power_surface,
    preset_dgp,
    sfar_density_experiment,
    simulate,
    wishart_eigen_lab,
)
from .panels import (
    FactorPanel,
    PanelError,
    ReturnPanel,
    YieldPanel,
    excess_returns,
    load_yield_csv,
    pca_factors,
)
from .pipeline import ModelFit, fit_model
from .subset import (
    StackedSystem,
    boundedness_diagnostic,
    build_stacked,
    kp_rank,
    sfar_column,
    sfar_distant,
    sfar_row,
)
from .threestep import (
    PriceOfRisk,
    ReturnRegression,
    TestResult,
    asymptotic_covariance,
    convexity_adjustment,
    second_stage,
    third_stage,
    wald_test,
)
from .varstage import RankError, VarEstimate, fit_var1

__version__ = "0.1.0"
