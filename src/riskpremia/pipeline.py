"""One-stop estimation context shared by the testing modules."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import NumericalError
from .panels import FactorPanel, ReturnPanel
from .subset import VARIANCE_MODES, StackedSystem, _require_one_fit, build_stacked
from .threestep import (
    AsymptoticCovariance,
    PriceOfRisk,
    ReturnRegression,
    TestResult,
    asymptotic_covariance,
    second_stage,
    third_stage,
    wald_test,
)
from .varstage import RankError, VarEstimate, fit_var1

# Numerical failures of one replicate or grid point: counted as failures, never
# swallowed beyond these so that programming errors surface.
FIT_ERRORS = (NumericalError, RankError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class ModelFit:
    """Immutable bundle of every estimation output the tests consume.

    It copies no input panel: ``stacked.panel`` is the return panel it was
    given, a ``ReturnPanel`` or a Monte Carlo ``DrawnReturns``, held by
    reference, and ``stacked.returns`` its returns, read for the hc0
    variance alone, so writing to that array afterwards changes what hc0
    reads; ``n_assets`` and ``n_periods``
    are read off the stacked system.  ``por`` is None when beta'beta is
    numerically singular (the unspanned factor pathology); the
    identification-robust tests remain available.  ``asymptotic_cov`` is computed on first use and
    kept for the fit.  ``cov_mode`` is the variance mode ``fit_model`` was
    given, the default of the full-vector tests on this fit.  The fit of
    stacked panels is one ModelFit whose arrays carry a leading replicate
    axis, with either a stacked ``por`` or None for all of its fits.  Nothing
    takes one fit back out: a stack whose evaluation fails is refitted in
    parts (``montecarlo._run_block``).
    """

    var: VarEstimate
    reg: ReturnRegression
    stacked: StackedSystem
    cov_mode: str                       # one of VARIANCE_MODES
    por: PriceOfRisk | None

    @property
    def n_assets(self) -> int:
        return self.stacked.n_assets

    @property
    def n_factors(self) -> int:
        return self.var.n_factors

    @property
    def n_periods(self) -> int:
        return self.stacked.n_periods

    @cached_property
    def asymptotic_cov(self) -> AsymptoticCovariance:
        if self.por is None:
            raise RankError("price-of-risk estimates unavailable (singular beta'beta)")
        return asymptotic_covariance(self.var, self.reg, self.por, self.stacked.q_xx)

    def wald(self, h0_lambda1: np.ndarray) -> TestResult:
        """``wald_test`` at one hypothesis on one fit."""
        _require_one_fit(self.stacked, "ModelFit.wald")
        return wald_test(self.por, self.asymptotic_cov, h0_lambda1, self.n_periods)


def fit_model(returns: ReturnPanel, factors: FactorPanel, cov: str = "kps") -> ModelFit:
    """Run steps 1-3 plus the stacked system; ``cov`` is the variance mode
    of the full-vector tests on the fit, one of ``VARIANCE_MODES``.

    ``'kps'`` is the Kronecker form of the score covariance.  ``'hc0'`` is
    the per-period outer product, an NK x NK matrix estimated from T periods:
    at T = 300 (``preset_dgp``, seed 7, 1000 replicates, 5 % level) its FAR
    rejects a true Lambda1 in 11.8 % of replicates at (K, N) = (1, 11),
    17.6 % at (2, 11), 23.7 % at (3, 10) and 97.5 % at (5, 20), and its
    statistics need NK < T (``moments._hc0_statistics``).  Panels with
    a leading replicate axis give one stacked fit in one pass of every
    stage.  Its fits either all have a price of risk or none does; a stack
    that splits on it raises ValueError, and a stack with one failing fit
    raises that fit's error.
    """
    if cov not in VARIANCE_MODES:
        raise ValueError(f"unknown covariance mode {cov!r}; expected one of {VARIANCE_MODES}")
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    stacked = build_stacked(returns, factors, var, reg)
    try:
        por = third_stage(reg, var)
    except RankError:
        por = None
    return ModelFit(var=var, reg=reg, stacked=stacked, cov_mode=cov, por=por)
