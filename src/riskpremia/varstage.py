"""Step 1 of the three-step procedure: VAR(1) least squares on the factors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .panels import FactorPanel, PanelError


class RankError(RuntimeError):
    """A regression design matrix is numerically rank deficient."""


# Largest condition number of a design (R diagonal) or Gram matrix accepted
# before a fit is declared rank deficient.
COND_CAP = 1e12


@dataclass(frozen=True)
class VarEstimate:
    """OLS fit of X_t = mu + phi1 X_{t-1} + v_t.

    ``residuals`` spans t = 1..T; ``sigma_v`` uses the 1/T divisor;
    ``x_lagged_mean`` is the mean of the lagged factors X_0..X_{T-1}.
    """

    mu: np.ndarray          # (K,)
    phi1: np.ndarray        # (K, K)
    residuals: np.ndarray   # (K, T)
    sigma_v: np.ndarray     # (K, K)
    x_lagged_mean: np.ndarray  # (K,)

    @property
    def n_factors(self) -> int:
        return self.mu.shape[-1]

    @property
    def n_periods(self) -> int:
        return self.residuals.shape[-1]


def _ols_qr(design: np.ndarray, targets: np.ndarray):
    """Least squares via QR; raises RankError with the condition number."""
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() == 0.0 or diag.max() / diag.min() > COND_CAP:
        cond = np.inf if diag.min() == 0.0 else diag.max() / diag.min()
        raise RankError(
            f"design matrix is rank deficient (R-diagonal condition {cond:.3e})"
        )
    return scipy.linalg.solve_triangular(r, q.T @ targets, lower=False)


def fit_var1(factors: FactorPanel) -> VarEstimate:
    """Least-squares VAR(1) on a K x (T+1) factor panel."""
    x = np.asarray(factors.factors, dtype=float)
    k, n_obs = x.shape
    t = n_obs - 1
    if t < k + 2:
        raise PanelError(f"need at least K+3 factor observations, got {n_obs}")
    lagged = x[:, :-1].T                      # (T, K)
    current = x[:, 1:].T                      # (T, K)
    design = np.column_stack([np.ones(t), lagged])
    coef = _ols_qr(design, current)           # (1+K, K)
    mu = coef[0]
    phi1 = coef[1:].T
    resid = (current - design @ coef).T       # (K, T)
    return VarEstimate(
        mu=mu,
        phi1=phi1,
        residuals=resid,
        sigma_v=resid @ resid.T / t,
        x_lagged_mean=lagged.mean(axis=0),
    )
