"""Step 1 of the three-step procedure: VAR(1) least squares on the factors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    ``design_q`` and ``design_r`` are the QR factors of the design
    (1, X_{t-1}); the second stage reuses them and raises ValueError
    without them, and an estimate built by hand without them serves every
    later stage.  The fit
    of a stack of panels carries the stack axis in front of each field.
    """

    mu: np.ndarray          # (K,)
    phi1: np.ndarray        # (K, K)
    residuals: np.ndarray   # (K, T)
    sigma_v: np.ndarray     # (K, K)
    x_lagged_mean: np.ndarray  # (K,)
    design_q: np.ndarray | None = None   # (T, 1+K)
    design_r: np.ndarray | None = None   # (1+K, 1+K)

    @property
    def n_factors(self) -> int:
        return self.mu.shape[-1]

    @property
    def n_periods(self) -> int:
        return self.residuals.shape[-1]


def _check_r_diagonal(diag: np.ndarray) -> None:
    """Raise RankError with the worst condition number if the R diagonal
    (..., p) of any design of a stack spans more than COND_CAP."""
    diag = np.abs(diag)
    low, high = diag.min(axis=-1), diag.max(axis=-1)
    cond = np.divide(high, low, out=np.full_like(high, np.inf), where=low > 0.0)
    if np.any(cond > COND_CAP):
        raise RankError(
            f"design matrix is rank deficient (R-diagonal condition {cond.max():.3e})"
        )


def _ols_qr(design: np.ndarray, targets: np.ndarray):
    """Least squares via QR, per fit of a stack: the coefficients and the QR
    factors Q, R of the design.  Raises RankError with the worst condition
    number if any design is rank deficient.

    R is solved with ``np.linalg.solve``: its LU step keeps the triangle as
    is, and SciPy's triangular solve would loop over a stack in Python.
    """
    q, r = np.linalg.qr(design)
    _check_r_diagonal(np.diagonal(r, axis1=-2, axis2=-1))
    return np.linalg.solve(r, q.swapaxes(-1, -2) @ targets), q, r


def fit_var1(factors: FactorPanel) -> VarEstimate:
    """Least-squares VAR(1) on a K x (T+1) factor panel, or one VAR per
    panel of a stack (every field then carries the stack axis)."""
    x = np.asarray(factors.factors, dtype=float)
    k, n_obs = x.shape[-2:]
    t = n_obs - 1
    if t < k + 2:
        raise PanelError(f"need at least K+3 factor observations, got {n_obs}")
    lagged = x[..., :, :-1].swapaxes(-1, -2)      # (T, K)
    current = x[..., :, 1:].swapaxes(-1, -2)      # (T, K)
    design = np.concatenate([np.ones((*x.shape[:-2], t, 1)), lagged], axis=-1)
    coef, q, r = _ols_qr(design, current)          # (1+K, K)
    mu = coef[..., 0, :]
    phi1 = coef[..., 1:, :].swapaxes(-1, -2)
    resid = (current - design @ coef).swapaxes(-1, -2)   # (K, T)
    return VarEstimate(
        mu=mu,
        phi1=phi1,
        residuals=resid,
        sigma_v=resid @ resid.swapaxes(-1, -2) / t,
        x_lagged_mean=lagged.mean(axis=-2),
        design_q=q,
        design_r=r,
    )
