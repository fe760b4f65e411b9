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

    ``residuals`` spans t = 1..T; ``sigma_v`` uses the 1/T divisor.
    ``design_q`` and ``design_r`` are the QR factors of (1, X_{t-1}, X_t),
    which hold both the VAR and the second stage.  The second stage and
    ``build_stacked`` read them, the second stage raises ValueError without
    them, and an estimate built by hand without them serves the third stage
    and the Wald covariance.  The fit of a stack of panels carries the stack
    axis in front of each field.
    """

    mu: np.ndarray          # (K,)
    phi1: np.ndarray        # (K, K)
    residuals: np.ndarray   # (K, T)
    sigma_v: np.ndarray     # (K, K)
    design_q: np.ndarray | None = None   # (T, 1+2K)
    design_r: np.ndarray | None = None   # (1+2K, 1+2K)

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


def fit_var1(factors: FactorPanel) -> VarEstimate:
    """Least-squares VAR(1) on a K x (T+1) factor panel, or one VAR per
    panel of a stack (every field then carries the stack axis).

    With (1, X_{t-1}, X_t) = Q R, (mu ; phi1') = R11^-1 R12, vhat' = Q_v R_v
    and Sigma_v = R_v'R_v / T.  The rank check reads diag R11 alone, so a
    noiseless VAR (R_v = 0) still fits; the second stage checks all of R.
    """
    x = np.asarray(factors.factors, dtype=float)
    k, n_obs = x.shape[-2:]
    t = n_obs - 1
    if t < k + 2:
        raise PanelError(f"need at least K+3 factor observations, got {n_obs}")
    design = np.concatenate([np.ones((*x.shape[:-2], 1, t)), x[..., :-1], x[..., 1:]], axis=-2)
    q, r = np.linalg.qr(design.swapaxes(-1, -2))                # (T, 1 + 2K)
    r11, r_v = r[..., : k + 1, : k + 1], r[..., k + 1 :, k + 1 :]
    _check_r_diagonal(np.diagonal(r11, axis1=-2, axis2=-1))
    # LU keeps a triangle as is; SciPy's triangular solve loops over a stack
    coef = np.linalg.solve(r11, r[..., : k + 1, k + 1 :])       # (1+K, K)
    return VarEstimate(
        mu=coef[..., 0, :],
        phi1=coef[..., 1:, :].swapaxes(-1, -2),
        residuals=(q[..., k + 1 :] @ r_v).swapaxes(-1, -2),
        sigma_v=r_v.swapaxes(-1, -2) @ r_v / t,
        design_q=q,
        design_r=r,
    )
