"""Steps 2-3 of the three-step price-of-risk estimator, plus Wald inference.

The second-stage regression comes in two numerically identical variants:

* variant I regresses excess returns on (1, X_t, X_{t+1});
* variant II regresses on (1, X_t, vhat_{t+1}) with first-stage residuals.

Since (1, X_t, X_{t+1}) and (1, X_t, vhat_{t+1}) span the same column space,
both yield the same fit; coefficients are stored in the lag parameterization
(a, d, beta) consumed by the third-stage closed forms

    lambda0 = (beta'beta)^-1 beta' (a + g + beta mu)
    Lambda1 = (beta'beta)^-1 beta' (d + beta phi1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import chi2_sf, chol_spd, square_stack, sym
from .panels import FactorPanel, PanelError, ReturnPanel
from .varstage import COND_CAP, RankError, VarEstimate, _ols_qr


def check_alignment(returns: ReturnPanel, factors: FactorPanel, var: VarEstimate) -> int:
    t = returns.n_periods
    if factors.n_periods != t + 1:
        raise PanelError(
            f"factors must have one more observation than returns "
            f"({factors.n_periods} vs {t})"
        )
    if var.n_periods != t:
        raise PanelError("VAR estimate does not match the return sample length")
    if var.n_factors != factors.n_factors:
        raise PanelError("VAR estimate does not match the factor count")
    return t


@dataclass(frozen=True)
class ReturnRegression:
    """Stacked second-stage OLS output in the lag parameterization.

    Row n of ``beta_hat`` is the innovation loading of asset n.  The
    contemporaneous-regressor parameterization is recovered as
    ``a + beta mu`` and ``d + beta phi1``.
    """

    a_hat: np.ndarray       # (N,)
    d_hat: np.ndarray       # (N, K)
    beta_hat: np.ndarray    # (N, K)
    sigma_e2: float
    g_hat: np.ndarray       # (N,)
    residuals: np.ndarray   # (N, T)

    @property
    def n_assets(self) -> int:
        return self.beta_hat.shape[0]

    @property
    def n_factors(self) -> int:
        return self.beta_hat.shape[1]


@dataclass(frozen=True)
class PriceOfRisk:
    lambda0: np.ndarray     # (K,)
    lambda1: np.ndarray     # (K, K), multiplies X_t


@dataclass(frozen=True)
class WaldResult:
    statistic: float
    dof: int
    pvalue: float
    covariance: np.ndarray

    def __post_init__(self):
        if not (self.statistic >= -1e-10):
            raise ValueError("Wald statistic must be nonnegative")


def convexity_adjustment(beta_hat: np.ndarray, sigma_v: np.ndarray, sigma_e2) -> np.ndarray:
    """Per-asset convexity terms 0.5 (beta_n' Sigma_v beta_n + sigma_e^2)."""
    beta_hat = np.atleast_2d(np.asarray(beta_hat, dtype=float))
    quad = np.einsum("nj,jk,nk->n", beta_hat, np.asarray(sigma_v, dtype=float), beta_hat)
    return 0.5 * (quad + np.asarray(sigma_e2, dtype=float))


def second_stage(
    returns: ReturnPanel,
    factors: FactorPanel,
    var: VarEstimate,
    variant: str = "II",
) -> ReturnRegression:
    """Per-maturity OLS of returns on a constant, lagged factors, and either
    first-stage innovations (variant II) or contemporaneous factors (variant I).
    """
    if variant not in ("I", "II"):
        raise ValueError(f"variant must be 'I' or 'II', got {variant!r}")
    t = check_alignment(returns, factors, var)
    x = factors.factors
    r = returns.returns
    lagged = x[:, :-1].T
    if variant == "II":
        third = var.residuals.T
    else:
        third = x[:, 1:].T
    design = np.column_stack([np.ones(t), lagged, third])
    coef = _ols_qr(design, r.T)                     # (1 + 2K, N)
    k = var.n_factors
    a0 = coef[0]
    d0 = coef[1 : 1 + k].T
    beta = coef[1 + k :].T
    if variant == "II":
        # map to the lag parameterization used by the third stage
        a = a0 - beta @ var.mu
        d = d0 - beta @ var.phi1
    else:
        a, d = a0, d0
    resid = r - (design @ coef).T
    n = r.shape[0]
    sigma_e2 = float(np.trace(resid @ resid.T) / (n * t))
    g = convexity_adjustment(beta, var.sigma_v, sigma_e2)
    return ReturnRegression(
        a_hat=a,
        d_hat=d,
        beta_hat=beta,
        sigma_e2=sigma_e2,
        g_hat=g,
        residuals=resid,
    )


def third_stage(reg: ReturnRegression, var: VarEstimate) -> PriceOfRisk:
    """Closed-form price-of-risk estimates from the stacked regressions."""
    beta = reg.beta_hat
    gram = beta.T @ beta
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise RankError(
            f"beta'beta condition number {cond:.3e} exceeds cap {COND_CAP:.1e}; "
            "factors appear (nearly) unspanned"
        )
    target0 = reg.a_hat + reg.g_hat + beta @ var.mu
    target1 = reg.d_hat + beta @ var.phi1
    sol = np.linalg.solve(gram, beta.T @ np.column_stack([target0, target1]))
    return PriceOfRisk(lambda0=sol[:, 0], lambda1=sol[:, 1:])


# ---------------------------------------------------------------------------
# Asymptotic covariance of the estimator (full-rank beta case)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Joint large-sample covariance blocks of (vec(beta), vec(Lambda)).

    ``v_lambda`` is ordered as vec([lambda0, Lambda1]) column-major, so the
    trailing K^2 block ``v_lambda1`` covers vec(Lambda1).
    """

    v_beta: np.ndarray          # (NK, NK)
    c_lambda_beta: np.ndarray   # (K(K+1), NK)
    v_lambda: np.ndarray        # (K(K+1), K(K+1))

    @property
    def v_lambda1(self) -> np.ndarray:
        k = int(np.sqrt(self.v_lambda.shape[0] + 0.25) - 0.5)
        return self.v_lambda[k:, k:]


def asymptotic_covariance(
    var: VarEstimate,
    reg: ReturnRegression,
    por: PriceOfRisk,
    q_xx: np.ndarray,
) -> AsymptoticCovariance:
    """Assemble the full-rank asymptotic covariance blocks term by term.

    The estimator noise decomposes into three asymptotically orthogonal
    pieces: second-stage coefficient noise on (1, X_t), beta noise entering
    both directly and through the convexity recomputation, and the variance
    of the plug-in (Sigma_v, sigma_e^2) inside the convexity term.  The
    second moments of (1, X_t) come from the lagged mean m and the centred
    second moments ``q_xx``: Gamma_zz = [[1, m'], [m, Qxx + m m']].
    """
    beta = reg.beta_hat
    n, k = beta.shape
    sigma_v = var.sigma_v
    sigma2 = reg.sigma_e2
    m = var.x_lagged_mean
    gamma_zz = np.block([[np.ones((1, 1)), m[None, :]], [m[:, None], q_xx + np.outer(m, m)]])
    gamma_inv = np.linalg.inv(gamma_zz)

    pbeta = np.linalg.solve(beta.T @ beta, beta.T)          # (K, N)
    sigma_u = beta @ sigma_v @ beta.T + sigma2 * np.eye(n)
    term1 = np.kron(gamma_inv, pbeta @ sigma_u @ pbeta.T)

    sigma_v_inv = np.linalg.inv(sigma_v)
    v_b = np.kron(sigma_v_inv, sigma2 * np.eye(n))          # var of vec(beta_hat)

    # convexity sensitivity to beta: dg_n = (beta Sigma_v)_n,: d(beta)_n,:
    bsv = beta @ sigma_v
    dmat = (bsv[:, :, None] * np.eye(n)[:, None, :]).reshape(n, k * n)

    lam = np.column_stack([por.lambda0, por.lambda1])       # (K, K+1)
    e1 = np.zeros(k + 1)
    e1[0] = 1.0
    m2 = np.kron(e1[:, None], pbeta @ dmat)                 # (K(K+1), NK)
    m3 = -np.kron(lam.T, pbeta)
    m23 = m2 + m3
    mid = m23 @ v_b @ m23.T

    # plug-in noise of g = 0.5 (diag(beta Sigma_v beta') + sigma_e^2): Gaussian
    # innovations give Var(vec Sigma_v) = (I + K_KK)(Sigma_v kron Sigma_v), so
    # Cov(b_i' Sigma_v b_i, b_j' Sigma_v b_j) = 2 (b_i' Sigma_v b_j)^2 per period
    bsb = bsv @ beta.T
    g_core = 0.5 * bsb * bsb + sigma2**2 / (2.0 * n)
    g_extra = np.kron(np.outer(e1, e1), pbeta @ g_core @ pbeta.T)

    v_lambda = sym(term1 + mid + g_extra)
    return AsymptoticCovariance(v_beta=v_b, c_lambda_beta=m23 @ v_b, v_lambda=v_lambda)


def wald_statistics(
    por: PriceOfRisk,
    cov: AsymptoticCovariance,
    h0_lambda1: np.ndarray,
    t: int,
) -> np.ndarray:
    """T vec(L1 - L1_0)' V^-1 vec(L1 - L1_0) at one hypothesis or a stack (..., K, K)."""
    k = por.lambda1.shape[0]
    h0 = square_stack(h0_lambda1, k)
    diff = (por.lambda1 - h0).swapaxes(-1, -2).reshape(*h0.shape[:-2], k * k, 1)
    low = chol_spd(cov.v_lambda1, jitters=(0.0,))
    half = np.linalg.solve(low, diff)
    return ((t * half).swapaxes(-1, -2) @ half)[..., 0, 0]


def wald_test(
    por: PriceOfRisk,
    cov: AsymptoticCovariance,
    h0_lambda1: np.ndarray,
    t: int,
) -> WaldResult:
    """Wald statistic T vec(L1 - L1_0)' V^-1 vec(L1 - L1_0) ~ chi^2(K^2)."""
    k = por.lambda1.shape[0]
    stat = float(wald_statistics(por, cov, h0_lambda1, t))
    return WaldResult(
        statistic=stat, dof=k * k, pvalue=chi2_sf(stat, k * k), covariance=cov.v_lambda1
    )
