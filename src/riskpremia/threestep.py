"""Steps 2-3 of the three-step price-of-risk estimator, plus Wald inference.

The second stage regresses excess returns on (1, X_t, vhat_{t+1}), the lagged
factors and the first-stage innovations (variant II of Adrian, Crump and
Moench).  Regressing on the contemporaneous factors (1, X_t, X_{t+1}) instead
(variant I) gives the same fit: X_{t+1} = mu + phi1 X_t + vhat_{t+1}, so both
designs span the same column space, and only the coefficients on (1, X_t)
move, by beta mu and beta phi1.  The VAR's one QR of (1, X_t, X_{t+1})
serves both.  The coefficients are stored in the lag parameterization
(a, d, beta) consumed by the third-stage closed forms

    lambda0 = (beta'beta)^-1 beta' (a + g + beta mu)
    Lambda1 = (beta'beta)^-1 beta' (d + beta phi1)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import chi2_sf, chol_whiten, kron, square_stack, sumsq, sym
from .panels import FactorPanel, PanelError, ReturnPanel
from .varstage import COND_CAP, RankError, VarEstimate, _check_r_diagonal


def check_alignment(returns: ReturnPanel, factors: FactorPanel, var: VarEstimate) -> int:
    t = returns.n_periods
    if factors.n_periods != t + 1:
        raise PanelError(
            f"factors must have one more observation than returns "
            f"({factors.n_periods} vs {t})"
        )
    if returns.returns.shape[:-2] != factors.factors.shape[:-2]:
        raise PanelError("returns and factors must stack the same number of panels")
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
    ``a + beta mu`` and ``d + beta phi1``.  The regression of a stack of
    panels carries the stack axis in front of each field (``sigma_e2`` is
    then an array).  It keeps no residuals: ``StackedSystem.residuals``
    forms them when the hc0 variance reads them.
    """

    a_hat: np.ndarray       # (N,)
    d_hat: np.ndarray       # (N, K)
    beta_hat: np.ndarray    # (N, K)
    sigma_e2: float
    g_hat: np.ndarray       # (N,)


@dataclass(frozen=True)
class PriceOfRisk:
    lambda0: np.ndarray     # (K,)
    lambda1: np.ndarray     # (K, K), multiplies X_t


@dataclass(frozen=True)
class TestResult:
    """One test as the paper reports it: a statistic, its chi^2 degrees of
    freedom and a p-value, which is only an upper bound when ``bound_only``
    (sFAR).

    Every test returns it: FAR/KLM/JKLM (``moments.robust_tests``), Wald
    (``wald_test``), sFAR (``subset.sfar_row(sys, value, index)``,
    ``sfar_column(sys, value, index)`` and ``sfar_distant(sys, direction)``,
    with the pencil roots in ``roots``) and the rank test
    (``subset.kp_rank``).  The statistic is clipped at 0, and a p-value
    outside [0, 1] raises ValueError.
    """

    __test__ = False        # a library class, not a pytest test class

    name: str
    statistic: float
    dof: int
    pvalue: float
    bound_only: bool = False
    h0: np.ndarray | None = None
    roots: np.ndarray | None = None     # ascending pencil roots off an sFAR hypothesis

    def __post_init__(self):
        object.__setattr__(self, "statistic", float(max(self.statistic, 0.0)))
        if not 0.0 <= self.pvalue <= 1.0:
            raise ValueError("p-value outside [0, 1]")

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "statistic": self.statistic,
            "dof": self.dof,
            "pvalue": self.pvalue,
            "bound_only": self.bound_only,
            "h0": None if self.h0 is None else np.asarray(self.h0).tolist(),
        }
        if self.roots is not None:
            out["roots"] = self.roots.tolist()
        return out


def convexity_adjustment(beta_hat: np.ndarray, sigma_v: np.ndarray, sigma_e2) -> np.ndarray:
    """Per-asset convexity terms 0.5 (beta_n' Sigma_v beta_n + sigma_e^2),
    per fit of a stack."""
    beta_hat = np.atleast_2d(np.asarray(beta_hat, dtype=float))
    quad = np.einsum("...nj,...jk,...nk->...n", beta_hat, np.asarray(sigma_v, dtype=float), beta_hat)
    return 0.5 * (quad + np.asarray(sigma_e2, dtype=float)[..., None])


def project_out(r: np.ndarray, proj: np.ndarray, basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The residuals r - (rB) B' of returns r on the basis B, with rB given,
    written into ``out``."""
    np.matmul(proj, basis.swapaxes(-1, -2), out=out)
    return np.subtract(r, out, out=out)


def second_stage(returns: ReturnPanel, factors: FactorPanel, var: VarEstimate) -> ReturnRegression:
    """Per-maturity OLS of returns on a constant, lagged factors and the
    first-stage innovations.

    It reuses the VAR's QR factors Q R of (1, X_{t-1}, X_t): vhat' = Q_v R_v,
    so the design (1, X_{t-1}, vhat) has the same basis Q and no QR is run.
    One solve of R against Q'r' gives beta' = R_v^-1 Q_v'r' and, by back
    substitution through R12 = R11 (mu ; phi1'), the lag parameterization
    (a ; d') = R11^-1 Q1'r' - (mu ; phi1') beta'; the residuals are r - (rQ) Q'.
    The rank check reads the whole R diagonal, as a dense QR does, so
    innovations collinear to rounding raise RankError; a VAR estimate
    without its QR factors raises ValueError.

    Stacked panels give one regression per panel, with sigma_e^2 per fit.
    sigma_e^2 sums one fit's residuals at a time, formed in one reused
    N x T buffer, and the residuals are not kept, so no stack-sized N x T
    array is made.
    """
    t = check_alignment(returns, factors, var)
    if var.design_q is None:
        raise ValueError("the second stage reuses the VAR's QR factors; fit the VAR with fit_var1")
    r, basis = returns.returns, var.design_q                   # (T, 1 + 2K), orthonormal
    k = var.n_factors
    _check_r_diagonal(np.diagonal(var.design_r, axis1=-2, axis2=-1))
    proj = r @ basis                                            # (N, 1 + 2K) = rQ
    coef = np.linalg.solve(var.design_r, proj.swapaxes(-1, -2))  # (1 + 2K, N) = (a ; d' ; beta')
    beta = coef[..., 1 + k :, :].swapaxes(-1, -2)
    n = r.shape[-2]
    ssr, resid = np.empty(r.shape[:-2]), np.empty(r.shape[-2:])
    for i in np.ndindex(ssr.shape):
        project_out(r[i], proj[i], basis[i], resid)
        ssr[i] = np.einsum("nt,nt->", resid, resid)
    sigma_e2 = ssr / (n * t)
    g = convexity_adjustment(beta, var.sigma_v, sigma_e2)
    d = coef[..., 1 : 1 + k, :].swapaxes(-1, -2)
    return ReturnRegression(a_hat=coef[..., 0, :], d_hat=d, beta_hat=beta, sigma_e2=sigma_e2, g_hat=g)


def third_stage(reg: ReturnRegression, var: VarEstimate) -> PriceOfRisk:
    """Closed-form price-of-risk estimates from the stacked regressions.

    Raises RankError when beta'beta is numerically singular.  A stack of
    fits keeps one answer for all of them: it raises RankError when every
    beta'beta is singular and ValueError when only some are.
    """
    beta = reg.beta_hat
    beta_t = beta.swapaxes(-1, -2)
    gram = beta_t @ beta
    cond = np.linalg.cond(gram)
    bad = ~np.isfinite(cond) | (cond > COND_CAP)
    if np.all(bad):
        raise RankError(
            f"beta'beta condition number {np.max(cond):.3e} exceeds cap {COND_CAP:.1e}; "
            "factors appear (nearly) unspanned"
        )
    if np.any(bad):
        raise ValueError("a stack of fits needs a price of risk for every fit or for none")
    target0 = reg.a_hat + reg.g_hat + (beta @ var.mu[..., None])[..., 0]
    target1 = reg.d_hat + beta @ var.phi1
    sol = np.linalg.solve(gram, beta_t @ np.concatenate([target0[..., None], target1], axis=-1))
    return PriceOfRisk(lambda0=sol[..., :, 0], lambda1=sol[..., :, 1:])


# ---------------------------------------------------------------------------
# Asymptotic covariance of the estimator (full-rank beta case)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Large-sample covariance of vec(Lambda1), column-major, the block the
    Wald test reads.  It may carry leading stack axes."""

    v_lambda1: np.ndarray       # (K^2, K^2)

    @cached_property
    def v_lambda1_whitener(self) -> np.ndarray:
        """(K^2, K^2) L^-1 for the lower Cholesky factor L of ``v_lambda1``,
        one factorization per fit, without jitter: a covariance that is not
        positive definite raises NumericalError."""
        eye = np.eye(self.v_lambda1.shape[-1])
        return chol_whiten(self.v_lambda1, eye, jitters=(0.0,))[1]


def asymptotic_covariance(
    var: VarEstimate,
    reg: ReturnRegression,
    por: PriceOfRisk,
    q_xx: np.ndarray,
) -> AsymptoticCovariance:
    """The full-rank asymptotic covariance of vec(Lambda1) in closed form,
    K-sized blocks only.

    With G = beta'beta, the Lambda1 estimator noise has two asymptotically
    orthogonal pieces:

    * second-stage coefficient noise on X_t: Qxx^-1 kron (Sigma_v + s2 G^-1);
    * beta noise, with V_b = Sigma_v^-1 kron s2 I_N the variance of
      vec(beta_hat): (Lambda1' Sigma_v^-1 Lambda1) kron s2 G^-1.

    The convexity term and its plug-in noise move lambda0 alone.  Every
    input may carry leading stack axes (one covariance per fit of a stack).
    """
    beta = reg.beta_hat
    s2 = np.asarray(reg.sigma_e2, dtype=float)[..., None, None]
    gram_inv = np.linalg.inv(beta.swapaxes(-1, -2) @ beta)
    lam1 = por.lambda1
    v = kron(np.linalg.inv(q_xx), var.sigma_v + s2 * gram_inv)
    v += kron(lam1.swapaxes(-1, -2) @ np.linalg.inv(var.sigma_v) @ lam1, s2 * gram_inv)
    return AsymptoticCovariance(v_lambda1=sym(v))


def wald_statistics(
    por: PriceOfRisk,
    cov: AsymptoticCovariance,
    h0_lambda1: np.ndarray,
    t: int,
) -> np.ndarray:
    """T vec(L1 - L1_0)' V^-1 vec(L1 - L1_0) at one hypothesis or a stack
    (..., K, K), broadcast against the stack axes of ``por`` and ``cov``.
    Each hypothesis is whitened by elementwise products with the per-fit
    ``v_lambda1_whitener``, so a stack of one gives the same numbers as any
    stack."""
    k = por.lambda1.shape[-1]
    h0 = square_stack(h0_lambda1, k)
    diff = (por.lambda1 - h0).swapaxes(-1, -2)
    diff = diff.reshape(*diff.shape[:-2], k * k)
    half = (cov.v_lambda1_whitener * diff[..., None, :]).sum(axis=-1)
    return t * sumsq(half)


def wald_test(
    por: PriceOfRisk,
    cov: AsymptoticCovariance,
    h0_lambda1: np.ndarray,
    t: int,
) -> TestResult:
    """Wald statistic T vec(L1 - L1_0)' V^-1 vec(L1 - L1_0) ~ chi^2(K^2), as
    a ``TestResult`` named Wald."""
    k = por.lambda1.shape[-1]
    h0 = square_stack(h0_lambda1, k)
    stat = float(wald_statistics(por, cov, h0, t))
    return TestResult("Wald", stat, k * k, chi2_sf(stat, k * k), h0=h0)
