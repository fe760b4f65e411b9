"""Steps 2-3 of the three-step price-of-risk estimator, plus Wald inference.

The second stage regresses excess returns on (1, X_t, vhat_{t+1}), the lagged
factors and the first-stage innovations (variant II of Adrian, Crump and
Moench).  Regressing on the contemporaneous factors (1, X_t, X_{t+1}) instead
(variant I) gives the same fit: X_{t+1} = mu + phi1 X_t + vhat_{t+1}, so both
designs span the same column space, and only the coefficients on (1, X_t)
move, by beta mu and beta phi1.  They are stored in the lag parameterization
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

    @property
    def n_assets(self) -> int:
        return self.beta_hat.shape[-2]

    @property
    def n_factors(self) -> int:
        return self.beta_hat.shape[-1]


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
    (``wald_test``), sFAR (``subset.sfar_row``, ``sfar_column``,
    ``sfar_distant``, with the pencil roots in ``roots``) and the rank test
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


def joint_basis(design_q: np.ndarray, vhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal basis [Q, Q_v] (T, 1 + 2K) of the second-stage design
    (1, X_{t-1}, vhat) and R_v, per fit of a stack, from the VAR's Q and the
    QR factors Q_v R_v of vhat'.  The same call gives the same bits, so the
    residuals ``StackedSystem.residuals`` forms are those sigma_e^2 summed."""
    q_v, r_v = np.linalg.qr(vhat.swapaxes(-1, -2))
    return np.concatenate([design_q, q_v], axis=-1), r_v


def project_out(r: np.ndarray, proj: np.ndarray, basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The residuals r - (rB) B' of returns r on the basis B, with rB given,
    written into ``out``."""
    np.matmul(proj, basis.swapaxes(-1, -2), out=out)
    return np.subtract(r, out, out=out)


def second_stage(returns: ReturnPanel, factors: FactorPanel, var: VarEstimate) -> ReturnRegression:
    """Per-maturity OLS of returns on a constant, lagged factors and the
    first-stage innovations.

    It reuses the VAR's QR factors Q R of (1, X_{t-1}): the innovations are
    orthogonal to that design by construction, so with vhat' = Q_v R_v the
    joint design (1, X_{t-1}, vhat) has the QR factors [Q, Q_v] diag(R, R_v)
    (``joint_basis``).  The coefficients are R^-1 Q'r' and
    beta' = R_v^-1 Q_v'r', and the residuals are r less the one product
    [rQ, rQ_v][Q, Q_v]'.  The rank check reads the condition of that R
    diagonal, as a dense QR does; a Cholesky factor of vhat vhat' would
    square it and miss innovations that are collinear to rounding.  Only the
    T x K QR of vhat' is run, and no T x (2K+1) design is formed; a VAR
    estimate without its QR factors raises ValueError.

    Stacked panels give one regression per panel, with sigma_e^2 per fit.
    sigma_e^2 sums one fit's residuals at a time, formed in one reused
    N x T buffer, and the residuals are not kept, so no stack-sized N x T
    array is made.
    """
    t = check_alignment(returns, factors, var)
    if var.design_q is None:
        raise ValueError("the second stage reuses the VAR's QR factors; fit the VAR with fit_var1")
    r = returns.returns
    k = var.n_factors
    basis, r_v = joint_basis(var.design_q, var.residuals)      # (T, 1 + 2K), orthonormal
    _check_r_diagonal(np.concatenate([
        np.diagonal(var.design_r, axis1=-2, axis2=-1), np.diagonal(r_v, axis1=-2, axis2=-1)
    ], axis=-1))
    proj = r @ basis                                            # (N, 1 + 2K) = [rQ, rQ_v]
    coef = np.concatenate([
        np.linalg.solve(var.design_r, proj[..., : k + 1].swapaxes(-1, -2)),
        np.linalg.solve(r_v, proj[..., k + 1 :].swapaxes(-1, -2)),
    ], axis=-2)                                                 # (1 + 2K, N)
    beta = coef[..., 1 + k :, :].swapaxes(-1, -2)
    # map to the lag parameterization used by the third stage
    a = coef[..., 0, :] - (beta @ var.mu[..., None])[..., 0]
    d = coef[..., 1 : 1 + k, :].swapaxes(-1, -2) - beta @ var.phi1
    n = r.shape[-2]
    ssr, resid = np.empty(r.shape[:-2]), np.empty(r.shape[-2:])
    for i in np.ndindex(ssr.shape):
        project_out(r[i], proj[i], basis[i], resid)
        ssr[i] = np.einsum("nt,nt->", resid, resid)
    sigma_e2 = ssr / (n * t)
    g = convexity_adjustment(beta, var.sigma_v, sigma_e2)
    return ReturnRegression(a_hat=a, d_hat=d, beta_hat=beta, sigma_e2=sigma_e2, g_hat=g)


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
    """Joint large-sample covariance blocks of (vec(beta), vec(Lambda)).

    ``v_lambda`` is ordered as vec([lambda0, Lambda1]) column-major, so the
    trailing K^2 block ``v_lambda1`` covers vec(Lambda1).  Every array may
    carry leading stack axes.
    """

    v_lambda: np.ndarray        # (K(K+1), K(K+1))
    beta: np.ndarray            # (N, K)
    sigma_v_inv: np.ndarray     # (K, K)
    sigma_e2: np.ndarray        # ()

    @property
    def v_lambda1(self) -> np.ndarray:
        k = self.beta.shape[-1]
        return self.v_lambda[..., k:, k:]

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
    """The full-rank asymptotic covariance in closed form, K-sized blocks only.

    The estimator noise decomposes into three asymptotically orthogonal
    pieces: second-stage coefficient noise on (1, X_t), beta noise entering
    both directly (m3) and through the convexity recomputation (m2), and the
    variance of the plug-in (Sigma_v, sigma_e^2) inside the convexity term.
    With G = beta'beta, P = G^-1 beta' and Lambda = [lambda0, Lambda1]:

    * coefficient noise: Gamma_zz^-1 kron (Sigma_v + s2 G^-1), where
      Gamma_zz = [[1, m'], [m, Qxx + m m']] for the lagged mean m, so
      Gamma_zz^-1 = [[1 + m'Qxx^-1 m, -m'Qxx^-1], [-Qxx^-1 m, Qxx^-1]];
    * m3 V_b m3' = (Lambda' Sigma_v^-1 Lambda) kron s2 G^-1;
    * m2 V_b m2' = s2 P diag(beta Sigma_v beta') P' in the lambda0 block;
    * m2 V_b m3' = -s2 P diag(beta Lambda_c) P' in block (lambda0, column c);
    * plug-in noise of g = 0.5 (diag(beta Sigma_v beta') + s2): Gaussian
      innovations give Cov(b_i' Sigma_v b_i, b_j' Sigma_v b_j) = 2 (b_i' Sigma_v b_j)^2
      per period, so the lambda0 block gains P (0.5 (B o B) + s2^2 / (2N) 11') P'
      with B = beta Sigma_v beta'.

    V_b = Sigma_v^-1 kron s2 I_N is the variance of vec(beta_hat).  Every
    input may carry leading stack axes (one covariance per fit of a stack).
    """
    beta = reg.beta_hat
    n, k = beta.shape[-2:]
    sigma_v = var.sigma_v
    sigma2 = np.asarray(reg.sigma_e2, dtype=float)
    s2 = sigma2[..., None, None]
    m = var.x_lagged_mean[..., :, None]                              # (K, 1)
    qinv_m = np.linalg.solve(q_xx, m)
    gamma_inv = np.empty((*qinv_m.shape[:-2], k + 1, k + 1))
    gamma_inv[..., 0, 0] = 1.0 + (m.swapaxes(-1, -2) @ qinv_m)[..., 0, 0]
    gamma_inv[..., 1:, :1] = -qinv_m
    gamma_inv[..., :1, 1:] = -qinv_m.swapaxes(-1, -2)
    gamma_inv[..., 1:, 1:] = np.linalg.inv(q_xx)

    beta_t = beta.swapaxes(-1, -2)
    gram_inv = np.linalg.inv(beta_t @ beta)
    p = gram_inv @ beta_t                                            # (K, N)
    sigma_v_inv = np.linalg.inv(sigma_v)
    lam = np.concatenate([por.lambda0[..., :, None], por.lambda1], axis=-1)   # (K, K+1)
    v = kron(gamma_inv, sigma_v + s2 * gram_inv)
    v += kron(lam.swapaxes(-1, -2) @ sigma_v_inv @ lam, s2 * gram_inv)

    bsb = beta @ sigma_v @ beta_t                                    # (N, N)
    diag_bsb = np.diagonal(bsb, axis1=-2, axis2=-1)
    core = 0.5 * bsb * bsb + (sigma2**2 / (2.0 * n))[..., None, None]
    core += sigma2[..., None, None] * (diag_bsb[..., :, None] * np.eye(n))
    v[..., :k, :k] += p @ core @ p.swapaxes(-1, -2)
    # cross blocks: -s2 P diag(beta Lambda_c) P' at (lambda0, column c) and its transpose
    blam = beta @ lam                                                # (N, K+1)
    cross = -s2[..., None] * np.einsum("...in,...nc,...jn->...cij", p, blam, p)
    cross = cross.swapaxes(-3, -2).reshape(*cross.shape[:-3], k, (k + 1) * k)
    v[..., :k, :] += cross
    v[..., :, :k] += cross.swapaxes(-1, -2)
    return AsymptoticCovariance(
        v_lambda=sym(v), beta=beta, sigma_v_inv=sigma_v_inv, sigma_e2=sigma2
    )


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
