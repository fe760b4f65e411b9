"""Subset hypotheses on rows/columns of Lambda1: sFAR, distant values, rank test.

The stacked regression of demeaned returns on (xbar_{t-1}; vhat_t) has an
N x 2K coefficient matrix Phi = (d : beta) of rank K under the model.  A row
hypothesis lambda_1 = lambda_1^0 reduces its rank to K-1 after multiplying by
the restriction matrix A(lambda_1^0), so the subset statistic is T times the
sum of the K smallest roots of the symmetric-definite pencil

    | mu * A' Psi A  -  A' Phi' Sigma^-1 Phi A | = 0,

which equals the infimum of the full-vector FAR statistic over the nuisance
rows (tested against that definition numerically).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from ._linalg import (
    chi2_ppf,
    chi2_sf,
    chol_spd,
    gen_eigvals,
    inv_from_chol,
    orthonormal_completion,
    spd_project,
    sym,
)
from .kronecker import KpsFactorization, kps_factorize, kps_factorize_terms
from .panels import FactorPanel, ReturnPanel
from .threestep import check_alignment
from .varstage import VarEstimate


@dataclass(frozen=True)
class StackedSystem:
    """Joint-regression view of the model plus its KPS covariance pieces."""

    phi_hat: np.ndarray      # (N, 2K) = (d_hat : beta_hat)
    w_hat: np.ndarray        # (2K, 2K) regressor second moments
    psi_hat: np.ndarray      # (2K, 2K) = W^-1 Omega W^-1, SPD-projected
    sigma_hat: np.ndarray    # (N, N) KPS residual covariance factor
    q_xx: np.ndarray         # (K, K) upper-left block of w_hat
    kps: KpsFactorization
    xbar_lagged: np.ndarray  # (K, T)
    vhat: np.ndarray         # (K, T)
    rbar: np.ndarray         # (N, T)
    residuals: np.ndarray    # (N, T) stacked-regression residuals
    n_periods: int

    @property
    def n_assets(self) -> int:
        return self.phi_hat.shape[0]

    @property
    def n_factors(self) -> int:
        return self.phi_hat.shape[1] // 2

    @property
    def d_hat(self) -> np.ndarray:
        return self.phi_hat[:, : self.n_factors]

    @property
    def beta_hat(self) -> np.ndarray:
        return self.phi_hat[:, self.n_factors :]

    @property
    def psi_v(self) -> np.ndarray:
        k = self.n_factors
        return self.psi_hat[k:, k:]

    @property
    def psi_x(self) -> np.ndarray:
        k = self.n_factors
        return self.psi_hat[:k, :k]


def model_score_terms(
    xbar: np.ndarray,
    vhat: np.ndarray,
    resid: np.ndarray,
    beta: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Kronecker terms of the homoskedastic-model score covariance.

    Returns [(diag(Qxx, 0), s2 I + beta Sigma_v beta'), (diag(0, Sigma_v), s2 I)],
    whose Kronecker sum is

        S = diag( Qxx kron (s2 I + beta Sigma_v beta'),  Sigma_v kron s2 I ).
    """
    k, t = xbar.shape
    n = resid.shape[0]
    q_xx = xbar @ xbar.T / t
    sig_v = vhat @ vhat.T / t
    sig2 = float(np.einsum("nt,nt->", resid, resid) / (n * t))
    a_x = np.zeros((2 * k, 2 * k))
    a_x[:k, :k] = q_xx
    a_v = np.zeros((2 * k, 2 * k))
    a_v[k:, k:] = sig_v
    s2_i = sig2 * np.eye(n)
    return [(a_x, s2_i + beta @ sig_v @ beta.T), (a_v, s2_i)]


def stacked_score_covariance(
    rbar: np.ndarray,
    xbar: np.ndarray,
    vhat: np.ndarray,
    phi_hat: np.ndarray,
    method: str = "model",
) -> np.ndarray:
    """Estimate the score covariance of the joint regression.

    The lagged-factor block pairs with ``resid + beta vhat`` rather than the
    raw residual: first-stage innovation estimation feeds back into the
    stacked coefficients, and dropping it loses the factor-risk component of
    the covariance.

    ``method='model'`` (default) is the dense sum of the homoskedastic-model
    terms of :func:`model_score_terms`; ``method='outer'`` is the raw
    per-period outer product, which is robust to the model structure but too
    noisy for chi-square-referenced quadratic forms at short sample lengths.
    """
    k, t = xbar.shape
    resid = rbar - phi_hat @ np.vstack([xbar, vhat])
    beta = phi_hat[:, k:]
    if method == "outer":
        upper = resid + beta @ vhat
        hx = np.einsum("it,nt->tin", xbar, upper).reshape(t, -1)
        hv = np.einsum("it,nt->tin", vhat, resid).reshape(t, -1)
        h = np.hstack([hx, hv])
        return h.T @ h / t
    if method != "model":
        raise ValueError(f"unknown score covariance method {method!r}")
    return sum(np.kron(a, b) for a, b in model_score_terms(xbar, vhat, resid, beta))


def build_stacked(
    returns: ReturnPanel,
    factors: FactorPanel,
    var: VarEstimate,
    kps: KpsFactorization | None = None,
    score_cov: str = "model",
) -> StackedSystem:
    """Fit the joint regression and attach the KPS covariance factorization.

    The default model covariance is factored from its Kronecker terms; the
    dense score covariance is formed only for ``score_cov='outer'``.
    """
    t = check_alignment(returns, factors, var)
    k = var.n_factors
    x = factors.factors
    xbar = x[:, :-1] - var.x_lagged_mean[:, None]
    vhat = var.residuals
    rbar = returns.returns - returns.returns.mean(axis=1, keepdims=True)
    w_rows = np.vstack([xbar, vhat])
    w_hat = w_rows @ w_rows.T / t
    phi_hat = np.linalg.solve(w_hat, w_rows @ rbar.T / t).T
    resid = rbar - phi_hat @ w_rows
    if kps is None:
        if score_cov == "model":
            kps = kps_factorize_terms(model_score_terms(xbar, vhat, resid, phi_hat[:, k:]))
        else:
            s_hat = stacked_score_covariance(rbar, xbar, vhat, phi_hat, method=score_cov)
            kps = kps_factorize(s_hat, p=2 * k, k=returns.n_assets)
    w_inv = np.linalg.inv(w_hat)
    psi_hat = spd_project(w_inv @ kps.omega @ w_inv)
    return StackedSystem(
        phi_hat=phi_hat,
        w_hat=w_hat,
        psi_hat=psi_hat,
        sigma_hat=kps.sigma,
        q_xx=w_hat[:k, :k],
        kps=kps,
        xbar_lagged=xbar,
        vhat=vhat,
        rbar=rbar,
        residuals=resid,
        n_periods=t,
    )


# ---------------------------------------------------------------------------
# Hypotheses and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetHypothesis:
    kind: str                # 'row' or 'column'
    index: int
    value: np.ndarray        # (K,)

    def __post_init__(self):
        if self.kind not in ("row", "column"):
            raise ValueError("hypothesis kind must be 'row' or 'column'")
        object.__setattr__(self, "value", np.asarray(self.value, dtype=float).reshape(-1))
        if self.index < 0 or self.index >= self.value.size:
            raise ValueError("hypothesis index out of range")
        if not np.isfinite(self.value).all():
            raise ValueError("hypothesis value must be finite")


@dataclass(frozen=True)
class SfarResult:
    statistic: float
    roots: np.ndarray        # ascending pencil roots (empty for numeric route)
    dof_bound: int
    pvalue_upper: float
    method: str              # 'eigen' or 'numeric'
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "roots": list(self.roots),
            "dof_bound": self.dof_bound,
            "pvalue_upper": self.pvalue_upper,
            "method": self.method,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class RankTestResult:
    statistic: float
    dof: int
    pvalue: float


def restriction_matrix(lam0: np.ndarray) -> np.ndarray:
    """A(lambda_1^0): 2K x (2K-1) with the tested row folded into the pencil."""
    lam0 = np.asarray(lam0, dtype=float).reshape(-1)
    k = lam0.size
    a = np.zeros((2 * k, 2 * k - 1))
    a[:k, :k] = np.eye(k)
    a[k, :k] = -lam0
    a[k + 1 :, k:] = np.eye(k - 1)
    return a


def _row_permuted(sys: StackedSystem, index: int):
    """Phi and Psi with innovation slot `index` moved to the front."""
    k = sys.n_factors
    if index == 0:
        return sys.phi_hat, sys.psi_hat
    order = [index] + [i for i in range(k) if i != index]
    perm = np.eye(k)[order]
    tp = np.block([[np.eye(k), np.zeros((k, k))], [np.zeros((k, k)), perm]])
    return sys.phi_hat @ tp.T, tp @ sys.psi_hat @ tp.T


def _sigma_inv(sys: StackedSystem) -> np.ndarray:
    return inv_from_chol(chol_spd(sys.sigma_hat))


def sfar_row(h: SubsetHypothesis, sys: StackedSystem) -> SfarResult:
    """Subset statistic for one row of Lambda1 via the characteristic pencil."""
    if h.kind != "row":
        raise ValueError("sfar_row requires a row hypothesis")
    k, n, t = sys.n_factors, sys.n_assets, sys.n_periods
    phi, psi = _row_permuted(sys, h.index)
    a = restriction_matrix(h.value)
    hmat = phi.T @ _sigma_inv(sys) @ phi
    roots = gen_eigvals(a.T @ hmat @ a, a.T @ psi @ a)
    roots = np.maximum(roots, 0.0)
    stat = float(t * roots[:k].sum())
    dof = k * (n - k + 1)
    return SfarResult(
        statistic=stat,
        roots=roots,
        dof_bound=dof,
        pvalue_upper=chi2_sf(stat, dof),
        method="eigen",
    )


def far_trace(sys: StackedSystem, lam1: np.ndarray) -> float:
    """Full-vector FAR under the Kronecker weighting, as a trace form.

    Equals T tr(B' H B (B' Psi B)^-1) with B = (I_K ; -Lambda1); the lag
    second-moment matrix cancels against the weighting.
    """
    k = sys.n_factors
    lam1 = np.asarray(lam1, dtype=float).reshape(k, k)
    b = np.vstack([np.eye(k), -lam1])
    hmat = sys.phi_hat.T @ _sigma_inv(sys) @ sys.phi_hat
    num = b.T @ hmat @ b
    den = b.T @ sys.psi_hat @ b
    return float(sys.n_periods * np.trace(np.linalg.solve(sym(den), sym(num))))


def _assemble_lambda1(h: SubsetHypothesis, free: np.ndarray, k: int) -> np.ndarray:
    lam = np.empty((k, k))
    if h.kind == "row":
        rest = np.delete(np.arange(k), h.index)
        lam[h.index, :] = h.value
        lam[rest, :] = free.reshape(k - 1, k)
    else:
        rest = np.delete(np.arange(k), h.index)
        lam[:, h.index] = h.value
        lam[:, rest] = free.reshape(k, k - 1)
    return lam


def sfar_minimized(
    h: SubsetHypothesis,
    sys: StackedSystem,
    n_starts: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
) -> SfarResult:
    """Subset statistic as a direct minimization of FAR over the nuisance
    entries of Lambda1 (quasi-Newton, deterministic multi-start)."""
    k, n, t = sys.n_factors, sys.n_assets, sys.n_periods
    dof = k * (n - k + 1)
    n_free = k * (k - 1)
    if n_free == 0:
        stat = far_trace(sys, h.value.reshape(1, 1))
        return SfarResult(
            statistic=float(stat),
            roots=np.array([]),
            dof_bound=dof,
            pvalue_upper=chi2_sf(stat, dof),
            method="numeric",
        )

    sigma_inv = _sigma_inv(sys)
    hmat = sys.phi_hat.T @ sigma_inv @ sys.phi_hat

    def objective(free):
        lam = _assemble_lambda1(h, free, k)
        b = np.vstack([np.eye(k), -lam])
        num = sym(b.T @ hmat @ b)
        den = sym(b.T @ sys.psi_hat @ b)
        try:
            return float(t * np.trace(np.linalg.solve(den, num)))
        except np.linalg.LinAlgError:
            return np.inf

    # anchor starts: GLS-implied Lambda1 and zeros, then seeded random spread
    beta = sys.beta_hat
    gls = np.linalg.solve(beta.T @ sigma_inv @ beta, beta.T @ sigma_inv @ sys.d_hat)
    if h.kind == "row":
        anchor = gls[np.delete(np.arange(k), h.index), :].reshape(-1)
    else:
        anchor = gls[:, np.delete(np.arange(k), h.index)].reshape(-1)
    scale = max(1.0, np.abs(anchor).max(), np.abs(h.value).max())
    rng = np.random.default_rng(seed)
    starts = [anchor, np.zeros(n_free)]
    starts += [anchor + scale * rng.standard_normal(n_free) for _ in range(n_starts - 2)]

    best, converged = np.inf, False
    for x0 in starts:
        res = scipy.optimize.minimize(
            objective, x0, method="L-BFGS-B",
            options={"ftol": tol, "gtol": 1e-12, "maxiter": 500},
        )
        if res.fun < best:
            best = float(res.fun)
            converged = bool(res.success)
        elif res.success and abs(res.fun - best) <= 1e-8 * max(1.0, abs(best)):
            converged = True
    if not converged:
        warnings.warn("sFAR nuisance minimization did not report convergence", RuntimeWarning)
    return SfarResult(
        statistic=best,
        roots=np.array([]),
        dof_bound=dof,
        pvalue_upper=chi2_sf(best, dof),
        method="numeric",
        converged=converged,
    )


def sfar_column(h: SubsetHypothesis, sys: StackedSystem, n_starts: int = 20, seed: int = 0) -> SfarResult:
    """Column hypothesis: FAR minimized over all other entries of Lambda1."""
    if h.kind != "column":
        raise ValueError("sfar_column requires a column hypothesis")
    return sfar_minimized(h, sys, n_starts=n_starts, seed=seed)


def sfar_distant(
    direction: np.ndarray, sys: StackedSystem, index: int = 0
) -> SfarResult:
    """Limit of the row statistic along lambda_1 = c * direction as c grows."""
    lam = np.asarray(direction, dtype=float).reshape(-1)
    norm = np.linalg.norm(lam)
    if not np.isfinite(norm) or norm == 0.0:
        raise ValueError("direction must be a nonzero vector")
    lam = lam / norm
    k, n, t = sys.n_factors, sys.n_assets, sys.n_periods
    phi, psi = _row_permuted(sys, index)
    comp = orthonormal_completion(lam)
    g = np.zeros((2 * k, 2 * k - 1))
    g[:k, : k - 1] = comp
    g[k:, k - 1 :] = np.eye(k)
    hmat = phi.T @ _sigma_inv(sys) @ phi
    roots = np.maximum(gen_eigvals(g.T @ hmat @ g, g.T @ psi @ g), 0.0)
    stat = float(t * roots[:k].sum())
    dof = k * (n - k + 1)
    return SfarResult(
        statistic=stat,
        roots=roots,
        dof_bound=dof,
        pvalue_upper=chi2_sf(stat, dof),
        method="eigen",
    )


def kp_rank(sys: StackedSystem) -> RankTestResult:
    """Reduced-rank test of the factor loadings (H0: rank(beta) = K-1).

    The statistic is the smallest eigenvalue of
    T Psi_V^{-1/2}' beta' Sigma^-1 beta Psi_V^{-1/2}, computed as a
    symmetric-definite pencil; it is also the lower bound of the distant-value
    subset statistic, with equality at K = 1.
    """
    k, n, t = sys.n_factors, sys.n_assets, sys.n_periods
    beta = sys.beta_hat
    m = beta.T @ _sigma_inv(sys) @ beta
    roots = gen_eigvals(m, sys.psi_v)
    stat = float(t * max(roots[0], 0.0))
    dof = n - k + 1
    return RankTestResult(statistic=stat, dof=dof, pvalue=chi2_sf(stat, dof))


@dataclass(frozen=True)
class BoundednessReport:
    bounded_all: bool
    unbounded_directions: list = field(default_factory=list)
    rank_shortcut: bool = False      # K=1 and rank test rejects => bounded certain
    critical_value: float = float("nan")
    alpha: float = 0.05
    index: int = 0


def boundedness_diagnostic(
    sys: StackedSystem,
    alpha: float = 0.05,
    n_directions: int = 64,
    index: int = 0,
    seed: int = 0,
) -> BoundednessReport:
    """Scan distant-value statistics over random directions.

    A direction whose limit statistic stays below the chi^2 critical value is
    accepted arbitrarily far out, so the confidence set is unbounded there.
    """
    if n_directions < 1:
        raise ValueError("need at least one direction")
    k, n = sys.n_factors, sys.n_assets
    # degenerate level: a size-one test accepts nothing anywhere, so every
    # direction is classified unbounded (the p-value cutoff collapses to 0)
    crit = np.inf if alpha >= 1.0 else chi2_ppf(1.0 - alpha, k * (n - k + 1))
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_directions, k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    unbounded = []
    for d in dirs:
        res = sfar_distant(d, sys, index=index)
        if res.statistic <= crit:
            unbounded.append(d.copy())
    rank = kp_rank(sys)
    shortcut = bool(k == 1 and rank.pvalue < alpha)
    return BoundednessReport(
        bounded_all=len(unbounded) == 0,
        unbounded_directions=unbounded,
        rank_shortcut=shortcut,
        critical_value=crit,
        alpha=alpha,
        index=index,
    )
