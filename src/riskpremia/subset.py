"""Subset hypotheses on rows/columns of Lambda1: sFAR, distant values, rank test.

The stacked regression of demeaned returns on (xbar_{t-1}; vhat_t) has an
N x 2K coefficient matrix Phi = (d : beta) of rank K under the model.  A row
hypothesis lambda_1 = lambda_1^0 restricts the pencil

    | mu * Psi  -  Phi' Sigma^-1 Phi | = 0

to the hyperplane orthogonal to w = (lambda_1^0 ; e_i), i the tested row,
and the subset statistic is T times the sum of the K smallest roots of the
restricted pencil, which equals the infimum of the full-vector FAR statistic
over the nuisance rows (tested against that definition numerically).  A
distant value along direction d has the normal (d ; 0) at every row index;
the rank test restricts the pencil to the vectors (0 ; y).  Every such root
comes from one routine (``_pencil_roots``): with Psi = L L', M = L^-1 H L^-T
and H = Phi' Sigma^-1 Phi, the roots orthogonal to normals W are the
eigenvalues of (I - QQ') M (I - QQ') off span(Q), Q an orthonormal basis of
L^-1 W (Golub 1973).  H, L and M are fixed once the model is fit
(``StackedSystem.h_hat``, ``psi_whitener``, ``h_whitened``) and only the
normals carry the hypothesis, so a stack of hypotheses, over one fit or a
stack of fits, is one stacked 2K x 2K ``eigvalsh``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.optimize

from ._linalg import (
    chi2_ppf,
    chi2_sf,
    chol_spd,
    inv_lower,
    kron,
    spd_project,
    square_stack,
    sym,
    vec_kron,
    whiten,
)
from .kronecker import KpsFactorization, kps_factorize_terms
from .panels import FactorPanel, ReturnPanel
from .threestep import ReturnRegression, check_alignment
from .varstage import VarEstimate


@dataclass(frozen=True)
class StackedSystem:
    """Joint-regression view of the model plus its KPS covariance pieces.

    The system of a stack of fits (``build_stacked`` on stacked panels) is
    one system whose arrays carry leading axes; its sizes are read from the
    trailing axes and its per-fit invariants below are stacked too.
    """

    phi_hat: np.ndarray      # (N, 2K) = (d_hat : beta_hat)
    w_hat: np.ndarray        # (2K, 2K) regressor second moments
    psi_hat: np.ndarray      # (2K, 2K) = W^-1 Omega W^-1, SPD-projected
    sigma_hat: np.ndarray    # (N, N) KPS residual covariance factor
    q_xx: np.ndarray         # (K, K) upper-left block of w_hat
    kps: KpsFactorization | None
    xbar_lagged: np.ndarray  # (K, T)
    vhat: np.ndarray         # (K, T)
    rbar: np.ndarray         # (N, T)
    residuals: np.ndarray    # (N, T) second-stage residuals

    @property
    def n_assets(self) -> int:
        return self.phi_hat.shape[-2]

    @property
    def n_factors(self) -> int:
        return self.phi_hat.shape[-1] // 2

    @property
    def n_periods(self) -> int:
        return self.vhat.shape[-1]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Leading axes of a stack of systems; () for one fit."""
        return self.phi_hat.shape[:-2]

    @property
    def d_hat(self) -> np.ndarray:
        return self.phi_hat[..., : self.n_factors]

    @property
    def beta_hat(self) -> np.ndarray:
        return self.phi_hat[..., self.n_factors :]

    @property
    def psi_v(self) -> np.ndarray:
        k = self.n_factors
        return self.psi_hat[..., k:, k:]

    @cached_property
    def h_hat(self) -> np.ndarray:
        """(2K, 2K) H = Phi' Sigma^-1 Phi, shared by every pencil and trace form."""
        half = whiten(chol_spd(self.sigma_hat), self.phi_hat)     # L^-1 Phi, Sigma = L L'
        return half.swapaxes(-1, -2) @ half

    @cached_property
    def psi_whitener(self) -> np.ndarray:
        """(2K, 2K) L^-1 for the lower Cholesky factor L of Psi = L L'."""
        return inv_lower(chol_spd(self.psi_hat))

    @cached_property
    def h_whitened(self) -> np.ndarray:
        """(2K, 2K) M = L^-1 H L^-T: the pencil (H, Psi) in standard form."""
        lw = self.psi_whitener
        return sym(lw @ self.h_hat @ lw.swapaxes(-1, -2))

    @cached_property
    def jacobian(self) -> np.ndarray:
        """(NK, K^2) Jacobian -(Qxx kron beta) of the moment vector in vec(Lambda1)."""
        return -kron(self.q_xx, self.beta_hat)

    @cached_property
    def sigma_v_inv_vhat(self) -> np.ndarray:
        """(K, T) Sigma_v^-1 vhat, read by every hc0 score."""
        k = self.n_factors
        return np.linalg.solve(self.w_hat[..., k:, k:], self.vhat)

    @cached_property
    def hc0_parts(self) -> np.ndarray:
        """(T, 2NK) hypothesis-free parts [a | z] of the hc0 moment scores.

        a_t = xbar_t kron (e_t + beta v_t) and z_t = (Sigma_v^-1 v_t) kron e_t;
        the score at Lambda1 is a_t - (Qxx Lambda1' kron I_N) z_t.
        """
        lead, t = self.batch_shape, self.n_periods
        upper = self.residuals + self.beta_hat @ self.vhat
        a = np.einsum("...it,...nt->...tin", self.xbar_lagged, upper).reshape(*lead, t, -1)
        z = np.einsum("...it,...nt->...tin", self.sigma_v_inv_vhat, self.residuals)
        return np.concatenate([a, z.reshape(*lead, t, -1)], axis=-1)

    @cached_property
    def hc0_grams(self) -> np.ndarray:
        """(2NK, 2NK) Gram [a | z]' [a | z] / T of ``hc0_parts``; every hc0
        V_ff is a fixed quadratic form in its blocks."""
        parts = self.hc0_parts
        return parts.swapaxes(-1, -2) @ parts / self.n_periods

    @cached_property
    def hc0_psi_q_grams(self) -> np.ndarray:
        """(NK^3, 2NK) cross-moments of ``hc0_psi_q`` with ``hc0_parts``; every
        hc0 V_qf is a fixed linear form in its blocks."""
        return self.hc0_psi_q.swapaxes(-1, -2) @ self.hc0_parts / self.n_periods

    @cached_property
    def hc0_psi_q(self) -> np.ndarray:
        """(T, NK^3) per-period scores of the Jacobian -vec(Qxx kron beta).

        Row t is -vec(Qxx kron B_t + X_t kron beta) with the beta score
        B_t = e_t (Sigma_v^-1 v_t)' and X_t = xbar_t xbar_t' - Qxx; none of it
        depends on the hypothesis.
        """
        # the period axis leads, so the per-fit arrays broadcast against it
        b_t = np.einsum("...jt,...nt->t...nj", self.sigma_v_inv_vhat, self.residuals)
        x_t = np.einsum("...it,...jt->t...ij", self.xbar_lagged, self.xbar_lagged) - self.q_xx
        scores = vec_kron(self.q_xx, b_t) + vec_kron(x_t, self.beta_hat)
        return -np.moveaxis(scores, 0, -2)


def model_score_terms(
    q_xx: np.ndarray,
    sigma_v: np.ndarray,
    sigma_e2: float,
    beta: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Kronecker terms of the homoskedastic-model score covariance.

    Returns [(diag(Qxx, 0), s2 I + beta Sigma_v beta'), (diag(0, Sigma_v), s2 I)],
    whose Kronecker sum is

        S = diag( Qxx kron (s2 I + beta Sigma_v beta'),  Sigma_v kron s2 I ),

    one pair of stacked terms for stacked inputs.
    """
    k, n = q_xx.shape[-1], beta.shape[-2]
    a_x = np.zeros((*q_xx.shape[:-2], 2 * k, 2 * k))
    a_x[..., :k, :k] = q_xx
    a_v = np.zeros_like(a_x)
    a_v[..., k:, k:] = sigma_v
    s2_i = np.asarray(sigma_e2)[..., None, None] * np.eye(n)
    return [(a_x, s2_i + beta @ sigma_v @ beta.swapaxes(-1, -2)), (a_v, s2_i)]


def stacked_score_covariance(
    rbar: np.ndarray,
    xbar: np.ndarray,
    vhat: np.ndarray,
    phi_hat: np.ndarray,
) -> np.ndarray:
    """Dense score covariance of the joint regression under the model.

    The Kronecker sum of :func:`model_score_terms`, formed as a (2KN)^2
    matrix from the sample moments of its own inputs; the fit factors those
    terms without forming it.  The lagged-factor
    block pairs with ``resid + beta vhat`` rather than the raw residual:
    first-stage innovation estimation feeds back into the stacked
    coefficients, and dropping it loses the factor-risk component.
    """
    k, t = xbar.shape
    resid = rbar - phi_hat @ np.vstack([xbar, vhat])
    sig2 = float(np.einsum("nt,nt->", resid, resid) / resid.size)
    terms = model_score_terms(xbar @ xbar.T / t, vhat @ vhat.T / t, sig2, phi_hat[:, k:])
    return sum(np.kron(a, b) for a, b in terms)


def build_stacked(
    returns: ReturnPanel,
    factors: FactorPanel,
    var: VarEstimate,
    reg: ReturnRegression,
    kps: KpsFactorization | None = None,
) -> StackedSystem:
    """Attach the KPS covariance factorization to the second-stage regression.

    The joint regression of demeaned returns on (xbar_{t-1}; vhat_t) is the
    second stage in the parameterization Phi = (d + beta phi1 : beta), so its
    coefficients and residuals are read off ``reg``.  Unless ``kps`` is given,
    the model score covariance is factored from its Kronecker terms without
    forming the dense matrix.  Stacked panels and fits give one stacked system.
    """
    t = check_alignment(returns, factors, var)
    k = var.n_factors
    xbar = factors.factors[..., :, :-1] - var.x_lagged_mean[..., None]
    vhat = var.residuals
    w_rows = np.concatenate([xbar, vhat], axis=-2)
    w_hat = w_rows @ w_rows.swapaxes(-1, -2) / t
    beta = reg.beta_hat
    phi_hat = np.concatenate([reg.d_hat + beta @ var.phi1, beta], axis=-1)
    if kps is None:
        kps = kps_factorize_terms(
            model_score_terms(w_hat[..., :k, :k], w_hat[..., k:, k:], reg.sigma_e2, beta)
        )
    w_inv = np.linalg.inv(w_hat)
    psi_hat = spd_project(w_inv @ kps.omega @ w_inv)
    r = returns.returns
    return StackedSystem(
        phi_hat=phi_hat,
        w_hat=w_hat,
        psi_hat=psi_hat,
        sigma_hat=kps.sigma,
        q_xx=w_hat[..., :k, :k],
        kps=kps,
        xbar_lagged=xbar,
        vhat=vhat,
        rbar=r - r.mean(axis=-1, keepdims=True),
        residuals=reg.residuals,
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
        _check_subset_values(self.index, self.value)


def _check_subset_values(index: int, values: np.ndarray) -> None:
    """Validate a subset hypothesis, or a stack of values (..., K) at one index."""
    if index < 0 or index >= values.shape[-1]:
        raise ValueError("hypothesis index out of range")
    if not np.isfinite(values).all():
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


def _check_length(sys: StackedSystem, values: np.ndarray) -> None:
    """Raise unless subset values (..., K) have the K entries of ``sys``."""
    if values.shape[-1:] != (sys.n_factors,):
        got = np.atleast_1d(values).shape[-1]
        raise ValueError(f"subset hypothesis needs {sys.n_factors} values, got {got}")


def _normals(sys: StackedSystem, values: np.ndarray, index: int | None = None) -> np.ndarray:
    """(..., 2K) normals of the restricted pencil at values (..., K): row
    values of row ``index`` give (lambda_1^0 ; e_index), distant directions
    (no index) give (d ; 0)."""
    _check_length(sys, values)
    k = sys.n_factors
    normals = np.zeros((*values.shape[:-1], 2 * k))
    normals[..., :k] = values
    if index is not None:
        normals[..., k + index] = 1.0
    return normals


def sfar_dof(sys: StackedSystem) -> int:
    """Degrees of freedom K(N-K+1) of the chi^2 bound on the subset statistic."""
    k = sys.n_factors
    return k * (sys.n_assets - k + 1)


def _pencil_roots(sys: StackedSystem, q: np.ndarray) -> np.ndarray:
    """Ascending roots (..., 2K-r) of the pencil (H, Psi) on the vectors x
    with L'x orthogonal to orthonormal bases q (..., 2K, r): the eigenvalues
    of M - q (Mq)' - (Mq) q' without its r smallest.  That matrix acts as
    (I - qq') M (I - qq') off span(q) and as -q'Mq <= 0 on it."""
    m = sys.h_whitened
    outer = q @ (m @ q).swapaxes(-1, -2)
    roots = np.linalg.eigvalsh(m - outer - outer.swapaxes(-1, -2))
    return np.maximum(roots[..., q.shape[-1] :], 0.0)


def _projected_roots(sys: StackedSystem, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T times the sum of the K smallest roots of the pencil (H, Psi) on the
    hyperplanes orthogonal to a stack of ``normals`` (..., 2K).

    The roots are ``_pencil_roots`` on u = L^-1 w / |L^-1 w|; the normals
    broadcast against the stack axes of ``sys``.  Returns the statistics
    (...) and the ascending roots (..., 2K-1).
    """
    # one matrix-vector product per hypothesis, so a stack of one gives the
    # same numbers as any stack
    u = (sys.psi_whitener @ normals[..., None])[..., 0]
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    roots = _pencil_roots(sys, u[..., None])
    return sys.n_periods * roots[..., : sys.n_factors].sum(axis=-1), roots


def _single_result(sys: StackedSystem, normal: np.ndarray) -> SfarResult:
    """The stack-of-one case of ``_projected_roots`` as an SfarResult."""
    stats, roots = _projected_roots(sys, normal[None])
    stat, dof = float(stats[0]), sfar_dof(sys)
    return SfarResult(
        statistic=stat,
        roots=roots[0],
        dof_bound=dof,
        pvalue_upper=chi2_sf(stat, dof),
        method="eigen",
    )


def sfar_row(h: SubsetHypothesis, sys: StackedSystem) -> SfarResult:
    """Subset statistic for one row of Lambda1 via the projected pencil."""
    if h.kind != "row":
        raise ValueError("sfar_row requires a row hypothesis")
    return _single_result(sys, _normals(sys, h.value, h.index))


def sfar_row_statistics(sys: StackedSystem, values: np.ndarray, index: int) -> np.ndarray:
    """Row statistics of ``sfar_row`` at a stack of values (..., K) of row
    ``index``; the values broadcast against the stack axes of ``sys``."""
    values = np.asarray(values, dtype=float)
    _check_subset_values(index, values)
    return _projected_roots(sys, _normals(sys, values, index))[0]


def far_trace(sys: StackedSystem, lam1: np.ndarray):
    """Full-vector FAR under the Kronecker weighting, as a trace form.

    Equals T tr((B' Psi B)^-1 B' H B) with B = (I_K ; -Lambda1); the lag
    second-moment matrix cancels against the weighting.  A stack of
    hypotheses (..., K, K), broadcast against the stack axes of ``sys``,
    gives an array of statistics; one hypothesis on one fit, in any shape
    with K^2 entries, gives a float.
    """
    k = sys.n_factors
    lam1 = square_stack(lam1, k)
    b = np.concatenate([np.broadcast_to(np.eye(k), lam1.shape), -lam1], axis=-2)
    bt = b.swapaxes(-1, -2)
    num = bt @ sys.h_hat @ b
    den = bt @ sys.psi_hat @ b
    far = sys.n_periods * np.trace(np.linalg.solve(sym(den), sym(num)), axis1=-2, axis2=-1)
    return float(far) if far.ndim == 0 else far


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
    _check_length(sys, h.value)
    k, dof = sys.n_factors, sfar_dof(sys)
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

    def objective(free):
        try:
            return far_trace(sys, _assemble_lambda1(h, free, k))
        except np.linalg.LinAlgError:
            return np.inf

    # anchor starts: GLS-implied Lambda1 and zeros, then seeded random spread
    hmat = sys.h_hat
    gls = np.linalg.solve(hmat[k:, k:], hmat[k:, :k])
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


def sfar_distant(direction: np.ndarray, sys: StackedSystem) -> SfarResult:
    """Limit of the row statistic along lambda_1 = c * direction as c grows.

    The normal (c d ; e_index) of the restricted pencil turns into (d ; 0) as
    c grows, so the limit is the same for every row index.
    """
    lam = np.asarray(direction, dtype=float).reshape(-1)
    norm = np.linalg.norm(lam)
    if not np.isfinite(norm) or norm == 0.0:
        raise ValueError("direction must be a nonzero vector")
    return _single_result(sys, _normals(sys, lam))


def kp_rank(sys: StackedSystem) -> RankTestResult:
    """Reduced-rank test of the factor loadings (H0: rank(beta) = K-1).

    T times the smallest root of the pencil (H, Psi) on the vectors (0 ; y),
    i.e. of (H_vv, Psi_v); they are orthogonal to e_1..e_K, whose whitened
    normals are the first K columns of L^-1.  The statistic certifies
    boundedness: {x = 0} lies inside every distant-value hyperplane
    {d'x = 0}, and every K-dimensional subspace of that hyperplane meets it,
    so the smallest root on {x = 0} is at most the sum of the K smallest
    roots on the hyperplane, with equality at K = 1.
    """
    k, n = sys.n_factors, sys.n_assets
    q = np.linalg.qr(sys.psi_whitener[..., :k])[0]
    stat = float(sys.n_periods * _pencil_roots(sys, q)[..., 0])
    dof = n - k + 1
    return RankTestResult(statistic=stat, dof=dof, pvalue=chi2_sf(stat, dof))


@dataclass(frozen=True)
class BoundednessReport:
    bounded_all: bool
    unbounded_directions: list = field(default_factory=list)
    # True when the rank route decided: T * (smallest rank root) above the
    # critical value certifies every direction bounded, so nothing was scanned
    rank_shortcut: bool = False
    critical_value: float = float("nan")
    alpha: float = 0.05


def boundedness_diagnostic(
    sys: StackedSystem,
    alpha: float = 0.05,
    n_directions: int = 64,
    seed: int = 0,
) -> BoundednessReport:
    """Classify boundedness by the rank certificate or a direction scan.

    The rank statistic lower-bounds the distant-value statistic in every
    direction, at every K; when it exceeds the chi^2 critical value no
    direction is accepted far out and the set is bounded without a scan.
    Otherwise distant-value statistics are scanned over random directions: a
    direction whose limit statistic stays below the critical value is
    accepted arbitrarily far out, so the confidence set is unbounded there.
    """
    if n_directions < 1:
        raise ValueError("need at least one direction")
    # degenerate level: a size-one test accepts nothing anywhere, so every
    # direction is classified unbounded (the p-value cutoff collapses to 0)
    crit = np.inf if alpha >= 1.0 else chi2_ppf(1.0 - alpha, sfar_dof(sys))
    unbounded = []
    shortcut = kp_rank(sys).statistic > crit
    if not shortcut:
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((n_directions, sys.n_factors))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        stats, _ = _projected_roots(sys, _normals(sys, dirs))
        unbounded = [d.copy() for d, stat in zip(dirs, stats) if stat <= crit]
    return BoundednessReport(
        bounded_all=len(unbounded) == 0,
        unbounded_directions=unbounded,
        rank_shortcut=shortcut,
        critical_value=crit,
        alpha=alpha,
    )
