"""Subset hypotheses on rows/columns of Lambda1: sFAR, distant values, rank test.

The stacked regression of demeaned returns on (xbar_{t-1}; vhat_t) has an
N x 2K coefficient matrix Phi = (d : beta) of rank K under the model.  A row
hypothesis lambda_1 = lambda_1^0 restricts the pencil

    | mu * Psi  -  Phi' Sigma^-1 Phi | = 0

to the hyperplane orthogonal to w = (lambda_1^0 ; e_i), i the tested row,
and the subset statistic is T times the sum of the K smallest roots of the
restricted pencil, which equals the infimum of the full-vector FAR statistic
over the nuisance rows (tested against that definition numerically).  A
column hypothesis fixes the column b = (e_j ; -lambda) of B = (I ; -Lambda1);
FAR depends on Lambda1 through span(B) only, so by Ky Fan's trace minimum the
statistic is T (b'Hb / b'Psi b + the K-1 smallest roots on {x : b'Psi x = 0}).
A distant value along direction d has the normal (d ; 0) at every row index;
the rank test restricts the pencil to the vectors (0 ; y).  Every such root
comes from one routine (``_pencil_roots``): with Psi = L L', M = L^-1 H L^-T
and H = Phi' Sigma^-1 Phi, the roots orthogonal to r normals W are the
eigenvalues of M compressed onto the orthogonal complement of L^-1 W, or of
L'W for columns (Golub 1973).  Householder reflections P that take those r
vectors onto the leading axes give the compression as the trailing
(2K-r) x (2K-r) block of P M P.  H, L and M are fixed once the model is fit
(``StackedSystem.h_hat``, ``psi_chol``, ``h_whitened``) and only the normals
carry the hypothesis, so a stack of hypotheses, over one fit or a stack of
fits, is one stacked (2K-r) x (2K-r) ``eigvalsh``.  The KPS factor
Sigma = alpha I + gamma beta Sigma_v beta' is two scalars on the fit, and H
comes from the R of the thin QR of Phi, on whose span Sigma acts as a
min(N, 2K)-square matrix: no N x N array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import chi2_ppf, chi2_sf, chol_whiten, sym, vec
from .kronecker import kps_factorize_model
from .panels import FactorPanel, ReturnPanel
from .threestep import ReturnRegression, TestResult, check_alignment, project_out
from .varstage import VarEstimate

VARIANCE_MODES = ("kps", "hc0")     # of FAR/KLM/JKLM: ``kps`` or the ``hc0_*`` parts


@dataclass(frozen=True)
class StackedSystem:
    """Joint-regression view of the model plus its KPS covariance pieces.

    The KPS factors are Omega, held through ``psi_hat``, and
    Sigma = alpha I + gamma beta Sigma_v beta', held as ``sigma_pair`` =
    (alpha, gamma), both as ``kronecker.kps_factorize_model`` decided them.
    It holds no demeaned returns: the residuals and vhat are orthogonal to
    xbar, so the moment vector needs only Phi and Qxx (``moments.moment_vector``).
    ``returns`` is the array the fit was given, held by reference and read
    only when the hc0 variance forms the residuals (``residuals``); writing
    to that array afterwards changes what hc0 reads.  ``design_q`` and
    ``design_r`` are the VAR's QR factors of (1, X_{t-1}, X_t), not copies;
    the hc0 variance forms xbar and the residuals from them.  The system of
    a stack of fits
    (``build_stacked`` on stacked panels) is one system whose arrays carry
    leading axes; its sizes are read from the trailing axes and its per-fit
    invariants below are stacked too.
    """

    phi_hat: np.ndarray      # (N, 2K) = (d_hat : beta_hat)
    psi_hat: np.ndarray      # (2K, 2K) = diag(omega_x Qxx^-1, omega_v Sigma_v^-1), SPD
    sigma_pair: np.ndarray   # (2,) (alpha, gamma) of the KPS factor Sigma = alpha I + gamma beta Sigma_v beta'
    q_xx: np.ndarray         # (K, K) second moments of the demeaned lagged factors
    sigma_v: np.ndarray      # (K, K) VAR innovation covariance, by reference
    vhat: np.ndarray         # (K, T)
    returns: np.ndarray      # (N, T) the fitted returns, by reference
    design_q: np.ndarray     # (T, 1 + 2K) the VAR's Q of (1, X_{t-1}, X_t)
    design_r: np.ndarray     # (1 + 2K, 1 + 2K) the VAR's R of (1, X_{t-1}, X_t)

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

    @cached_property
    def h_hat(self) -> np.ndarray:
        """(2K, 2K) H = Phi' Sigma^-1 Phi, shared by every pencil and by the
        Kronecker-weighted FAR/KLM (``moments``).

        Sigma - alpha I = gamma beta Sigma_v beta' lives on span(beta), inside
        span(Phi): with the thin QR Phi = Q R and R_beta = R[:, K:],
        Sigma = Q C Q' + alpha (I - QQ') for the min(N, 2K)-square
        C = alpha I + gamma R_beta Sigma_v R_beta', so H = R' C^-1 R, from one
        factorization of C bordered by R; alpha arrives already lifted off
        zero where sigma_e^2 is zero to rounding (``kps_factorize_model``).
        """
        k = self.n_factors
        r = np.linalg.qr(self.phi_hat, mode="r")
        r_beta = r[..., k:]
        core = self.sigma_pair[..., 1, None, None] * (r_beta @ self.sigma_v @ r_beta.swapaxes(-1, -2))
        diag = np.arange(r.shape[-2])
        core[..., diag, diag] += self.sigma_pair[..., :1]
        half = chol_whiten(core, r)[1]                          # L^-1 R, C = L L'
        return half.swapaxes(-1, -2) @ half

    @cached_property
    def _psi_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, L^-1) of Psi = L L' from one factorization, Psi bordered by I."""
        return chol_whiten(self.psi_hat, np.eye(self.psi_hat.shape[-1]))

    @property
    def psi_chol(self) -> np.ndarray:
        """(2K, 2K) lower Cholesky factor L of Psi = L L'."""
        return self._psi_factors[0]

    @property
    def psi_whitener(self) -> np.ndarray:
        """(2K, 2K) L^-1 for the lower Cholesky factor L of Psi = L L'."""
        return self._psi_factors[1]

    @cached_property
    def h_whitened(self) -> np.ndarray:
        """(2K, 2K) M = L^-1 H L^-T: the pencil (H, Psi) in standard form."""
        lw = self.psi_whitener
        return sym(lw @ self.h_hat @ lw.swapaxes(-1, -2))

    @cached_property
    def xbar_lagged(self) -> np.ndarray:
        """(K, T) demeaned lagged factors (Q_x R_x)', the lag columns of the
        QR of (1, X_{t-1}, X_t) with the constant, column 0, projected out;
        only the hc0 variance reads them."""
        lag = slice(1, 1 + self.n_factors)
        return (self.design_q[..., lag] @ self.design_r[..., lag, lag]).swapaxes(-1, -2)

    @cached_property
    def residuals(self) -> np.ndarray:
        """(N, T) second-stage residuals, formed on first read by the
        projection on ``design_q`` that ``second_stage`` summed sigma_e^2
        from, so they carry the same bits; only the hc0 variance reads them."""
        basis = self.design_q
        return project_out(self.returns, self.returns @ basis, basis, np.empty(self.returns.shape))

    @cached_property
    def sigma_v_inv_vhat(self) -> np.ndarray:
        """(K, T) Sigma_v^-1 vhat, read by every hc0 score."""
        return np.linalg.solve(self.sigma_v, self.vhat)

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
    def hc0_x_moments(self) -> np.ndarray:
        """(K^2, 2NK) third moments sum_t vec(X_t) p_t' / T of
        X_t = xbar_t xbar_t' - Qxx with the parts p_t = [a_t | z_t] of
        ``hc0_parts``; with the z rows of ``hc0_grams`` they give every hc0
        orthogonalized Jacobian (``moments._hc0_ortho_jacobian``)."""
        k, t = self.n_factors, self.n_periods
        parts = self.hc0_parts
        xx = np.einsum("...it,...jt->...jit", self.xbar_lagged, self.xbar_lagged)
        third = xx.reshape(*xx.shape[:-3], k * k, t) @ parts
        third -= vec(self.q_xx)[..., :, None] * parts.sum(axis=-2)[..., None, :]
        return third / t


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
    matrix from the sample moments of its own inputs; the fit factors it in
    closed form (``kps_factorize_model``) without forming it.  The
    lagged-factor block pairs with ``resid + beta vhat`` rather than the raw
    residual: first-stage innovation estimation feeds back into the stacked
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
) -> StackedSystem:
    """Attach the KPS covariance factorization to the second-stage regression.

    The joint regression of demeaned returns on (xbar_{t-1}; vhat_t) is the
    second stage in the parameterization Phi = (d + beta phi1 : beta), so its
    coefficients are read off ``reg``, and its residuals are formed from
    the returns only if the hc0 variance reads them.  The regressors are
    orthogonal, so their second moments are diag(Qxx, Sigma_v), with
    Qxx = R_x'R_x / T for the lag block R_x = R[1:1+K, 1:1+K] of the VAR's
    R.  ``kps_factorize_model`` factors the model score covariance into
    Omega = diag(omega_x Qxx, omega_v Sigma_v) and Sigma = alpha I + gamma
    beta Sigma_v beta', and this applies its four scalars:
    Psi = diag(omega_x Qxx^-1, omega_v Sigma_v^-1) and ``sigma_pair`` =
    (alpha, gamma), with no dense matrix, no T-length product, and no
    decomposition or projection.
    Stacked panels and fits give one stacked system.
    """
    t = check_alignment(returns, factors, var)
    k = var.n_factors
    r_x, sigma_v, beta = var.design_r[..., 1 : 1 + k, 1 : 1 + k], var.sigma_v, reg.beta_hat
    q_xx = r_x.swapaxes(-1, -2) @ r_x / t
    omega_x, omega_v, alpha, gamma = kps_factorize_model(q_xx, sigma_v, reg.sigma_e2, beta)
    psi_hat = np.zeros((*q_xx.shape[:-2], 2 * k, 2 * k))
    psi_hat[..., :k, :k] = omega_x[..., None, None] * np.linalg.inv(q_xx)
    psi_hat[..., k:, k:] = omega_v[..., None, None] * np.linalg.inv(sigma_v)
    return StackedSystem(
        phi_hat=np.concatenate([reg.d_hat + beta @ var.phi1, beta], axis=-1),
        psi_hat=sym(psi_hat),
        sigma_pair=np.stack([alpha, gamma], axis=-1),
        q_xx=q_xx,
        sigma_v=sigma_v,
        vhat=var.residuals,
        returns=returns.returns,
        design_q=var.design_q,
        design_r=var.design_r,
    )


# ---------------------------------------------------------------------------
# Hypotheses and results
# ---------------------------------------------------------------------------


def _require_one_fit(sys: StackedSystem, caller: str) -> None:
    """Raise TypeError when a single-fit entry point gets a stack of fits."""
    if sys.batch_shape:
        raise TypeError(f"{caller} takes one fit, got a stack of {int(np.prod(sys.batch_shape))}")


def sfar_dof(k: int, n: int) -> int:
    """Degrees of freedom K(N-K+1) of the chi^2 bound on the subset statistic."""
    return k * (n - k + 1)


def _pencil_roots(sys: StackedSystem, q: np.ndarray) -> np.ndarray:
    """Ascending roots (..., 2K-r) of the pencil (H, Psi) on the vectors x
    with L'x orthogonal to the columns of q (..., 2K, r), of full rank: the
    eigenvalues of M compressed onto the orthogonal complement of span(q).

    Column j, with the j-1 axes already reflected away dropped, goes onto
    the leading axis by a Householder reflection P = I - vv'/c, and the
    trailing block of P M P = M - vw' - wv' is the compression one dimension
    down; r reflections leave a (2K-r) x (2K-r) eigenproblem.  Every product
    over the hypothesis axis is elementwise, so a stack of one gives the
    same numbers as any stack.
    """
    m, rows = sys.h_whitened, q.swapaxes(-1, -2)
    for _ in range(q.shape[-1]):
        x, rows = rows[..., 0, :], rows[..., 1:, :]
        norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
        v = x.copy()
        v[..., :1] += np.where(x[..., :1] < 0.0, -norm, norm)
        c = norm * (norm + np.abs(x[..., :1]))                   # v'v / 2
        p = (m * v[..., None, :]).sum(axis=-1) / c
        w = p - (v * p).sum(axis=-1, keepdims=True) / (2.0 * c) * v
        if rows.shape[-2]:
            dots = (rows * v[..., None, :]).sum(axis=-1, keepdims=True) / c[..., None]
            rows = (rows - dots * v[..., None, :])[..., 1:]
        v, w = v[..., 1:], w[..., 1:]
        m = m[..., 1:, 1:] - v[..., :, None] * w[..., None, :] - w[..., :, None] * v[..., None, :]
    return np.maximum(np.linalg.eigvalsh(m), 0.0)


def _projected_roots(sys: StackedSystem, values, index: int | None = None, kind: str = "row"):
    """Subset statistics (...) at a stack of row or column values (..., K)
    of ``index``, and the ascending roots (..., 2K-1) of the pencil (H, Psi)
    off their normals; the one place an sFAR hypothesis is validated.

    The normal of a row value is w = (lambda_1^0 ; e_index), of a column
    value the column b = (e_index ; -lambda) of B; with no index, the limits
    (d ; 0) and (0 ; -d) of either along the direction d.  The roots are
    ``_pencil_roots`` on u, the unit L^-1 w or L'b.  A row statistic is T
    times the K smallest roots, a column one T (u'Mu + the K-1 smallest).
    The values broadcast against the stack axes of ``sys``.
    """
    if kind not in ("row", "column"):
        raise ValueError("hypothesis kind must be 'row' or 'column'")
    values, k = np.asarray(values, dtype=float), sys.n_factors
    if values.shape[-1:] != (k,):
        raise ValueError(f"subset hypothesis needs {k} values, got {np.atleast_1d(values).shape[-1]}")
    if index is not None and not 0 <= index < k:
        raise ValueError("hypothesis index out of range")
    if not np.isfinite(values).all():
        raise ValueError("hypothesis value must be finite")
    column = kind == "column"
    normals = np.zeros((*values.shape[:-1], 2 * k))
    if column:
        normals[..., k:] = -values
    else:
        normals[..., :k] = values
    if index is not None:
        normals[..., index if column else k + index] = 1.0
    # elementwise products per hypothesis, so a stack of one gives the same
    # numbers as any stack
    factor = sys.psi_chol.swapaxes(-1, -2) if column else sys.psi_whitener
    u = (factor * normals[..., None, :]).sum(axis=-1)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    roots = _pencil_roots(sys, u[..., None])
    if not column:
        return sys.n_periods * roots[..., :k].sum(axis=-1), roots
    rayleigh = np.einsum("...i,...ij,...j->...", u, sys.h_whitened, u)
    return sys.n_periods * (rayleigh + roots[..., : k - 1].sum(axis=-1)), roots


def sfar_statistics(sys: StackedSystem, values, index: int, kind: str = "row") -> np.ndarray:
    """Subset statistics at a stack of values (..., K) of row or column
    ``index`` of Lambda1; the values broadcast against the stack axes of
    ``sys``."""
    return _projected_roots(sys, values, index, kind)[0]


def _sfar_result(sys: StackedSystem, caller: str, value, index: int | None = None,
                 kind: str = "row") -> TestResult:
    """The stack-of-one case of ``_projected_roots`` at ``value`` (K,) on one
    fit, as a ``TestResult`` named sFAR whose p-value is the chi^2(K(N-K+1))
    upper bound, with the pencil roots; ``h0`` is the hypothesis value, None
    for a distant value (no ``index``)."""
    _require_one_fit(sys, caller)
    value = np.asarray(value, dtype=float).reshape(-1)
    stats, roots = _projected_roots(sys, value[None], index, kind)
    stat, dof = float(stats[0]), sfar_dof(sys.n_factors, sys.n_assets)
    return TestResult("sFAR", stat, dof, chi2_sf(stat, dof), bound_only=True,
                      h0=None if index is None else value, roots=roots[0])


def sfar_row(sys: StackedSystem, value, index: int) -> TestResult:
    """Subset test of row ``index`` of Lambda1 at ``value`` (K,), an sFAR ``TestResult``."""
    return _sfar_result(sys, "sfar_row", value, index)


def sfar_column(sys: StackedSystem, value, index: int) -> TestResult:
    """Subset test of column ``index`` of Lambda1 at ``value`` (K,), an sFAR ``TestResult``."""
    return _sfar_result(sys, "sfar_column", value, index, "column")


def sfar_distant(sys: StackedSystem, direction) -> TestResult:
    """Limit of the row statistic along lambda_1 = c * direction as c grows,
    an sFAR ``TestResult`` with no ``h0``.

    The normal (c d ; e_index) of the restricted pencil turns into (d ; 0) as
    c grows, so the limit is the same for every row index.
    """
    if not np.any(direction):
        raise ValueError("direction must be a nonzero vector")
    return _sfar_result(sys, "sfar_distant", direction)


def kp_rank(sys: StackedSystem) -> TestResult:
    """Reduced-rank test of the factor loadings (H0: rank(beta) = K-1), a
    ``TestResult`` named rank.

    T times the smallest root of the pencil (H, Psi) on the vectors (0 ; y),
    i.e. of (H_vv, Psi_v); they are orthogonal to e_1..e_K, whose whitened
    normals are the first K columns of L^-1.  The statistic certifies
    boundedness: {x = 0} lies inside every distant-value hyperplane
    {d'x = 0}, and every K-dimensional subspace of that hyperplane meets it,
    so the smallest root on {x = 0} is at most the sum of the K smallest
    roots on the hyperplane, with equality at K = 1.  The K reflections of
    ``_pencil_roots`` leave a K x K eigenproblem.
    """
    _require_one_fit(sys, "kp_rank")
    k, n = sys.n_factors, sys.n_assets
    stat = float(sys.n_periods * _pencil_roots(sys, sys.psi_whitener[..., :k])[..., 0])
    dof = n - k + 1
    return TestResult("rank", stat, dof, chi2_sf(stat, dof))


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
    kind: str = "row",
) -> BoundednessReport:
    """Classify the boundedness of a row or column set by the rank
    certificate or a direction scan.

    Along lambda = c d the row statistic tends to the distant value, the
    pencil off (d ; 0), and the column statistic to the column statistic at
    b = (0 ; -d).  The rank statistic lower-bounds both limits in every
    direction, at every K: the distant value as ``kp_rank`` shows, and the
    column limit since its Rayleigh term b'Hb / b'Psi b on {(0 ; y)} is at
    least that pencil's smallest root (Courant-Fischer).  When it exceeds
    the chi^2 critical value no direction is accepted far out and the set
    is bounded without a scan.  Otherwise the limits of ``kind`` are
    scanned over random directions: a direction whose limit statistic stays
    below the critical value is accepted arbitrarily far out, so the
    confidence set is unbounded there.
    """
    _require_one_fit(sys, "boundedness_diagnostic")
    if kind not in ("row", "column"):
        raise ValueError("boundedness kind must be 'row' or 'column'")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if n_directions < 1:
        raise ValueError("need at least one direction")
    # degenerate level: a size-one test accepts nothing anywhere, so every
    # direction is classified unbounded (the p-value cutoff collapses to 0)
    crit = np.inf if alpha >= 1.0 else chi2_ppf(1.0 - alpha, sfar_dof(sys.n_factors, sys.n_assets))
    unbounded = []
    shortcut = kp_rank(sys).statistic > crit
    if not shortcut:
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((n_directions, sys.n_factors))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        stats, _ = _projected_roots(sys, dirs, kind=kind)
        unbounded = [d.copy() for d, stat in zip(dirs, stats) if stat <= crit]
    return BoundednessReport(
        bounded_all=len(unbounded) == 0,
        unbounded_directions=unbounded,
        rank_shortcut=shortcut,
        critical_value=crit,
        alpha=alpha,
    )
