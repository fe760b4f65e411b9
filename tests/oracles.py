"""Independent references for the closed forms of the package."""

from collections import namedtuple
from dataclasses import replace

import numpy as np
import scipy.optimize

from riskpremia import montecarlo
from riskpremia._linalg import square_stack, sym, vec
from riskpremia.moments import moment_vector, robust_statistics
from riskpremia.panels import FactorPanel, PanelError, ReturnPanel
from riskpremia.subset import VARIANCE_MODES, StackedSystem
from riskpremia.threestep import ReturnRegression, convexity_adjustment
from riskpremia.varstage import RankError


def sfar_minimized(sys, value, index, kind, seed):
    """The subset statistic of row (column) ``index`` at ``value`` as the
    smallest FAR over the other rows (columns) of Lambda1: L-BFGS-B from the
    GLS-implied Lambda1, zero and 18 seeded starts.  K >= 2."""
    k = sys.n_factors
    rest = np.delete(np.arange(k), index)
    lam = np.empty((k, k))

    def objective(free):
        if kind == "row":
            lam[index], lam[rest] = value, free.reshape(k - 1, k)
        else:
            lam[:, index], lam[:, rest] = value, free.reshape(k, k - 1)
        try:
            return robust_statistics(sys, lam, "kps", ("far",))["far"]
        except np.linalg.LinAlgError:
            return np.inf

    gls = np.linalg.solve(sys.h_hat[k:, k:], sys.h_hat[k:, :k])
    anchor = (gls[rest] if kind == "row" else gls[:, rest]).reshape(-1)
    scale = max(1.0, np.abs(anchor).max(), np.abs(value).max())
    rng = np.random.default_rng(seed)
    starts = [anchor, np.zeros(anchor.size)]
    starts += [anchor + scale * rng.standard_normal(anchor.size) for _ in range(18)]
    options = {"ftol": 1e-10, "gtol": 1e-12, "maxiter": 500}
    return min(
        float(scipy.optimize.minimize(objective, x0, method="L-BFGS-B", options=options).fun)
        for x0 in starts
    )


def seedsequence_draws(spec, seed, replicate, init):
    """The standard normals ``simulate`` draws for ``replicate``, in order:
    x_0's (stationary start only), the factor shocks' and the return noise's,
    from NumPy's own ``Philox(SeedSequence(seed, spawn_key=(replicate, 0)))``."""
    ss = np.random.SeedSequence(seed, spawn_key=(replicate, 0))
    rng = np.random.Generator(np.random.Philox(ss))
    k, n, t = spec.n_factors, spec.n_assets, spec.t
    x0 = [rng.standard_normal(k)] if init == "stationary" else []
    burn = 0 if init == "stationary" else 200
    return x0 + [rng.standard_normal((k, t + burn)), rng.standard_normal((n, t))]


def bootstrap_lambda1_cov(spec, reps, seed=0):
    """Parametric-bootstrap covariance of vec(Lambda1_hat), scaled by T; the
    cross-check of the Wald covariance.

    Replicates whose fit fails or has no price of risk are dropped.  Fewer
    than two replicates raise ValueError before any draw, fewer than two
    with a price of risk RankError."""
    if reps < 2:
        raise ValueError(f"a covariance needs at least two replicates, got reps={reps!r}")

    def lambda1(fit):
        return [None] * fit.stacked.batch_shape[0] if fit.por is None else fit.por.lambda1

    lams = montecarlo._replicates(spec, reps, seed, lambda1)[0]
    draws = np.asarray([vec(lam) for lam in lams if isinstance(lam, np.ndarray)])
    if len(draws) < 2:
        raise RankError(f"a covariance needs two replicates with a price of risk, "
                        f"{len(draws)} of {reps} had one")
    return np.cov(draws.T, ddof=1).reshape(
        (spec.n_factors**2, spec.n_factors**2)
    ) * spec.t


def demeaned(x) -> bool:
    """Whether every row of ``x`` (..., K, T) sums to zero at the scale of
    its values, as demeaned factors do."""
    scale = np.maximum(np.abs(x).max(axis=-1), 1.0)
    return not np.any(np.abs(x.sum(axis=-1)) > 1e-10 * x.shape[-1] * scale)


def demean(panel):
    """Subtract each row's time-series mean; returns the same panel type.
    A stacked panel is demeaned one panel at a time (over its last axis).
    Demeaned factors that fail ``demeaned`` raise PanelError."""
    if isinstance(panel, FactorPanel):
        x = panel.factors - panel.factors.mean(axis=-1, keepdims=True)
        # second pass removes the rounding left by a large row mean, so the
        # rows sum to zero at the scale of the centered values
        x -= x.mean(axis=-1, keepdims=True)
        if not demeaned(x):
            raise PanelError("demeaned factor rows do not sum to zero")
        return replace(panel, factors=x)
    if isinstance(panel, ReturnPanel):
        r = panel.returns - panel.returns.mean(axis=-1, keepdims=True)
        return replace(panel, returns=r)
    raise TypeError(f"cannot demean {type(panel).__name__}")


# -- routes the package replaced ----------------------------------------------


def var1_lstsq(factors):
    """mu (..., K), phi1 (..., K, K), residuals (..., K, T) and Sigma_v of
    the VAR(1), one SVD least squares of X_t on (1, X_{t-1}) per fit; the
    reference for ``varstage.fit_var1``."""
    x = factors.factors
    lead, (k, t) = x.shape[:-2], (x.shape[-2], x.shape[-1] - 1)
    mu, phi1, resid = np.empty((*lead, k)), np.empty((*lead, k, k)), np.empty((*lead, k, t))
    for i in np.ndindex(lead):
        design = np.column_stack([np.ones(t), x[i][:, :-1].T])
        coef = np.linalg.lstsq(design, x[i][:, 1:].T, rcond=None)[0]
        mu[i], phi1[i] = coef[0], coef[1:].T
        resid[i] = x[i][:, 1:] - (design @ coef).T
    return mu, phi1, resid, resid @ resid.swapaxes(-1, -2) / t


def _contemporaneous_ols(returns, factors):
    """Coefficients (..., 1 + 2K, N) and residuals (..., N, T) of one dense
    QR least squares of the returns on (1, X_{t-1}, X_t)."""
    x, r = factors.factors, returns.returns
    t = returns.n_periods
    lagged, current = x[..., :, :-1].swapaxes(-1, -2), x[..., :, 1:].swapaxes(-1, -2)
    design = np.concatenate([np.ones((*x.shape[:-2], t, 1)), lagged, current], axis=-1)
    q, upper = np.linalg.qr(design)
    coef = np.linalg.solve(upper, q.swapaxes(-1, -2) @ r.swapaxes(-1, -2))
    return coef, r - (design @ coef).swapaxes(-1, -2)


def second_stage_contemporaneous(returns, factors, var) -> ReturnRegression:
    """Variant I of the second stage: the regression of ``_contemporaneous_ols``.
    Since X_t = mu + phi1 X_{t-1} + vhat_t, its coefficients on (1, X_{t-1})
    are already those of the lag parameterization; the reference for
    ``threestep.second_stage``."""
    coef, resid = _contemporaneous_ols(returns, factors)
    k = var.n_factors
    beta = coef[..., 1 + k :, :].swapaxes(-1, -2)
    sigma_e2 = np.einsum("...nt,...nt->...", resid, resid) / (resid.shape[-2] * resid.shape[-1])
    return ReturnRegression(
        a_hat=coef[..., 0, :],
        d_hat=coef[..., 1 : 1 + k, :].swapaxes(-1, -2),
        beta_hat=beta,
        sigma_e2=sigma_e2,
        g_hat=convexity_adjustment(beta, var.sigma_v, sigma_e2),
    )


def residuals_contemporaneous(returns, factors):
    """(..., N, T) second-stage residuals of variant I; the reference for
    ``StackedSystem.residuals``."""
    return _contemporaneous_ols(returns, factors)[1]


def commutation(m, n):
    """K_{m,n} with K vec(A) = vec(A') for m x n matrices A."""
    k = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            k[j + i * n, i + j * m] = 1.0
    return k


def term_by_term_covariance(factors, var, reg, por):
    """The joint (K(K+1))^2 covariance of vec([lambda0, Lambda1]) built from
    the factor panel, with the Gaussian variance of vec(Sigma_v) as
    (I + K_{K,K})(Sigma_v kron Sigma_v) and a loop-built convexity
    sensitivity; its trailing K^2 block is the reference for
    ``threestep.asymptotic_covariance``."""
    beta = reg.beta_hat
    n, k = beta.shape
    sigma_v = var.sigma_v
    sigma2 = reg.sigma_e2
    x = factors.factors
    t = var.n_periods
    z = np.column_stack([np.ones(t), x[:, :-1].T])
    gamma_inv = np.linalg.inv(z.T @ z / t)

    pbeta = np.linalg.solve(beta.T @ beta, beta.T)
    sigma_u = beta @ sigma_v @ beta.T + sigma2 * np.eye(n)
    term1 = np.kron(gamma_inv, pbeta @ sigma_u @ pbeta.T)
    v_b = np.kron(np.linalg.inv(sigma_v), sigma2 * np.eye(n))

    dmat = np.zeros((n, n * k))
    bsv = beta @ sigma_v
    for j in range(k):
        dmat[np.arange(n), j * n + np.arange(n)] = bsv[:, j]

    lam = np.column_stack([por.lambda0, por.lambda1])
    e1 = np.zeros(k + 1)
    e1[0] = 1.0
    m23 = np.kron(e1[:, None], pbeta @ dmat) - np.kron(lam.T, pbeta)
    mid = m23 @ v_b @ m23.T

    bstar = np.column_stack([vec(np.outer(beta[i], beta[i])) for i in range(n)]).T
    var_vec_sigma = (np.eye(k * k) + commutation(k, k)) @ np.kron(sigma_v, sigma_v)
    iota = np.ones((n, 1))
    g_core = 0.25 * bstar @ var_vec_sigma @ bstar.T + (sigma2**2 / (2.0 * n)) * (iota @ iota.T)
    g_extra = np.kron(np.outer(e1, e1), pbeta @ g_core @ pbeta.T)
    return sym(term1 + mid + g_extra)


def rearrange_inverse(r, p, k):
    """The (kp x kp) S with block rearrangement R(S) = r (p^2 x k^2), block by
    block: block (i, j) of S is row j*p + i of r, unvectorized column-major;
    the inverse of ``kronecker.rearrange``."""
    s = np.zeros((p * k, p * k))
    for j in range(p):
        for i in range(p):
            s[i * k : (i + 1) * k, j * k : (j + 1) * k] = r[j * p + i].reshape(k, k, order="F")
    return s


def kps_omega(omega_x, omega_v, q_xx, sigma_v):
    """The dense 2K x 2K Omega = diag(omega_x Qxx, omega_v Sigma_v) of the
    scalars of ``kronecker.kps_factorize_model``, stacked for stacked inputs."""
    k = q_xx.shape[-1]
    omega = np.zeros((*q_xx.shape[:-2], 2 * k, 2 * k))
    omega[..., :k, :k] = np.asarray(omega_x)[..., None, None] * q_xx
    omega[..., k:, k:] = np.asarray(omega_v)[..., None, None] * sigma_v
    return omega


def kps_sigma(alpha, gamma, beta, sigma_v):
    """The dense N x N Sigma = alpha I + gamma beta Sigma_v beta' of a KPS
    pair (``kronecker.kps_factorize_model``), stacked for stacked inputs."""
    load = beta @ sigma_v @ beta.swapaxes(-1, -2)
    alpha, gamma = (np.asarray(x, dtype=float)[..., None, None] for x in (alpha, gamma))
    return alpha * np.eye(beta.shape[-2]) + gamma * load


def dense_sigma(sys: StackedSystem) -> np.ndarray:
    """The system's KPS factor Sigma as a dense (..., N, N) array."""
    return kps_sigma(sys.sigma_pair[..., 0], sys.sigma_pair[..., 1], sys.beta_hat, sys.sigma_v)


def with_dense_sigma(sys: StackedSystem, sigma: np.ndarray) -> StackedSystem:
    """A copy of ``sys`` whose H is Phi' Sigma^-1 Phi for a dense SPD
    ``sigma``: a system keeps its Sigma as the pair (alpha, gamma), so a
    Sigma outside that family, such as the dense route's factor, enters
    through the cached H that every statistic reads."""
    out = replace(sys)
    white = chol_solve(sigma, sys.phi_hat)[1]
    out.__dict__["h_hat"] = white.swapaxes(-1, -2) @ white
    return out


def chol_solve(v, x):
    """(L, L^-1 X): NumPy's Cholesky factor of V, then an LU solve against it;
    the reference for ``_linalg.chol_whiten``."""
    low = np.linalg.cholesky(v)
    return low, np.linalg.solve(low, x)


def pencil_roots(m, q):
    """Ascending eigenvalues (..., 2K-r) of M on the orthogonal complement of
    orthonormal bases q (..., 2K, r): those of M - q(Mq)' - (Mq)q' without its
    r smallest, since that matrix acts as (I - qq') M (I - qq') off span(q)
    and as -q'Mq <= 0 on it; the reference for ``subset._pencil_roots``."""
    outer = q @ (m @ q).swapaxes(-1, -2)
    roots = np.linalg.eigvalsh(m - outer - outer.swapaxes(-1, -2))
    return np.maximum(roots[..., q.shape[-1] :], 0.0)


def whitened(ms):
    """The arguments (L^-1 f, L^-1 D_o) of ``moments._decompose`` from a
    ``build_moment_system``, by LU solves against its Cholesky factor."""
    return np.linalg.solve(ms.vff_chol, ms.f[..., None])[..., 0], np.linalg.solve(ms.vff_chol, ms.d_ortho)


# -- dense moment system ----------------------------------------------------------
#
# Every block of the full-vector tests formed as an NK-sized array at each
# hypothesis; the package evaluates the same statistics from per-fit
# invariants (``moments.robust_statistics``).


def vec_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """vec(a kron b), broadcast over leading batch axes of ``a`` and ``b``.

    For a of shape (p, q) and b of shape (m, n), the entry a[i, j] b[r, s] of
    the product sits at column-major position ((j n + s) p + i) m + r, so the
    outer product laid out with axes (j, s, i, r) is already vec-ordered.
    """
    out = np.einsum("...ij,...ab->...jbia", a, b)
    return out.reshape(*out.shape[:-4], -1)


def _hc0_scores(sys: StackedSystem, lam1_0: np.ndarray) -> np.ndarray:
    """Per-period influence of the moment vector, (..., T, NK).

    The naive score xbar kron residual misses two first-order effects: the
    estimated innovation loadings and the estimated innovations themselves.
    Both corrections are linear in vhat and enter through the residual and
    the hypothesized Lambda1.
    """
    t = sys.n_periods
    ehat = sys.residuals
    upper = ehat + sys.beta_hat @ sys.vhat
    a_part = np.einsum("it,nt->tin", sys.xbar_lagged, upper).reshape(t, -1)
    w2 = (sys.q_xx @ lam1_0.swapaxes(-1, -2)) @ sys.sigma_v_inv_vhat
    scores = np.einsum("...it,nt->...tin", w2, ehat).reshape(*w2.shape[:-2], t, -1)
    return np.subtract(a_part, scores, out=scores)


def hc0_psi_q(sys: StackedSystem) -> np.ndarray:
    """(..., T, NK^3) per-period scores of the Jacobian -vec(Qxx kron beta).

    Row t is -vec(Qxx kron B_t + X_t kron beta) with the beta score
    B_t = e_t (Sigma_v^-1 v_t)' and X_t = xbar_t xbar_t' - Qxx; none of it
    depends on the hypothesis.  Their cross-moments with the hc0 parts are
    the reference for ``moments._hc0_ortho_jacobian``.
    """
    # the period axis leads, so the per-fit arrays broadcast against it
    b_t = np.einsum("...jt,...nt->t...nj", sys.sigma_v_inv_vhat, sys.residuals)
    x_t = np.einsum("...it,...jt->t...ij", sys.xbar_lagged, sys.xbar_lagged) - sys.q_xx
    scores = vec_kron(sys.q_xx, b_t) + vec_kron(x_t, sys.beta_hat)
    return -np.moveaxis(scores, 0, -2)


def _kron_sigma(sys: StackedSystem, core: np.ndarray) -> np.ndarray:
    """core kron Sigma for a stack of K x K cores, as (..., K, N, K, N)."""
    return core[..., :, None, :, None] * dense_sigma(sys)[:, None, :]


def _vff(sys: StackedSystem, lam1_0: np.ndarray, mode: str, scores) -> np.ndarray:
    """V_ff at a stack of hypotheses; ``scores`` are their hc0 scores (hc0 mode)."""
    if mode == "hc0":
        return sym(scores.swapaxes(-1, -2) @ scores / sys.n_periods)
    nk = sys.n_factors * sys.n_assets
    eye = np.broadcast_to(np.eye(sys.n_factors), lam1_0.shape)
    b = np.concatenate([eye, -lam1_0], axis=-2)
    mid = b.swapaxes(-1, -2) @ sys.psi_hat @ b
    return sym(_kron_sigma(sys, sys.q_xx @ mid @ sys.q_xx).reshape(*mid.shape[:-2], nk, nk))


def _vqf(sys: StackedSystem, lam1_0: np.ndarray, mode: str, scores) -> np.ndarray:
    """V_qf at a stack of hypotheses; ``scores`` are their hc0 scores (hc0 mode)."""
    if mode == "hc0":
        return hc0_psi_q(sys).T @ scores / sys.n_periods
    k, n = sys.n_factors, sys.n_assets
    psi_vx = sys.psi_hat[k:, :k]
    core = (psi_vx - sys.psi_hat[..., k:, k:] @ lam1_0) @ sys.q_xx
    cov_bf = _kron_sigma(sys, core).reshape(*core.shape[:-2], n * k, n * k)
    # column c of cov_bf is vec of an N x K matrix M_c; column c of the
    # result is -vec(Qxx kron M_c); kept C-contiguous, since a transposed
    # view sends vqf @ x through another BLAS path and changes its rounding
    m = cov_bf.swapaxes(-1, -2).reshape(*core.shape[:-2], n * k, k, n).swapaxes(-1, -2)
    return np.ascontiguousarray(-vec_kron(sys.q_xx, m).swapaxes(-1, -2))


def _dense_blocks(sys: StackedSystem, lam1_0, mode: str):
    """The hypotheses as (..., K, K), and V_ff and V_qf at them."""
    if mode not in VARIANCE_MODES:
        raise ValueError(f"unknown variance mode {mode!r}; expected one of {VARIANCE_MODES}")
    lam1_0 = square_stack(lam1_0, sys.n_factors)
    scores = _hc0_scores(sys, lam1_0) if mode == "hc0" else None
    return lam1_0, _vff(sys, lam1_0, mode, scores), _vqf(sys, lam1_0, mode, scores)


def vff_estimator(sys: StackedSystem, lam1_0: np.ndarray, mode: str = "kps") -> np.ndarray:
    """Variance estimator of sqrt(T) f_T under the chosen mode."""
    return _dense_blocks(sys, lam1_0, mode)[1]


def vqf_estimator(sys: StackedSystem, lam1_0: np.ndarray, mode: str = "kps") -> np.ndarray:
    """Covariance between the Jacobian estimator and the moment vector.

    The Jacobian -(Qxx kron beta) co-moves with f only through beta to first
    order (the Qxx part is uncorrelated under conditionally symmetric errors),
    so the Kronecker form maps the beta/moment covariance through the linear
    embedding vec(Qxx kron .); the outer-product form keeps both pieces and
    reads its per-period Jacobian scores, fixed per fit, from ``hc0_psi_q``.
    """
    return _dense_blocks(sys, lam1_0, mode)[2]


#: every block at a hypothesis: f (..., NK), V_ff and its lower Cholesky
#: factor (..., NK, NK), V_qf (..., NK^3, NK) and the orthogonalized
#: Jacobian (..., NK, K^2)
DenseMoments = namedtuple("DenseMoments", "f vff vff_chol vqf d_ortho")


def build_moment_system(sys: StackedSystem, lam1_0, mode: str = "kps") -> DenseMoments:
    """The dense moment system at one hypothesis or a stack; the reference
    for ``moments.robust_statistics`` (FAR and KLM by ``moments._decompose``
    of ``whitened``)."""
    lam1_0, vff, vqf = _dense_blocks(sys, lam1_0, mode)
    f = moment_vector(sys, lam1_0)
    low = np.linalg.cholesky(vff)
    vff_inv_f = np.linalg.solve(vff, f[..., None])
    shift = (vqf @ vff_inv_f)[..., 0]
    k = sys.n_factors
    jacobian = -np.kron(sys.q_xx, sys.beta_hat)
    d_ortho = jacobian - shift.reshape(*shift.shape[:-1], k * k, -1).swapaxes(-1, -2)
    return DenseMoments(f, vff, low, vqf, d_ortho)
