"""Identification-robust full-vector tests on Lambda1: FAR, KLM, JKLM.

The sample moment vector stacks the orthogonality of lagged demeaned factors
with the part of demeaned returns not explained by the innovation loadings:

    f_T = (1/T) sum_t  xbar_{t-1} kron (rbar_t - beta vhat_t)
          - (Qxx kron beta) vec(Lambda1_0)

Its variance estimator comes in two modes: the Kronecker ('kps') form built
from the factorized score covariance, and an outer-product ('hc0') form whose
per-period scores carry the plug-in corrections for beta and the first-stage
innovations.  The score statistic projects onto the orthogonalized Jacobian,
whose limit is independent of the moment vector under the null.

``robust_statistics`` evaluates a hypothesis from quantities fixed per fit;
the dense NK-sized arrays at each hypothesis are formed only by the test
references (``tests/oracles.py``).  By the OLS orthogonality of the second
stage the moment vector is vec(Phi B Qxx) with B = (I_K ; -Lambda1), so under
'kps' every statistic is a function of the 2K x 2K matrices
H = Phi' Sigma^-1 Phi and Psi: with D = B' Psi B, formed once per stack of
hypotheses,

    FAR = T tr(D^-1 B'HB),    KLM = T tr(D^-1 X (G'HG)^+ X'),

where G = (I - B D^-1 B' Psi) e_v, e_v = (0 ; I_K), and X = B'HG; the
orthogonalized Jacobian is -(Qxx kron Phi G).  Under 'hc0' the score at
Lambda1 is a_t - (M kron I_N) z_t with M = Qxx Lambda1' and a_t, z_t free of
the hypothesis, so V_ff is a fixed quadratic form in their per-fit Gram
(``StackedSystem.hc0_grams``), and V_qf V_ff^-1 f takes one vector per
hypothesis through per-fit moments before the Kronecker expansion
(``_hc0_ortho_jacobian``); no work per hypothesis grows with T.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._linalg import (
    NumericalError, bordered, chi2_sf, chol_bordered, kron, square_stack, sumsq, sym, unvec, vec,
)
from .pipeline import ModelFit
from .subset import VARIANCE_MODES, StackedSystem, _require_one_fit
from .threestep import TestResult

TESTS = ("far", "klm", "jklm")
_LABELS = {"far": "FAR", "klm": "KLM", "jklm": "JKLM"}


def moment_vector(sys: StackedSystem, lam1_0: np.ndarray) -> np.ndarray:
    """The stacked sample moment vector at the hypothesized Lambda1 (or a
    stack, broadcast against the stack axes of ``sys``).

    The demeaned returns are Phi_x xbar + beta vhat + ehat, and ehat is
    orthogonal to xbar, so (rbar - beta vhat) xbar'/T is Phi_x Qxx and the
    moment vector is vec((Phi_x - beta Lambda1) Qxx), read off the fit."""
    lam1_0 = square_stack(lam1_0, sys.n_factors)
    return vec((sys.d_hat - sys.beta_hat @ lam1_0) @ sys.q_xx)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def _decompose(fw: np.ndarray, dw: np.ndarray | None, t: int):
    """(FAR, KLM) from the moment vector ``fw`` (..., NK) and the
    orthogonalized Jacobian ``dw`` (..., NK, K^2), both whitened by the lower
    Cholesky factor L of V_ff (L^-1 f and L^-1 D_o); JKLM is the difference.
    KLM is None when ``dw`` is.
    """
    far_stat = t * sumsq(fw)
    if dw is None:
        return far_stat, None
    u, s, _ = np.linalg.svd(dw, full_matrices=False)
    full = min(dw.shape[-2:])
    tol = max(dw.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    rank = np.sum(s > tol, axis=-1)
    _warn_rank(rank, full)
    proj = (u.swapaxes(-1, -2) @ fw[..., None])[..., 0]
    proj = np.where(np.arange(full) < rank[..., None], proj, 0.0)
    klm_stat = t * sumsq(proj)
    return far_stat, klm_stat


def dofs(k: int, n: int) -> dict:
    """Degrees of freedom of FAR, KLM and JKLM."""
    return {"far": k * n, "klm": k * k, "jklm": k * (n - k)}


def _warn_rank(rank: np.ndarray, full: int) -> None:
    if (rank < full).any():
        warnings.warn(
            f"orthogonalized Jacobian rank {rank.min()} below {full}; "
            "projection uses the realized rank",
            RuntimeWarning,
        )


def _kps_statistics(sys: StackedSystem, lam1_0: np.ndarray, klm: bool):
    """(FAR, KLM) under the Kronecker variance from the per-fit H and Psi.

    FAR is the trace form T tr(D^-1 B'HB) with B = (I_K ; -Lambda1) and
    D = B' Psi B, the lag second-moment matrix cancelling against the
    weighting; KLM, None unless ``klm``, reuses B and D.
    D_o' V_ff^-1 D_o = D^-1 kron G'HG, so the rank of the orthogonalized
    Jacobian is K times the rank of G'HG, read from its eigenvalues; the
    pseudo-inverse keeps the realized rank.
    """
    k, nk = sys.n_factors, sys.n_factors * sys.n_assets
    b = np.concatenate([np.broadcast_to(np.eye(k), lam1_0.shape), -lam1_0], axis=-2)
    bt = b.swapaxes(-1, -2)
    d = sym(bt @ sys.psi_hat @ b)
    num = sym(bt @ sys.h_hat @ b)
    far_stat = sys.n_periods * np.trace(np.linalg.solve(d, num), axis1=-2, axis2=-1)
    if not klm:
        return far_stat, None
    g = -(b @ np.linalg.solve(d, bt @ sys.psi_hat[..., k:]))
    g[..., k:, :] += np.eye(k)
    hg = sys.h_hat @ g
    w, q = np.linalg.eigh(sym(g.swapaxes(-1, -2) @ hg))
    keep = w > max(nk, k * k) * np.finfo(float).eps * w[..., -1:]
    _warn_rank(k * keep.sum(axis=-1), k * k)
    scale = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    y = (bt @ hg) @ q * scale[..., None, :]
    klm_stat = sys.n_periods * np.sum(y * np.linalg.solve(d, y), axis=(-2, -1))
    return far_stat, klm_stat


def _kron_eye(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(m kron I_N) x for a stack of K x K ``m`` and x (..., NK, P)."""
    k = m.shape[-1]
    out = m @ x.reshape(*x.shape[:-2], k, -1)
    return out.reshape(*out.shape[:-2], x.shape[-2], -1)


def _hc0_vff(sys: StackedSystem, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """hc0 V_ff at a stack of M = Qxx Lambda1' from the per-fit Grams,
    written into ``out`` when given.

    With the blocks A, C, Z of ``hc0_grams``, V_ff = A + R + R' where
    R = (M kron I)(Z (M kron I)' / 2 - C'); it is symmetric up to rounding.
    """
    nk = sys.n_factors * sys.n_assets
    gram = sys.hc0_grams
    u = _kron_eye(m, gram[..., nk:, nk:])
    r = _kron_eye(m, 0.5 * u.swapaxes(-1, -2) - gram[..., nk:, :nk])
    out = np.add(gram[..., :nk, :nk], r, out=out)
    out += r.swapaxes(-1, -2)
    return out


def _hc0_ortho_jacobian(sys: StackedSystem, m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(..., NK, K^2) hc0 orthogonalized Jacobian D - V_qf g at a stack of
    M = Qxx Lambda1', for g = V_ff^-1 f (..., NK, 1).

    V_qf is the cross-moment of the Jacobian scores -(Qxx kron B_t +
    X_t kron beta) with the scores p_t' (I ; -(M' kron I)) of the parts
    p_t = [a_t | z_t], so V_qf g = -(Qxx kron B + X kron beta) for the
    moments vec(B) = sum_t z_t p_t'y / T and vec(X) = sum_t vec(X_t) p_t'y / T
    at y = (g ; -(M' kron I) g).  With D = -(Qxx kron beta),
    D - V_qf g = Qxx kron (B - beta) + X kron beta.
    """
    k, n = sys.n_factors, sys.n_assets
    y = np.concatenate([g, -_kron_eye(m.swapaxes(-1, -2), g)], axis=-2)
    b = unvec((sys.hc0_grams[..., n * k :, :] @ y)[..., 0], (n, k))
    x = unvec((sys.hc0_x_moments @ y)[..., 0], (k, k))
    return kron(sys.q_xx, b - sys.beta_hat) + kron(x, sys.beta_hat)


def _hc0_statistics(sys: StackedSystem, lam1_0: np.ndarray, klm: bool):
    """(FAR, KLM) under hc0 from the per-fit Grams, KLM only if ``klm``.

    V_ff is written straight into the bordered buffer next to f (and, for
    KLM, the orthogonalized Jacobian), so one Cholesky factorization per
    hypothesis whitens them all.  V_qf is applied to V_ff^-1 f, one LU
    solve, without being formed.  V_ff is the Gram of the T x NK matrix with
    rows vec(S_t)', S_t = e_t c_t' + beta v_t xbar_t' the N x K score of
    period t and c_t = xbar_t - M Sigma_v^-1 v_t.  The residuals are
    orthogonal in time to the 1 + 2K series (1, xbar, vhat), so the N
    residual series span at most T - 1 - 2K dimensions of R^T; the N columns
    of factor k are those series weighted by c_k plus the K vhat series
    weighted by xbar_k, at most T - 1 - K dimensions.  The scores also sum
    to zero over t, so rank V_ff <= min(T - 1, K (T - 1 - K)), below NK when
    NK >= T or N + K >= T; either raises NumericalError before any work.
    """
    k, n, t = sys.n_factors, sys.n_assets, sys.n_periods
    nk = n * k
    if nk >= t:
        raise NumericalError(f"hc0 V_ff is singular: NK = {nk} is not below T = {t}")
    if n + k >= t:
        raise NumericalError(f"hc0 V_ff is singular: N + K = {n + k} is not below T = {t}")
    m = sys.q_xx @ lam1_0.swapaxes(-1, -2)
    f = moment_vector(sys, lam1_0)
    buf = bordered(f.shape[:-1], nk, 1 + k * k if klm else 1)
    vff = _hc0_vff(sys, m, out=buf[..., :nk, :nk])
    buf[..., nk, :nk] = f
    if klm:
        d_ortho = _hc0_ortho_jacobian(sys, m, np.linalg.solve(vff, f[..., None]))
        buf[..., nk + 1 :, :nk] = d_ortho.swapaxes(-1, -2)
    white = chol_bordered(buf, nk)[1]
    return _decompose(white[..., 0], white[..., 1:] if klm else None, t)


def robust_statistics(sys: StackedSystem, lam1_0, mode: str, which=TESTS) -> dict:
    """The requested robust statistics at a stack of hypotheses (..., K, K).

    The hypotheses broadcast against the stack axes of ``sys`` (a stack of
    fits takes them as (B, 1, K, K) for B hypotheses on every fit).  One
    array per name in ``which``, shaped like the broadcast stack; JKLM is
    FAR - KLM, clipped at zero.  Only per-fit quantities and K-sized ('kps')
    or NK-sized ('hc0') algebra are used per hypothesis; ``robust_tests`` is
    the single-hypothesis form of the same computation.  A name outside
    ``TESTS`` raises ValueError before any work.
    """
    unknown = sorted(set(which) - set(TESTS))
    if unknown:
        raise ValueError(f"unknown statistics {unknown}; expected names from {TESTS}")
    if mode not in VARIANCE_MODES:
        raise ValueError(f"unknown variance mode {mode!r}; expected one of {VARIANCE_MODES}")
    lam1_0 = square_stack(lam1_0, sys.n_factors)
    klm = "klm" in which or "jklm" in which
    if mode == "kps":
        far_stat, klm_stat = _kps_statistics(sys, lam1_0, klm)
    else:
        far_stat, klm_stat = _hc0_statistics(sys, lam1_0, klm)
    stats = {"far": far_stat, "klm": klm_stat}
    if "jklm" in which:
        stats["jklm"] = np.maximum(far_stat - klm_stat, 0.0)
    return {name: stats[name] for name in TESTS if name in which}


def robust_tests(fit: ModelFit, lam1_0, mode: str | None = None, which=TESTS):
    """Evaluate the requested robust statistics at one hypothesis on one fit,
    one ``TestResult`` per name in ``which``.

    ``mode`` defaults to the fit's covariance mode; a stack of fits raises
    TypeError (``robust_statistics`` takes stacks).
    """
    sys_ = fit.stacked
    _require_one_fit(sys_, "robust_tests")
    h0 = square_stack(lam1_0, sys_.n_factors)
    stats = robust_statistics(sys_, h0, mode or fit.cov_mode, which)
    dof = dofs(sys_.n_factors, sys_.n_assets)
    return {
        name: TestResult(_LABELS[name], stat, dof[name], chi2_sf(stat, dof[name]), h0=h0)
        for name, stat in stats.items()
    }
