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

``build_moment_system``, ``vff_estimator`` and ``vqf_estimator`` form these
dense NK-sized arrays at each hypothesis; they are the reference.
``robust_statistics`` evaluates a hypothesis from quantities fixed per fit
instead.  By the OLS orthogonality of the second stage the moment vector is
vec(Phi B Qxx) with B = (I_K ; -Lambda1), so under 'kps' every statistic is
a function of the 2K x 2K matrices H = Phi' Sigma^-1 Phi and Psi: with
D = B' Psi B,

    FAR = T tr(D^-1 B'HB),    KLM = T tr(D^-1 X (G'HG)^+ X'),

where G = (I - B D^-1 B' Psi) e_v, e_v = (0 ; I_K), and X = B'HG; the
orthogonalized Jacobian is -(Qxx kron Phi G).  Under 'hc0' the score at
Lambda1 is a_t - (M kron I_N) z_t with M = Qxx Lambda1' and a_t, z_t free of
the hypothesis, so V_ff and V_qf are fixed quadratic and linear forms in the
per-fit Grams of (a_t, z_t) and of the Jacobian scores with them
(``StackedSystem.hc0_grams``, ``hc0_psi_q_grams``); no work per hypothesis
grows with T.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._linalg import chi2_sf, chol_spd, square_stack, sumsq, sym, vec, vec_kron, whiten, whiten_vec
from .pipeline import ModelFit
from .subset import VARIANCE_MODES, StackedSystem, _require_one_fit, far_trace

TESTS = ("far", "klm", "jklm")
_LABELS = {"far": "FAR", "klm": "KLM", "jklm": "JKLM"}


@dataclass(frozen=True)
class RobustTestResult:
    name: str
    statistic: float
    dof: int
    pvalue: float
    bound_only: bool = False
    h0: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "statistic", float(max(self.statistic, 0.0)))
        if not 0.0 <= self.pvalue <= 1.0:
            raise ValueError("p-value outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "dof": self.dof,
            "pvalue": self.pvalue,
            "bound_only": self.bound_only,
            "h0": None if self.h0 is None else np.asarray(self.h0).tolist(),
        }


@dataclass(frozen=True)
class MomentSystem:
    """Moment vector, Jacobian, variance blocks, and orthogonalized Jacobian.

    Every per-hypothesis array may carry leading batch axes, one entry per
    hypothesis; ``d_ortho`` is None when only FAR was asked for, and ``vqf``
    is None unless the system was built densely (``build_moment_system``).
    """

    f: np.ndarray          # (..., NK)
    q: np.ndarray          # (NK, K^2) Jacobian -(Qxx kron beta), fixed per fit
    vff: np.ndarray        # (..., NK, NK)
    vff_chol: np.ndarray   # (..., NK, NK) lower Cholesky factor of vff
    vqf: np.ndarray | None       # (..., NK^3, NK)
    d_ortho: np.ndarray | None   # (..., NK, K^2)
    h0: np.ndarray         # (..., K, K)
    mode: str
    n_periods: int
    n_assets: int
    n_factors: int


def moment_vector(sys: StackedSystem, lam1_0: np.ndarray) -> np.ndarray:
    """The stacked sample moment vector at the hypothesized Lambda1 (or a
    stack, broadcast against the stack axes of ``sys``).

    The demeaned returns are Phi_x xbar + beta vhat + ehat, and ehat is
    orthogonal to xbar, so (rbar - beta vhat) xbar'/T is Phi_x Qxx and the
    moment vector is vec((Phi_x - beta Lambda1) Qxx), read off the fit."""
    lam1_0 = square_stack(lam1_0, sys.n_factors)
    return vec((sys.d_hat - sys.beta_hat @ lam1_0) @ sys.q_xx)


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


def _check_mode(mode: str) -> None:
    if mode not in VARIANCE_MODES:
        raise ValueError(f"unknown variance mode {mode!r}; expected one of {VARIANCE_MODES}")


def _kron_sigma(sys: StackedSystem, core: np.ndarray) -> np.ndarray:
    """core kron Sigma for a stack of K x K cores, as (..., K, N, K, N)."""
    return core[..., :, None, :, None] * sys.sigma_hat[:, None, :]


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
        return sys.hc0_psi_q.T @ scores / sys.n_periods
    k, n = sys.n_factors, sys.n_assets
    psi_vx = sys.psi_hat[k:, :k]
    core = (psi_vx - sys.psi_v @ lam1_0) @ sys.q_xx
    cov_bf = _kron_sigma(sys, core).reshape(*core.shape[:-2], n * k, n * k)
    # column c of cov_bf is vec of an N x K matrix M_c; column c of the
    # result is -vec(Qxx kron M_c); kept C-contiguous, since a transposed
    # view sends vqf @ x through another BLAS path and changes its rounding
    m = cov_bf.swapaxes(-1, -2).reshape(*core.shape[:-2], n * k, k, n).swapaxes(-1, -2)
    return np.ascontiguousarray(-vec_kron(sys.q_xx, m).swapaxes(-1, -2))


def vff_estimator(sys: StackedSystem, lam1_0: np.ndarray, mode: str = "kps") -> np.ndarray:
    """Variance estimator of sqrt(T) f_T under the chosen mode."""
    _check_mode(mode)
    lam1_0 = square_stack(lam1_0, sys.n_factors)
    scores = _hc0_scores(sys, lam1_0) if mode == "hc0" else None
    return _vff(sys, lam1_0, mode, scores)


def vqf_estimator(sys: StackedSystem, lam1_0: np.ndarray, mode: str = "kps") -> np.ndarray:
    """Covariance between the Jacobian estimator and the moment vector.

    The Jacobian -(Qxx kron beta) co-moves with f only through beta to first
    order (the Qxx part is uncorrelated under conditionally symmetric errors),
    so the Kronecker form maps the beta/moment covariance through the linear
    embedding vec(Qxx kron .); the outer-product form keeps both pieces and
    reads its per-period Jacobian scores, fixed per fit, from
    ``StackedSystem.hc0_psi_q``.
    """
    _check_mode(mode)
    lam1_0 = square_stack(lam1_0, sys.n_factors)
    scores = _hc0_scores(sys, lam1_0) if mode == "hc0" else None
    return _vqf(sys, lam1_0, mode, scores)


def _moment_system(sys: StackedSystem, lam1_0, mode: str, vff, vqf_apply, vqf=None) -> MomentSystem:
    """The moment system at one hypothesis or a stack from its V_ff and the
    map x -> V_qf x; the orthogonalized Jacobian only when ``vqf_apply`` is given."""
    k = sys.n_factors
    f = moment_vector(sys, lam1_0)
    low = chol_spd(vff)
    d_ortho = None
    if vqf_apply is not None:
        vff_inv_f = whiten_vec(low.swapaxes(-1, -2), whiten_vec(low, f))
        shift = vqf_apply(vff_inv_f[..., None])[..., 0]
        d_ortho = sys.jacobian - shift.reshape(*shift.shape[:-1], k * k, -1).swapaxes(-1, -2)
    return MomentSystem(
        f=f,
        q=sys.jacobian,
        vff=vff,
        vff_chol=low,
        vqf=vqf,
        d_ortho=d_ortho,
        h0=lam1_0,
        mode=mode,
        n_periods=sys.n_periods,
        n_assets=sys.n_assets,
        n_factors=k,
    )


def build_moment_system(sys: StackedSystem, lam1_0, mode: str = "kps") -> MomentSystem:
    """The dense moment system at one hypothesis or a stack, every block
    formed; the reference for ``robust_statistics``."""
    _check_mode(mode)
    lam1_0 = square_stack(lam1_0, sys.n_factors)
    scores = _hc0_scores(sys, lam1_0) if mode == "hc0" else None
    vqf = _vqf(sys, lam1_0, mode, scores)
    return _moment_system(sys, lam1_0, mode, _vff(sys, lam1_0, mode, scores), lambda x: vqf @ x, vqf)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def _decompose(ms: MomentSystem):
    """(FAR, KLM) from whitened moment and Jacobian; JKLM is the difference.

    KLM is None when the system carries no Jacobian.
    """
    low = ms.vff_chol
    fw = whiten_vec(low, ms.f)
    far_stat = ms.n_periods * sumsq(fw)
    if ms.d_ortho is None:
        return far_stat, None
    dw = whiten(low, ms.d_ortho)
    u, s, _ = np.linalg.svd(dw, full_matrices=False)
    full = min(dw.shape[-2:])
    tol = max(dw.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    rank = np.sum(s > tol, axis=-1)
    _warn_rank(rank, full)
    proj = (u.swapaxes(-1, -2) @ fw[..., None])[..., 0]
    proj = np.where(np.arange(full) < rank[..., None], proj, 0.0)
    klm_stat = ms.n_periods * sumsq(proj)
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

    KLM is None unless ``klm``.  D_o' V_ff^-1 D_o = D^-1 kron G'HG, so the
    rank of the orthogonalized Jacobian is K times the rank of G'HG, read
    from its eigenvalues; the pseudo-inverse keeps the realized rank.
    """
    far_stat = far_trace(sys, lam1_0)
    if not klm:
        return far_stat, None
    k, nk = sys.n_factors, sys.n_factors * sys.n_assets
    b = np.concatenate([np.broadcast_to(np.eye(k), lam1_0.shape), -lam1_0], axis=-2)
    bt = b.swapaxes(-1, -2)
    d = sym(bt @ sys.psi_hat @ b)
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


def _hc0_vff(sys: StackedSystem, m: np.ndarray) -> np.ndarray:
    """hc0 V_ff at a stack of M = Qxx Lambda1' from the per-fit Grams.

    With the blocks A, C, Z of ``hc0_grams``, V_ff = A + R + R' where
    R = (M kron I)(Z (M kron I)' / 2 - C').
    """
    nk = sys.n_factors * sys.n_assets
    gram = sys.hc0_grams
    u = _kron_eye(m, gram[..., nk:, nk:])
    r = _kron_eye(m, 0.5 * u.swapaxes(-1, -2) - gram[..., nk:, :nk])
    return sym(gram[..., :nk, :nk] + r + r.swapaxes(-1, -2))


def _hc0_vqf_apply(sys: StackedSystem, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """hc0 V_qf x at a stack of M = Qxx Lambda1', for x (..., NK, P).

    V_qf = Q'a/T - (Q'z/T)(M kron I)', the blocks of ``hc0_psi_q_grams``.
    """
    shifted = _kron_eye(m.swapaxes(-1, -2), x)
    x = np.broadcast_to(x, shifted.shape)
    return sys.hc0_psi_q_grams @ np.concatenate([x, -shifted], axis=-2)


def _hc0_system(sys: StackedSystem, lam1_0: np.ndarray, klm: bool) -> MomentSystem:
    """The hc0 moment system from the per-fit Grams, with the orthogonalized
    Jacobian only if ``klm``.  V_qf is applied to V_ff^-1 f without being
    formed, so ``vqf`` is None."""
    m = sys.q_xx @ lam1_0.swapaxes(-1, -2)
    apply = partial(_hc0_vqf_apply, sys, m) if klm else None
    return _moment_system(sys, lam1_0, "hc0", _hc0_vff(sys, m), apply)


def robust_statistics(sys: StackedSystem, lam1_0, mode: str, which=TESTS) -> dict:
    """The requested robust statistics at a stack of hypotheses (..., K, K).

    The hypotheses broadcast against the stack axes of ``sys`` (a stack of
    fits takes them as (B, 1, K, K) for B hypotheses on every fit).  One
    array per name in ``which``, shaped like the broadcast stack; JKLM is
    FAR - KLM, clipped at zero.  Only per-fit quantities and K-sized ('kps')
    or NK-sized ('hc0') algebra are used per hypothesis; ``robust_tests`` is
    the single-hypothesis form of the same computation.
    """
    _check_mode(mode)
    lam1_0 = square_stack(lam1_0, sys.n_factors)
    klm = "klm" in which or "jklm" in which
    if mode == "kps":
        far_stat, klm_stat = _kps_statistics(sys, lam1_0, klm)
    else:
        far_stat, klm_stat = _decompose(_hc0_system(sys, lam1_0, klm))
    stats = {"far": far_stat, "klm": klm_stat}
    if "jklm" in which:
        stats["jklm"] = np.maximum(far_stat - klm_stat, 0.0)
    return {name: stats[name] for name in TESTS if name in which}


def robust_tests(fit_or_sys, lam1_0, mode: str | None = None, which=TESTS):
    """Evaluate the requested robust statistics at one hypothesis.

    Accepts either a ModelFit (mode defaults to its covariance mode) or a
    bare StackedSystem (mode defaults to 'kps') of one fit; a stack of fits
    raises TypeError (``robust_statistics`` takes stacks).
    """
    if isinstance(fit_or_sys, ModelFit):
        sys_ = fit_or_sys.stacked
        mode = mode or fit_or_sys.cov_mode
    else:
        sys_ = fit_or_sys
        mode = mode or "kps"
    _require_one_fit(sys_, "robust_tests")
    h0 = square_stack(lam1_0, sys_.n_factors)
    stats = robust_statistics(sys_, h0, mode, which)
    dof = dofs(sys_.n_factors, sys_.n_assets)
    return {
        name: RobustTestResult(
            _LABELS[name], stat, dof[name], chi2_sf(stat, dof[name]), h0=h0
        )
        for name, stat in stats.items()
    }

