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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import chi2_sf, chol_spd, sym, unvec, vec, vec_kron, whiten
from .pipeline import ModelFit
from .subset import StackedSystem


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
    """Moment vector, Jacobian, variance blocks, and orthogonalized Jacobian."""

    f: np.ndarray          # (NK,)
    q: np.ndarray          # (NK, K^2) Jacobian -(Qxx kron beta)
    vff: np.ndarray        # (NK, NK)
    vqf: np.ndarray        # (NK^3, NK)
    d_ortho: np.ndarray    # (NK, K^2)
    h0: np.ndarray         # (K, K)
    mode: str
    n_periods: int
    n_assets: int
    n_factors: int


def moment_vector(sys: StackedSystem, lam1_0: np.ndarray) -> np.ndarray:
    """The stacked sample moment vector at the hypothesized Lambda1."""
    k, t = sys.n_factors, sys.n_periods
    lam1_0 = np.asarray(lam1_0, dtype=float).reshape(k, k)
    u = sys.rbar - sys.beta_hat @ sys.vhat
    raw = vec(u @ sys.xbar_lagged.T / t)
    return raw - np.kron(sys.q_xx, sys.beta_hat) @ vec(lam1_0)


def _hc0_scores(sys: StackedSystem, lam1_0: np.ndarray) -> np.ndarray:
    """Per-period influence of the moment vector, (T, NK).

    The naive score xbar kron residual misses two first-order effects: the
    estimated innovation loadings and the estimated innovations themselves.
    Both corrections are linear in vhat and enter through the residual and
    the hypothesized Lambda1.
    """
    k, t = sys.n_factors, sys.n_periods
    ehat = sys.residuals
    upper = ehat + sys.beta_hat @ sys.vhat
    a_part = np.einsum("it,nt->tin", sys.xbar_lagged, upper).reshape(t, -1)
    sig_v = sys.w_hat[k:, k:]
    w2 = (sys.q_xx @ lam1_0.T) @ np.linalg.solve(sig_v, sys.vhat)
    b_part = np.einsum("it,nt->tin", w2, ehat).reshape(t, -1)
    return a_part - b_part


def vff_estimator(sys: StackedSystem, lam1_0: np.ndarray, mode: str = "kps") -> np.ndarray:
    """Variance estimator of sqrt(T) f_T under the chosen mode."""
    k = sys.n_factors
    lam1_0 = np.asarray(lam1_0, dtype=float).reshape(k, k)
    if mode == "kps":
        b = np.vstack([np.eye(k), -lam1_0])
        mid = b.T @ sys.psi_hat @ b
        out = np.kron(sys.q_xx @ mid @ sys.q_xx, sys.sigma_hat)
    elif mode == "hc0":
        scores = _hc0_scores(sys, lam1_0)
        out = scores.T @ scores / sys.n_periods
    else:
        raise ValueError(f"unknown variance mode {mode!r}")
    return sym(out)


def vqf_estimator(sys: StackedSystem, lam1_0: np.ndarray, mode: str = "kps") -> np.ndarray:
    """Covariance between the Jacobian estimator and the moment vector.

    The Jacobian -(Qxx kron beta) co-moves with f only through beta to first
    order (the Qxx part is uncorrelated under conditionally symmetric errors),
    so the Kronecker form maps the beta/moment covariance through the linear
    embedding vec(Qxx kron .); the outer-product form keeps both pieces and
    reads its per-period Jacobian scores, fixed per fit, from
    ``StackedSystem.hc0_psi_q``.
    """
    k, n = sys.n_factors, sys.n_assets
    lam1_0 = np.asarray(lam1_0, dtype=float).reshape(k, k)
    if mode == "kps":
        psi_vx = sys.psi_hat[k:, :k]
        cov_bf = np.kron((psi_vx - sys.psi_v @ lam1_0) @ sys.q_xx, sys.sigma_hat)
        # column c of cov_bf is vec of an N x K matrix M_c; column c of the
        # result is -vec(Qxx kron M_c); kept C-contiguous, since a transposed
        # view sends vqf @ x through another BLAS path and changes its rounding
        m = cov_bf.T.reshape(n * k, k, n).transpose(0, 2, 1)
        return np.ascontiguousarray(-vec_kron(sys.q_xx, m).T)
    if mode != "hc0":
        raise ValueError(f"unknown variance mode {mode!r}")
    return sys.hc0_psi_q.T @ _hc0_scores(sys, lam1_0) / sys.n_periods


def vqf_discrepancy(sys: StackedSystem, lam1_0) -> float:
    """Relative Frobenius gap between the Kronecker-form and outer-product
    Jacobian/moment covariance estimators; values above ~0.10 indicate the
    Kronecker structure is a poor description of the scores."""
    v_kps = vqf_estimator(sys, lam1_0, "kps")
    v_hc0 = vqf_estimator(sys, lam1_0, "hc0")
    denom = max(np.linalg.norm(v_hc0), np.finfo(float).tiny)
    return float(np.linalg.norm(v_kps - v_hc0) / denom)


def build_moment_system(sys: StackedSystem, lam1_0, mode: str = "kps") -> MomentSystem:
    k = sys.n_factors
    lam1_0 = np.asarray(lam1_0, dtype=float).reshape(k, k)
    f = moment_vector(sys, lam1_0)
    q = -np.kron(sys.q_xx, sys.beta_hat)
    vff = vff_estimator(sys, lam1_0, mode)
    vqf = vqf_estimator(sys, lam1_0, mode)
    low = chol_spd(vff)
    vff_inv_f = np.linalg.solve(low.T, whiten(low, f))
    d_ortho = unvec(vec(q) - vqf @ vff_inv_f, q.shape)
    return MomentSystem(
        f=f,
        q=q,
        vff=vff,
        vqf=vqf,
        d_ortho=d_ortho,
        h0=lam1_0,
        mode=mode,
        n_periods=sys.n_periods,
        n_assets=sys.n_assets,
        n_factors=k,
    )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def _decompose(ms: MomentSystem) -> tuple[float, float]:
    """(FAR, KLM) from whitened moment and Jacobian; JKLM is the difference."""
    low = chol_spd(ms.vff)
    fw = whiten(low, ms.f)
    dw = whiten(low, ms.d_ortho)
    far_stat = ms.n_periods * float(fw @ fw)
    u, s, _ = np.linalg.svd(dw, full_matrices=False)
    rank = int(np.sum(s > max(dw.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)))
    if rank < min(dw.shape):
        warnings.warn(
            f"orthogonalized Jacobian rank {rank} below {min(dw.shape)}; "
            "projection uses the realized rank",
            RuntimeWarning,
        )
    proj = u[:, :rank].T @ fw
    klm_stat = ms.n_periods * float(proj @ proj)
    return far_stat, klm_stat


def robust_tests(fit_or_sys, lam1_0, mode: str | None = None, which=("far", "klm", "jklm")):
    """Evaluate the requested robust statistics at one hypothesis.

    Accepts either a ModelFit (mode defaults to its covariance mode) or a
    bare StackedSystem (mode defaults to 'kps').
    """
    if isinstance(fit_or_sys, ModelFit):
        sys_ = fit_or_sys.stacked
        mode = mode or fit_or_sys.cov_mode
    else:
        sys_ = fit_or_sys
        mode = mode or "kps"
    ms = build_moment_system(sys_, lam1_0, mode)
    far_stat, klm_stat = _decompose(ms)
    n, k = ms.n_assets, ms.n_factors
    out = {}
    if "far" in which:
        out["far"] = RobustTestResult(
            "FAR", far_stat, k * n, chi2_sf(far_stat, k * n), h0=ms.h0
        )
    if "klm" in which:
        out["klm"] = RobustTestResult(
            "KLM", klm_stat, k * k, chi2_sf(klm_stat, k * k), h0=ms.h0
        )
    if "jklm" in which:
        j = max(far_stat - klm_stat, 0.0)
        dof = k * (n - k)
        out["jklm"] = RobustTestResult("JKLM", j, dof, chi2_sf(j, dof), h0=ms.h0)
    return out


def far(fit_or_sys, lam1_0, mode: str | None = None) -> RobustTestResult:
    return robust_tests(fit_or_sys, lam1_0, mode, which=("far",))["far"]


def klm(fit_or_sys, lam1_0, mode: str | None = None) -> RobustTestResult:
    return robust_tests(fit_or_sys, lam1_0, mode, which=("klm",))["klm"]


def jklm(fit_or_sys, lam1_0, mode: str | None = None) -> RobustTestResult:
    return robust_tests(fit_or_sys, lam1_0, mode, which=("jklm",))["jklm"]
