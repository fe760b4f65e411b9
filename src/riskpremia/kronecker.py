"""Nearest-Kronecker-product factorization of a covariance matrix.

A (kp x kp) matrix S with Kronecker structure Omega kron Sigma (Omega p x p,
Sigma k x k) becomes rank one under the block rearrangement R(S); the leading
singular pair of R(S) therefore recovers the factors, and the trailing
singular values measure the distance from exact structure.  A matrix given
as a short sum of Kronecker products is factored without being formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import spd_project, unvec, vec

# conventions shared by both factorization routes
DEFAULT_NORMALIZE = "omega11"
SPD_FLOOR = 1e-12


def rearrange(s: np.ndarray, p: int, k: int) -> np.ndarray:
    """Block rearrangement: (kp x kp) -> (p^2 x k^2).

    Row (j*p + i) of the result is vec(S_{ij})' for the (i, j) block of size
    k x k, so R(Omega kron Sigma) = vec(Omega) vec(Sigma)'.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (k * p, k * p):
        raise ValueError(f"expected a {k * p}x{k * p} matrix, got {s.shape}")
    blocks = s.reshape(p, k, p, k)          # [i, r, j, c] = S[i*k+r, j*k+c]
    # target[j*p + i, :] = vec(S_ij) = column-major flatten of blocks[i, :, j, :]
    return blocks.transpose(2, 0, 3, 1).reshape(p * p, k * k)


def rearrange_inverse(r: np.ndarray, p: int, k: int) -> np.ndarray:
    """Inverse of :func:`rearrange` for a (p^2 x k^2) matrix."""
    r = np.asarray(r, dtype=float)
    if r.shape != (p * p, k * k):
        raise ValueError(f"expected a {p * p}x{k * k} matrix, got {r.shape}")
    return r.reshape(p, p, k, k).transpose(1, 3, 0, 2).reshape(p * k, p * k)


@dataclass(frozen=True)
class KpsFactorization:
    """SVD-based Kronecker factorization of a symmetric PSD matrix."""

    omega: np.ndarray               # p x p, SPD-projected
    sigma: np.ndarray               # k x k, SPD-projected
    residual_rel: float             # ||S - omega kron sigma||_F / ||S||_F, pre-projection
    spectrum: np.ndarray            # singular values of R(S), descending
    normalization: str              # which convention fixed the scalar split (array of them on a stack)

    @property
    def product(self) -> np.ndarray:
        return np.kron(self.omega, self.sigma)


def kps_factorize(
    s_hat: np.ndarray,
    p: int,
    k: int,
    normalize: str = DEFAULT_NORMALIZE,
    spd_floor: float = SPD_FLOOR,
) -> KpsFactorization:
    """Factor a symmetric PSD (kp x kp) matrix as Omega kron Sigma.

    The leading singular triplet (sigma_1, L_1, N_1) of the rearranged matrix
    gives Omega = vecinv(L_1 / L_11) and Sigma = vecinv(L_11 sigma_1 N_1).
    When the pivot entry L_11 is numerically zero the split is renormalized by
    the largest-magnitude entry of L_1 instead; the product Omega kron Sigma
    is invariant to this choice.  Factors are symmetrized and eigenvalue-
    clipped afterwards so downstream Cholesky factorizations succeed.
    """
    r = rearrange(s_hat, p, k)
    u, sv, vt = np.linalg.svd(r, full_matrices=False)
    return _from_leading_pair(u[:, 0], sv, vt[0, :], p, k, normalize, spd_floor)


def kps_factorize_terms(terms) -> KpsFactorization:
    """:func:`kps_factorize` of S = sum_j A_j kron B_j without forming S.

    ``terms`` is a sequence of (A_j, B_j) pairs, A_j p x p and B_j k x k.
    R(S) = L M' with L = [vec A_j] and M = [vec B_j], so thin QR factors
    L = Q_L R_L and M = Q_M R_M reduce the SVD of R(S) to that of the small
    core R_L R_M'.  The spectrum is padded with exact zeros past the number
    of terms; factors, residual and the default normalization and SPD floor
    follow :func:`kps_factorize`.  Stacked terms (leading axes on every
    A_j and B_j) give one factorization per stack entry, every field stacked.
    """
    p, k = terms[0][0].shape[-1], terms[0][1].shape[-1]
    q_l, r_l = np.linalg.qr(np.stack([vec(a) for a, _ in terms], axis=-1))
    q_m, r_m = np.linalg.qr(np.stack([vec(b) for _, b in terms], axis=-1))
    u, core_sv, vt = np.linalg.svd(r_l @ r_m.swapaxes(-1, -2))
    sv = np.zeros((*core_sv.shape[:-1], min(p * p, k * k)))
    sv[..., : core_sv.shape[-1]] = core_sv
    return _from_leading_pair(
        (q_l @ u[..., :, :1])[..., 0], sv, (q_m @ vt[..., 0, :, None])[..., 0],
        p, k, DEFAULT_NORMALIZE, SPD_FLOOR,
    )


def _from_leading_pair(l1, sv, n1, p, k, normalize, spd_floor):
    """Split the leading singular triplet (sv[0], l1, n1) of R(S) into
    SPD-clipped factors; the residual follows from the spectrum by
    Eckart-Young.  Every input may carry stack axes; the pivot is chosen
    per stack entry."""
    s1 = sv[..., :1]
    if np.any(s1 == 0.0):
        raise ValueError("zero matrix has no Kronecker factorization")
    # every split below divides a sign flip of (l1, n1) out exactly, so their
    # signs need no fixing; a numerically zero (1,1) pivot falls back to the
    # largest-magnitude entry
    lead = n1 if normalize == "sigma11" else l1
    small = np.abs(lead[..., 0]) < 1e-10 * np.linalg.norm(lead, axis=-1)
    used = np.where(small & (normalize != "maxabs"), "maxabs", normalize)

    maxabs = np.take_along_axis(l1, np.argmax(np.abs(l1), axis=-1)[..., None], axis=-1)
    pivot = np.where(used[..., None] == "maxabs", maxabs, l1[..., :1])
    omega_raw = unvec(l1 / pivot, (p, p))
    sigma_raw = unvec(pivot * s1 * n1, (k, k))
    if normalize == "sigma11":
        keep = (used == "sigma11")[..., None, None]
        sigma_raw = np.where(keep, unvec(n1 / n1[..., :1], (k, k)), sigma_raw)
        omega_raw = np.where(keep, unvec(l1 * (s1 * n1[..., :1]), (p, p)), omega_raw)
    return KpsFactorization(
        omega=spd_project(omega_raw, spd_floor),
        sigma=spd_project(sigma_raw, spd_floor),
        residual_rel=np.linalg.norm(sv[..., 1:], axis=-1) / np.linalg.norm(sv, axis=-1),
        spectrum=sv.copy(),
        normalization=used if used.ndim else str(used),
    )


@dataclass(frozen=True)
class KpsDiagnostic:
    """Residual report standing in for a formal structure pre-test."""

    residual_rel: float
    singular_ratio: float           # sigma_2 / sigma_1 of R(S)
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "residual_rel": self.residual_rel,
            "singular_ratio": self.singular_ratio,
            "threshold": self.threshold,
            "flag": "pass" if self.passed else "warn",
        }


def kps_residual_report(fact: KpsFactorization, threshold: float = 0.10) -> KpsDiagnostic:
    """The residual report of a factorization; of a stacked one, every
    field but ``threshold`` is an array over the stack."""
    sv = fact.spectrum
    ratio = 0.0
    if sv.shape[-1] > 1:
        # sigma_1 = 0 leaves sigma_2 = 0, so the ratio is 0 there
        ratio = sv[..., 1] / np.where(sv[..., 0] > 0, sv[..., 0], np.inf)
    return KpsDiagnostic(
        residual_rel=fact.residual_rel,
        singular_ratio=ratio,
        threshold=threshold,
        passed=fact.residual_rel <= threshold,
    )
