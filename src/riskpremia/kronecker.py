"""Nearest-Kronecker-product factorization of a covariance matrix.

A (kp x kp) matrix S with Kronecker structure Omega kron Sigma (Omega p x p,
Sigma k x k) becomes rank one under the block rearrangement R(S); the leading
singular pair of R(S) therefore recovers the factors, and the trailing
singular values measure the distance from exact structure.  The model
score covariance, a sum of two Kronecker products, is factored in closed
form without being formed, into the four scalars the fit reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import JITTERS, NumericalError, spd_project, unvec

# the dense route's default split, and its clipping floor
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


@dataclass(frozen=True)
class KpsFactorization:
    """Kronecker factorization of a symmetric PSD matrix S by
    :func:`kps_factorize`: the leading singular pair of R(S), split into
    eigenvalue-clipped SPD factors."""

    omega: np.ndarray               # p x p, SPD
    sigma: np.ndarray               # k x k, SPD
    residual_rel: float             # ||S - omega kron sigma||_F / ||S||_F, before any clipping
    normalization: str              # which convention fixed the scalar split


def kps_factorize(
    s_hat: np.ndarray,
    p: int,
    k: int,
    normalize: str = DEFAULT_NORMALIZE,
) -> KpsFactorization:
    """Factor a symmetric PSD (kp x kp) matrix as Omega kron Sigma.

    The leading singular triplet (sigma_1, L_1, N_1) of the rearranged matrix
    gives Omega = vecinv(L_1 / L_11) and Sigma = vecinv(L_11 sigma_1 N_1).
    When the pivot entry L_11 is numerically zero the split is renormalized by
    the largest-magnitude entry of L_1 instead; the product Omega kron Sigma
    is invariant to this choice.  Factors are symmetrized and eigenvalue-
    clipped afterwards so downstream Cholesky factorizations succeed; the
    residual follows from the spectrum by Eckart-Young.
    """
    u, sv, vt = np.linalg.svd(rearrange(s_hat, p, k), full_matrices=False)
    l1, n1 = u[:, 0], vt[0]
    if sv[0] == 0.0:
        raise ValueError("zero matrix has no Kronecker factorization")
    # every split below divides a sign flip of (l1, n1) out exactly, so their
    # signs need no fixing; a numerically zero (1,1) pivot falls back to the
    # largest-magnitude entry
    lead = n1 if normalize == "sigma11" else l1
    used = "maxabs" if abs(lead[0]) < 1e-10 * np.linalg.norm(lead) else normalize
    if used == "sigma11":
        omega_raw, sigma_raw = l1 * (sv[0] * n1[0]), n1 / n1[0]
    else:
        pivot = l1[np.argmax(np.abs(l1))] if used == "maxabs" else l1[0]
        omega_raw, sigma_raw = l1 / pivot, pivot * sv[0] * n1
    return KpsFactorization(
        omega=spd_project(unvec(omega_raw, (p, p)), SPD_FLOOR),
        sigma=spd_project(unvec(sigma_raw, (k, k)), SPD_FLOOR),
        residual_rel=np.linalg.norm(sv[1:]) / np.linalg.norm(sv),
        normalization=used,
    )


def kps_factorize_model(q_xx, sigma_v, sigma_e2, beta) -> tuple[np.ndarray, ...]:
    """The factors of :func:`kps_factorize` of the model score covariance in
    closed form: the four scalars (omega_x, omega_v, alpha, gamma) of
    Omega = diag(omega_x Qxx, omega_v Sigma_v) and Sigma = alpha I + gamma P,
    the one place the fit's Kronecker weight is decided.

    S = A1 kron B1 + A2 kron B2 with A1 = diag(Qxx, 0), B1 = s2 I + P,
    P = beta Sigma_v beta', A2 = diag(0, Sigma_v) and B2 = s2 I (the terms of
    ``subset.model_score_terms``).  A1 and A2 are orthogonal, so with
    a_i = ||A_i||_F the singular pairs of R(S) are the eigenpairs of the
    2 x 2 C = D G D, D = diag(a1, a2), G the Gram matrix of (B1, B2), whose
    entries need only the K x K F = beta' beta Sigma_v: tr P = tr F and
    ||B1||_F^2 = N s2^2 + 2 s2 tr F + tr(F^2).  C has a non-negative
    off-diagonal, so its leading eigenvector u = (cos t, sin t) is
    non-negative, and

        Omega = diag(u1 Qxx / a1, u2 Sigma_v / a2) / p,
        Sigma = p (u1 a1 B1 + u2 a2 B2),       p = u1 Qxx_11 / a1,

    so omega_x = 1 / Qxx_11 (Omega_11 = 1), omega_v = u2 / (a2 p),
    gamma = p u1 a1 and alpha = p s2 (u1 a1 + u2 a2): positive combinations
    of PSD terms with an SPD one, SPD with no projection.  When N > K, alpha
    is Sigma's eigenvalue off span(beta); where it is not above eps times
    tr(Sigma)/N = alpha + gamma tr F / N (s2 = 0 to rounding), it gains the
    first nonzero of the ``JITTERS`` times tr(Sigma)/N, as a Cholesky
    factorization of the N x N Sigma would.  No N x N matrix is formed.
    Stacked inputs give stacked scalars.  Raises NumericalError when Qxx_11,
    Sigma_v or s2 vanishes: S is then singular along a whole block and so
    is one of its factors.
    """
    q_xx, sigma_v, beta = (np.asarray(x, dtype=float) for x in (q_xx, sigma_v, beta))
    s2 = np.asarray(sigma_e2, dtype=float)
    k, n = q_xx.shape[-1], beta.shape[-2]
    a1 = np.linalg.norm(q_xx, axis=(-2, -1))
    a2 = np.linalg.norm(sigma_v, axis=(-2, -1))
    for name, scale in (("Qxx[0, 0]", q_xx[..., 0, 0]), ("||Sigma_v||", a2), ("sigma_e2", s2)):
        bad = ~(scale > 0)
        if np.any(bad):
            where = f" at stack entry {tuple(int(i) for i in np.argwhere(bad)[0])}" if bad.ndim else ""
            raise NumericalError(
                f"model score covariance has no SPD Kronecker factors: {name} is not positive{where}"
            )
    f = beta.swapaxes(-1, -2) @ beta @ sigma_v
    tr_f = np.trace(f, axis1=-2, axis2=-1)
    c11 = a1 * a1 * (n * s2 * s2 + 2.0 * s2 * tr_f + np.sum(f * f.swapaxes(-1, -2), axis=(-2, -1)))
    c12 = a1 * a2 * s2 * (n * s2 + tr_f)
    c22 = a2 * a2 * (n * s2 * s2)
    angle = 0.5 * np.arctan2(2.0 * c12, c11 - c22)
    u1, u2 = np.cos(angle), np.sin(angle)
    pivot = u1 * q_xx[..., 0, 0] / a1
    alpha, gamma = pivot * s2 * (u1 * a1 + u2 * a2), pivot * u1 * a1
    if n > k:       # alpha >= 0, so the ladder's first nonzero jitter lifts it
        scale = alpha + gamma * tr_f / n
        alpha = np.where(alpha > np.finfo(float).eps * scale, alpha, alpha + JITTERS[1] * scale)
    return 1.0 / q_xx[..., 0, 0], u2 / (a2 * pivot), alpha, gamma
