"""Shared linear-algebra and distribution helpers.

Conventions used throughout the package:

* ``vec`` is column-major (Fortran) stacking, so ``vec(a b') = b kron a``
  for column vectors and ``vec(A X B) = (B' kron A) vec(X)``;
  ``vec(A kron B)`` is linear in each factor and is formed by ``vec_kron``.
* matrix square roots are lower-triangular Cholesky factors; ``M^{-1/2}``
  means the inverse of that factor.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy import special, stats


class NumericalError(RuntimeError):
    """A matrix factorization or solve failed beyond recoverable jitter."""


def vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(shape, order="F")


def sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def chol_spd(m: np.ndarray, jitters=(0.0, 1e-12, 1e-10)) -> np.ndarray:
    """Lower Cholesky factor of a symmetrized matrix, with jitter escalation.

    Jitter levels are relative to ``trace/dim``; raises NumericalError if the
    matrix stays indefinite at the largest level.
    """
    m = sym(np.asarray(m, dtype=float))
    n = m.shape[0]
    scale = max(np.trace(m) / n, np.finfo(float).tiny)
    for j in jitters:
        try:
            return np.linalg.cholesky(m + (j * scale) * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"matrix of dim {n} is not positive definite (trace/dim={scale:.3e})"
    )


def spd_project(m: np.ndarray, floor_rel: float = 1e-12) -> np.ndarray:
    """Nearest-in-spirit SPD projection: symmetrize and clip eigenvalues."""
    m = sym(np.asarray(m, dtype=float))
    w, q = np.linalg.eigh(m)
    floor = floor_rel * max(np.trace(m) / m.shape[0], np.finfo(float).tiny)
    w = np.maximum(w, floor)
    return sym(q @ (w[:, None] * q.T))


def inv_from_chol(low: np.ndarray) -> np.ndarray:
    """Inverse of L L' given its lower factor L."""
    linv = scipy.linalg.solve_triangular(low, np.eye(low.shape[0]), lower=True)
    return linv.T @ linv


def whiten(low: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L^{-1} x for a lower-triangular L."""
    return scipy.linalg.solve_triangular(low, x, lower=True)


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of chi^2(dof) via the regularized incomplete gamma."""
    if dof == 0:
        return 1.0 if x <= 1e-12 else 0.0
    return float(special.gammaincc(dof / 2.0, max(x, 0.0) / 2.0))


def chi2_ppf(p: float, dof: int) -> float:
    if dof == 0:
        return 0.0
    return float(stats.chi2.ppf(p, dof))


def gen_eigvals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric-definite pencil (a, b).

    Solved by Cholesky-reducing ``b`` to standard symmetric form.  Both
    matrices may be given as congruences ``g' M g`` whose columns are first
    rescaled to unit norm (the roots are invariant to column scaling), which
    keeps the reduction stable for hypotheses with very large entries.
    """
    a = sym(np.asarray(a, dtype=float))
    b = sym(np.asarray(b, dtype=float))
    d = np.sqrt(np.maximum(np.diag(b), np.finfo(float).tiny))
    a = a / d[:, None] / d[None, :]
    b = b / d[:, None] / d[None, :]
    try:
        low = chol_spd(b)
    except NumericalError:
        b = spd_project(b)
        low = chol_spd(b)
    c = whiten(low, whiten(low, a).T)
    return np.sort(np.linalg.eigvalsh(sym(c)))


def orthonormal_completion(direction: np.ndarray) -> np.ndarray:
    """K x (K-1) orthonormal basis of the complement of a unit K-vector.

    Built from the full QR of [direction | I_K]; column signs are fixed so the
    largest-magnitude entry of each column is positive.
    """
    lam = np.asarray(direction, dtype=float).reshape(-1)
    k = lam.size
    if k == 1:
        return np.zeros((1, 0))
    q, _ = np.linalg.qr(np.column_stack([lam, np.eye(k)]))
    comp = q[:, 1:k]
    for j in range(comp.shape[1]):
        i = np.argmax(np.abs(comp[:, j]))
        if comp[i, j] < 0:
            comp[:, j] = -comp[:, j]
    return comp


def vec_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """vec(a kron b), broadcast over leading batch axes of ``a`` and ``b``.

    For a of shape (p, q) and b of shape (m, n), the entry a[i, j] b[r, s] of
    the product sits at column-major position ((j n + s) p + i) m + r, so the
    outer product laid out with axes (j, s, i, r) is already vec-ordered.
    """
    out = np.einsum("...ij,...ab->...jbia", a, b)
    return out.reshape(*out.shape[:-4], -1)


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless for float64)."""
    return f"{float(x):.17g}"
