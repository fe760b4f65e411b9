"""Shared linear-algebra and distribution helpers.

Conventions used throughout the package:

* ``vec`` is column-major (Fortran) stacking, so ``vec(a b') = b kron a``
  for column vectors and ``vec(A X B) = (B' kron A) vec(X)``;
  ``vec(A kron B)`` is linear in each factor and is formed by ``vec_kron``.
* matrix square roots are lower-triangular Cholesky factors; ``M^{-1/2}``
  means the inverse of that factor.
* the matrix helpers below also take stacks of matrices (leading batch
  axes); a single matrix is the same computation with no batch axis.  The
  same rule holds one level up: panels may carry a leading replicate axis,
  every fit stage maps a stack of panels to a stack of fits whose arrays
  carry that axis, sizes are read from the trailing axes, and per-fit
  arrays broadcast against a stack of hypotheses placed in front of them.
  Stacked solves go through NumPy: SciPy's triangular solve loops over a
  stack in Python.
"""

from __future__ import annotations

import numpy as np
from scipy import special, stats


class NumericalError(RuntimeError):
    """A matrix factorization or solve failed beyond recoverable jitter."""


def vec(m: np.ndarray) -> np.ndarray:
    """Column-major vec of the last two axes."""
    m = np.asarray(m, dtype=float)
    return m.swapaxes(-1, -2).reshape(*m.shape[:-2], -1)


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of ``vec`` for vectors (..., rows * cols)."""
    v = np.asarray(v, dtype=float)
    return v.reshape(*v.shape[:-1], shape[1], shape[0]).swapaxes(-1, -2)


def square_stack(x, k: int) -> np.ndarray:
    """``x`` as a C-ordered stack (..., k, k); any other shape with k*k
    entries is read row-major as one k x k matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-2:] != (k, k):
        x = x.reshape(k, k)
    return np.ascontiguousarray(x)


def sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


def per_matrix(fn, m: np.ndarray) -> np.ndarray:
    """Apply a matrix-to-matrix ``fn`` to each matrix of a stack."""
    out = [fn(x) for x in m.reshape(-1, *m.shape[-2:])]
    return np.stack(out).reshape(*m.shape[:-2], *out[0].shape)


def chol_spd(m: np.ndarray, jitters=(0.0, 1e-12, 1e-10)) -> np.ndarray:
    """Lower Cholesky factor of a symmetrized matrix, with jitter escalation.

    Jitter levels are relative to ``trace/dim``; raises NumericalError if the
    matrix stays indefinite at the largest level.  A stack is factored in one
    call; only if that fails is each of its matrices escalated on its own.
    """
    m = sym(np.asarray(m, dtype=float))
    if m.ndim > 2:
        try:
            return np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return per_matrix(lambda x: chol_spd(x, jitters), m)
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
    """Nearest-in-spirit SPD projection: symmetrize and clip eigenvalues,
    each matrix of a stack against its own floor."""
    m = sym(np.asarray(m, dtype=float))
    w, q = np.linalg.eigh(m)
    trace = np.trace(m, axis1=-2, axis2=-1)
    floor = floor_rel * np.maximum(trace / m.shape[-1], np.finfo(float).tiny)
    w = np.maximum(w, floor[..., None])
    return sym(q @ (w[..., :, None] * q.swapaxes(-1, -2)))


def inv_lower(low: np.ndarray) -> np.ndarray:
    """L^-1 for lower-triangular factors L, possibly stacked."""
    return np.linalg.solve(low, np.broadcast_to(np.eye(low.shape[-1]), low.shape))


def whiten(low: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L^{-1} x for lower-triangular L and matrices x, both possibly stacked.

    One LAPACK solve per matrix of the stack; forming L^{-1} instead loses
    accuracy on ill-conditioned factors.
    """
    return np.linalg.solve(low, x)


def whiten_vec(low: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L^{-1} x for vectors x (..., n) against factors L (..., n, n)."""
    return whiten(low, x[..., None])[..., 0]


def sumsq(x: np.ndarray) -> np.ndarray:
    """x'x over the last axis, one dot product per vector."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def chi2_sf(x, dof: int):
    """Upper tail of chi^2(dof) via the regularized incomplete gamma.

    A float for a scalar ``x``, an array of the same shape otherwise.
    """
    x = np.asarray(x, dtype=float)
    if dof == 0:
        out = np.where(x <= 1e-12, 1.0, 0.0)
    else:
        out = special.gammaincc(dof / 2.0, np.maximum(x, 0.0) / 2.0)
    return float(out) if out.ndim == 0 else out


def chi2_ppf(p: float, dof: int) -> float:
    if dof == 0:
        return 0.0
    return float(stats.chi2.ppf(p, dof))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a kron b, broadcast over leading batch axes of ``a`` and ``b``."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


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
