"""Shared linear-algebra and distribution helpers.

Conventions used throughout the package:

* ``vec`` is column-major (Fortran) stacking, so ``vec(a b') = b kron a``
  for column vectors and ``vec(A X B) = (B' kron A) vec(X)``.
* matrix square roots are lower-triangular Cholesky factors; ``M^{-1/2}``
  means the inverse of that factor.
* the matrix helpers below also take stacks of matrices (leading batch
  axes); a single matrix is the same computation with no batch axis.  The
  same rule holds one level up: panels may carry a leading replicate axis,
  every fit stage maps a stack of panels to a stack of fits whose arrays
  carry that axis, sizes are read from the trailing axes, and per-fit
  arrays broadcast against a stack of hypotheses placed in front of them.
  A triangular solve is a Cholesky factorization of a bordered matrix
  (``chol_whiten``): one LAPACK call per matrix of a stack, with no LU
  solve against a triangular factor, where SciPy's triangular solve loops
  over a stack in Python.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# diagonal jitters of a failed Cholesky factorization, relative to trace/dim
JITTERS = (0.0, 1e-12, 1e-10)


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


def bordered(lead: tuple, n: int, m: int) -> np.ndarray:
    """Buffer (*lead, n+m, n+m) for ``chol_bordered``, zero but for inf on
    the diagonal of its trailing m x m block; the caller writes V into the
    leading n x n block (its lower triangle suffices) and X' below it."""
    buf = np.zeros((*lead, n + m, n + m))
    tail = np.arange(n, n + m)
    buf[..., tail, tail] = np.inf
    return buf


def chol_bordered(buf: np.ndarray, n: int, jitters=JITTERS):
    """(L, L^-1 X) for SPD V = L L' from one Cholesky factorization of the
    bordered [[V, X], [X', inf I]] held in ``buf`` (``bordered``).

    Forward substitution leaves (L^-1 X)' in the factor's bottom rows, and
    the infinite diagonal keeps the trailing block positive whatever X is.
    Only the lower triangle is read.  A stack is factored in one call; only
    if that fails is each of its matrices retried with jitter on the
    diagonal of V, relative to trace(V)/n, raising NumericalError if V stays
    indefinite at the largest level.
    """
    try:
        low = np.linalg.cholesky(buf)
    except np.linalg.LinAlgError:
        low = per_matrix(lambda b: _chol_jittered(b, n, jitters), buf)
    return low[..., :n, :n], low[..., n:, :n].swapaxes(-1, -2)


def _chol_jittered(buf: np.ndarray, n: int, jitters) -> np.ndarray:
    head = np.arange(n)
    scale = max(np.trace(buf[:n, :n]) / n, np.finfo(float).tiny)
    for j in jitters:
        trial = buf.copy()
        trial[head, head] += j * scale
        try:
            return np.linalg.cholesky(trial)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"matrix of dim {n} is not positive definite (trace/dim={scale:.3e})"
    )


def chol_whiten(v: np.ndarray, x: np.ndarray, jitters=JITTERS):
    """(L, L^-1 X) for SPD V = L L' (..., n, n) and X (..., n, m), both
    possibly stacked, from one factorization of [[V, X], [X', inf I]]
    (``chol_bordered``, whose jitter rule applies); X = I gives L^-1."""
    v, x = np.asarray(v, dtype=float), np.asarray(x, dtype=float)
    n = v.shape[-1]
    buf = bordered(np.broadcast_shapes(v.shape[:-2], x.shape[:-2]), n, x.shape[-1])
    buf[..., :n, :n] = v
    buf[..., n:, :n] = x.swapaxes(-1, -2)
    return chol_bordered(buf, n, jitters)


def spd_project(m: np.ndarray, floor_rel: float = 1e-12) -> np.ndarray:
    """Nearest-in-spirit SPD projection: symmetrize and clip eigenvalues,
    each matrix of a stack against its own floor."""
    m = sym(np.asarray(m, dtype=float))
    w, q = np.linalg.eigh(m)
    trace = np.trace(m, axis1=-2, axis2=-1)
    floor = floor_rel * np.maximum(trace / m.shape[-1], np.finfo(float).tiny)
    w = np.maximum(w, floor[..., None])
    return sym(q @ (w[..., :, None] * q.swapaxes(-1, -2)))


def project_out(r: np.ndarray, proj: np.ndarray, basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The residuals r - (rB) B' of returns r on the basis B, with rB given,
    written into ``out``."""
    np.matmul(proj, basis.swapaxes(-1, -2), out=out)
    return np.subtract(r, out, out=out)


def sumsq(x: np.ndarray) -> np.ndarray:
    """x'x over the last axis, one dot product per vector."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


@functools.cache
def _chi2_terms(dof) -> tuple[np.ndarray, np.ndarray]:
    """Powers p and log Gamma(p + 1) of the terms of chi2_sf's series; raises
    ValueError unless dof is a nonnegative integer."""
    if not (dof >= 0 and float(dof).is_integer()):
        raise ValueError(f"chi-square dof must be a nonnegative integer, got {dof!r}")
    powers = np.arange(dof // 2) + (0.0 if dof % 2 == 0 else 0.5)
    return powers, np.array([math.lgamma(j + 1.0) for j in powers])


def chi2_sf(x, dof: int):
    """Upper tail of chi^2(dof), integer dof, in closed form (Abramowitz &
    Stegun 26.4.4-5): with y = x/2, Q = sum_{j<m} e^-y y^j/j! at dof = 2m and
    Q = erfc(sqrt y) + sum_{j=1..m} e^-y y^(j-1/2)/Gamma(j+1/2) at dof = 2m + 1,
    each term exp of its logarithm.  Within 2e-13 of SciPy's ``gammaincc`` over
    dof 1-200 and x in [1e-8, 600]; 1 at x <= 0, 0 at x = inf, NaN at NaN, the
    point mass at 0 for dof = 0.  A float for a scalar ``x``, else an array.
    """
    powers, log_den = _chi2_terms(dof)
    if np.ndim(x) == 0:
        # the array path's operations on one element, so a scalar gets the
        # same bits as any array, without its array set-up
        x = float(x)
        if dof == 0 or x != x:
            return (1.0 if x <= 1e-12 else 0.0) if dof == 0 else math.nan
        y = min(max(0.5 * x, 1e-300), 1e300)
        out = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
        return out + float(np.exp(np.log(y) * powers - y - log_den).sum()) if dof > 1 else out
    x = np.asarray(x, dtype=float)
    # y >= 1e-300 gives 1 at x <= 0, y <= 1e300 gives 0 at x = inf
    y = np.minimum(np.maximum(0.5 * x, 1e-300), 1e300)
    out = np.where(x <= 1e-12, 1.0, 0.0) if dof == 0 else 0.0
    if dof % 2:
        out = np.fromiter(map(math.erfc, np.sqrt(y).ravel().tolist()), float, y.size).reshape(y.shape)
    if dof > 1:
        y = y[..., None]
        out = out + np.exp(np.log(y) * powers - y - log_den).sum(axis=-1)
    return out


def chi2_ppf(p: float, dof: int) -> float:
    """Quantile of chi^2(dof) for integer dof: 0 at p = 0, inf at p = 1, NaN
    outside [0, 1]; the root of ``chi2_sf`` = 1 - p, within 2e-13 of
    ``scipy.stats.chi2.ppf`` at the levels j/200."""
    _chi2_terms(dof)
    if dof == 0:
        return 0.0
    if not 0.0 < p < 1.0:
        return {0.0: 0.0, 1.0: math.inf}.get(p, math.nan)
    return _chi2_isf(1.0 - p, dof)


def _chi2_start(q: float, dof: int) -> float:
    """Wilson-Hilferty's quantile of the upper tail q, with the normal quantile
    of Abramowitz & Stegun 26.2.23 (error below 4.5e-4); where its cube is
    not positive, the small-x limit q' = (x/2)^(dof/2) / Gamma(dof/2 + 1) of
    the lower tail q' = 1 - q."""
    t = math.sqrt(-2.0 * math.log(min(q, 1.0 - q)))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t**3)
    z = z if q < 0.5 else -z
    h = 2.0 / (9.0 * dof)
    cube = 1.0 - h + z * math.sqrt(h)
    if cube > 0.0:
        return dof * cube**3
    return 2.0 * math.exp((math.log1p(-q) + math.lgamma(dof / 2.0 + 1.0)) * 2.0 / dof)


@functools.cache
def _chi2_isf(q: float, dof: int) -> float:
    """Halley's method on chi2_sf(x) = q from ``_chi2_start``, inside a
    bracket that every step narrows, bisecting (doubling while unbounded)
    where a step leaves it; it stops at a step below 1e-7 x or a bracket
    narrower than 4 eps x.  With the Newton step r = (Q(x) - q)/pdf(x) and
    pdf'/pdf = (dof/2 - 1)/x - 1/2, Halley's step is r / (1 + r pdf'/(2 pdf));
    the density is ``chi2_pdf``'s expression on floats."""
    tol = 4 * np.finfo(float).eps
    log_norm = math.lgamma(dof / 2.0) + math.log(2) * dof / 2.0
    lo, hi, x = 0.0, math.inf, _chi2_start(q, dof)
    while hi - lo > tol * x:
        tail = chi2_sf(x, dof)
        lo, hi = (x, hi) if tail > q else (lo, x)
        dens = math.exp((dof / 2.0 - 1) * math.log(x) - x / 2.0 - log_norm)
        newton = (tail - q) / dens if dens > 0.0 else math.nan
        halley = 1.0 + 0.5 * newton * ((dof / 2.0 - 1) / x - 0.5)
        step = x + newton / halley if halley > 0.0 else math.nan
        # Halley's error is cubic, so after a step below 1e-7 x the error
        # left is far under the 1e-13 noise of chi2_sf, and more steps only
        # follow that noise
        if abs(step - x) <= 1e-7 * x:
            return step
        x = step if lo < step < hi else 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
    return x


def chi2_pdf(x, dof: int):
    """Density of chi^2(dof): ``scipy.stats.chi2.pdf``'s expression, within
    3e-13 of it, and its values at x = 0 (inf, 1/2 and 0 for dof 1, 2, > 2)."""
    _chi2_terms(dof)
    with np.errstate(divide="ignore"):
        log_x = (dof / 2.0 - 1) * np.log(x) if dof != 2 else 0.0
    log_pdf = log_x - x / 2.0 - math.lgamma(dof / 2.0)
    return np.exp(log_pdf - (np.log(2) * dof) / 2.0)


def ks_chi2_pvalue(sample, dof: int) -> float:
    """Exact KS p-value of ``sample`` against chi^2(dof): the package's one use
    of ``scipy.stats``, imported here since it costs about a second and 40 MB."""
    import scipy.stats

    return float(scipy.stats.kstest(sample, scipy.stats.chi2.cdf, args=(dof,)).pvalue)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a kron b, broadcast over leading batch axes of ``a`` and ``b``."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless for float64)."""
    return f"{float(x):.17g}"
