"""Confidence sets by test inversion over parameter grids.

A grid scan evaluates its points in chunks, each one stacked array pass
through the same kernels that evaluate a single hypothesis (a stack of one),
on one fit or on a stack of fits at once.  Failed points are told apart on
one fit only: its failing chunk is retried point by point, while a failing
chunk of a stack of fits raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import NumericalError, chi2_sf
from .moments import TESTS, dofs, robust_statistics
from .pipeline import FIT_ERRORS, ModelFit
from .subset import boundedness_diagnostic, sfar_dof, sfar_statistics
from .threestep import wald_statistics

VALID_TESTS = ("far", "klm", "jklm", "wald", "sfar")

#: Working-set budget of one chunk of grid points.  Chunks are sized from the
#: bytes each point's arrays take (K-sized blocks, the hc0 V_ff, projected
#: sFAR matrices), so a scan's memory does not grow with the grid.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("grid axes need at least 2 steps")
        if not np.isfinite(self.hi - self.lo):      # np.linspace needs the span too
            raise ValueError("grid axis bounds and their span must be finite")
        if not self.lo < self.hi:
            raise ValueError("grid axis requires lo < hi")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class ParameterBinding:
    """Maps grid dimensions onto entries of the tested parameter.

    ``kind='full'`` targets vec(Lambda1) (column-major) for the full-vector
    tests; 'row'/'column' target the K-vector of row or column ``index``.
    ``base`` holds values for the non-varying positions; ``vary`` lists the
    flat positions driven by the grid axes, in axis order.
    """

    kind: str
    base: np.ndarray
    vary: tuple[int, ...]
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("full", "row", "column"):
            raise ValueError("binding kind must be 'full', 'row', or 'column'")
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float).reshape(-1))
        object.__setattr__(self, "vary", tuple(int(i) for i in self.vary))
        if any(i < 0 or i >= self.base.size for i in self.vary):
            raise ValueError("vary positions outside the parameter vector")
        if len(set(self.vary)) != len(self.vary):
            raise ValueError("duplicate vary positions")
        if self.kind != "full" and not 0 <= self.index < self.base.size:
            raise ValueError(f"{self.kind} index {self.index} out of range for K = {self.base.size}")

    def assemble(self, points) -> np.ndarray:
        """Parameter vectors (..., P) from grid points (..., dims)."""
        points = np.asarray(points, dtype=float)
        out = np.tile(self.base, (*points.shape[:-1], 1))
        out[..., list(self.vary)] = points
        return out


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[GridAxis, ...]
    binding: ParameterBinding

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not 1 <= len(self.axes) <= 3:
            raise ValueError("grids support 1 to 3 dimensions")
        if len(self.axes) != len(self.binding.vary):
            raise ValueError("grid dimensionality must match the bound positions")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.steps for a in self.axes)

    def points(self) -> np.ndarray:
        """All grid points in C order, shape (prod(steps), dims)."""
        mesh = np.meshgrid(*(a.values for a in self.axes), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, len(self.axes))


def full_lambda_binding(k: int, base=None, vary=None) -> ParameterBinding:
    base = np.zeros(k * k) if base is None else np.asarray(base, dtype=float).reshape(-1)
    vary = tuple(range(k * k)) if vary is None else tuple(vary)
    return ParameterBinding(kind="full", base=base, vary=vary)


def row_binding(k: int, index: int = 0, base=None, vary=None) -> ParameterBinding:
    base = np.zeros(k) if base is None else np.asarray(base, dtype=float).reshape(-1)
    vary = tuple(range(k)) if vary is None else tuple(vary)
    return ParameterBinding(kind="row", base=base, vary=vary, index=index)


@dataclass(frozen=True)
class PvalueSurface:
    grid: GridSpec
    test: str
    pvalues: np.ndarray            # shape == grid.shape, NaN for failed points
    failures: tuple = ()


@dataclass(frozen=True)
class ConfidenceSet:
    level: float
    test: str
    grid: GridSpec
    pvalues: np.ndarray
    accepted: np.ndarray           # (n_accepted, dims) parameter points
    accepted_mask: np.ndarray      # shape == grid.shape
    bounded: str                   # 'bounded' | 'unbounded' | 'empty'

    @property
    def is_empty(self) -> bool:
        return self.accepted.shape[0] == 0


def _chunk_evaluator(tests, fit: ModelFit, binding: ParameterBinding, mode=None):
    """(evaluator, chunk size): p-values (tests, B, *stack) of a stack of
    parameter vectors (B, P) on a fit or a stack of fits."""
    k, n, t = fit.n_factors, fit.n_assets, fit.n_periods
    stack = fit.stacked.batch_shape
    test = tests[0]
    if len(tests) > 1 and not set(tests) <= set(TESTS):
        raise ValueError(f"{tests!r} is not one family: any of far/klm/jklm, wald, or sfar")
    if test in ("far", "klm", "jklm", "wald") and binding.kind != "full":
        raise ValueError(f"{test} requires a 'full' binding over vec(Lambda1)")

    def lambdas(params):
        # column-major vec; the hypothesis axis goes in front of the stack axes
        return params.reshape(len(params), *(1,) * len(stack), k, k).swapaxes(-1, -2)

    if test in TESTS:
        mode = mode or fit.cov_mode
        dof = dofs(k, n)
        nk = n * k
        if mode == "kps":
            floats = 16 * k * k               # 2K x K and K x K blocks
        else:
            floats = 6 * nk * nk              # V_ff, its parts and its factor
            if {"klm", "jklm"} & set(tests):
                floats += 2 * nk * k * k      # the orthogonalized Jacobian and its Kronecker terms

        def ev(params):
            stats = robust_statistics(fit.stacked, lambdas(params), mode, tests)
            pvalues = np.array([chi2_sf(stats[name], dof[name]) for name in tests])
            if not np.all((pvalues >= 0.0) & (pvalues <= 1.0)):
                raise ValueError("p-value outside [0, 1]")
            return pvalues

    elif test == "wald":
        cov = fit.asymptotic_cov  # a fit without a price of risk fails here, not per point
        floats = k * k

        def ev(params):
            return chi2_sf(wald_statistics(fit.por, cov, lambdas(params), t), k * k)[None]

    elif test == "sfar":
        if binding.kind == "full":
            raise ValueError("sfar requires a 'row' or 'column' binding")
        floats = 2 * (2 * k) ** 2   # projected matrices and their eigenvalues

        def ev(params):
            values = params.reshape(len(params), *(1,) * len(stack), k)
            stat = sfar_statistics(fit.stacked, values, binding.index, binding.kind)
            return chi2_sf(stat, sfar_dof(k, n))[None]

    else:
        raise ValueError(f"unknown test {test!r}; expected one of {VALID_TESTS}")
    return ev, max(1, CHUNK_BYTES // (8 * floats * int(np.prod(stack))))


def scan_pvalues(
    tests,
    fit: ModelFit,
    binding: ParameterBinding,
    params: np.ndarray,
    mode: str | None = None,
) -> tuple[np.ndarray, tuple]:
    """P-values (len(tests), B) of one test family at a parameter stack (B, P),
    and the failed points as (index, exception).

    The family is any of far/klm/jklm (one pass of the robust statistics), or
    wald, or sfar.  Points are evaluated in stacked chunks; a chunk that raises
    a numerical failure or an invalid-value error (a hypothesis or p-value out
    of range) is evaluated again point by point, and the points that raise one
    carry NaN.  Any other exception propagates, as does a failed per-fit setup
    (Wald on a fit without a price of risk).

    ``fit`` may be a stack of R fits (``fit_model`` of stacked panels): then every
    chunk is one pass over all of them and the p-values are (len(tests), R, B).
    A stack of one fit is retried point by point as above; on a stack of
    several fits a failing chunk raises, and the caller tells its fits apart
    (the Monte Carlo runner refits the block in halves).  A parameter length
    other than K^2 (full binding) or K (row or column) raises ValueError
    before any point is evaluated.
    """
    stack = fit.stacked.batch_shape
    pvalues = np.full((len(tests), *stack, len(params)), np.nan)
    failures = []
    ev, size = _chunk_evaluator(tests, fit, binding, mode)
    k = fit.n_factors
    want = k * k if binding.kind == "full" else k
    if params.shape[-1] != want:
        raise ValueError(
            f"{binding.kind} binding has {params.shape[-1]} parameters, "
            f"the fit needs {want} (K = {k})"
        )
    for start in range(0, len(params), size):
        chunk = slice(start, start + size)
        try:
            pvalues[..., chunk] = np.moveaxis(ev(params[chunk]), 1, -1)
        except FIT_ERRORS + (ValueError,):
            if np.prod(stack) > 1:
                raise
            for i in range(start, min(start + size, len(params))):
                try:
                    pvalues[..., i] = ev(params[i : i + 1])[:, 0]
                except FIT_ERRORS + (ValueError,) as exc:
                    failures.append((i, exc))
    return pvalues, tuple(failures)


def pvalue_curve(
    test: str,
    grid: GridSpec,
    fit: ModelFit,
    mode: str | None = None,
) -> PvalueSurface:
    """P-value at every grid point: ``scan_pvalues`` of the one test over
    the grid's parameter vectors, failed points NaN and recorded as
    (index, repr of the exception)."""
    params = grid.binding.assemble(grid.points())
    pvalues, failures = scan_pvalues((test,), fit, grid.binding, params, mode)
    return PvalueSurface(
        grid=grid,
        test=test,
        pvalues=pvalues[0].reshape(grid.shape),
        failures=tuple((i, repr(exc)) for i, exc in failures),
    )


def _touches_boundary(mask: np.ndarray) -> bool:
    if not mask.any():
        return False
    for axis in range(mask.ndim):
        first = np.take(mask, 0, axis=axis)
        last = np.take(mask, -1, axis=axis)
        if first.any() or last.any():
            return True
    return False


def invert_surface(
    surface: PvalueSurface,
    level: float,
    fit: ModelFit,
    seed: int = 0,
) -> ConfidenceSet:
    """The confidence set of a p-value surface at the given confidence level.

    Sets touching the grid boundary cannot be classified by the finite grid;
    for the subset statistic the rank certificate or the scan of the row or
    column limits, as the binding is, decides boundedness (the scan's
    directions are drawn from ``seed``); for the other
    tests a boundary-touching set is reported unbounded.  One surface serves
    any number of levels.  A surface with no p-value at all tested nothing,
    so it raises NumericalError naming its first failure rather than
    calling the set empty.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if np.isnan(surface.pvalues).all():
        first = "".join(f"; the first, point {i}: {why}" for i, why in surface.failures[:1])
        raise NumericalError(f"no grid point has a p-value: all {surface.pvalues.size} points failed{first}")
    grid = surface.grid
    alpha = 1.0 - level
    with np.errstate(invalid="ignore"):
        mask = surface.pvalues >= alpha
    accepted = grid.points()[mask.reshape(-1)]
    if accepted.shape[0] == 0:
        bounded = "empty"
    elif not _touches_boundary(mask):
        bounded = "bounded"
    elif surface.test == "sfar":
        rep = boundedness_diagnostic(fit.stacked, alpha=alpha, seed=seed, kind=grid.binding.kind)
        bounded = "bounded" if rep.bounded_all else "unbounded"
    else:
        bounded = "unbounded"
    return ConfidenceSet(
        level=level,
        test=surface.test,
        grid=grid,
        pvalues=surface.pvalues,
        accepted=accepted,
        accepted_mask=mask,
        bounded=bounded,
    )


def joint_confidence_set(
    test: str,
    grid: GridSpec,
    level: float,
    fit: ModelFit,
    mode: str | None = None,
    seed: int = 0,
) -> ConfidenceSet:
    """Invert the chosen test over the grid at the given confidence level:
    ``pvalue_curve`` followed by ``invert_surface``."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    surface = pvalue_curve(test, grid, fit, mode=mode)
    return invert_surface(surface, level, fit, seed=seed)


def project_cs(cs: ConfidenceSet, axis: int) -> list[tuple[float, float]]:
    """Union of axis intervals covering the projection of the accepted points."""
    if axis < 0 or axis >= len(cs.grid.axes):
        raise ValueError("axis out of range")
    if cs.is_empty:
        return []
    covered = np.any(
        cs.accepted_mask, axis=tuple(i for i in range(cs.accepted_mask.ndim) if i != axis)
    )
    values = cs.grid.axes[axis].values
    intervals = []
    start = None
    for i, hit in enumerate(covered):
        if hit and start is None:
            start = i
        elif not hit and start is not None:
            intervals.append((float(values[start]), float(values[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(values[start]), float(values[-1])))
    return intervals
