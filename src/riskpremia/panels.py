"""Panel containers and ingestion for yields, excess returns, and factors.

Yields are stored continuously compounded per month, so that the log price
of an n-month zero-coupon bond is ``-n * y[t, n]``.  All panels are frozen
dataclasses and safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._linalg import format_float


class PanelError(ValueError):
    """Invalid panel input; message carries row/column location when known."""


def _validate_dates(dates) -> tuple[str, ...]:
    dates = tuple(str(d) for d in dates)
    seen = set()
    for d in dates:
        if d in seen:
            raise PanelError(f"duplicate date {d!r}")
        seen.add(d)
    return dates


@dataclass(frozen=True)
class YieldPanel:
    """Zero-coupon yield panel: T_raw dates by M maturities (months)."""

    dates: tuple[str, ...]
    maturities: tuple[int, ...]
    yields: np.ndarray  # (T_raw, M), per-month continuously compounded

    def __post_init__(self):
        object.__setattr__(self, "dates", _validate_dates(self.dates))
        object.__setattr__(self, "maturities", tuple(int(m) for m in self.maturities))
        y = np.asarray(self.yields, dtype=float)
        object.__setattr__(self, "yields", y)
        if len(self.maturities) < 2:
            raise PanelError("need at least 2 maturities")
        if len(self.dates) < 3:
            raise PanelError("need at least 3 dates")
        if any(b <= a for a, b in zip(self.maturities, self.maturities[1:])):
            raise PanelError("maturities must be strictly ascending")
        if y.shape != (len(self.dates), len(self.maturities)):
            raise PanelError(
                f"yield matrix shape {y.shape} does not match "
                f"{len(self.dates)} dates x {len(self.maturities)} maturities"
            )
        if not np.isfinite(y).all():
            t, m = np.argwhere(~np.isfinite(y))[0]
            raise PanelError(
                f"missing/non-finite yield at date {self.dates[t]}, maturity {self.maturities[m]}"
            )

    @property
    def n_dates(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnPanel:
    """One-period log excess holding returns: N series by T periods.

    ``returns`` may carry one leading replicate axis, (R, N, T): a stack of
    R panels over the same maturities and dates, as ``simulate`` draws a
    block of replicates.  Sizes are read from the trailing axes.
    """

    maturities_held: tuple[int, ...]
    returns: np.ndarray  # (N, T) or (R, N, T)
    dates: tuple[str, ...] | None = None  # holding-period end dates, length T

    def __post_init__(self):
        if self.dates is not None:
            object.__setattr__(self, "dates", _validate_dates(self.dates))
        object.__setattr__(
            self, "maturities_held", tuple(int(m) for m in self.maturities_held)
        )
        r = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", r)
        if r.ndim not in (2, 3) or r.shape[-2] < 1:
            raise PanelError("returns must be a non-empty N x T matrix or a stack of them")
        t = r.shape[-1] if self.dates is None else len(self.dates)
        if r.shape[-2:] != (len(self.maturities_held), t):
            raise PanelError("returns shape does not match maturities/dates")
        if not np.isfinite(r).all():
            raise PanelError("non-finite excess return")

    @property
    def n_assets(self) -> int:
        return self.returns.shape[-2]

    @property
    def n_periods(self) -> int:
        return self.returns.shape[-1]


@dataclass(frozen=True)
class FactorPanel:
    """Observed factors: K series by T dates, time-ordered columns.

    ``factors`` may carry one leading replicate axis, (R, K, T), like
    ``ReturnPanel.returns``; sizes are read from the trailing axes.
    """

    factors: np.ndarray  # (K, T) or (R, K, T)
    labels: tuple[str, ...]
    demeaned: bool = False
    dates: tuple[str, ...] | None = None

    def __post_init__(self):
        x = np.asarray(self.factors, dtype=float)
        object.__setattr__(self, "factors", x)
        object.__setattr__(self, "labels", tuple(self.labels))
        if x.ndim not in (2, 3) or x.shape[-2] < 1:
            raise PanelError("factors must be a non-empty K x T matrix or a stack of them")
        if self.dates is not None:
            object.__setattr__(self, "dates", _validate_dates(self.dates))
            if len(self.dates) != x.shape[-1]:
                raise PanelError("factor dates length does not match columns")
        if len(self.labels) != x.shape[-2]:
            raise PanelError("labels length does not match factor rows")
        if not np.isfinite(x).all():
            raise PanelError("non-finite factor value")
        if self.demeaned:
            scale = np.maximum(np.abs(x).max(axis=-1), 1.0)
            if np.any(np.abs(x.sum(axis=-1)) > 1e-10 * x.shape[-1] * scale):
                raise PanelError("demeaned flag set but rows do not sum to zero")

    @property
    def n_factors(self) -> int:
        return self.factors.shape[-2]

    @property
    def n_periods(self) -> int:
        return self.factors.shape[-1]


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------


def load_yield_csv(path, annualized_percent: bool = False) -> YieldPanel:
    """Load a `date,<m1>,<m2>,...` CSV into a YieldPanel, sorted by date.

    With ``annualized_percent`` the cells are read as annualized percentage
    yields and converted to per-month continuously compounded units.
    """
    path = Path(path)
    if not path.exists():
        raise PanelError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0].lower() != "date":
            raise PanelError(f"{path}: first column must be 'date', got {header[:1]}")
        maturities = []
        for j, name in enumerate(header[1:], start=2):
            try:
                maturities.append(int(name))
            except ValueError:
                raise PanelError(
                    f"{path}: column {j} header {name!r} is not an integer maturity"
                ) from None
        rows = []
        dates = []
        for i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise PanelError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
            dates.append(row[0].strip())
            vals = []
            for j, cell in enumerate(row[1:], start=2):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise PanelError(
                        f"{path}: row {i}, column {header[j - 1]!r}: "
                        f"cannot parse {cell.strip()!r} as a number"
                    ) from None
            rows.append(vals)
    if len(set(dates)) != len(dates):
        dup = next(d for d in dates if dates.count(d) > 1)
        raise PanelError(f"{path}: duplicate date {dup!r}")
    order = np.argsort(np.asarray(dates, dtype=object))
    y = np.asarray(rows, dtype=float)[order]
    if annualized_percent:
        y = y / 100.0 / 12.0
    return YieldPanel(
        dates=tuple(dates[i] for i in order),
        maturities=tuple(maturities),
        yields=y,
    )


def save_matrix_csv(path, header, rows) -> None:
    """Write a header and rows; numbers carry 17 significant digits, strings pass through."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else format_float(v) for v in row])


def panel_table(panel) -> tuple[list[str], list[list]]:
    """The `date,<cols...>` header and rows of a yield, return or factor panel."""
    if isinstance(panel, YieldPanel):
        cols, by_date = panel.maturities, panel.yields
    elif isinstance(panel, ReturnPanel):
        cols, by_date = panel.maturities_held, panel.returns.T
    elif isinstance(panel, FactorPanel):
        cols, by_date = panel.labels, panel.factors.T
    else:
        raise TypeError(f"cannot tabulate {type(panel).__name__}")
    dates = panel.dates or tuple(str(t) for t in range(len(by_date)))
    return ["date", *map(str, cols)], [[d, *row] for d, row in zip(dates, by_date)]


def save_panel_csv(path, panel) -> None:
    """Write a yield, return or factor panel as its ``panel_table``."""
    save_matrix_csv(path, *panel_table(panel))


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def _yield_at(panel: YieldPanel, maturity: int, interpolate: bool) -> np.ndarray:
    mats = panel.maturities
    if maturity in mats:
        return panel.yields[:, mats.index(maturity)]
    if not interpolate:
        raise PanelError(
            f"maturity {maturity} not in panel (available: {mats}); "
            "enable interpolation or supply it"
        )
    if maturity < mats[0] or maturity > mats[-1]:
        raise PanelError(f"maturity {maturity} outside panel range {mats[0]}..{mats[-1]}")
    hi = next(i for i, m in enumerate(mats) if m > maturity)
    lo = hi - 1
    w = (maturity - mats[lo]) / (mats[hi] - mats[lo])
    return (1 - w) * panel.yields[:, lo] + w * panel.yields[:, hi]


def excess_returns(
    panel: YieldPanel,
    maturities,
    interpolate: bool = False,
    period_months: int = 1,
) -> ReturnPanel:
    """One-period log excess holding returns for n-month bonds.

    With log prices ``ln P[t, n] = -n y[t, n]`` and the one-period rate
    ``-ln P[t, p]`` (p = holding period in months), the return of holding an
    (n+p)-month bond for one period in excess of the rate is::

        r[t+1, n] = ln P[t+1, n] - ln P[t, n+p] + ln P[t, p]

    Consecutive panel rows are assumed ``period_months`` apart.
    """
    maturities = [int(m) for m in maturities]
    p = int(period_months)
    short = _yield_at(panel, p, interpolate) * p  # -ln P[t, p]
    rows = []
    for n in maturities:
        yn = _yield_at(panel, n, interpolate)
        ynp = _yield_at(panel, n + p, interpolate)
        lnp_next = -n * yn[1:]          # ln P[t+1, n]
        lnp_now = -(n + p) * ynp[:-1]   # ln P[t, n+p]
        rows.append(lnp_next - lnp_now - short[:-1])
    return ReturnPanel(
        maturities_held=tuple(maturities),
        returns=np.asarray(rows, dtype=float),
        dates=panel.dates[1:],
    )


def pca_factors(panel: YieldPanel, k: int) -> FactorPanel:
    """Principal-component scores of the yield cross-section.

    Maturity columns are mean-centered over time (no variance scaling); each
    loading vector is sign-fixed so its largest-magnitude entry is positive.
    """
    y = panel.yields
    t_raw, m = y.shape
    if k > min(m, t_raw):
        raise PanelError(f"k={k} exceeds min(M, T) = {min(m, t_raw)}")
    centered = y - y.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] == 0.0 or (k > 1 and s[k - 1] <= 1e-12 * s[0]) or (s[k - 1] == 0.0):
        raise PanelError(f"centered yield matrix has rank below k={k}")
    scores = u[:, :k] * s[:k]
    for j in range(k):
        i = np.argmax(np.abs(vt[j]))
        if vt[j, i] < 0:
            scores[:, j] = -scores[:, j]
    return FactorPanel(
        factors=scores.T,
        labels=tuple(f"PC{j + 1}" for j in range(k)),
        demeaned=False,
        dates=panel.dates,
    )


def demean(panel):
    """Subtract each row's time-series mean; returns the same panel type.
    A stacked panel is demeaned one panel at a time (over its last axis)."""
    if isinstance(panel, FactorPanel):
        x = panel.factors - panel.factors.mean(axis=-1, keepdims=True)
        # second pass removes the rounding left by a large row mean, so the
        # rows sum to zero at the scale of the centered values
        x -= x.mean(axis=-1, keepdims=True)
        return replace(panel, factors=x, demeaned=True)
    if isinstance(panel, ReturnPanel):
        r = panel.returns - panel.returns.mean(axis=-1, keepdims=True)
        return replace(panel, returns=r)
    raise TypeError(f"cannot demean {type(panel).__name__}")
