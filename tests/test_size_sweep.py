"""Size of the robust tests at the true Lambda1 over shapes (K, N).

Each cell is one ``power_curve`` of FAR, KLM, JKLM and row sFAR at the true
Lambda1 of ``preset_dgp(kind, k, n, t=300)``, 1000 replicates from seed 7; an
"unspanned" cell is the strong preset with ``weak_scale`` 0, so beta = 0.
FAR, KLM and JKLM must reject within 5 % +- 3 binomial standard errors of
the nominal level, and sFAR, whose chi-square critical value is a bound, at
most 5 % + 2 se.  A (cell, test) the library fails today is a strict xfail
naming the ROADMAP item that is to fix it, so a fix shows up as an XPASS.
"""

import dataclasses
from functools import cache

import numpy as np
import pytest

from riskpremia import montecarlo, pipeline
from riskpremia.montecarlo import power_curve, preset_dgp
from riskpremia.moments import TESTS

LEVEL, REPS, SEED, T = 0.05, 1000, 7, 300
SE = np.sqrt(LEVEL * (1 - LEVEL) / REPS)     # 0.69 points
SWEEP = ("far", "klm", "jklm", "sfar")
SHAPES = ((1, 2), (2, 3), (1, 11), (2, 11), (3, 10), (5, 20))     # N = K + 1 first
CELLS = [(kind, k, n) for kind in ("strong", "weak") for k, n in SHAPES] + [
    ("unspanned", 1, 11), ("unspanned", 2, 11)]

KPS_MISFIT = (
    "ROADMAP item 2: the nearest Kronecker product misfits the score "
    "covariance along beta at this shape, and the tests over-reject"
)
HC0_SIZE = (
    "ROADMAP item 2: hc0 estimates an NK x NK outer product from T = 300 "
    "periods and over-rejects; the exact model variance is the size-correct form"
)

# (kind, K, N) -> the tests that miss their band today
FAILING = {
    ("strong", 2, 11): {"jklm", "sfar"},
    ("strong", 3, 10): {"far", "jklm", "sfar"},
    ("strong", 5, 20): {"far", "klm", "jklm", "sfar"},
    ("weak", 5, 20): {"far", "jklm"},
}


@cache
def rejection(kind: str, k: int, n: int, cov: str = "kps") -> dict:
    """Rejection frequency per test of one cell, computed once per test run;
    ``cov`` reaches the Monte Carlo fits through a patched ``fit_model``."""
    spec = preset_dgp("strong" if kind == "unspanned" else kind, k, n, t=T)
    if kind == "unspanned":
        spec = dataclasses.replace(spec, weak_scale=np.zeros(k))
    with pytest.MonkeyPatch.context() as mp:
        if cov != "kps":
            mp.setattr(montecarlo, "fit_model", lambda r, f: pipeline.fit_model(r, f, cov=cov))
        table = power_curve(list(SWEEP), [spec.lambda1], spec, reps=REPS, level=LEVEL, seed=SEED)
    assert all(count == 0 for count in table.failures.values())
    return dict(zip(table.tests, table.rejection[:, 0]))


def assert_in_band(test: str, freq: float) -> None:
    if test == "sfar":
        assert freq <= LEVEL + 2 * SE, f"sFAR rejects {freq:.3f}"
    else:
        assert abs(freq - LEVEL) <= 3 * SE, f"{test} rejects {freq:.3f}"


def cells():
    for kind, k, n in CELLS:
        for test in SWEEP:
            marks = [pytest.mark.xfail(strict=True, reason=KPS_MISFIT)] \
                if test in FAILING.get((kind, k, n), ()) else []
            yield pytest.param(kind, k, n, test, marks=marks, id=f"{kind}-{k}x{n}-{test}")


@pytest.mark.parametrize("kind,k,n,test", cells())
def test_size_within_band(kind, k, n, test):
    assert_in_band(test, rejection(kind, k, n)[test])


@pytest.mark.xfail(strict=True, reason=HC0_SIZE)
@pytest.mark.parametrize("test", TESTS)
def test_hc0_size_within_band(test):
    # sFAR reads the pencil, not the variance mode, so only the full-vector
    # tests are in this cell
    assert_in_band(test, rejection("strong", 1, 11, "hc0")[test])
