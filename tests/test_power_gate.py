"""Size-adjusted power of FAR and KLM at fixed alternatives.

Each cell draws 1000 replicates from seed 7 of a ``preset_dgp`` design at
T = 300 and takes the per-replicate p-values of FAR and KLM at the true
Lambda1 and at each alternative.  The critical p-value of a test is the 5 %
quantile of its p-values at the truth, on the same draws, so any variance
of the moments is compared at its own exact size.  The size-adjusted power
is the share of alternative p-values below it, and must stay at least its
recorded value minus 3 binomial standard errors.  A change that moves a
recorded value says why in CHANGES.md.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from riskpremia.confsets import full_lambda_binding, scan_pvalues
from riskpremia.montecarlo import _replicates, preset_dgp

LEVEL, REPS, SEED = 0.05, 1000, 7
TESTS = ("far", "klm")

# cell id -> (K, N, weak_scale or None, alternatives as a function of the
# true Lambda1, recorded power per alternative as {test: value})
CELLS = {
    "strong-2x11-c0.1": (2, 11, None, lambda lam1: [lam1 + 0.1 * np.eye(2)],
                         [{"far": 0.148, "klm": 0.409}]),
    "strong-3x10-c0.1": (3, 10, None, lambda lam1: [lam1 + 0.1 * np.eye(3)],
                         [{"far": 0.195, "klm": 0.318}]),
    "strong-5x20-c0.06": (5, 20, None, lambda lam1: [lam1 + 0.06 * np.eye(5)],
                          [{"far": 0.085, "klm": 0.192}]),
    "strong-1x11-ws0.3": (1, 11, 0.3, lambda lam1: [np.array([[-0.75]]), np.array([[1.5]])],
                          [{"far": 0.420, "klm": 0.340}, {"far": 0.295, "klm": 0.326}]),
}


@cache
def power(cell: str) -> np.ndarray:
    """(alternatives, tests) size-adjusted power of one cell, computed once
    per test run."""
    k, n, weak_scale, alternatives, _ = CELLS[cell]
    spec = preset_dgp("strong", k, n)
    if weak_scale is not None:
        spec = replace(spec, weak_scale=np.full(k, weak_scale))
    points = [spec.lambda1, *alternatives(spec.lambda1)]
    params = np.array([m.T.reshape(-1) for m in points])     # column-major vec

    def evaluate(fit):
        pvalues, failures = scan_pvalues(TESTS, fit, full_lambda_binding(k), params)
        assert not failures
        return list(np.moveaxis(pvalues, 1, 0))      # one (tests, points) per replicate

    results, _ = _replicates(spec, REPS, SEED, evaluate)
    assert not any(isinstance(res, Exception) for res in results)
    pvalues = np.array(results)                      # (replicates, tests, points)
    critical = np.quantile(pvalues[:, :, 0], LEVEL, axis=0)
    return np.mean(pvalues[:, :, 1:] < critical[:, None], axis=0).T


def cases():
    for cell, (*_, recorded) in CELLS.items():
        for alt, values in enumerate(recorded):
            for test in TESTS:
                yield pytest.param(cell, alt, test, values[test], id=f"{cell}-alt{alt}-{test}")


@pytest.mark.parametrize("cell,alt,test,recorded", cases())
def test_size_adjusted_power_holds(cell, alt, test, recorded):
    got = power(cell)[alt, TESTS.index(test)]
    se = np.sqrt(recorded * (1 - recorded) / REPS)
    assert got >= recorded - 3 * se, f"{test} size-adjusted power {got:.3f} < {recorded:.3f} - 3 se"
