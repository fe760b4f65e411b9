"""A stack of B hypotheses equals B single-hypothesis calls.

Grid scans push stacks of hypotheses through the same kernels that evaluate
one hypothesis (a stack of one), so every statistic must come out the same
either way.  Bitwise equality is expected; the assertions allow 1e-12
relative, the agreement the scans rely on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpremia.moments import robust_statistics, robust_tests
from riskpremia.pipeline import fit_model
from riskpremia.subset import (
    SubsetHypothesis,
    _distant_restriction,
    _pencil_result,
    restriction_matrix,
    sfar_distant,
    sfar_row,
    sfar_row_statistics,
)
from riskpremia.threestep import wald_statistics

from test_threestep import default_params, make_dataset

RTOL = 1e-12


def assert_same(stacked, singles):
    singles = np.asarray(singles)
    scale = max(np.abs(singles).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(stacked, singles, rtol=RTOL, atol=RTOL * scale)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1.0, 1e-3, 1e-6]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_stacked_hypotheses_equal_single_calls(k, extra, beta_scale, b, seed):
    # N = K+1 when extra = 1; beta_scale shrinks the last factor's loadings
    # towards zero (near-singular beta)
    n = k + extra
    rng = np.random.default_rng(seed)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=k, n=n)
    beta[:, -1] *= beta_scale
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 90)
    fit = fit_model(returns, factors)
    sys = fit.stacked
    lams = lam1 + 0.5 * rng.standard_normal((b, k, k))

    for mode in ("kps", "hc0"):
        stacked = robust_statistics(sys, lams, mode)
        singles = [robust_tests(sys, lam, mode=mode) for lam in lams]
        for name in ("far", "klm", "jklm"):
            assert_same(stacked[name], [res[name].statistic for res in singles])
        far_only = robust_statistics(sys, lams, mode, ("far",))
        assert_same(far_only["far"], stacked["far"])

    if fit.por is not None:
        stacked = wald_statistics(fit.por, fit.asymptotic_cov, lams, fit.n_periods)
        assert_same(stacked, [fit.wald(lam).statistic for lam in lams])

    values = lams[:, 0, :] * 3.0
    directions = rng.standard_normal((b, k))
    for index in range(k):
        singles = [sfar_row(SubsetHypothesis("row", index, v), sys) for v in values]
        stats, roots = _pencil_result(sys, index, restriction_matrix(values))
        assert_same(stats, [res.statistic for res in singles])
        assert_same(roots, [res.roots for res in singles])
        assert_same(sfar_row_statistics(sys, values, index), stats)

        singles = [sfar_distant(d, sys, index=index) for d in directions]
        stats, roots = _pencil_result(sys, index, _distant_restriction(directions))
        assert_same(stats, [res.statistic for res in singles])
        assert_same(roots, [res.roots for res in singles])


def test_stacked_statistics_are_bitwise_equal_at_one_shape():
    rng = np.random.default_rng(3)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=3, n=7)
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 120)
    fit = fit_model(returns, factors)
    lams = lam1 + 0.3 * rng.standard_normal((5, 3, 3))
    for mode in ("kps", "hc0"):
        stacked = robust_statistics(fit.stacked, lams, mode)
        for i, lam in enumerate(lams):
            single = robust_tests(fit.stacked, lam, mode=mode)
            assert [single[t].statistic for t in ("far", "klm", "jklm")] == [
                float(stacked[t][i]) for t in ("far", "klm", "jklm")
            ]
    stats = sfar_row_statistics(fit.stacked, lams[:, 1, :], 1)
    assert stats.tolist() == [
        sfar_row(SubsetHypothesis("row", 1, lam[1]), fit.stacked).statistic for lam in lams
    ]


def test_stack_validates_like_a_single_hypothesis():
    rng = np.random.default_rng(4)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=4)
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 80)
    sys = fit_model(returns, factors).stacked
    with pytest.raises(ValueError, match="finite"):
        sfar_row_statistics(sys, np.array([[0.0, 1.0], [np.nan, 0.0]]), 0)
    with pytest.raises(ValueError, match="index"):
        sfar_row_statistics(sys, np.zeros((3, 2)), 2)
