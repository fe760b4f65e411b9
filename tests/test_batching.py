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

from riskpremia.moments import (
    _decompose,
    _hc0_vff,
    _hc0_vqf_apply,
    build_moment_system,
    robust_statistics,
    robust_tests,
    vff_estimator,
    vqf_estimator,
)
from riskpremia.pipeline import fit_model
from riskpremia.subset import (
    SubsetHypothesis,
    _projected_roots,
    _row_normals,
    far_trace,
    sfar_distant,
    sfar_row,
    sfar_row_statistics,
)
from riskpremia.threestep import wald_statistics

from test_subset import _pencil_by_permutation_matrix, restriction_matrix
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
        stats, roots = _projected_roots(sys, _row_normals(values, index))
        assert_same(stats, [res.statistic for res in singles])
        assert_same(roots, [res.roots for res in singles])
        assert_same(sfar_row_statistics(sys, values, index), stats)

        singles = [sfar_distant(d, sys, index=index) for d in directions]
        stats, roots = _projected_roots(sys, np.hstack([directions, np.zeros_like(directions)]))
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


#: agreement of the per-fit kernels with the dense and pencil references,
#: relative to FAR (or to the largest entry of a variance block)
REF_RTOL = 1e-10


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([1.0, 1e-3, 1e-6]),
    st.integers(0, 2**32 - 1),
)
def test_per_fit_kernels_match_the_dense_and_pencil_references(k, extra, beta_scale, seed):
    # N = K+1 when extra = 1; beta_scale shrinks the last factor's loadings
    n = k + extra
    rng = np.random.default_rng(seed)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=k, n=n)
    beta[:, -1] *= beta_scale
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 90)
    sys = fit_model(returns, factors).stacked
    lams = lam1 + 0.5 * rng.standard_normal((3, k, k))

    for mode in ("kps", "hc0"):
        stats = robust_statistics(sys, lams, mode)
        for i, lam in enumerate(lams):
            far, klm = _decompose(build_moment_system(sys, lam, mode))
            assert abs(stats["far"][i] - far) <= REF_RTOL * far
            assert abs(stats["klm"][i] - klm) <= REF_RTOL * far
            assert abs(stats["klm"][i] + stats["jklm"][i] - stats["far"][i]) <= REF_RTOL * far

    m = sys.q_xx @ lams.swapaxes(-1, -2)
    vff, vqf = _hc0_vff(sys, m), _hc0_vqf_apply(sys, m, np.eye(n * k))
    for i, lam in enumerate(lams):
        ref = vff_estimator(sys, lam, "hc0")
        assert np.abs(vff[i] - ref).max() <= REF_RTOL * np.abs(ref).max()
        ref = vqf_estimator(sys, lam, "hc0")
        assert np.abs(vqf[i] - ref).max() <= REF_RTOL * np.abs(ref).max()

    values = lams[:, 0, :] * 3.0
    for index in range(k):
        for value, lam in zip(values, lams):
            stat = sfar_row(SubsetHypothesis("row", index, value), sys).statistic
            ref, _ = _pencil_by_permutation_matrix(sys, index, restriction_matrix(value))
            rows = lam.copy()
            rows[index] = value
            far = far_trace(sys, rows)
            assert abs(stat - ref) <= REF_RTOL * far
            # the subset statistic is the minimum of FAR over the other rows
            assert stat <= far * (1 + REF_RTOL)

    direction = rng.standard_normal(k)
    limits = {sfar_distant(direction, sys, index=i).statistic for i in range(k)}
    assert len(limits) == 1
