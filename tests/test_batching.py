"""A stack of B hypotheses equals B single-hypothesis calls.

Grid scans push stacks of hypotheses through the same kernels that evaluate
one hypothesis (a stack of one), so every statistic must come out the same
either way.  The Monte Carlo runner also stacks R fitted systems, with the
hypotheses in front of the system axis, so an (R systems x B hypotheses)
pass must equal R x B single calls.  Bitwise equality is expected for
hypothesis stacks; the assertions allow 1e-12 relative, the agreement the
scans rely on.
"""

import dataclasses

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
from riskpremia.confsets import full_lambda_binding, row_binding, scan_pvalues
from riskpremia.pipeline import FIT_ERRORS, fit_model, stack_fits
from riskpremia.subset import (
    SubsetHypothesis,
    _projected_roots,
    _row_normals,
    far_trace,
    sfar_distant,
    sfar_row,
    sfar_row_statistics,
    stack_systems,
)
from riskpremia.threestep import wald_statistics

from test_subset import _pencil_by_permutation_matrix, restriction_matrix
from test_threestep import default_params, make_dataset

RTOL = 1e-12


def assert_same(stacked, singles):
    singles = np.asarray(singles)
    scale = max(np.abs(singles).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(stacked, singles, rtol=RTOL, atol=RTOL * scale)


def fits_of_one_shape(seed, k, n, r, beta_scale=1.0, t=90):
    """R fits of one (K, N, T), each on its own draw, the last factor's
    loadings scaled by ``beta_scale``."""
    rng = np.random.default_rng(seed)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=k, n=n)
    beta[:, -1] *= beta_scale
    fits = [fit_model(*make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, t)) for _ in range(r)]
    return fits, lam1, rng


def assert_results(stats, roots, singles):
    assert_same(stats, [res.statistic for res in singles])
    assert_same(roots, [res.roots for res in singles])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1.0, 1e-3, 1e-6]),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_stacked_hypotheses_equal_single_calls(k, extra, beta_scale, r, b, seed):
    # N = K+1 when extra = 1; beta_scale shrinks the last factor's loadings
    # towards zero (near-singular beta).  B hypotheses go through each of R
    # fits on its own and through the stack of the R fits, placed in front of
    # its replicate axis (B, 1, ...); both equal R x B single calls
    fits, lam1, rng = fits_of_one_shape(seed, k, k + extra, r, beta_scale)
    systems = [fit.stacked for fit in fits]
    stack = stack_systems(systems)
    lams = lam1 + 0.5 * rng.standard_normal((b, k, k))

    for mode in ("kps", "hc0"):
        on_stack = robust_statistics(stack, lams[:, None], mode)
        for j, sys in enumerate(systems):
            stacked = robust_statistics(sys, lams, mode)
            singles = [robust_tests(sys, lam, mode=mode) for lam in lams]
            for name in ("far", "klm", "jklm"):
                assert_same(stacked[name], [res[name].statistic for res in singles])
                assert_same(on_stack[name][:, j], stacked[name])
            far_only = robust_statistics(sys, lams, mode, ("far",))
            assert_same(far_only["far"], stacked["far"])

    with_por = [fit for fit in fits if fit.por is not None]
    if with_por:
        por_stack = stack_fits(with_por)
        on_stack = wald_statistics(por_stack.por, por_stack.asymptotic_cov, lams[:, None], por_stack.n_periods)
        for j, fit in enumerate(with_por):
            stacked = wald_statistics(fit.por, fit.asymptotic_cov, lams, fit.n_periods)
            assert_same(stacked, [fit.wald(lam).statistic for lam in lams])
            assert_same(on_stack[:, j], stacked)

    values = lams[:, 0, :] * 3.0
    directions = rng.standard_normal((b, k))
    distant = np.hstack([directions, np.zeros_like(directions)])
    for index in range(k):
        normals = _row_normals(values, index)
        rows, row_roots = _projected_roots(stack, normals[:, None])
        limits, limit_roots = _projected_roots(stack, distant[:, None])
        assert_same(sfar_row_statistics(stack, values[:, None], index), rows)
        for j, sys in enumerate(systems):
            singles = [sfar_row(SubsetHypothesis("row", index, v), sys) for v in values]
            assert_results(*_projected_roots(sys, normals), singles)
            assert_results(rows[:, j], row_roots[:, j], singles)
            assert_same(sfar_row_statistics(sys, values, index), rows[:, j])

            singles = [sfar_distant(d, sys, index=index) for d in directions]
            assert_results(*_projected_roots(sys, distant), singles)
            assert_results(limits[:, j], limit_roots[:, j], singles)


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


def test_one_failing_system_fails_alone():
    # fit 1 cannot be evaluated: its KPS residual factor is not positive
    # definite (robust tests under kps, sFAR), its Sigma_v block is singular
    # (hc0 scores) and so is its VAR innovation covariance (Wald setup)
    fits, lam1, rng = fits_of_one_shape(7, 2, 5, 4)
    bad = fits[1]
    k = 2
    w_hat = bad.stacked.w_hat.copy()
    w_hat[k:, k:] = 0.0
    fits[1] = dataclasses.replace(
        bad,
        var=dataclasses.replace(bad.var, sigma_v=np.zeros((k, k))),
        stacked=dataclasses.replace(bad.stacked, sigma_hat=-np.eye(5), w_hat=w_hat),
    )
    lams = lam1 + 0.3 * rng.standard_normal((3, k, k))
    params = lams.swapaxes(-1, -2).reshape(3, -1)
    full = full_lambda_binding(k)
    cases = [(("far", "klm", "jklm"), full, params, "kps"), (("far", "klm", "jklm"), full, params, "hc0"),
             (("wald",), full, params, None), (("sfar",), row_binding(k, 1), lams[:, 1] * 2.0, None)]
    stack = stack_fits(fits)
    for tests, binding, points, mode in cases:
        pvalues, failures = scan_pvalues(tests, stack, binding, points, mode)
        assert pvalues.shape == (len(tests), 4, 3)
        for j, fit in enumerate(fits):
            if j != 1:
                single, none = scan_pvalues(tests, fit, binding, points, mode)
                assert none == ()
                assert_same(pvalues[:, j], single)
        # the failing fit on its own: a failed setup (Wald) or every point
        try:
            single, alone = scan_pvalues(tests, fits[1], binding, points, mode)
        except FIT_ERRORS as exc:
            alone = [(i, exc) for i in range(3)]
        assert np.isnan(pvalues[:, 1]).all()
        assert len(alone) == 3
        assert [(idx, type(exc)) for idx, exc in failures] == [((1, i), type(exc)) for i, exc in alone]


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
