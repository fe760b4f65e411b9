"""A stack of B hypotheses equals B single-hypothesis calls, and a block of
R replicates equals R single replicates.

Grid scans push stacks of hypotheses through the same kernels that evaluate
one hypothesis (a stack of one), so every statistic must come out the same
either way.  The Monte Carlo runner also simulates and fits a block of R
replicates as one stack, with the hypotheses in front of the replicate axis,
so the block's draws must equal R single draws bit for bit, its fit R single
fits, and an (R systems x B hypotheses) pass R x B single calls.  Bitwise
equality is expected for hypothesis stacks; the assertions allow 1e-12
relative, the agreement the scans rely on.
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
from riskpremia._linalg import spd_project
from riskpremia.confsets import full_lambda_binding, row_binding, scan_pvalues
from riskpremia.kronecker import kps_factorize_terms, kps_residual_report
from riskpremia.montecarlo import DgpSpec, simulate
from riskpremia.panels import FactorPanel, ReturnPanel
from riskpremia.pipeline import FIT_ERRORS, fit_model
from riskpremia.subset import (
    SubsetHypothesis,
    _normals,
    _projected_roots,
    build_stacked,
    far_trace,
    sfar_distant,
    sfar_row,
    sfar_row_statistics,
)
from riskpremia.threestep import asymptotic_covariance, second_stage, third_stage, wald_statistics
from riskpremia.varstage import RankError, fit_var1

from test_subset import _pencil_by_permutation_matrix, restriction_matrix
from test_threestep import default_params, make_dataset

RTOL = 1e-12


def assert_same(stacked, singles):
    singles = np.asarray(singles)
    scale = max(np.abs(singles).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(stacked, singles, rtol=RTOL, atol=RTOL * scale)


def stack_panels(panels):
    """One (returns, factors) pair whose arrays stack those of ``panels``."""
    returns, factors = panels[0]
    return (
        ReturnPanel(returns.maturities_held, np.stack([r.returns for r, _ in panels]), returns.dates),
        FactorPanel(np.stack([f.factors for _, f in panels]), factors.labels),
    )


def fit_stages(returns, factors):
    """The VAR, second stage and system of ``fit_model``, which need no
    common covariance mode or price of risk across a stack."""
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    return var, reg, build_stacked(returns, factors, var, reg)


def fits_of_one_shape(seed, k, n, r, beta_scale=1.0, t=90):
    """R fits of one (K, N, T), each on its own draw, the last factor's
    loadings scaled by ``beta_scale``, and the panels of those draws."""
    rng = np.random.default_rng(seed)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=k, n=n)
    beta[:, -1] *= beta_scale
    panels = [make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, t) for _ in range(r)]
    return [fit_model(*p) for p in panels], panels, lam1, rng


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
    # fits on its own and through the system fitted on the stack of the R
    # panels, placed in front of its replicate axis (B, 1, ...); both equal
    # R x B single calls
    fits, panels, lam1, rng = fits_of_one_shape(seed, k, k + extra, r, beta_scale)
    systems = [fit.stacked for fit in fits]
    stack = fit_stages(*stack_panels(panels))[2]
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

    with_por = [j for j, fit in enumerate(fits) if fit.por is not None]
    if with_por:
        var, reg, sys = fit_stages(*stack_panels([panels[j] for j in with_por]))
        por = third_stage(reg, var)
        cov = asymptotic_covariance(var, reg, por, sys.q_xx)
        on_stack = wald_statistics(por, cov, lams[:, None], sys.n_periods)
        for j, fit in enumerate(fits[j] for j in with_por):
            stacked = wald_statistics(fit.por, fit.asymptotic_cov, lams, fit.n_periods)
            assert_same(stacked, [fit.wald(lam).statistic for lam in lams])
            assert_same(on_stack[:, j], stacked)

    values = lams[:, 0, :] * 3.0
    directions = rng.standard_normal((b, k))
    distant = np.hstack([directions, np.zeros_like(directions)])
    for index in range(k):
        normals = _normals(stack, values, index)
        rows, row_roots = _projected_roots(stack, normals[:, None])
        assert_same(sfar_row_statistics(stack, values[:, None], index), rows)
        for j, sys in enumerate(systems):
            singles = [sfar_row(SubsetHypothesis("row", index, v), sys) for v in values]
            assert_results(*_projected_roots(sys, normals), singles)
            assert_results(rows[:, j], row_roots[:, j], singles)
            assert_same(sfar_row_statistics(sys, values, index), rows[:, j])

    limits, limit_roots = _projected_roots(stack, distant[:, None])
    for j, sys in enumerate(systems):
        singles = [sfar_distant(d, sys) for d in directions]
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
    fits, panels, lam1, rng = fits_of_one_shape(7, 2, 5, 4)
    k = 2

    def break_fit(fit, index):
        w_hat, sigma_v, sigma_hat = (a.copy() for a in (fit.stacked.w_hat, fit.var.sigma_v, fit.stacked.sigma_hat))
        w_hat[index][k:, k:] = 0.0
        sigma_v[index] = 0.0
        sigma_hat[index] = -np.eye(5)
        return dataclasses.replace(
            fit,
            var=dataclasses.replace(fit.var, sigma_v=sigma_v),
            stacked=dataclasses.replace(fit.stacked, sigma_hat=sigma_hat, w_hat=w_hat),
        )

    fits[1] = break_fit(fits[1], ...)
    stack = break_fit(fit_model(*stack_panels(panels)), 1)
    others = fit_model(*stack_panels([panels[j] for j in (0, 2, 3)]))
    stack_of_one = break_fit(fit_model(*stack_panels(panels[1:2])), 0)
    lams = lam1 + 0.3 * rng.standard_normal((3, k, k))
    params = lams.swapaxes(-1, -2).reshape(3, -1)
    full = full_lambda_binding(k)
    cases = [(("far", "klm", "jklm"), full, params, "kps"), (("far", "klm", "jklm"), full, params, "hc0"),
             (("wald",), full, params, None), (("sfar",), row_binding(k, 1), lams[:, 1] * 2.0, None)]
    for tests, binding, points, mode in cases:
        # a stack of several fits does not tell its fits apart: it raises
        with pytest.raises(FIT_ERRORS):
            scan_pvalues(tests, stack, binding, points, mode)
        pvalues, none = scan_pvalues(tests, others, binding, points, mode)
        assert none == ()
        assert pvalues.shape == (len(tests), 3, 3)
        for j, fit in enumerate(fits[j] for j in (0, 2, 3)):
            single, none = scan_pvalues(tests, fit, binding, points, mode)
            assert none == ()
            assert_same(pvalues[:, j], single)
        # the failing fit on its own, as a stack of one or not: a failed setup
        # (Wald) or every point
        failed = []
        for fit, shape in ((fits[1], (len(tests), 3)), (stack_of_one, (len(tests), 1, 3))):
            try:
                pvalues, alone = scan_pvalues(tests, fit, binding, points, mode)
                assert pvalues.shape == shape and np.isnan(pvalues).all()
            except FIT_ERRORS as exc:
                alone = [(i, exc) for i in range(3)]
            assert len(alone) == 3
            failed.append([(idx, type(exc)) for idx, exc in alone])
        assert failed[0] == failed[1]


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


def random_spec(rng, k, n, beta_scale, t):
    """A stationary DGP with random loadings, the last column scaled by
    ``beta_scale``."""
    beta = rng.uniform(0.5, 1.5, (n, k)) * np.sign(rng.standard_normal((n, k)))
    beta[:, -1] *= beta_scale
    root = rng.standard_normal((k, k))
    return DgpSpec(
        c=rng.standard_normal(n), beta=beta, lambda1=0.3 * rng.standard_normal((k, k)),
        mu=0.1 * rng.standard_normal(k), phi1=0.5 * np.eye(k) + 0.05 * rng.standard_normal((k, k)),
        sigma_v=root @ root.T + 0.5 * np.eye(k), sigma_e2=0.5, t=t,
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1.0, 1e-6]),
    st.integers(1, 6),
    st.sampled_from(["stationary", "burnin"]),
    st.integers(0, 2**32 - 1),
)
def test_block_simulate_equals_single_replicates(k, extra, beta_scale, r, init, seed):
    spec = random_spec(np.random.default_rng(seed), k, k + extra, beta_scale, 40)
    start = seed % 50
    returns, factors = simulate(spec, seed % 1000, range(start, start + r), init=init)
    assert returns.returns.shape == (r, k + extra, 40) and factors.factors.shape == (r, k, 41)
    for j in range(r):
        one_r, one_f = simulate(spec, seed % 1000, start + j, init=init)
        assert np.array_equal(returns.returns[j], one_r.returns)
        assert np.array_equal(factors.factors[j], one_f.factors)


def assert_close(stacked, single):
    scale = max(np.abs(single).max(), np.finfo(float).tiny)
    assert np.abs(stacked - single).max() <= RTOL * scale


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1.0, 1e-6]),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_stacked_fit_equals_single_fits(k, extra, beta_scale, r, seed):
    # N = K+1 when extra = 1; beta_scale shrinks the last factor's loadings
    spec = random_spec(np.random.default_rng(seed), k, k + extra, beta_scale, 80)
    singles = []
    for rep in range(r):
        try:
            singles.append(fit_model(*simulate(spec, seed % 1000, rep)))
        except FIT_ERRORS as exc:
            singles.append(exc)
    panels = simulate(spec, seed % 1000, range(r))
    failed = [type(f) for f in singles if isinstance(f, Exception)]
    if failed:
        # one failing fit fails the stack with its error
        with pytest.raises(tuple(failed)):
            fit_model(*panels)
        return
    if len({f.cov_mode for f in singles}) > 1 or len({f.por is None for f in singles}) > 1:
        with pytest.raises(ValueError, match="stack of fits"):
            fit_model(*panels)
        return
    stack = fit_model(*panels)
    assert stack.stacked.batch_shape == (r,)
    assert isinstance(stack.cov_mode, str) and stack.cov_mode == singles[0].cov_mode
    for j, fit in enumerate(singles):
        for name in ("phi_hat", "psi_hat", "sigma_hat"):
            assert_close(getattr(stack.stacked, name)[j], getattr(fit.stacked, name))
        for name in ("residual_rel", "singular_ratio"):
            assert_close(getattr(stack.kps_diag, name)[j], getattr(fit.kps_diag, name))
        assert stack.kps_diag.passed[j] == fit.kps_diag.passed
        if fit.por is None:
            assert stack.por is None
        else:
            assert_close(stack.por.lambda0[j], fit.por.lambda0)
            assert_close(stack.por.lambda1[j], fit.por.lambda1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_stacked_spd_projection_and_kps_terms_equal_single_calls(k, n, r, seed):
    rng = np.random.default_rng(seed)
    # symmetric matrices with a negative eigenvalue or two, clipped per matrix
    raw = rng.standard_normal((r, n, n))
    mats = raw @ raw.swapaxes(-1, -2) - rng.uniform(0.0, 2.0, (r, 1, 1)) * np.eye(n)
    projected = spd_project(mats)
    for j in range(r):
        assert_close(projected[j], spd_project(mats[j]))

    q = rng.standard_normal((r, k, k))
    q_xx = q @ q.swapaxes(-1, -2) + np.eye(k)
    sigma_v = q.swapaxes(-1, -2) @ q + np.eye(k)
    beta = rng.standard_normal((r, n, k))
    s2 = rng.uniform(0.1, 2.0, r)

    def terms(j):
        """The two Kronecker terms of the model score covariance of fit j."""
        return [
            (np.pad(q_xx[j], ((0, k), (0, k))), s2[j] * np.eye(n) + beta[j] @ sigma_v[j] @ beta[j].T),
            (np.pad(sigma_v[j], ((k, 0), (k, 0))), s2[j] * np.eye(n)),
        ]

    stacked_terms = [tuple(np.stack(parts) for parts in zip(*pair)) for pair in zip(*(terms(j) for j in range(r)))]
    fact = kps_factorize_terms(stacked_terms)
    diag = kps_residual_report(fact)
    for j in range(r):
        one = kps_factorize_terms(terms(j))
        for name in ("omega", "sigma", "spectrum", "residual_rel"):
            assert_close(getattr(fact, name)[j], getattr(one, name))
        assert fact.normalization[j] == one.normalization
        assert diag.passed[j] == kps_residual_report(one).passed


def test_a_stack_has_a_price_of_risk_for_every_fit_or_none():
    fits, panels, _, _ = fits_of_one_shape(5, 2, 5, 3)
    var, reg, _ = fit_stages(*stack_panels(panels))
    por = third_stage(reg, var)
    for j, fit in enumerate(fits):
        assert_close(por.lambda1[j], fit.por.lambda1)
    # unspanned loadings in one fit split the stack; in every fit, none has one
    beta = reg.beta_hat.copy()
    beta[1, :, -1] = 0.0
    with pytest.raises(ValueError, match="every fit or for none"):
        third_stage(dataclasses.replace(reg, beta_hat=beta), var)
    beta[:, :, -1] = 0.0
    with pytest.raises(RankError, match="unspanned"):
        third_stage(dataclasses.replace(reg, beta_hat=beta), var)
