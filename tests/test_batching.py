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

from riskpremia.moments import _decompose, _hc0_vff, _hc0_vqf_apply, robust_statistics, robust_tests
from riskpremia._linalg import chol_whiten, spd_project
from riskpremia.confsets import GridAxis, GridSpec, full_lambda_binding, pvalue_curve, row_binding, scan_pvalues
from riskpremia.kronecker import kps_factorize, kps_factorize_model, kps_residual_report
from riskpremia.montecarlo import DgpSpec, preset_dgp, simulate
from riskpremia.panels import FactorPanel, ReturnPanel
from riskpremia.pipeline import FIT_ERRORS, fit_model
from riskpremia.subset import (
    SubsetHypothesis,
    _normals,
    _pencil_roots,
    _projected_roots,
    boundedness_diagnostic,
    build_stacked,
    kp_rank,
    model_score_terms,
    sfar_column,
    sfar_column_statistics,
    sfar_distant,
    sfar_row,
    sfar_row_statistics,
)
from riskpremia.threestep import asymptotic_covariance, second_stage, third_stage, wald_statistics
from riskpremia.varstage import RankError, fit_var1

from oracles import build_moment_system, chol_solve, pencil_roots, vff_estimator, vqf_estimator, whitened
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
    common price of risk across a stack."""
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
        for j, (fit, sys) in enumerate(zip(fits, systems)):
            stacked = robust_statistics(sys, lams, mode)
            singles = [robust_tests(fit, lam, mode=mode) for lam in lams]
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
        columns = sfar_column_statistics(stack, values[:, None], index)
        for j, sys in enumerate(systems):
            singles = [sfar_row(SubsetHypothesis("row", index, v), sys) for v in values]
            assert_results(*_projected_roots(sys, normals), singles)
            assert_results(rows[:, j], row_roots[:, j], singles)
            assert_same(sfar_row_statistics(sys, values, index), rows[:, j])
            singles = [sfar_column(SubsetHypothesis("column", index, v), sys) for v in values]
            assert_same(columns[:, j], [res.statistic for res in singles])

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
            single = robust_tests(fit, lam, mode=mode)
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
            ms = build_moment_system(sys, lam, mode)
            far, klm = _decompose(*whitened(ms), sys.n_periods)
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
            far = robust_statistics(sys, rows, "kps", ("far",))["far"]
            assert abs(stat - ref) <= REF_RTOL * far
            # the subset statistic is the minimum of FAR over the other rows
            assert stat <= far * (1 + REF_RTOL)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 6),
    st.sampled_from([(), (3,)]),
    st.sampled_from([1.0, 1e4, 1e10]),
    st.integers(0, 2**32 - 1),
)
def test_bordered_factor_matches_cholesky_and_the_solve_oracle(n, m, lead, cond, seed):
    # random SPD V of condition ``cond`` at a random scale, one or a stack
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((*lead, n, n)))[0]
    eig = np.geomspace(1.0, 1.0 / cond, n) * 10.0 ** rng.uniform(-3.0, 3.0)
    v = (q * eig) @ q.swapaxes(-1, -2)
    x = rng.standard_normal((*lead, n, m))
    low, white = chol_whiten(v, x)
    assert not np.isnan(white).any()

    def assert_close(got, ref, rtol):
        np.testing.assert_allclose(got, ref, rtol=0, atol=rtol * np.abs(ref).max())

    # two Cholesky routines differ by a forward error that grows like
    # eps sqrt(cond), and L^-1 X amplifies it by up to sqrt(cond) again
    ref_low, ref_white = chol_solve(v, x)
    assert_close(low, ref_low, 1e-12 * max(1.0, np.sqrt(cond / 1e4)))
    assert_close(white, np.linalg.solve(low, x), 1e-12)
    if cond <= 1e4:
        assert_close(white, ref_white, 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([1.0, 1e-3, 1e-6]),
    st.sampled_from([1, 3]),
    st.integers(0, 2**32 - 1),
)
def test_fit_factors_and_compressed_roots_match_the_oracles(k, extra, beta_scale, r, seed):
    # N = K+1 when extra = 1; beta_scale 1e-6 leaves beta nearly unspanned
    n = k + extra
    panels = fits_of_one_shape(seed, k, n, r, beta_scale)[1]
    sys = fit_stages(*(stack_panels(panels) if r > 1 else panels[0]))[2]
    white = chol_solve(sys.sigma_hat, sys.phi_hat)[1]
    ref_h = white.swapaxes(-1, -2) @ white
    np.testing.assert_allclose(sys.h_hat, ref_h, rtol=0, atol=1e-12 * np.abs(ref_h).max())
    ref_low, ref_inv = chol_solve(sys.psi_hat, np.eye(2 * k))
    np.testing.assert_allclose(sys.psi_chol, ref_low, rtol=0, atol=1e-12 * np.abs(ref_low).max())
    np.testing.assert_allclose(sys.psi_whitener, ref_inv, rtol=0, atol=1e-12 * np.abs(ref_inv).max())

    rng = np.random.default_rng(seed)
    norm = np.linalg.eigvalsh(sys.h_whitened)[..., -1:]
    for cols in range(1, k + 1):
        q = rng.standard_normal((5, *sys.batch_shape, 2 * k, cols))
        got = _pencil_roots(sys, q)
        ref = pencil_roots(sys.h_whitened, np.linalg.qr(q)[0])
        assert got.shape == ref.shape == (5, *sys.batch_shape, 2 * k - cols)
        assert np.all(np.abs(got - ref) <= REF_RTOL * norm)


def test_no_solve_against_a_triangular_factor(monkeypatch):
    solve = np.linalg.solve
    seen = []

    def recording(a, b):
        triangular = not np.triu(a, 1).any() or not np.tril(a, -1).any()
        seen.append(triangular)
        return solve(a, b)

    fits, panels, lam1, _ = fits_of_one_shape(61, 2, 5, 3)
    fit = fit_model(*stack_panels(panels))
    monkeypatch.setattr(np.linalg, "solve", recording)
    fit.stacked.h_hat, fit.stacked.psi_whitener
    grid = GridSpec(
        (GridAxis(lam1[0, 0] - 0.5, lam1[0, 0] + 0.5, 4), GridAxis(lam1[1, 1] - 0.5, lam1[1, 1] + 0.5, 4)),
        full_lambda_binding(2, base=lam1.reshape(-1, order="F"), vary=(0, 3)),
    )
    pvalue_curve("far", grid, fits[0], mode="hc0")
    assert not any(seen)


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
    if len({f.por is None for f in singles}) > 1:
        with pytest.raises(ValueError, match="price of risk for every fit or for none"):
            fit_model(*panels)
        return
    stack = fit_model(*panels)
    assert stack.stacked.batch_shape == (r,)
    assert stack.cov_mode == "kps"
    for j, fit in enumerate(singles):
        for name in ("phi_hat", "psi_hat", "sigma_hat"):
            assert_close(getattr(stack.stacked, name)[j], getattr(fit.stacked, name))
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

    fact = kps_factorize_model(q_xx, sigma_v, s2, beta)
    diag = kps_residual_report(fact)
    for j in range(r):
        one = kps_factorize_model(q_xx[j], sigma_v[j], s2[j], beta[j])
        for name in ("omega", "sigma", "spectrum", "residual_rel"):
            assert_close(getattr(fact, name)[j], getattr(one, name))
        assert fact.normalization == one.normalization
        for name in ("residual_rel", "singular_ratio"):
            assert_close(getattr(diag, name)[j], getattr(kps_residual_report(one), name))
        # the dense factorization of the two model terms of fit j is the oracle
        terms = model_score_terms(q_xx[j], sigma_v[j], s2[j], beta[j])
        dense = kps_factorize(sum(np.kron(a, b) for a, b in terms), 2 * k, n)
        ref = np.kron(dense.omega, dense.sigma)
        assert np.linalg.norm(np.kron(one.omega, one.sigma) - ref) <= 1e-12 * np.linalg.norm(ref)


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


def test_single_fit_entry_points_reject_a_stack():
    spec = preset_dgp("strong", k=2, n=6, t=300)
    stack = fit_model(*simulate(spec, 0, range(3)))
    sys = stack.stacked
    row = SubsetHypothesis("row", 0, spec.lambda1[0])
    calls = {
        "sfar_row": lambda: sfar_row(row, sys),
        "sfar_distant": lambda: sfar_distant(np.array([1.0, 0.0]), sys),
        "sfar_column": lambda: sfar_column(SubsetHypothesis("column", 0, spec.lambda1[:, 0]), sys),
        "kp_rank": lambda: kp_rank(sys),
        "boundedness_diagnostic": lambda: boundedness_diagnostic(sys),
        "robust_tests": lambda: robust_tests(stack, spec.lambda1),
        "ModelFit.wald": lambda: stack.wald(spec.lambda1),
    }
    for name, call in calls.items():
        with pytest.raises(TypeError, match=f"^{name} takes one fit, got a stack of 3$"):
            call()
    # the stacked kernel gives each fit its own value: fit 1's, not fit 0's
    stats = sfar_row_statistics(sys, row.value, row.index)
    assert_close(sfar_row(row, fit_model(*simulate(spec, 0, 1)).stacked).statistic, stats[1])
    assert not np.isclose(stats[0], stats[1])
