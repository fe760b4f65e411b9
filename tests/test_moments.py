import dataclasses
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpremia import _linalg, moments
from riskpremia._linalg import NumericalError, chol_bordered, vec
from riskpremia.moments import _decompose, moment_vector, robust_statistics, robust_tests
from riskpremia.montecarlo import preset_dgp, simulate
from riskpremia.panels import ReturnPanel
from riskpremia.pipeline import fit_model
from riskpremia.subset import StackedSystem, build_stacked
from riskpremia.threestep import second_stage
from riskpremia.varstage import fit_var1

import oracles
from oracles import build_moment_system, demean, vff_estimator, vqf_estimator
from test_subset import fitted_data, fitted_model, fitted_system, preset_system, synthetic_system
from test_threestep import default_params, make_dataset


# -- moment vector ----------------------------------------------------------------


def test_moment_vector_matches_double_loop_oracle():
    sys, lam1, rbar = fitted_data(k=2, n=3, t=8, seed=40)
    lam0 = lam1 + 0.1
    f = moment_vector(sys, lam0)
    k, n, t = 2, 3, 8
    oracle = np.zeros(n * k)
    u = rbar - sys.beta_hat @ sys.vhat
    for s in range(t):
        oracle += np.kron(sys.xbar_lagged[:, s], u[:, s]) / t
    oracle -= np.kron(sys.q_xx, sys.beta_hat) @ lam0.reshape(-1, order="F")
    assert np.allclose(f, oracle, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), st.integers(k + 1, 20))),
    st.sampled_from(["strong", "weak", "unspanned"]),
    st.sampled_from([0, 3]),
    st.integers(0, 1000),
)
def test_moment_vector_matches_the_panel_oracle_over_random_shapes(shape, kind, reps, seed):
    # a single fit (reps = 0) or a stack of three, at a stack of two hypotheses
    k, n = shape
    sys, spec, rbar, _ = preset_system(k, n, kind, seed, range(reps) if reps else 0)
    hyps = spec.lambda1 + 0.1 * np.random.default_rng(seed).standard_normal((2, 1, k, k))
    f = moment_vector(sys, hyps if reps else hyps[:, 0])
    assert f.shape == (2, *sys.batch_shape, n * k)
    t = sys.n_periods
    for j in np.ndindex(sys.batch_shape):
        u = rbar[j] - sys.beta_hat[j] @ sys.vhat[j]
        for h in range(2):
            oracle = -np.kron(sys.q_xx[j], sys.beta_hat[j]) @ hyps[h, 0].reshape(-1, order="F")
            for s in range(t):
                oracle += np.kron(sys.xbar_lagged[j][:, s], u[:, s]) / t
            got = f[(h, *j)]
            assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_moment_vector_zero_on_noiseless_fit():
    rng = np.random.default_rng(41)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=5)
    _, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 60)
    var = fit_var1(factors)
    r = beta @ (lam1 @ factors.factors[:, :-1] + var.residuals)
    returns = ReturnPanel(tuple(range(5)), r, tuple(f"t{i}" for i in range(60)))
    sys = build_stacked(returns, factors, var, second_stage(returns, factors, var))
    f = moment_vector(sys, lam1)
    assert np.abs(f).max() < 1e-12 * max(1.0, np.abs(demean(returns).returns).max())


def test_moment_vector_regression_identity():
    sys, lam1 = fitted_system(k=2, n=5, t=90, seed=42)
    f = moment_vector(sys, lam1)
    ident = np.kron(sys.q_xx, np.eye(5)) @ vec(sys.d_hat - sys.beta_hat @ lam1)
    assert np.allclose(f, ident, rtol=1e-10, atol=1e-14)


def test_moment_vector_least_squares_geometry():
    sys, _, rbar = fitted_data(k=2, n=4, t=70, seed=43)
    u = rbar - sys.beta_hat @ sys.vhat
    raw = vec(u @ sys.xbar_lagged.T / sys.n_periods)
    design = np.kron(sys.q_xx, sys.beta_hat)
    lam_ols = np.linalg.pinv(design) @ raw
    f = moment_vector(sys, lam_ols.reshape(2, 2, order="F"))
    assert np.abs(design.T @ f).max() < 1e-10 * np.abs(raw).max()


# -- variance estimators ------------------------------------------------------------


def test_vff_kps_identity_case():
    rng = np.random.default_rng(44)
    sys = synthetic_system(rng, k=2, n=3)
    sys = dataclasses.replace(sys, psi_hat=np.eye(4), sigma_pair=np.array([1.0, 0.0]), q_xx=np.eye(2))
    v = vff_estimator(sys, np.zeros((2, 2)), mode="kps")
    assert np.allclose(v, np.eye(6))


def test_vff_hc0_matches_explicit_loop():
    sys, lam1 = fitted_system(k=1, n=2, t=25, seed=45)
    v = vff_estimator(sys, lam1, mode="hc0")
    t = 25
    sig_v = sys.sigma_v
    oracle = np.zeros((2, 2))
    for s in range(t):
        m_t = np.kron(
            sys.xbar_lagged[:, s],
            sys.residuals[:, s] + sys.beta_hat @ sys.vhat[:, s],
        ) - np.kron(
            sys.q_xx @ lam1.T @ np.linalg.solve(sig_v, sys.vhat[:, s]),
            sys.residuals[:, s],
        )
        oracle += np.outer(m_t, m_t) / t
    assert np.allclose(v, oracle, rtol=1e-10)


def test_vff_modes_agree_on_near_kps_dgp():
    # low signal-to-noise keeps the population score covariance near Kronecker
    rng = np.random.default_rng(46)
    beta = 0.05 * rng.uniform(0.5, 1.5, (4, 1))
    lam1 = np.array([[0.3]])
    returns, factors = make_dataset(
        rng, beta, np.array([0.1]), lam1, np.array([0.05]), np.array([[0.4]]),
        np.array([[1.0]]), 1.0, 10_000,
    )
    var = fit_var1(factors)
    sys = build_stacked(returns, factors, var, second_stage(returns, factors, var))
    v_kps = vff_estimator(sys, lam1, mode="kps")
    v_hc0 = vff_estimator(sys, lam1, mode="hc0")
    rel = np.linalg.norm(v_kps - v_hc0) / np.linalg.norm(v_hc0)
    assert rel < 0.10


def test_vqf_kps_close_to_hc0_reference_on_near_kps_dgp():
    rng = np.random.default_rng(47)
    beta = 0.05 * rng.uniform(0.5, 1.5, (3, 1))
    lam1 = np.array([[0.2]])
    returns, factors = make_dataset(
        rng, beta, np.array([0.0]), lam1, np.array([0.0]), np.array([[0.5]]),
        np.array([[1.0]]), 1.0, 10_000,
    )
    var = fit_var1(factors)
    sys = build_stacked(returns, factors, var, second_stage(returns, factors, var))
    v_kps = vqf_estimator(sys, lam1, mode="kps")
    v_hc0 = vqf_estimator(sys, lam1, mode="hc0")
    denom = np.linalg.norm(v_hc0)
    assert np.linalg.norm(v_kps - v_hc0) / denom < 0.15


def kron_map_right(q, m_shape):
    """Matrix G with vec(q kron M) = G vec(M), built one unit matrix at a time."""
    n, k = m_shape
    cols = []
    for j in range(n * k):
        basis = np.zeros((n, k))
        basis[j % n, j // n] = 1.0  # column-major unit matrix
        cols.append(vec(np.kron(q, basis)))
    return np.column_stack(cols)


@pytest.mark.parametrize("k,n", [(3, 10), (1, 11), (2, 6), (5, 20)])
def test_vqf_matches_loop_built_kronecker_oracle(k, n):
    sys, lam1 = fitted_system(k=k, n=n, t=80, seed=47)
    lam0 = lam1 + 0.1
    g_q = kron_map_right(sys.q_xx, (n, k))

    psi_vx = sys.psi_hat[k:, :k]
    cov_bf = np.kron((psi_vx - sys.psi_hat[k:, k:] @ lam0) @ sys.q_xx, oracles.dense_sigma(sys))
    np.testing.assert_allclose(vqf_estimator(sys, lam0, "kps"), -g_q @ cov_bf, rtol=1e-15, atol=0)

    t = sys.n_periods
    sv = np.linalg.solve(sys.sigma_v, sys.vhat)
    psi_q = np.empty((t, k**3 * n))
    for s in range(t):
        b_s = np.outer(sys.residuals[:, s], sv[:, s])
        x_s = np.outer(sys.xbar_lagged[:, s], sys.xbar_lagged[:, s]) - sys.q_xx
        psi_q[s] = -(g_q @ vec(b_s) + vec(np.kron(x_s, sys.beta_hat)))
    oracle = psi_q.T @ oracles._hc0_scores(sys, lam0) / t
    np.testing.assert_allclose(vqf_estimator(sys, lam0, "hc0"), oracle, rtol=1e-15, atol=0)


@pytest.mark.parametrize("k, n, t, reps", [(1, 11, 300, 0), (2, 6, 120, 3), (3, 10, 80, 0), (5, 20, 300, 0)])
def test_hc0_psi_q_grams_equal_the_per_period_product(k, n, t, reps):
    # the orthogonalized Jacobian from the moments of B_t and X_t against one
    # vector equals the T x NK^3 Jacobian scores' product with S g / T, the
    # scores S at Lambda1 and g = V_ff^-1 f
    spec = preset_dgp("strong", k=k, n=n, t=t)
    returns, factors = simulate(spec, 11, range(reps) if reps else 0)
    sys = fit_model(returns, factors).stacked
    lam = spec.lambda1 + 0.1
    m = sys.q_xx @ lam.T
    parts = sys.hc0_parts
    scores = parts[..., : n * k] - parts[..., n * k :] @ _linalg.kron(m, np.eye(n)).swapaxes(-1, -2)
    vff = scores.swapaxes(-1, -2) @ scores / t
    g = np.linalg.solve(vff, moment_vector(sys, lam)[..., None])
    shift = (oracles.hc0_psi_q(sys).swapaxes(-1, -2) @ (scores @ g))[..., 0] / t
    ref = -_linalg.kron(sys.q_xx, sys.beta_hat) - _linalg.unvec(shift, (n * k, k * k))
    got = moments._hc0_ortho_jacobian(sys, m, g)
    assert got.shape == (*sys.batch_shape, n * k, k * k)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_vff_factored_once_per_hc0_hypothesis(monkeypatch):
    fit, lam1, _ = fitted_model(k=2, n=5, t=80, seed=51)
    factored = []

    def counting_chol(buf, n, *args, **kwargs):
        if n == 10:                      # V_ff is NK x NK
            factored.append(1)
        return chol_bordered(buf, n, *args, **kwargs)

    monkeypatch.setattr(moments, "chol_bordered", counting_chol)
    hypotheses = [lam1, lam1 + 0.1, lam1 - 0.3]
    per_mode = {}
    for mode in ("kps", "hc0"):
        before = len(factored)
        for lam in hypotheses:
            robust_tests(fit, lam, mode=mode)
        per_mode[mode] = len(factored) - before
    # kps works with K x K blocks of the per-fit H and Psi: no NK x NK factor
    assert per_mode == {"kps": 0, "hc0": len(hypotheses)}


@pytest.mark.parametrize("t", [24, 30])
def test_hc0_refuses_nk_not_below_t_before_any_work(t):
    # the T hc0 scores sum to zero, so V_ff (NK x NK) has rank at most T - 1
    # and would factor only by jitter; kps is untouched
    spec = preset_dgp("strong", k=3, n=10, t=t)
    fit = fit_model(*simulate(spec, 3))
    for which in (("far",), ("far", "klm", "jklm")):
        with pytest.raises(NumericalError, match=f"NK = 30 is not below T = {t}"):
            robust_tests(fit, spec.lambda1, mode="hc0", which=which)
    assert "hc0_parts" not in vars(fit.stacked)
    assert np.isfinite(robust_tests(fit, spec.lambda1, mode="kps")["klm"].statistic)


@pytest.mark.parametrize("k, n, t", [(1, 29, 30), (1, 28, 30), (1, 21, 22), (2, 14, 30), (3, 9, 30), (2, 9, 20)])
def test_hc0_refuses_a_vff_below_full_rank(k, n, t):
    # each factor's N score columns lie in the residual series plus K vhat
    # series, so rank V_ff <= min(T - 1, K (T - 1 - K)): the SVD rank meets
    # that bound, and hc0 raises before any work exactly where it is below NK
    spec = preset_dgp("strong", k=k, n=n, t=t)
    fit = fit_model(*simulate(spec, 3))
    s = np.linalg.svd(moments._hc0_vff(fit.stacked, fit.stacked.q_xx @ spec.lambda1.T), compute_uv=False)
    bound = min(t - 1, k * (t - 1 - k))
    assert (s > n * k * np.finfo(float).eps * s[0]).sum() == min(n * k, bound)
    if bound < n * k:
        for which in (("far",), ("far", "klm", "jklm")):
            with pytest.raises(NumericalError, match=rf"N \+ K = {n + k} is not below T = {t}"):
                robust_tests(fit, spec.lambda1, mode="hc0", which=which)
    else:
        assert np.isfinite(robust_tests(fit, spec.lambda1, mode="hc0")["klm"].statistic)


def test_a_first_hc0_klm_point_forms_no_nk3_by_2nk_array():
    # the Jacobian scores' cross-moments with the hc0 parts, N K^3 x 2NK,
    # are never formed: one point on a fresh fit peaks below that array
    k, n = 5, 20
    spec = preset_dgp("strong", k=k, n=n, t=300)
    fit = fit_model(*simulate(spec, 0))
    tracemalloc.start()
    try:
        robust_tests(fit, spec.lambda1, mode="hc0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * k**3 * 2 * n * k * 8


def test_hc0_grams_built_once_per_system(monkeypatch):
    fit, lam1, _ = fitted_model(k=2, n=5, t=80, seed=52)
    parts = StackedSystem.hc0_parts.func
    calls = []

    def counting_parts(s):
        calls.append(1)
        return parts(s)

    counted = cached_property(counting_parts)
    counted.__set_name__(StackedSystem, "hc0_parts")
    monkeypatch.setattr(StackedSystem, "hc0_parts", counted)
    for lam in (lam1, lam1 + 0.1, lam1 - 0.3):
        robust_tests(fit, lam, mode="hc0")
    assert len(calls) == 1


def test_sigma_v_inv_vhat_solved_once_per_system(monkeypatch):
    fit, lam1, _ = fitted_model(k=2, n=5, t=80, seed=53)
    sys = fit.stacked
    solve = np.linalg.solve
    calls = []

    def counting_solve(a, b):
        calls.append(b is sys.vhat)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    for lam in (lam1, lam1 + 0.1, lam1 - 0.3):
        robust_tests(fit, lam, mode="hc0")
    # shared by the hc0 scores and the Jacobian scores of every hypothesis
    assert sum(calls) == 1


# -- orthogonalized Jacobian ---------------------------------------------------------


def test_jacobian_reduces_to_q_when_decoupled(monkeypatch):
    sys, lam1 = fitted_system(k=2, n=4, t=60, seed=48)
    monkeypatch.setattr(oracles, "_vqf", lambda s, lam, mode, scores: np.zeros((4 * 2 * 4, 4 * 2)))
    ms = build_moment_system(sys, lam1, "kps")
    assert np.allclose(ms.d_ortho, -np.kron(sys.q_xx, sys.beta_hat))


def test_jacobian_matches_dense_oracle():
    sys, lam1 = fitted_system(k=2, n=4, t=60, seed=49)
    ms = build_moment_system(sys, lam1, "hc0")
    oracle = vec(-np.kron(sys.q_xx, sys.beta_hat)) - ms.vqf @ np.linalg.inv(ms.vff) @ ms.f
    assert np.allclose(vec(ms.d_ortho), oracle, rtol=1e-8)


# -- statistics ----------------------------------------------------------------------


def test_far_zero_when_moment_vanishes():
    rng = np.random.default_rng(50)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=5)
    _, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 60)
    var = fit_var1(factors)
    r = beta @ (lam1 @ factors.factors[:, :-1] + var.residuals)
    returns = ReturnPanel(tuple(range(5)), r, tuple(f"t{i}" for i in range(60)))
    fit = fit_model(returns, factors)
    res = robust_tests(fit, lam1, mode="kps", which=("far",))["far"]
    assert res.statistic == pytest.approx(0.0, abs=1e-9)
    assert res.pvalue == pytest.approx(1.0)
    assert res.dof == 10
    jklm = robust_tests(fit, lam1, mode="kps", which=("jklm",))["jklm"]
    assert jklm.statistic == pytest.approx(0.0, abs=1e-9)


def test_unknown_statistic_names_raise_before_any_work(monkeypatch):
    fit, lam1, _ = fitted_model(k=2, n=5, t=80, seed=51)

    def refuse(*args):
        raise AssertionError("a statistic was computed")

    monkeypatch.setattr(moments, "_kps_statistics", refuse)
    monkeypatch.setattr(moments, "_hc0_statistics", refuse)
    with pytest.raises(ValueError, match=r"unknown statistics \['FAR'\].*'far', 'klm', 'jklm'"):
        robust_statistics(fit.stacked, lam1, "kps", which=("FAR",))
    with pytest.raises(ValueError, match=r"unknown statistics \['wald'\]"):
        robust_tests(fit, lam1, which=["klm", "wald"])


def test_far_equals_klm_plus_jklm():
    for seed in range(51, 56):
        fit, lam1, _ = fitted_model(k=2, n=5, t=80, seed=seed)
        h0 = lam1 + 0.05 * np.random.default_rng(seed).standard_normal((2, 2))
        for mode in ("kps", "hc0"):
            out = robust_tests(fit, h0, mode=mode)
            total = out["klm"].statistic + out["jklm"].statistic
            assert total == pytest.approx(out["far"].statistic, rel=1e-8)
            assert out["far"].dof == 10
            assert out["klm"].dof == 4
            assert out["jklm"].dof == 6


def test_far_scalar_quadratic_oracle():
    fit, lam1, _ = fitted_model(k=1, n=2, t=40, seed=57)
    sys = fit.stacked
    res = robust_tests(fit, lam1, mode="hc0", which=("far",))["far"]
    f = moment_vector(sys, lam1)
    v = vff_estimator(sys, lam1, "hc0")
    oracle = sys.n_periods * f @ np.linalg.solve(v, f)
    assert res.statistic == pytest.approx(oracle, rel=1e-10)


def test_klm_matches_projector_oracle():
    fit, lam1, _ = fitted_model(k=2, n=5, t=80, seed=58)
    sys = fit.stacked
    ms = build_moment_system(sys, lam1, "kps")
    low = np.linalg.cholesky(ms.vff)
    fw = np.linalg.solve(low, ms.f)
    dw = np.linalg.solve(low, ms.d_ortho)
    p = dw @ np.linalg.pinv(dw)
    oracle = sys.n_periods * fw @ p @ fw
    klm = robust_tests(fit, lam1, mode="kps", which=("klm",))["klm"]
    assert klm.statistic == pytest.approx(oracle, rel=1e-8)


def synthetic_moment_system(f, d, vff, t=100):
    """The arguments of ``_decompose``: f and the orthogonalized Jacobian d,
    both whitened by V_ff's Cholesky factor, and T."""
    low = np.linalg.cholesky(vff)
    return np.linalg.solve(low, f), np.linalg.solve(low, d), t


def test_klm_projection_identities():
    rng = np.random.default_rng(59)
    nk, kk = 8, 4
    d = rng.standard_normal((nk, kk))
    alpha = rng.standard_normal(kk)
    ms = synthetic_moment_system(d @ alpha, d, np.eye(nk))
    far_stat, klm_stat = _decompose(*ms)
    assert klm_stat == pytest.approx(far_stat, rel=1e-10)

    # orthogonal moment: KLM = 0
    z = rng.standard_normal(nk)
    z -= d @ np.linalg.pinv(d) @ z
    ms0 = synthetic_moment_system(z, d, np.eye(nk))
    far0, klm0 = _decompose(*ms0)
    assert klm0 == pytest.approx(0.0, abs=1e-10 * far0)


def test_statistics_invariant_under_joint_rotation():
    rng = np.random.default_rng(60)
    nk, kk = 10, 4
    d = rng.standard_normal((nk, kk))
    f = rng.standard_normal(nk)
    rot = np.linalg.qr(rng.standard_normal((nk, nk)))[0]
    base = _decompose(*synthetic_moment_system(f, d, np.eye(nk)))
    rotated = _decompose(*synthetic_moment_system(rot @ f, rot @ d, np.eye(nk)))
    assert rotated[0] == pytest.approx(base[0], rel=1e-8)
    assert rotated[1] == pytest.approx(base[1], rel=1e-8)


def test_far_minimum_over_lambda_equals_pencil_value():
    # the Kronecker-weighted FAR attains its global minimum at the eigenvalue
    # bound of the full pencil (not exactly at the OLS-implied Lambda1)
    sys, _ = fitted_system(k=2, n=5, t=100, seed=30)
    hm = sys.phi_hat.T @ np.linalg.inv(oracles.dense_sigma(sys)) @ sys.phi_hat
    pencil = sys.n_periods * scipy.linalg.eigh(hm, sys.psi_hat, eigvals_only=True)[:2].sum()
    beta, d = sys.beta_hat, sys.d_hat
    ols = np.linalg.solve(beta.T @ beta, beta.T @ d)
    res = scipy.optimize.minimize(
        lambda x: robust_statistics(sys, x, "kps", ("far",))["far"], ols.ravel(), method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000},
    )
    assert res.fun == pytest.approx(pencil, rel=1e-8)
    assert robust_statistics(sys, ols, "kps", ("far",))["far"] >= pencil - 1e-10


def test_far_kps_equals_trace_form():
    fit, lam1, _ = fitted_model(k=2, n=5, t=90, seed=61)
    h0 = lam1 + 0.1
    far = robust_tests(fit, h0, mode="kps", which=("far",))["far"]
    # T tr((B' Psi B)^-1 B' H B) with B = (I ; -Lambda1) and H = Phi' Sigma^-1 Phi
    sys = fit.stacked
    b = np.vstack([np.eye(2), -h0])
    hm = sys.phi_hat.T @ np.linalg.inv(oracles.dense_sigma(sys)) @ sys.phi_hat
    trace = sys.n_periods * np.trace(np.linalg.solve(b.T @ sys.psi_hat @ b, b.T @ hm @ b))
    assert far.statistic == pytest.approx(trace, rel=1e-9)


def test_far_null_distribution_ks_strong_dgp():
    # strong but moderate signal keeps the score covariance near Kronecker;
    # FAR should track chi^2(KN) under the null
    beta0 = np.array([[0.25], [0.32], [-0.28], [0.35]])
    lam1 = np.array([[0.3]])
    stats = []
    for rep in range(1500):
        rng = np.random.default_rng(10_000 + rep)
        returns, factors = make_dataset(
            rng, beta0, np.array([0.1]), lam1, np.array([0.05]),
            np.array([[0.4]]), np.array([[1.0]]), 1.0, 250,
        )
        fit = fit_model(returns, factors)
        stats.append(robust_tests(fit, lam1, which=("far",))["far"].statistic)
    ks = scipy.stats.kstest(stats, scipy.stats.chi2(4).cdf)
    assert ks.pvalue > 0.01


def test_jklm_accepts_distant_values_weak_dgp():
    # JKLM mostly measures misspecification, so distant premia stay accepted
    beta0 = 0.02 * np.array([[0.5], [0.8], [-0.6], [0.9]])
    lam1 = np.array([[0.3]])
    accept = 0
    reps = 120
    for rep in range(reps):
        rng = np.random.default_rng(20_000 + rep)
        returns, factors = make_dataset(
            rng, beta0, np.array([0.0]), lam1, np.array([0.0]),
            np.array([[0.5]]), np.array([[1.0]]), 1.0, 250,
        )
        fit = fit_model(returns, factors)
        res = robust_tests(fit, np.array([[25.0]]), which=("jklm",))["jklm"]
        accept += res.pvalue >= 0.05
    assert accept / reps > 0.05
