import dataclasses
from functools import cached_property

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.stats

from riskpremia import moments
from riskpremia._linalg import chol_spd, vec
from riskpremia.moments import (
    MomentSystem,
    _decompose,
    build_moment_system,
    moment_vector,
    robust_tests,
    vff_estimator,
    vqf_estimator,
)
from riskpremia.panels import FactorPanel, ReturnPanel
from riskpremia.pipeline import fit_model
from riskpremia.subset import StackedSystem, build_stacked, far_trace
from riskpremia.threestep import second_stage
from riskpremia.varstage import fit_var1

from test_subset import fitted_system, synthetic_system
from test_threestep import default_params, make_dataset


def vqf_discrepancy(sys, lam1_0) -> float:
    """Relative Frobenius gap between the Kronecker-form and outer-product
    Jacobian/moment covariance estimators; values above ~0.10 indicate the
    Kronecker structure is a poor description of the scores."""
    v_kps = vqf_estimator(sys, lam1_0, "kps")
    v_hc0 = vqf_estimator(sys, lam1_0, "hc0")
    denom = max(np.linalg.norm(v_hc0), np.finfo(float).tiny)
    return float(np.linalg.norm(v_kps - v_hc0) / denom)


# -- moment vector ----------------------------------------------------------------


def test_moment_vector_matches_double_loop_oracle():
    sys, lam1 = fitted_system(k=2, n=3, t=8, seed=40)
    lam0 = lam1 + 0.1
    f = moment_vector(sys, lam0)
    k, n, t = 2, 3, 8
    oracle = np.zeros(n * k)
    u = sys.rbar - sys.beta_hat @ sys.vhat
    for s in range(t):
        oracle += np.kron(sys.xbar_lagged[:, s], u[:, s]) / t
    oracle -= np.kron(sys.q_xx, sys.beta_hat) @ lam0.reshape(-1, order="F")
    assert np.allclose(f, oracle, rtol=1e-12)


def test_moment_vector_zero_on_noiseless_fit():
    rng = np.random.default_rng(41)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=5)
    _, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 60)
    var = fit_var1(factors)
    r = beta @ (lam1 @ factors.factors[:, :-1] + var.residuals)
    returns = ReturnPanel(tuple(range(5)), r, tuple(f"t{i}" for i in range(60)))
    sys = build_stacked(returns, factors, var, second_stage(returns, factors, var))
    f = moment_vector(sys, lam1)
    assert np.abs(f).max() < 1e-12 * max(1.0, np.abs(sys.rbar).max())


def test_moment_vector_regression_identity():
    sys, lam1 = fitted_system(k=2, n=5, t=90, seed=42)
    f = moment_vector(sys, lam1)
    ident = np.kron(sys.q_xx, np.eye(5)) @ vec(sys.d_hat - sys.beta_hat @ lam1)
    assert np.allclose(f, ident, rtol=1e-10, atol=1e-14)


def test_moment_vector_least_squares_geometry():
    sys, _ = fitted_system(k=2, n=4, t=70, seed=43)
    u = sys.rbar - sys.beta_hat @ sys.vhat
    raw = vec(u @ sys.xbar_lagged.T / sys.n_periods)
    design = np.kron(sys.q_xx, sys.beta_hat)
    lam_ols = np.linalg.pinv(design) @ raw
    f = moment_vector(sys, lam_ols.reshape(2, 2, order="F"))
    assert np.abs(design.T @ f).max() < 1e-10 * np.abs(raw).max()


# -- variance estimators ------------------------------------------------------------


def test_vff_kps_identity_case():
    rng = np.random.default_rng(44)
    sys = synthetic_system(rng, k=2, n=3)
    sys = dataclasses.replace(sys, psi_hat=np.eye(4), sigma_hat=np.eye(3), q_xx=np.eye(2))
    v = vff_estimator(sys, np.zeros((2, 2)), mode="kps")
    assert np.allclose(v, np.eye(6))


def test_vff_hc0_matches_explicit_loop():
    sys, lam1 = fitted_system(k=1, n=2, t=25, seed=45)
    v = vff_estimator(sys, lam1, mode="hc0")
    k, t = 1, 25
    sig_v = sys.w_hat[k:, k:]
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
    assert vqf_discrepancy(sys, lam1) == pytest.approx(
        np.linalg.norm(v_kps - v_hc0) / denom
    )


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
    cov_bf = np.kron((psi_vx - sys.psi_v @ lam0) @ sys.q_xx, sys.sigma_hat)
    np.testing.assert_allclose(vqf_estimator(sys, lam0, "kps"), -g_q @ cov_bf, rtol=1e-15, atol=0)

    t = sys.n_periods
    sv = np.linalg.solve(sys.w_hat[k:, k:], sys.vhat)
    psi_q = np.empty((t, k**3 * n))
    for s in range(t):
        b_s = np.outer(sys.residuals[:, s], sv[:, s])
        x_s = np.outer(sys.xbar_lagged[:, s], sys.xbar_lagged[:, s]) - sys.q_xx
        psi_q[s] = -(g_q @ vec(b_s) + vec(np.kron(x_s, sys.beta_hat)))
    oracle = psi_q.T @ moments._hc0_scores(sys, lam0) / t
    np.testing.assert_allclose(vqf_estimator(sys, lam0, "hc0"), oracle, rtol=1e-15, atol=0)


def test_hc0_jacobian_scores_built_once_per_system(monkeypatch):
    from riskpremia import _linalg, subset

    sys, lam1 = fitted_system(k=2, n=5, t=80, seed=50)
    batched = []

    def counting_vec_kron(a, b):
        if np.ndim(a) == 3:        # the per-period X_t kron beta term of psi_q
            batched.append(1)
        return _linalg.vec_kron(a, b)

    for module in (moments, subset):
        monkeypatch.setattr(module, "vec_kron", counting_vec_kron, raising=False)
    for shift in (0.0, 0.1, -0.3):
        vqf_estimator(sys, lam1 + shift, "hc0")
    assert len(batched) == 1


def test_vff_factored_once_and_jacobian_kept_per_system(monkeypatch):
    sys, lam1 = fitted_system(k=2, n=5, t=80, seed=51)
    factored = []

    def counting_chol(m, *args, **kwargs):
        if m.shape[-1] == 10:            # V_ff is NK x NK
            factored.append(1)
        return chol_spd(m, *args, **kwargs)

    monkeypatch.setattr(moments, "chol_spd", counting_chol)
    hypotheses = [lam1, lam1 + 0.1, lam1 - 0.3]
    per_mode = {}
    for mode in ("kps", "hc0"):
        before = len(factored)
        for lam in hypotheses:
            robust_tests(sys, lam, mode=mode)
        per_mode[mode] = len(factored) - before
    # kps works with K x K blocks of the per-fit H and Psi: no NK x NK factor
    assert per_mode == {"kps": 0, "hc0": len(hypotheses)}
    assert build_moment_system(sys, lam1).q is sys.jacobian
    np.testing.assert_array_equal(sys.jacobian, -np.kron(sys.q_xx, sys.beta_hat))


def test_hc0_grams_built_once_per_system(monkeypatch):
    sys, lam1 = fitted_system(k=2, n=5, t=80, seed=52)
    parts = StackedSystem.hc0_parts.func
    calls = []

    def counting_parts(s):
        calls.append(1)
        return parts(s)

    counted = cached_property(counting_parts)
    counted.__set_name__(StackedSystem, "hc0_parts")
    monkeypatch.setattr(StackedSystem, "hc0_parts", counted)

    def no_scores(*args):
        raise AssertionError("a (T, NK) score matrix was formed at a hypothesis")

    monkeypatch.setattr(moments, "_hc0_scores", no_scores)
    for lam in (lam1, lam1 + 0.1, lam1 - 0.3):
        robust_tests(sys, lam, mode="hc0")
    assert len(calls) == 1


def test_sigma_v_inv_vhat_solved_once_per_system(monkeypatch):
    sys, lam1 = fitted_system(k=2, n=5, t=80, seed=53)
    solve = np.linalg.solve
    calls = []

    def counting_solve(a, b):
        calls.append(b is sys.vhat)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    for lam in (lam1, lam1 + 0.1, lam1 - 0.3):
        robust_tests(sys, lam, mode="hc0")
    # shared by the hc0 scores and the Jacobian scores of every hypothesis
    assert sum(calls) == 1


# -- orthogonalized Jacobian ---------------------------------------------------------


def test_jacobian_reduces_to_q_when_decoupled(monkeypatch):
    sys, lam1 = fitted_system(k=2, n=4, t=60, seed=48)
    monkeypatch.setattr(moments, "_vqf", lambda s, lam, mode, scores: np.zeros((4 * 2 * 4, 4 * 2)))
    ms = build_moment_system(sys, lam1, "kps")
    assert np.allclose(ms.d_ortho, -np.kron(sys.q_xx, sys.beta_hat))


def test_jacobian_matches_dense_oracle():
    sys, lam1 = fitted_system(k=2, n=4, t=60, seed=49)
    ms = build_moment_system(sys, lam1, "hc0")
    oracle = vec(ms.q) - ms.vqf @ np.linalg.inv(ms.vff) @ ms.f
    assert np.allclose(vec(ms.d_ortho), oracle, rtol=1e-8)


# -- statistics ----------------------------------------------------------------------


def test_far_zero_when_moment_vanishes():
    rng = np.random.default_rng(50)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=5)
    _, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 60)
    var = fit_var1(factors)
    r = beta @ (lam1 @ factors.factors[:, :-1] + var.residuals)
    returns = ReturnPanel(tuple(range(5)), r, tuple(f"t{i}" for i in range(60)))
    sys = build_stacked(returns, factors, var, second_stage(returns, factors, var))
    res = robust_tests(sys, lam1, mode="kps", which=("far",))["far"]
    assert res.statistic == pytest.approx(0.0, abs=1e-9)
    assert res.pvalue == pytest.approx(1.0)
    assert res.dof == 10
    jklm = robust_tests(sys, lam1, mode="kps", which=("jklm",))["jklm"]
    assert jklm.statistic == pytest.approx(0.0, abs=1e-9)


def test_far_equals_klm_plus_jklm():
    for seed in range(51, 56):
        sys, lam1 = fitted_system(k=2, n=5, t=80, seed=seed)
        h0 = lam1 + 0.05 * np.random.default_rng(seed).standard_normal((2, 2))
        for mode in ("kps", "hc0"):
            out = robust_tests(sys, h0, mode=mode)
            total = out["klm"].statistic + out["jklm"].statistic
            assert total == pytest.approx(out["far"].statistic, rel=1e-8)
            assert out["far"].dof == 10
            assert out["klm"].dof == 4
            assert out["jklm"].dof == 6


def test_far_scalar_quadratic_oracle():
    sys, lam1 = fitted_system(k=1, n=2, t=40, seed=57)
    res = robust_tests(sys, lam1, mode="hc0", which=("far",))["far"]
    f = moment_vector(sys, lam1)
    v = vff_estimator(sys, lam1, "hc0")
    oracle = sys.n_periods * f @ np.linalg.solve(v, f)
    assert res.statistic == pytest.approx(oracle, rel=1e-10)


def test_klm_matches_projector_oracle():
    sys, lam1 = fitted_system(k=2, n=5, t=80, seed=58)
    ms = build_moment_system(sys, lam1, "kps")
    low = np.linalg.cholesky(ms.vff)
    fw = np.linalg.solve(low, ms.f)
    dw = np.linalg.solve(low, ms.d_ortho)
    p = dw @ np.linalg.pinv(dw)
    oracle = ms.n_periods * fw @ p @ fw
    klm = robust_tests(sys, lam1, mode="kps", which=("klm",))["klm"]
    assert klm.statistic == pytest.approx(oracle, rel=1e-8)


def synthetic_moment_system(f, d, vff, t=100):
    nk, kk = d.shape
    return MomentSystem(
        f=f, q=d, vff=vff, vff_chol=np.linalg.cholesky(vff),
        vqf=np.zeros((nk * kk, nk)), d_ortho=d,
        h0=np.zeros((int(np.sqrt(kk)),) * 2), mode="kps", n_periods=t,
        n_assets=nk // int(np.sqrt(kk)), n_factors=int(np.sqrt(kk)),
    )


def test_klm_projection_identities():
    rng = np.random.default_rng(59)
    nk, kk = 8, 4
    d = rng.standard_normal((nk, kk))
    alpha = rng.standard_normal(kk)
    ms = synthetic_moment_system(d @ alpha, d, np.eye(nk))
    far_stat, klm_stat = _decompose(ms)
    assert klm_stat == pytest.approx(far_stat, rel=1e-10)

    # orthogonal moment: KLM = 0
    z = rng.standard_normal(nk)
    z -= d @ np.linalg.pinv(d) @ z
    ms0 = synthetic_moment_system(z, d, np.eye(nk))
    far0, klm0 = _decompose(ms0)
    assert klm0 == pytest.approx(0.0, abs=1e-10 * far0)


def test_statistics_invariant_under_joint_rotation():
    rng = np.random.default_rng(60)
    nk, kk = 10, 4
    d = rng.standard_normal((nk, kk))
    f = rng.standard_normal(nk)
    rot = np.linalg.qr(rng.standard_normal((nk, nk)))[0]
    base = _decompose(synthetic_moment_system(f, d, np.eye(nk)))
    rotated = _decompose(synthetic_moment_system(rot @ f, rot @ d, np.eye(nk)))
    assert rotated[0] == pytest.approx(base[0], rel=1e-8)
    assert rotated[1] == pytest.approx(base[1], rel=1e-8)


def test_far_minimum_over_lambda_equals_pencil_value():
    # the Kronecker-weighted FAR attains its global minimum at the eigenvalue
    # bound of the full pencil (not exactly at the OLS-implied Lambda1)
    sys, _ = fitted_system(k=2, n=5, t=100, seed=30)
    hm = sys.phi_hat.T @ np.linalg.inv(sys.sigma_hat) @ sys.phi_hat
    pencil = sys.n_periods * scipy.linalg.eigh(hm, sys.psi_hat, eigvals_only=True)[:2].sum()
    beta, d = sys.beta_hat, sys.d_hat
    ols = np.linalg.solve(beta.T @ beta, beta.T @ d)
    res = scipy.optimize.minimize(
        lambda x: far_trace(sys, x.reshape(2, 2)), ols.ravel(), method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000},
    )
    assert res.fun == pytest.approx(pencil, rel=1e-8)
    assert far_trace(sys, ols) >= pencil - 1e-10


def test_far_kps_equals_trace_form():
    sys, lam1 = fitted_system(k=2, n=5, t=90, seed=61)
    h0 = lam1 + 0.1
    far = robust_tests(sys, h0, mode="kps", which=("far",))["far"]
    assert far.statistic == pytest.approx(far_trace(sys, h0), rel=1e-9)


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
