from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from riskpremia._linalg import sym, vec
from riskpremia.montecarlo import preset_dgp, simulate
from riskpremia.panels import FactorPanel, ReturnPanel
from riskpremia.subset import build_stacked
from riskpremia.threestep import (
    PriceOfRisk,
    ReturnRegression,
    asymptotic_covariance,
    convexity_adjustment,
    second_stage,
    third_stage,
    wald_test,
)
from riskpremia.varstage import RankError, VarEstimate, fit_var1

from oracles import residuals_contemporaneous, second_stage_contemporaneous


def make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, sigma_e, t):
    """Simulate returns r_t = c + beta (Lambda1 x_{t-1} + v_t) + e_t with the
    intercept chosen so the three-step estimator targets (lam0, lam1)."""
    k = len(mu)
    n = beta.shape[0]
    lv = np.linalg.cholesky(sigma_v) if np.any(sigma_v) else np.zeros((k, k))
    x = np.empty((k, t + 1))
    x[:, 0] = np.linalg.solve(np.eye(k) - phi, mu)
    shocks = (lv @ rng.standard_normal((k, t))) if np.any(sigma_v) else np.zeros((k, t))
    for s in range(t):
        x[:, s + 1] = mu + phi @ x[:, s] + shocks[:, s]
    g_pop = 0.5 * (np.einsum("nj,jk,nk->n", beta, sigma_v, beta) + sigma_e**2)
    c = beta @ lam0 - g_pop
    e = sigma_e * rng.standard_normal((n, t))
    r = c[:, None] + beta @ (lam1 @ x[:, :-1] + shocks) + e
    factors = FactorPanel(x, tuple(f"f{i}" for i in range(k)))
    returns = ReturnPanel(tuple(range(1, n + 1)), r, tuple(f"t{s}" for s in range(t)))
    return returns, factors


def default_params(k=2, n=5):
    rng = np.random.default_rng(99)
    beta = rng.uniform(0.5, 1.5, (n, k)) * np.sign(rng.standard_normal((n, k)))
    lam0 = rng.standard_normal(k)
    lam1 = 0.3 * rng.standard_normal((k, k))
    mu = 0.1 * rng.standard_normal(k)
    phi = 0.5 * np.eye(k) + 0.1 * rng.standard_normal((k, k))
    sigma_v = np.eye(k) + 0.2 * np.ones((k, k))
    return beta, lam0, lam1, mu, phi, sigma_v


# -- variants ------------------------------------------------------------------


def test_variant_identity_on_random_data():
    rng = np.random.default_rng(0)
    beta, lam0, lam1, mu, phi, sigma_v = default_params()
    for trial in range(5):
        returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 60)
        var = fit_var1(factors)
        r1 = second_stage_contemporaneous(returns, factors, var)
        r2 = second_stage(returns, factors, var)
        for f1, f2 in [(r1.a_hat, r2.a_hat), (r1.d_hat, r2.d_hat), (r1.beta_hat, r2.beta_hat)]:
            assert np.allclose(f1, f2, rtol=1e-10, atol=1e-12 * np.abs(f1).max())
        resid = build_stacked(returns, factors, var, r2).residuals
        assert np.allclose(residuals_contemporaneous(returns, factors), resid, atol=1e-10)
        assert r1.sigma_e2 == pytest.approx(r2.sigma_e2, rel=1e-10)


def test_variant_ii_reuses_the_var_qr_factors():
    rng = np.random.default_rng(5)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=3, n=6)
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 60)
    var = fit_var1(factors)
    assert var.design_q.shape == (60, 4) and var.design_r.shape == (4, 4)
    design = np.column_stack([np.ones(60), factors.factors[:, :-1].T])
    assert np.allclose(var.design_q @ var.design_r, design, rtol=0, atol=1e-12)
    bare = replace(var, design_q=None, design_r=None)
    with pytest.raises(ValueError, match="QR factors"):
        second_stage(returns, factors, bare)


def block_sigma_e2(returns, var):
    """sigma_e^2 by the block formula: every replicate's residual formed in
    one stack-sized product, then summed in one einsum."""
    r = returns.returns
    basis = np.concatenate([var.design_q, np.linalg.qr(var.residuals.swapaxes(-1, -2))[0]], axis=-1)
    fitted = (r @ basis) @ basis.swapaxes(-1, -2)
    resid = np.subtract(r, fitted, out=fitted)
    return np.einsum("...nt,...nt->...", resid, resid) / (r.shape[-2] * r.shape[-1])


@pytest.mark.parametrize("k, n, reps", [(1, 11, 96), (2, 6, 7), (5, 20, 23), (3, 10, 0)])
@pytest.mark.parametrize("kind", ["strong", "weak"])
def test_sigma_e2_is_bitwise_the_block_formula(k, n, reps, kind):
    # one replicate's residual at a time in a reused buffer sums the same bits
    spec = preset_dgp(kind, k=k, n=n, t=300)
    returns, factors = simulate(spec, 5, range(reps) if reps else 0)
    var = fit_var1(factors)
    got = second_stage(returns, factors, var).sigma_e2
    want = block_sigma_e2(returns, var)
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


@pytest.mark.parametrize("second", ["lagged", "same innovations"])
def test_second_stage_raises_rank_error_on_rank_deficient_innovations(second):
    # x2_t = 0.5 x1_{t-1} has no innovation, and x2_t = x1_t + 0.5 x1_{t-1}
    # has x1's; the VAR fits, but (1, X_{t-1}, vhat) is rank deficient
    rng = np.random.default_rng(6)
    x1 = np.zeros(122)
    for s in range(1, 122):
        x1[s] = 0.5 * x1[s - 1] + rng.standard_normal()
    x2 = 0.5 * x1[:-1] if second == "lagged" else x1[1:] + 0.5 * x1[:-1]
    factors = FactorPanel(np.vstack([x1[1:], x2]), ("f1", "f2"))
    returns = ReturnPanel(tuple(range(4)), rng.standard_normal((4, 120)))
    var = fit_var1(factors)
    with pytest.raises(RankError, match="R-diagonal condition"):
        second_stage(returns, factors, var)


def test_noiseless_beta_recovery():
    rng = np.random.default_rng(1)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=4)
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 50)
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    assert np.allclose(reg.beta_hat, beta, atol=1e-9)
    assert reg.sigma_e2 < 1e-18


def test_single_asset_single_factor_ols_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 6))
    r = rng.standard_normal((1, 5))
    factors = FactorPanel(x, ("f0",))
    returns = ReturnPanel((1,), r, tuple("abcde"))
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    design = np.column_stack([np.ones(5), x[0, :-1], var.residuals[0]])
    coef, *_ = np.linalg.lstsq(design, r[0], rcond=None)
    assert reg.beta_hat[0, 0] == pytest.approx(coef[2], rel=1e-9)
    # lag parameterization maps the X_t coefficient by -beta phi1
    assert reg.d_hat[0, 0] == pytest.approx(coef[1] - coef[2] * var.phi1[0, 0], rel=1e-9)
    assert reg.a_hat[0] == pytest.approx(coef[0] - coef[2] * var.mu[0], rel=1e-9)


# -- convexity -----------------------------------------------------------------


def test_convexity_trivial_cases():
    assert np.allclose(convexity_adjustment(np.zeros((3, 2)), np.eye(2), 0.0), 0.0)
    g = convexity_adjustment(np.array([[1.0, 0.0]]), np.eye(2), 1.0)
    assert g[0] == pytest.approx(1.0)


def test_convexity_matches_loop_oracle():
    rng = np.random.default_rng(3)
    beta = rng.standard_normal((3, 2))
    a = rng.standard_normal((2, 2))
    sigma_v = a @ a.T + np.eye(2)
    s2 = 0.7
    g = convexity_adjustment(beta, sigma_v, s2)
    for i in range(3):
        acc = 0.0
        for j in range(2):
            for l in range(2):
                acc += beta[i, j] * sigma_v[j, l] * beta[i, l]
        assert g[i] == pytest.approx(0.5 * (acc + s2), rel=1e-12)


# -- third stage ----------------------------------------------------------------


def test_third_stage_identity_projection():
    n = k = 3
    rng = np.random.default_rng(4)
    a = rng.standard_normal(n)
    d = rng.standard_normal((n, k))
    reg = ReturnRegression(
        a_hat=a, d_hat=d, beta_hat=np.eye(n), sigma_e2=0.0,
        g_hat=np.zeros(n),
    )
    var = VarEstimate(
        mu=np.zeros(k), phi1=np.zeros((k, k)), residuals=np.zeros((k, 4)),
        sigma_v=np.eye(k), x_lagged_mean=np.zeros(k),
    )
    por = third_stage(reg, var)
    assert np.allclose(por.lambda0, a)
    assert np.allclose(por.lambda1, d)


def test_exact_recovery_from_constructed_data():
    # generate returns from the fitted innovations so every plug-in cancels
    rng = np.random.default_rng(5)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=6)
    _, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 80)
    var = fit_var1(factors)
    g_hat = convexity_adjustment(beta, var.sigma_v, 0.0)
    r = (beta @ lam0 - g_hat)[:, None] + beta @ (lam1 @ factors.factors[:, :-1] + var.residuals)
    returns = ReturnPanel(tuple(range(6)), r, tuple(f"t{i}" for i in range(80)))
    reg = second_stage(returns, factors, var)
    por = third_stage(reg, var)
    assert np.allclose(por.lambda0, lam0, atol=1e-8)
    assert np.allclose(por.lambda1, lam1, atol=1e-8)


def test_third_stage_matches_qr_solve_oracle():
    rng = np.random.default_rng(6)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=5)
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.3, 70)
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    por = third_stage(reg, var)
    target = np.column_stack([
        reg.a_hat + reg.g_hat + reg.beta_hat @ var.mu,
        reg.d_hat + reg.beta_hat @ var.phi1,
    ])
    oracle, *_ = np.linalg.lstsq(reg.beta_hat, target, rcond=None)
    assert np.allclose(np.column_stack([por.lambda0, por.lambda1]), oracle, rtol=1e-9)


def test_near_singular_beta_raises():
    beta = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14], [2.0, 2.0]])
    reg = ReturnRegression(
        a_hat=np.zeros(3), d_hat=np.zeros((3, 2)), beta_hat=beta, sigma_e2=0.0,
        g_hat=np.zeros(3),
    )
    var = VarEstimate(
        mu=np.zeros(2), phi1=np.zeros((2, 2)), residuals=np.zeros((2, 4)),
        sigma_v=np.eye(2), x_lagged_mean=np.zeros(2),
    )
    with pytest.raises(RankError, match="unspanned"):
        third_stage(reg, var)


# -- covariance and Wald ---------------------------------------------------------


def fit_all(rng, beta, lam0, lam1, mu, phi, sigma_v, sigma_e, t):
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, sigma_e, t)
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    por = third_stage(reg, var)
    return factors, var, reg, por


def lagged_q_xx(factors):
    """Centred second moments of the lagged factors X_0..X_{T-1}."""
    lagged = factors.factors[:, :-1]
    centered = lagged - lagged.mean(axis=1, keepdims=True)
    return centered @ centered.T / centered.shape[1]


def commutation(m, n):
    """K_{m,n} with K vec(A) = vec(A') for m x n matrices A."""
    k = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            k[j + i * n, i + j * m] = 1.0
    return k


def term_by_term_covariance(factors, var, reg, por):
    """The covariance built from the factor panel, with the Gaussian variance
    of vec(Sigma_v) as (I + K_{K,K})(Sigma_v kron Sigma_v) and a loop-built
    convexity sensitivity: the oracle for ``asymptotic_covariance``."""
    beta = reg.beta_hat
    n, k = beta.shape
    sigma_v = var.sigma_v
    sigma2 = reg.sigma_e2
    x = factors.factors
    t = var.n_periods
    z = np.column_stack([np.ones(t), x[:, :-1].T])
    gamma_inv = np.linalg.inv(z.T @ z / t)

    pbeta = np.linalg.solve(beta.T @ beta, beta.T)
    sigma_u = beta @ sigma_v @ beta.T + sigma2 * np.eye(n)
    term1 = np.kron(gamma_inv, pbeta @ sigma_u @ pbeta.T)
    v_b = np.kron(np.linalg.inv(sigma_v), sigma2 * np.eye(n))

    dmat = np.zeros((n, n * k))
    bsv = beta @ sigma_v
    for j in range(k):
        dmat[np.arange(n), j * n + np.arange(n)] = bsv[:, j]

    lam = np.column_stack([por.lambda0, por.lambda1])
    e1 = np.zeros(k + 1)
    e1[0] = 1.0
    m23 = np.kron(e1[:, None], pbeta @ dmat) - np.kron(lam.T, pbeta)
    mid = m23 @ v_b @ m23.T

    bstar = np.column_stack([vec(np.outer(beta[i], beta[i])) for i in range(n)]).T
    var_vec_sigma = (np.eye(k * k) + commutation(k, k)) @ np.kron(sigma_v, sigma_v)
    iota = np.ones((n, 1))
    g_core = 0.25 * bstar @ var_vec_sigma @ bstar.T + (sigma2**2 / (2.0 * n)) * (iota @ iota.T)
    g_extra = np.kron(np.outer(e1, e1), pbeta @ g_core @ pbeta.T)
    return SimpleNamespace(v_lambda=sym(term1 + mid + g_extra))


def test_commutation_matrix():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 2))
    k = commutation(3, 2)
    assert np.allclose(k @ a.reshape(-1, order="F"), a.T.reshape(-1, order="F"))


def random_estimates(rng, k, n, t=40):
    """Factor panel, VAR, second stage and price of risk with arbitrary values;
    the factors have a nonzero mean, so Gamma_zz is not block diagonal."""
    x = rng.uniform(-3.0, 3.0, (k, 1)) + rng.standard_normal((k, t + 1))
    factors = FactorPanel(x, tuple(f"f{i}" for i in range(k)))
    a = rng.standard_normal((k, k))
    var = VarEstimate(
        mu=rng.standard_normal(k), phi1=0.3 * rng.standard_normal((k, k)),
        residuals=np.zeros((k, t)), sigma_v=a @ a.T + 0.1 * np.eye(k),
        x_lagged_mean=x[:, :-1].mean(axis=1),
    )
    reg = ReturnRegression(
        a_hat=rng.standard_normal(n), d_hat=rng.standard_normal((n, k)),
        beta_hat=rng.standard_normal((n, k)), sigma_e2=float(rng.uniform(0.1, 2.0)),
        g_hat=rng.standard_normal(n),
    )
    por = PriceOfRisk(lambda0=rng.standard_normal(k), lambda1=rng.standard_normal((k, k)))
    return factors, var, reg, por


def assert_matches_oracle(got, ref):
    assert np.linalg.norm(got.v_lambda - ref.v_lambda) <= 1e-12 * np.linalg.norm(ref.v_lambda)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_covariance_matches_term_by_term_oracle(k, extra, seed):
    factors, var, reg, por = random_estimates(np.random.default_rng(seed), k, k + extra)
    got = asymptotic_covariance(var, reg, por, lagged_q_xx(factors))
    assert_matches_oracle(got, term_by_term_covariance(factors, var, reg, por))


def test_covariance_needs_no_kronecker_product(monkeypatch):
    # the closed form builds every block from K-sized pieces; only the
    # oracle forms Kronecker products
    factors, var, reg, por = random_estimates(np.random.default_rng(12), 3, 7)
    ref = term_by_term_covariance(factors, var, reg, por)

    def no_kron(*args):
        raise AssertionError("numpy.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    assert_matches_oracle(asymptotic_covariance(var, reg, por, lagged_q_xx(factors)), ref)


def stack_estimates(items):
    """One dataclass of the type of ``items[0]`` whose fields stack theirs."""
    return type(items[0])(**{
        f.name: np.array([getattr(x, f.name) for x in items]) for f in fields(items[0])
    })


def test_covariance_of_a_stack_equals_each_fit():
    rng = np.random.default_rng(13)
    fits = [random_estimates(rng, 2, 5) for _ in range(3)]
    single = [asymptotic_covariance(var, reg, por, lagged_q_xx(f)) for f, var, reg, por in fits]
    stacked = asymptotic_covariance(
        *(stack_estimates([fit[i] for fit in fits]) for i in (1, 2, 3)),
        np.stack([lagged_q_xx(f) for f, *_ in fits]),
    )
    for i, cov in enumerate(single):
        np.testing.assert_allclose(stacked.v_lambda[i], cov.v_lambda, rtol=1e-13, atol=0)


def test_covariance_scalar_oracle_k1_n2():
    """Term-by-term scalar re-derivation of V_Lambda for K=1, N=2."""
    rng = np.random.default_rng(9)
    beta = np.array([[1.3], [0.7]])
    lam0, lam1 = np.array([0.4]), np.array([[0.25]])
    mu, phi = np.array([0.1]), np.array([[0.5]])
    factors, var, reg, por = fit_all(rng, beta, lam0, lam1, mu, phi, np.array([[0.8]]), 0.6, 400)
    cov = asymptotic_covariance(var, reg, por, lagged_q_xx(factors))

    b = reg.beta_hat[:, 0]
    s_v = var.sigma_v[0, 0]
    s2 = reg.sigma_e2
    l0, l1 = por.lambda0[0], por.lambda1[0, 0]
    x = factors.factors[0, :-1]
    t = len(x)
    z = np.column_stack([np.ones(t), x])
    gzz_inv = np.linalg.inv(z.T @ z / t)
    bb = b @ b
    pb = b / bb

    term1 = gzz_inv * (s_v + s2 / bb)
    pbd = s_v * (b**2) / bb                     # row vector p_beta D
    m2 = np.vstack([pbd, np.zeros(2)])
    m3 = -np.vstack([l0 * pb, l1 * pb])
    vb = (s2 / s_v) * np.eye(2)
    mid = (m2 + m3) @ vb @ (m2 + m3).T
    core = 0.25 * np.outer(b**2, b**2) * 2 * s_v**2 + (s2**2 / 4.0) * np.ones((2, 2))
    extra = np.zeros((2, 2))
    extra[0, 0] = pb @ core @ pb
    oracle = term1 + mid + extra
    assert np.allclose(cov.v_lambda, 0.5 * (oracle + oracle.T), rtol=1e-10)


def test_wald_zero_at_estimate_and_affine_invariance():
    rng = np.random.default_rng(10)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=6)
    factors, var, reg, por = fit_all(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.4, 300)
    cov = asymptotic_covariance(var, reg, por, lagged_q_xx(factors))
    res = wald_test(por, cov, por.lambda1, t=300)
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.pvalue == pytest.approx(1.0)
    assert res.dof == 4

    res0 = wald_test(por, cov, np.zeros((2, 2)), t=300)
    # affine invariance: rotate the hypothesis space through the same V
    rot = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    from riskpremia._linalg import vec

    diff = vec(por.lambda1)
    v = cov.v_lambda1
    direct = 300 * diff @ np.linalg.solve(v, diff)
    rotated = 300 * (rot @ diff) @ np.linalg.solve(rot @ v @ rot.T, rot @ diff)
    assert direct == pytest.approx(rotated, rel=1e-10)
    assert res0.statistic == pytest.approx(direct, rel=1e-10)


def test_wald_zero_on_noiseless_data():
    rng = np.random.default_rng(11)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=6)
    _, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 80)
    var = fit_var1(factors)
    g_hat = convexity_adjustment(beta, var.sigma_v, 0.0)
    r = (beta @ lam0 - g_hat)[:, None] + beta @ (lam1 @ factors.factors[:, :-1] + var.residuals)
    returns = ReturnPanel(tuple(range(6)), r, tuple(f"t{i}" for i in range(80)))
    reg = second_stage(returns, factors, var)
    por = third_stage(reg, var)
    cov = asymptotic_covariance(var, reg, por, lagged_q_xx(factors))
    res = wald_test(por, cov, lam1, t=80)
    assert res.statistic < 1e-10
