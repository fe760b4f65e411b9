import numpy as np
import pytest

from riskpremia.panels import FactorPanel, PanelError, ReturnPanel
from riskpremia.subset import build_stacked
from riskpremia.threestep import second_stage
from riskpremia.varstage import RankError, fit_var1


def make_panel(x):
    return FactorPanel(np.asarray(x, dtype=float), tuple(f"f{i}" for i in range(len(x))))


def simulate_var(rng, mu, phi, sigma_chol, t, x0=None):
    k = len(mu)
    x = np.empty((k, t + 1))
    x[:, 0] = x0 if x0 is not None else mu
    for s in range(t):
        shock = sigma_chol @ rng.standard_normal(k) if sigma_chol is not None else 0.0
        x[:, s + 1] = mu + phi @ x[:, s] + shock
    return x


def test_noiseless_recovery():
    mu = np.array([0.5, -0.2])
    phi = np.array([[0.6, 0.15], [-0.1, 0.7]])
    x = simulate_var(np.random.default_rng(0), mu, phi, None, 30, x0=np.array([3.0, -2.0]))
    # tiny deterministic wiggle keeps the design full rank without noise terms
    est = fit_var1(make_panel(x))
    assert np.allclose(est.mu, mu, atol=1e-10)
    assert np.allclose(est.phi1, phi, atol=1e-10)
    assert np.allclose(est.sigma_v, 0.0, atol=1e-18)


def test_scalar_normal_equations_oracle():
    x = np.array([[1.0, 2.0, 1.5, 3.0]])
    est = fit_var1(make_panel(x))
    lag, cur = x[0, :-1], x[0, 1:]
    t = 3
    # hand-solved 2x2 normal equations
    a = np.array([[t, lag.sum()], [lag.sum(), (lag**2).sum()]])
    b = np.array([cur.sum(), (lag * cur).sum()])
    mu_o, phi_o = np.linalg.solve(a, b)
    assert est.mu[0] == pytest.approx(mu_o, rel=1e-12)
    assert est.phi1[0, 0] == pytest.approx(phi_o, rel=1e-12)
    resid = cur - mu_o - phi_o * lag
    assert est.sigma_v[0, 0] == pytest.approx((resid**2).mean(), rel=1e-10)


def test_iid_factors_slope_near_zero():
    rng = np.random.default_rng(1)
    t = 100_000
    x = rng.standard_normal((2, t + 1))
    est = fit_var1(make_panel(x))
    se = 1.0 / np.sqrt(t)
    assert np.abs(est.phi1).max() < 3 * se * 1.5


def test_residual_orthogonality_and_qxx():
    rng = np.random.default_rng(2)
    mu = np.array([0.1, 0.0, -0.3])
    phi = 0.5 * np.eye(3)
    x = simulate_var(rng, mu, phi, 0.2 * np.eye(3), 200)
    est = fit_var1(make_panel(x))
    scale = np.abs(est.residuals).max()
    assert np.abs(est.residuals.sum(axis=1)).max() < 1e-8 * scale * 200
    lagged = x[:, :-1]
    assert np.abs(est.residuals @ lagged.T).max() < 1e-8 * scale * 200
    centered = lagged - lagged.mean(axis=1, keepdims=True)
    returns = ReturnPanel(
        (1, 2), rng.standard_normal((2, 200)), tuple(f"t{i}" for i in range(200))
    )
    factors = make_panel(x)
    q_xx = build_stacked(returns, factors, est, second_stage(returns, factors, est)).q_xx
    assert np.allclose(q_xx, centered @ centered.T / 200, rtol=1e-12)


def test_sigma_v_permutation_conjugation():
    rng = np.random.default_rng(3)
    x = simulate_var(rng, np.zeros(3), 0.4 * np.eye(3), np.eye(3), 150)
    perm = np.array([2, 0, 1])
    p = np.eye(3)[perm]
    est = fit_var1(make_panel(x))
    est_p = fit_var1(make_panel(x[perm]))
    assert np.allclose(est_p.sigma_v, p @ est.sigma_v @ p.T, rtol=1e-10)
    assert np.allclose(est_p.phi1, p @ est.phi1 @ p.T, rtol=1e-10)


def test_equivariance_under_linear_transform():
    rng = np.random.default_rng(4)
    x = simulate_var(rng, np.array([0.2, -0.1]), np.array([[0.5, 0.2], [0.1, 0.3]]),
                     np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.5]])), 300)
    a = np.array([[2.0, -0.5], [1.0, 1.5]])
    est = fit_var1(make_panel(x))
    est_a = fit_var1(make_panel(a @ x))
    target = a @ est.phi1 @ np.linalg.inv(a)
    assert np.allclose(est_a.phi1, target, rtol=1e-8, atol=1e-10)
    assert np.allclose(est_a.mu, a @ est.mu, rtol=1e-8)


def test_rank_deficient_design_reports_condition():
    x = np.vstack([np.arange(10.0), 2 * np.arange(10.0)])  # collinear factors
    with pytest.raises(RankError, match="condition"):
        fit_var1(make_panel(x))


def test_too_short_series():
    with pytest.raises(PanelError):
        fit_var1(make_panel(np.random.default_rng(0).standard_normal((3, 4))))
