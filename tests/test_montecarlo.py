import numpy as np
import pytest
import scipy.stats

from riskpremia.montecarlo import (
    DgpSpec,
    EigenLabSpec,
    bootstrap_lambda1_cov,
    calibrate,
    power_curve,
    power_surface,
    preset_dgp,
    rank_one_noncentrality,
    replicate_rng,
    sfar_density_experiment,
    simulate,
    wishart_eigen_lab,
)
from riskpremia import montecarlo
from riskpremia._linalg import NumericalError
from riskpremia.pipeline import fit_model


# -- simulate -----------------------------------------------------------------


def test_simulate_deterministic_and_replicate_streams():
    spec = preset_dgp("strong", k=2, n=4, t=50)
    r1, f1 = simulate(spec, seed=5, replicate=3)
    r2, f2 = simulate(spec, seed=5, replicate=3)
    assert np.array_equal(r1.returns, r2.returns)
    assert np.array_equal(f1.factors, f2.factors)
    r3, _ = simulate(spec, seed=5, replicate=4)
    assert not np.array_equal(r1.returns, r3.returns)


def test_simulate_zero_noise_is_deterministic():
    spec = preset_dgp("strong", k=1, n=3, t=20)
    spec = DgpSpec(
        c=spec.c[:3], beta=spec.beta[:3], lambda1=spec.lambda1, mu=spec.mu,
        phi1=spec.phi1, sigma_v=np.zeros((1, 1)), sigma_e2=0.0, t=20,
    )
    r1, f1 = simulate(spec, seed=0)
    r2, f2 = simulate(spec, seed=99)   # no randomness left
    assert np.array_equal(r1.returns, r2.returns)
    assert np.array_equal(f1.factors, f2.factors)
    mean = np.linalg.solve(np.eye(1) - spec.phi1, spec.mu)
    assert np.allclose(f1.factors, mean[:, None])


def test_simulate_innovation_moments():
    spec = preset_dgp("strong", k=2, n=3, t=100_000)
    _, factors = simulate(spec, seed=1)
    x = factors.factors
    v = x[:, 1:] - spec.mu[:, None] - spec.phi1 @ x[:, :-1]
    emp = v @ v.T / v.shape[1]
    se = 3.0 / np.sqrt(v.shape[1])
    assert np.abs(emp - spec.sigma_v).max() < 3 * se * spec.sigma_v.max()


def test_simulate_stationary_initialization_matches_lyapunov():
    spec = preset_dgp("strong", k=1, n=3, t=5)
    draws = np.array([simulate(spec, seed=s)[1].factors[0, 0] for s in range(4000)])
    gamma = spec.sigma_v[0, 0] / (1 - spec.phi1[0, 0] ** 2)
    mean = spec.mu[0] / (1 - spec.phi1[0, 0])
    assert draws.mean() == pytest.approx(mean, abs=4 * np.sqrt(gamma / 4000))
    assert draws.var() == pytest.approx(gamma, rel=0.15)


def test_nonstationary_phi_rejected_and_burnin_allowed():
    spec = preset_dgp("strong", k=1, n=3, t=30)
    bad = DgpSpec(
        c=spec.c, beta=spec.beta, lambda1=spec.lambda1, mu=spec.mu,
        phi1=np.array([[1.01]]), sigma_v=spec.sigma_v, sigma_e2=1.0, t=30,
    )
    with pytest.raises(ValueError, match="spectral radius"):
        simulate(bad, seed=0)
    r, f = simulate(spec, seed=0, init="burnin")
    assert f.n_periods == 31


def test_weak_scale_zero_column():
    spec = preset_dgp("strong", k=2, n=4, t=40)
    spec = DgpSpec(**{**spec.to_dict()})
    import dataclasses

    spec = dataclasses.replace(spec, weak_scale=np.array([1.0, 0.0]))
    assert np.allclose(spec.effective_beta[:, 1], 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        dataclasses.replace(spec, weak_scale=np.array([1.0, -1.0]))


def test_calibrate_simulate_self_consistency():
    spec0 = preset_dgp("strong", k=2, n=6, t=300)
    returns, factors = simulate(spec0, seed=3)
    fit = fit_model(returns, factors)
    spec = calibrate(fit.returns, fit.factors, fit.var, fit.reg, fit.por, t=100_000)
    big_r, big_f = simulate(spec, seed=4)
    refit = fit_model(big_r, big_f)
    cov = refit.asymptotic_cov()
    se = np.sqrt(np.diag(cov.v_lambda1) / spec.t)
    diff = np.abs(refit.por.lambda1 - spec.lambda1).reshape(-1, order="F")
    assert np.all(diff < 4 * se)
    # lambda0 recovered too through the intercept construction
    se0 = np.sqrt(np.diag(cov.v_lambda[:2, :2]) / spec.t)
    assert np.all(np.abs(refit.por.lambda0 - fit.por.lambda0) < 4 * se0)


# -- experiments -----------------------------------------------------------------


def test_power_curve_validation_and_degenerate_level():
    spec = preset_dgp("strong", k=1, n=4, t=80)
    with pytest.raises(ValueError, match="100 replicates"):
        power_curve(["far"], [spec.lambda1], spec, reps=10)
    table = power_curve(["far"], [spec.lambda1], spec, reps=100, level=1.0, seed=0)
    assert np.all(table.rejection == 1.0)


def test_power_curve_deterministic_across_threads():
    spec = preset_dgp("strong", k=1, n=4, t=60)
    t1 = power_curve(["far", "wald"], [spec.lambda1], spec, reps=120, seed=9, threads=1)
    t2 = power_curve(["far", "wald"], [spec.lambda1], spec, reps=120, seed=9, threads=3)
    assert np.array_equal(t1.rejection, t2.rejection)
    assert np.array_equal(t1.std_error, t2.std_error)


def test_power_surface_degenerate_level_and_minimum_location():
    spec = preset_dgp("strong", k=2, n=3, t=200)
    ax = spec.lambda1[0, 0] + np.linspace(-1.2, 1.2, 3)
    ay = spec.lambda1[0, 1] + np.linspace(-1.2, 1.2, 3)
    assert np.all(power_surface(spec, ax, ay, reps=5, level=1.0) == 1.0)
    surf = power_surface(spec, ax, ay, reps=150, level=0.05, seed=2)
    center = surf[1, 1]
    assert center <= surf.min() + 0.05
    assert surf[0, 0] > center and surf[-1, -1] > center


def test_sfar_density_zero_reps_edge():
    spec = preset_dgp("strong", k=2, n=6, t=120)
    res = sfar_density_experiment(spec, reps=0)
    assert res.statistics.size == 0
    assert np.isnan(res.ks_pvalue)


def test_sfar_density_statistics_nonnegative_finite():
    spec = preset_dgp("weak", k=2, n=4, t=100)
    res = sfar_density_experiment(spec, reps=80, seed=5)
    assert res.failures == 0
    assert np.all(res.statistics >= 0.0)
    assert np.all(np.isfinite(res.statistics))


def test_sfar_density_counts_numerical_failures_and_raises_bugs(monkeypatch):
    spec = preset_dgp("strong", k=2, n=4, t=60)

    def numerical(*args, **kwargs):
        raise NumericalError("matrix is not positive definite")

    monkeypatch.setattr(montecarlo, "fit_model", numerical)
    res = sfar_density_experiment(spec, reps=3)
    assert res.failures == 3
    assert res.statistics.size == 0

    def bug(*args, **kwargs):
        raise TypeError("programming error")

    monkeypatch.setattr(montecarlo, "fit_model", bug)
    with pytest.raises(TypeError):
        sfar_density_experiment(spec, reps=3)


# -- Wishart lab -------------------------------------------------------------------


def test_eigenlab_spec_validation():
    with pytest.raises(ValueError, match="rank"):
        EigenLabSpec(n_rows=5, dim=3, k=2, noncentrality=np.ones((5, 3)) + np.eye(5, 3))
    with pytest.raises(ValueError, match="N x L"):
        EigenLabSpec(n_rows=5, dim=3, k=2, noncentrality=np.ones((3, 5)))


def test_central_trace_is_chi_square():
    # K=1: the small-eigenvalue sum is the full trace, chi^2(N*L)
    spec = EigenLabSpec(n_rows=6, dim=3, k=1, reps=20_000, seed=0)
    res = wishart_eigen_lab(spec)
    assert res.central_dof == 18
    assert np.allclose(res.small_sums, res.eigenvalues.sum(axis=1))
    ks = scipy.stats.kstest(res.small_sums, scipy.stats.chi2(18).cdf)
    assert ks.pvalue > 0.01


def test_noncentral_small_sum_quantiles_increase_and_stay_below_central():
    n, l, k = 6, 3, 2
    qs = []
    for kappa in (1e2, 1e3, 1e4):
        spec = EigenLabSpec(
            n_rows=n, dim=l, k=k,
            noncentrality=rank_one_noncentrality(n, l, kappa),
            reps=20_000, seed=1,
        )
        res = wishart_eigen_lab(spec)
        qs.append(np.quantile(res.small_sums, 0.95))
    dof = (l - k + 1) * (n - k + 1)
    central = scipy.stats.chi2(dof).ppf(0.95)
    se = np.sqrt(0.95 * 0.05 / 20_000) / scipy.stats.chi2(dof).pdf(central)
    assert qs[0] < qs[1] < qs[2]
    assert all(q <= central + 2 * se for q in qs)


def test_large_eigenvalues_diverge_with_noncentrality():
    spec = EigenLabSpec(
        n_rows=6, dim=3, k=2,
        noncentrality=rank_one_noncentrality(6, 3, 1e4),
        reps=2_000, seed=2,
    )
    res = wishart_eigen_lab(spec)
    assert np.median(res.large_sums) > 5_000


# -- bootstrap cross-check -----------------------------------------------------------


def test_bootstrap_covariance_agrees_with_analytic():
    spec = preset_dgp("strong", k=1, n=4, t=300)
    boot = bootstrap_lambda1_cov(spec, reps=1500, seed=6)
    returns, factors = simulate(
        DgpSpec(**{**spec.to_dict(), "t": 40_000}), seed=7
    )
    fit = fit_model(returns, factors)
    ana = fit.asymptotic_cov().v_lambda1
    assert boot.shape == (1, 1)
    assert abs(boot[0, 0] - ana[0, 0]) / ana[0, 0] < 0.15


def test_replicate_rng_bit_stability():
    a = replicate_rng(1, 2, 3).standard_normal(4)
    b = replicate_rng(1, 2, 3).standard_normal(4)
    c = replicate_rng(1, 2, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
