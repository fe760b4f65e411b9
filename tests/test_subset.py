import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskpremia import subset
from riskpremia._linalg import NumericalError, chi2_ppf, chol_whiten, sym
from riskpremia.kronecker import kps_factorize, kps_factorize_model
from riskpremia.moments import robust_statistics
from riskpremia.montecarlo import preset_dgp, simulate
from riskpremia.pipeline import FIT_ERRORS, fit_model
from riskpremia.panels import ReturnPanel
from riskpremia.subset import (
    BoundednessReport,
    boundedness_diagnostic,
    build_stacked,
    kp_rank,
    sfar_column,
    sfar_distant,
    sfar_row,
    sfar_statistics,
    stacked_score_covariance,
)
from riskpremia.threestep import second_stage
from riskpremia.varstage import fit_var1

from oracles import (
    demean,
    dense_sigma,
    kps_omega,
    kps_sigma,
    residuals_contemporaneous,
    second_stage_contemporaneous,
    sfar_minimized,
    with_dense_sigma,
)
from test_threestep import make_dataset, default_params


def restriction_matrix(lam0: np.ndarray) -> np.ndarray:
    """Oracle A(lambda_1^0): 2K x (2K-1), columns spanning the hyperplane
    orthogonal to (lambda_1^0 ; e_0), the pencil's row restriction."""
    lam0 = np.asarray(lam0, dtype=float).reshape(-1)
    k = lam0.shape[-1]
    a = np.zeros((2 * k, 2 * k - 1))
    a[:k, :k] = np.eye(k)
    a[k, :k] = -lam0
    a[k + 1 :, k:] = np.eye(k - 1)
    return a


def orthonormal_completion(direction: np.ndarray) -> np.ndarray:
    """Oracle K x (K-1) orthonormal basis of the complement of a unit K-vector,
    from the full QR of [direction | I_K]."""
    k = direction.shape[-1]
    q, _ = np.linalg.qr(np.column_stack([direction, np.eye(k)]))
    return q[:, 1:k]


def distant_restriction(direction: np.ndarray) -> np.ndarray:
    """Oracle 2K x (2K-1) restriction of the distant-value pencil."""
    k = direction.shape[-1]
    g = np.zeros((2 * k, 2 * k - 1))
    g[:k, : k - 1] = orthonormal_completion(direction / np.linalg.norm(direction))
    g[k:, k - 1 :] = np.eye(k)
    return g


def fitted_model(rng=None, k=2, n=5, t=120, sigma_e=0.4, beta_scale=None, seed=0):
    """``fit_model`` of ``make_dataset`` panels at the default parameters
    (``beta_scale`` scales the loadings' columns), the true Lambda1 and the
    demeaned returns rbar."""
    rng = rng or np.random.default_rng(seed)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=k, n=n)
    if beta_scale is not None:
        beta = beta * np.asarray(beta_scale)[None, :]
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, sigma_e, t)
    return fit_model(returns, factors), lam1, demean(returns).returns


def fitted_data(rng=None, k=2, n=5, t=120, sigma_e=0.4, beta_scale=None, seed=0):
    """``fitted_system`` and the demeaned returns rbar it was fitted on."""
    fit, lam1, rbar = fitted_model(rng, k, n, t, sigma_e, beta_scale, seed)
    return fit.stacked, lam1, rbar


def fitted_system(rng=None, k=2, n=5, t=120, sigma_e=0.4, beta_scale=None, seed=0):
    sys, lam1, _ = fitted_data(rng, k, n, t, sigma_e, beta_scale, seed)
    return sys, lam1


def synthetic_system(rng, k, n, t=100):
    """A StackedSystem with freely chosen Phi and Psi for algebraic tests, and
    Sigma = I + beta beta'."""
    from riskpremia.subset import StackedSystem

    phi = rng.standard_normal((n, 2 * k))
    a = rng.standard_normal((2 * k, 2 * k))
    psi = a @ a.T / (2 * k) + np.eye(2 * k)
    return StackedSystem(
        phi_hat=phi,
        psi_hat=psi,
        sigma_pair=np.array([1.0, 1.0]),
        q_xx=np.eye(k),
        sigma_v=np.eye(k),
        vhat=np.zeros((k, t)),
        panel=ReturnPanel(tuple(range(1, n + 1)), np.zeros((n, t))),
        design_q=np.zeros((t, 1 + 2 * k)),
        design_r=np.zeros((1 + 2 * k, 1 + 2 * k)),
    )


def preset_system(k, n, kind, seed, replicates=0):
    """The system, spec, demeaned returns and second-stage regression of
    ``preset_dgp`` data; "unspanned" puts the last factor's loadings far
    below the sampling noise."""
    spec = preset_dgp("strong" if kind == "strong" else "weak", k=k, n=n, t=120)
    if kind == "unspanned":
        spec = dataclasses.replace(spec, weak_scale=np.r_[np.full(k - 1, 0.06), 1e-6])
    returns, factors = simulate(spec, seed, replicates)
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    return build_stacked(returns, factors, var, reg), spec, demean(returns).returns, reg


# -- stacked system ---------------------------------------------------------------


def test_build_stacked_noiseless_population_identity():
    rng = np.random.default_rng(1)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=5)
    _, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 60)
    var = fit_var1(factors)
    r = beta @ (lam1 @ factors.factors[:, :-1] + var.residuals)
    returns = ReturnPanel(tuple(range(5)), r, tuple(f"t{i}" for i in range(60)))
    sys = build_stacked(returns, factors, var, second_stage(returns, factors, var))
    assert np.allclose(sys.d_hat, beta @ lam1, atol=1e-10)
    assert np.allclose(sys.beta_hat, beta, atol=1e-10)
    assert np.linalg.matrix_rank(sys.phi_hat, tol=1e-8) == 2


def test_build_stacked_matches_two_block_ols_oracle():
    rng = np.random.default_rng(2)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=1, n=3)
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 6)
    var = fit_var1(factors)
    sys = build_stacked(returns, factors, var, second_stage(returns, factors, var))
    xbar = factors.factors[:, :-1] - factors.factors[:, :-1].mean(axis=1, keepdims=True)
    rbar = returns.returns - returns.returns.mean(axis=1, keepdims=True)
    design = np.vstack([xbar, var.residuals]).T
    oracle, *_ = np.linalg.lstsq(design, rbar.T, rcond=None)
    assert np.allclose(sys.phi_hat, oracle.T, rtol=1e-8, atol=1e-10)


def test_build_stacked_asset_permutation_equivariance():
    rng = np.random.default_rng(3)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=4)
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 80)
    var = fit_var1(factors)
    sys = build_stacked(returns, factors, var, second_stage(returns, factors, var))
    perm = [2, 0, 3, 1]
    rp = ReturnPanel(
        tuple(returns.maturities_held[i] for i in perm), returns.returns[perm], returns.dates
    )
    sys_p = build_stacked(rp, factors, var, second_stage(rp, factors, var))
    assert np.allclose(sys_p.phi_hat, sys.phi_hat[perm], rtol=1e-10)
    assert np.allclose(sys_p.q_xx, sys.q_xx, rtol=1e-12)
    assert np.allclose(sys_p.sigma_v, sys.sigma_v, rtol=1e-12)


@pytest.mark.parametrize("variant", ["I", "II"])
def test_stacked_system_reuses_second_stage(variant):
    rng = np.random.default_rng(4)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=5)
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 90)
    var = fit_var1(factors)
    # variant I, the regression on contemporaneous factors, is the dense reference
    route = second_stage if variant == "II" else second_stage_contemporaneous
    reg = route(returns, factors, var)
    sys = build_stacked(returns, factors, var, reg)
    # Phi = (d + beta phi1 : beta) is the second stage itself, not a re-fit,
    # and the system holds the returns and the VAR's Q and R by reference
    assert sys.returns is returns.returns and sys.design_q is var.design_q
    assert sys.design_r is var.design_r
    assert np.array_equal(sys.d_hat, reg.d_hat + reg.beta_hat @ var.phi1)
    assert np.array_equal(sys.beta_hat, reg.beta_hat)


@pytest.mark.parametrize("k, n, reps", [(1, 11, 0), (2, 6, 4), (5, 20, 3)])
def test_residuals_are_formed_on_demand_from_the_returns(k, n, reps):
    # the fit keeps no residuals: the first read forms them from the returns
    # it holds by reference, within 1e-12 of the dense contemporaneous
    # regression and bit for bit the block product that sigma_e^2 summed
    spec = preset_dgp("strong", k=k, n=n, t=300)
    returns, factors = simulate(spec, 8, range(reps) if reps else 0)
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    assert not hasattr(reg, "residuals")
    sys = build_stacked(returns, factors, var, reg)
    assert "residuals" not in vars(sys) and sys.returns is returns.returns
    resid = sys.residuals
    assert sys.residuals is resid
    ref = residuals_contemporaneous(returns, factors)
    assert np.abs(resid - ref).max() <= 1e-12
    r, basis = returns.returns, var.design_q
    assert np.array_equal(resid, r - (r @ basis) @ basis.swapaxes(-1, -2))
    sigma_e2 = np.einsum("...nt,...nt->...", resid, resid) / (n * spec.t)
    assert np.array_equal(sigma_e2, reg.sigma_e2)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 4),
    st.sampled_from(["strong", "weak"]),
    st.integers(0, 1000),
)
def test_fit_model_terms_route_matches_dense_route(k, extra, kind, seed):
    # N = K+1 when extra = 0; weak loadings give a near-unspanned beta
    n = k + 1 + extra
    spec = preset_dgp(kind, k=k, n=n, t=120)
    returns, factors = simulate(spec, seed)
    fit = fit_model(returns, factors)
    stacked = fit.stacked
    score = stacked_score_covariance(
        demean(returns).returns, stacked.xbar_lagged, stacked.vhat, stacked.phi_hat
    )
    dense = kps_factorize(score, 2 * k, n)
    w_inv = np.linalg.inv(kps_omega(1.0, 1.0, stacked.q_xx, stacked.sigma_v))     # W = diag(Qxx, Sigma_v)
    dense_sys = with_dense_sigma(
        dataclasses.replace(stacked, psi_hat=sym(w_inv @ dense.omega @ w_inv)), dense.sigma
    )
    got = sfar_row(stacked, spec.lambda1[0], 0).statistic
    ref = sfar_row(dense_sys, spec.lambda1[0], 0).statistic
    assert abs(got - ref) <= 1e-10 * abs(ref)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(st.just(k), st.sampled_from([1, k + 1]) | st.integers(k + 1, 20))
    ),
    st.sampled_from(["strong", "weak", "unspanned"]),
    st.sampled_from([0, 3]),
    st.integers(0, 1000),
)
def test_closed_form_factors_match_dense_over_random_shapes(shape, kind, reps, seed):
    # a single fit (reps = 0) or a stack of three
    k, n = shape
    sys, _, rbar, reg = preset_system(k, n, kind, seed, range(reps) if reps else 0)
    assert sys.batch_shape == ((reps,) if reps else ())
    # the scalars the fit was built from: Sigma's are sigma_pair, Omega's
    # are behind psi_hat
    q_xx, sigma_v = sys.q_xx, sys.sigma_v
    omega_x, omega_v, alpha, gamma = kps_factorize_model(q_xx, sigma_v, reg.sigma_e2, sys.beta_hat)
    assert np.array_equal(np.stack([alpha, gamma], axis=-1), sys.sigma_pair)
    omega = kps_omega(omega_x, omega_v, q_xx, sigma_v)
    sigma = kps_sigma(alpha, gamma, sys.beta_hat, sigma_v)
    # Psi = W^-1 Omega W^-1 for W = diag(Qxx, Sigma_v) is the block form
    # diag(omega_x Qxx^-1, omega_v Sigma_v^-1)
    block = np.zeros_like(sys.psi_hat)
    block[..., :k, :k] = omega_x[..., None, None] * np.linalg.inv(q_xx)
    block[..., k:, k:] = omega_v[..., None, None] * np.linalg.inv(sigma_v)
    assert np.array_equal(sym(block), sys.psi_hat)
    w_inv = np.linalg.inv(kps_omega(1.0, 1.0, q_xx, sigma_v))
    dense_psi = w_inv @ omega @ w_inv
    assert np.abs(dense_psi - sys.psi_hat).max() <= 1e-14 * np.abs(dense_psi).max()
    for j in np.ndindex(sys.batch_shape):
        s = stacked_score_covariance(rbar[j], sys.xbar_lagged[j], sys.vhat[j], sys.phi_hat[j])
        dense = kps_factorize(s, 2 * k, n)
        product = np.kron(omega[j], sigma[j])
        expected = np.kron(dense.omega, dense.sigma)
        assert np.linalg.norm(product - expected) <= 1e-12 * np.linalg.norm(expected)
        # SPD with no clipping and no jitter
        for m in (omega[j], sigma[j], sys.psi_hat[j]):
            np.linalg.cholesky(m)


def test_sigma_pair_is_lifted_on_noiseless_data():
    # sigma_e^2 is zero to rounding, so alpha, Sigma's eigenvalue off
    # span(beta), is too: the fit stores it already lifted above
    # eps tr(Sigma)/N, and no later reader repairs it
    rng = np.random.default_rng(1)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=1, n=4)
    _, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 80)
    var = fit_var1(factors)
    r = beta @ (lam1 @ factors.factors[:, :-1] + var.residuals)
    fit = fit_model(ReturnPanel(tuple(range(4)), r, tuple(f"t{i}" for i in range(80))), factors)
    assert fit.reg.sigma_e2 < 1e-20
    alpha = fit.stacked.sigma_pair[0]
    assert alpha > np.finfo(float).eps * np.trace(dense_sigma(fit.stacked)) / 4


def test_build_stacked_makes_no_decomposition(monkeypatch):
    # the fit's covariance factors are closed forms: an eigenvalue projection,
    # SVD or QR creeping back into build_stacked fails this count
    returns, factors = simulate(preset_dgp("strong", k=3, n=10, t=120), 5, range(4))
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"np.linalg.{name} called by build_stacked")
        return call

    for name in ("eig", "eigh", "eigvalsh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse(name))
    sys = build_stacked(returns, factors, var, reg)
    assert calls == []
    assert sys.sigma_pair.shape == (4, 2) and sys.psi_hat.shape == (4, 6, 6)


def test_a_fit_and_its_pencil_form_no_n_by_n_array():
    # Sigma is two scalars on the fit and H comes from the 2K x 2K R of Phi,
    # so at N = 2000 one fit, its H and a row sFAR stay under the 32 MB of
    # one N x N float64 array
    spec = preset_dgp("strong", k=2, n=2000, t=60)
    panels = simulate(spec, 0)
    tracemalloc.start()
    try:
        sys = fit_model(*panels).stacked
        sys.h_hat
        sfar_row(sys, spec.lambda1[0], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2000 * 8


def test_a_fit_with_zero_residual_variance_raises_naming_it():
    # s2 = 0 leaves the Sigma_v block of Omega zero: the fit refuses with a
    # NumericalError, which a Monte Carlo run counts as a failed replicate
    returns, factors = simulate(preset_dgp("strong", k=2, n=6, t=120), 5, range(3))
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var)
    s2 = reg.sigma_e2.copy()
    s2[1] = 0.0
    with pytest.raises(NumericalError, match=r"sigma_e2 is not positive at stack entry \(1,\)"):
        build_stacked(returns, factors, var, dataclasses.replace(reg, sigma_e2=s2))
    assert NumericalError in FIT_ERRORS


# -- sFAR row ---------------------------------------------------------------------


def test_restriction_matrix_shape_and_k1():
    a = restriction_matrix(np.array([1.5]))
    assert np.allclose(a, [[1.0], [-1.5]])
    a2 = restriction_matrix(np.array([0.5, -0.25]))
    assert a2.shape == (4, 3)
    assert np.allclose(a2[2, :2], [-0.5, 0.25])


def test_k1_scalar_reduction_matches_far():
    sys, lam1 = fitted_system(k=1, n=4, t=90, seed=4)
    value = np.array([lam1[0, 0]])
    res = sfar_row(sys, value, 0)
    # 1x1 pencil: explicit ratio
    a = restriction_matrix(value)
    hm = sys.phi_hat.T @ np.linalg.inv(dense_sigma(sys)) @ sys.phi_hat
    expected = sys.n_periods * ((a.T @ hm @ a) / (a.T @ sys.psi_hat @ a)).item()
    assert res.statistic == pytest.approx(expected, rel=1e-8)
    assert res.statistic == pytest.approx(robust_statistics(sys, lam1[:1, :1], "kps", ("far",))["far"], rel=1e-8)
    assert res.statistic == pytest.approx(sys.n_periods * res.roots[:1].sum(), rel=1e-10)


def test_sfar_row_equals_numeric_min_over_nuisance():
    for seed in (5, 6):
        sys, lam1 = fitted_system(k=2, n=5, t=100, seed=seed)
        eig = sfar_row(sys, lam1[0], 0)
        num = sfar_minimized(sys, lam1[0], 0, "row", seed=seed)
        assert num == pytest.approx(eig.statistic, rel=1e-6)


def test_sfar_row_lower_bounds_far_over_nuisance_draws():
    rng = np.random.default_rng(7)
    sys, lam1 = fitted_system(k=2, n=5, t=100, seed=8)
    stat = sfar_row(sys, lam1[0], 0).statistic
    for _ in range(100):
        lam = np.vstack([lam1[0], rng.standard_normal((1, 2))])
        assert stat <= robust_statistics(sys, lam, "kps", ("far",))["far"] + 1e-8 * max(1.0, stat)


def test_sfar_row_nonzero_index_matches_explicit_permutation():
    sys, lam1 = fitted_system(k=2, n=5, t=100, seed=9)
    stat = sfar_row(sys, lam1[1], 1).statistic
    # oracle: minimize FAR over the other row numerically
    num = sfar_minimized(sys, lam1[1], 1, "row", seed=1)
    assert num == pytest.approx(stat, rel=1e-6)


def _pencil_by_permutation_matrix(sys, index, g):
    """Reference statistic and roots: Phi and Psi permuted by an explicit
    2K x 2K matrix, and H formed from the permuted Phi."""
    k = sys.n_factors
    order = [index] + [i for i in range(k) if i != index]
    perm = np.eye(k)[order]
    tp = np.block([[np.eye(k), np.zeros((k, k))], [np.zeros((k, k)), perm]])
    phi, psi = sys.phi_hat @ tp.T, tp @ sys.psi_hat @ tp.T
    hmat = phi.T @ np.linalg.inv(dense_sigma(sys)) @ phi
    roots = np.maximum(scipy.linalg.eigh(g.T @ hmat @ g, g.T @ psi @ g, eigvals_only=True), 0.0)
    return sys.n_periods * roots[:k].sum(), roots


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_sfar_every_index_matches_permutation_matrix_oracle(k, extra, seed):
    # N = K+1 when extra = 0
    rng = np.random.default_rng(seed)
    sys = synthetic_system(rng, k, k + 1 + extra)
    value = 3.0 * rng.standard_normal(k)
    for index in range(k):
        res = sfar_row(sys, value, index)
        stat, roots = _pencil_by_permutation_matrix(sys, index, restriction_matrix(value))
        scale = sys.n_periods * roots.max()
        assert res.statistic == pytest.approx(stat, rel=1e-12, abs=1e-12 * scale)
        np.testing.assert_allclose(res.roots, roots, rtol=1e-12, atol=1e-12 * roots.max())
        dist = sfar_distant(sys, value)
        stat, roots = _pencil_by_permutation_matrix(sys, index, distant_restriction(value))
        scale = sys.n_periods * roots.max()
        assert dist.statistic == pytest.approx(stat, rel=1e-12, abs=1e-12 * scale)


def mp_row_statistic(mp, sys, index, value):
    """Subset statistic of a row hypothesis in the working precision of
    ``mp``: the pencil (H, Psi), taken exactly from the float system, on a
    basis of the hyperplane orthogonal to (value ; e_index)."""
    k = sys.n_factors
    basis = mp.zeros(2 * k, 2 * k - 1)
    for j in range(k):
        basis[j, j] = 1
        basis[k + index, j] = -mp.mpf(float(value[j]))
    for col, m in enumerate(i for i in range(k) if i != index):
        basis[k + m, k + col] = 1
    h = mp.matrix(sys.h_hat.tolist())
    psi = mp.matrix(sys.psi_hat.tolist())
    low_inv = mp.inverse(mp.cholesky(basis.T * psi * basis))
    std = low_inv * (basis.T * h * basis) * low_inv.T
    roots, _ = mp.eigsy((std + std.T) / 2)
    return sys.n_periods * sum(sorted(roots)[:k])


def test_far_out_rows_match_a_high_precision_oracle():
    # |lambda| near 1e6: the restricted pencil must stay accurate far out,
    # where the distant-value limit is read
    mpmath = pytest.importorskip("mpmath")
    sys, _ = fitted_system(k=3, n=6, t=120, seed=24)
    rng = np.random.default_rng(24)
    with mpmath.workdps(40):
        for index in range(3):
            for _ in range(3):
                d = rng.standard_normal(3)
                value = 1e6 * d / np.linalg.norm(d)
                stat = sfar_row(sys, value, index).statistic
                oracle = float(mp_row_statistic(mpmath.mp, sys, index, value))
                assert abs(stat - oracle) <= 1e-12 * oracle


def test_sigma_factored_once_per_system(monkeypatch):
    sys, lam1 = fitted_system(k=3, n=6, t=120, seed=23)
    calls = []

    def counting_chol(v, *args, **kwargs):
        # the other factorization is Psi's
        if not np.array_equal(v, sys.psi_hat):
            calls.append(1)
        return chol_whiten(v, *args, **kwargs)

    monkeypatch.setattr(subset, "chol_whiten", counting_chol)
    for index in range(3):
        sfar_row(sys, lam1[index], index)
        sfar_distant(sys, lam1[index])
    robust_statistics(sys, lam1, "kps", ("far",))
    kp_rank(sys)
    boundedness_diagnostic(sys, n_directions=4)
    assert len(calls) == 1


def test_sfar_roots_real_nonnegative_and_continuous():
    sys, lam1 = fitted_system(k=2, n=6, t=110, seed=10)
    h0 = lam1[0]
    base = sfar_row(sys, h0, 0)
    assert np.all(base.roots >= 0.0)
    eps = 1e-6
    shifted = sfar_row(sys, h0 + eps, 0)
    slope = abs(shifted.statistic - base.statistic) / eps
    bigger = sfar_row(sys, h0 + 1e-3, 0)
    big_slope = abs(bigger.statistic - base.statistic) / 1e-3
    assert slope < 10 * max(big_slope, 1.0) + 1e3  # no jump at small perturbation


def test_sfar_invariant_to_asset_rotation():
    rng = np.random.default_rng(11)
    sys = synthetic_system(rng, k=2, n=5)
    lam0 = rng.standard_normal(2)
    stat = sfar_row(sys, lam0, 0).statistic
    rot = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    # Sigma = alpha I + gamma beta Sigma_v beta' turns with beta
    sys_rot = dataclasses.replace(sys, phi_hat=rot @ sys.phi_hat)
    stat_rot = sfar_row(sys_rot, lam0, 0).statistic
    assert stat_rot == pytest.approx(stat, rel=1e-8)


def test_subset_values_of_the_wrong_length_raise_a_located_error():
    sys = fit_model(*simulate(preset_dgp("strong", k=2, n=4, t=80), 0)).stacked
    calls = [
        lambda: sfar_distant(sys, np.ones(3)),
        lambda: sfar_distant(sys, np.ones(1)),
        lambda: sfar_statistics(sys, np.ones((2, 3)), 0),
        lambda: sfar_row(sys, np.ones(3), 0),
        lambda: sfar_column(sys, np.ones(3), 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="needs 2 values, got [13]$"):
            call()


def test_sfar_distant_rejects_a_zero_or_non_finite_direction():
    sys = fit_model(*simulate(preset_dgp("strong", k=2, n=4, t=80), 0)).stacked
    for direction, message in ((np.zeros(2), "nonzero"), (np.array([1.0, np.nan]), "finite"),
                               (np.array([np.inf, 0.0]), "finite")):
        with pytest.raises(ValueError, match=message):
            sfar_distant(sys, direction)


# -- columns ----------------------------------------------------------------------


def test_sfar_column_k1_equals_row():
    sys, lam1 = fitted_system(k=1, n=4, t=90, seed=12)
    val = np.array([lam1[0, 0] + 0.1])
    row = sfar_row(sys, val, 0)
    col = sfar_column(sys, val, 0)
    assert col.statistic == pytest.approx(row.statistic, rel=1e-8)


def test_sfar_column_multistart_stability_and_dominance():
    sys, lam1 = fitted_system(k=2, n=5, t=100, seed=13)
    stat = sfar_column(sys, lam1[:, 0], 0).statistic
    # the oracle's multi-start minimum agrees across seeds and with the closed form
    r1 = sfar_minimized(sys, lam1[:, 0], 0, "column", seed=0)
    r2 = sfar_minimized(sys, lam1[:, 0], 0, "column", seed=42)
    assert r2 == pytest.approx(r1, rel=1e-6)
    assert stat == pytest.approx(r1, rel=1e-6)
    # fixing the column at any value dominates the unrestricted-FAR minimum
    assert stat <= robust_statistics(sys, lam1, "kps", ("far",))["far"] + 1e-8


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(k + 1, 12))),
    st.sampled_from(["strong", "weak", "unspanned"]),
    st.integers(0, 1000),
)
def test_sfar_column_lower_bounds_far_and_is_the_row_at_k1(shape, kind, seed):
    k, n = shape
    sys, spec, _, _ = preset_system(k, n, kind, seed)
    rng = np.random.default_rng(seed)
    index = int(rng.integers(k))
    value = spec.lambda1[:, index] + rng.standard_normal(k)
    stat = sfar_column(sys, value, index).statistic
    # FAR with the column fixed, at random nuisance columns of three scales
    lams = rng.standard_normal((60, k, k)) * np.repeat([0.1, 1.0, 10.0], 20)[:, None, None]
    lams[:, :, index] = value
    assert (stat <= robust_statistics(sys, lams, "kps", ("far",))["far"] + 1e-10 * max(1.0, stat)).all()
    if k == 1:
        assert stat == pytest.approx(sfar_row(sys, value, 0).statistic, rel=1e-10)


# -- distant values and rank ------------------------------------------------------


def test_distant_value_matches_large_c_limit():
    rng = np.random.default_rng(14)
    sys, _ = fitted_system(k=2, n=5, t=100, seed=14)
    for _ in range(4):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        limit = sfar_distant(sys, d).statistic
        far_out = sfar_row(sys, 1e6 * d, 0).statistic
        assert far_out == pytest.approx(limit, rel=1e-4)


def test_distant_value_bounded_below_by_rank_stat():
    rng = np.random.default_rng(15)
    sys, _ = fitted_system(k=2, n=6, t=100, seed=15)
    rank = kp_rank(sys)
    for _ in range(8):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        assert sfar_distant(sys, d).statistic >= rank.statistic - 1e-8


def test_distant_equals_rank_stat_when_k1():
    sys, _ = fitted_system(k=1, n=5, t=90, seed=16)
    rank = kp_rank(sys)
    res = sfar_distant(sys, np.array([1.0]))
    assert res.statistic == pytest.approx(rank.statistic, rel=1e-8)
    res_neg = sfar_distant(sys, np.array([-3.7]))
    assert res_neg.statistic == pytest.approx(rank.statistic, rel=1e-8)


def test_interlacing_of_distant_pencil_roots():
    rng = np.random.default_rng(17)
    sys = synthetic_system(rng, k=3, n=7)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    res = sfar_distant(sys, d)
    k = 3
    # standardized pencil via reverse-order Cholesky keeps the lower-right
    # K x K block equal to the standardized rank matrix; Cauchy interlacing
    # then bounds root[j + K - 1] >= block eigenvalue j
    g = distant_restriction(d)
    hm = sys.phi_hat.T @ np.linalg.inv(dense_sigma(sys)) @ sys.phi_hat
    big_a, big_b = g.T @ hm @ g, g.T @ sys.psi_hat @ g
    rev = lambda m: m[::-1, ::-1]
    u = rev(np.linalg.cholesky(rev(big_b)))  # upper-triangular with u u' = big_b
    c = np.linalg.solve(u, np.linalg.solve(u, big_a.T).T)
    block = c[k - 1 :, k - 1 :]
    block_eigs = np.sort(np.linalg.eigvalsh(block))
    roots = np.sort(np.linalg.eigvalsh((c + c.T) / 2))
    for j in range(k):
        assert roots[j + k - 1] >= block_eigs[j] - 1e-8
    assert np.allclose(roots, res.roots, rtol=1e-8)


def test_kp_rank_zero_column_and_eigen_oracle():
    rng = np.random.default_rng(18)
    sys = synthetic_system(rng, k=2, n=5)

    beta = rng.standard_normal((5, 2))
    beta[:, 1] = 0.0
    phi = np.hstack([rng.standard_normal((5, 2)), beta])
    sys0 = dataclasses.replace(
        sys, phi_hat=phi, psi_hat=np.eye(4), sigma_pair=np.array([1.0, 0.0])
    )
    assert kp_rank(sys0).statistic == pytest.approx(0.0, abs=1e-10)

    res = kp_rank(sys)
    pv = sys.psi_hat[2:, 2:]
    w, q = np.linalg.eigh(pv)
    pv_half_inv = q @ np.diag(w**-0.5) @ q.T
    m = pv_half_inv @ sys.beta_hat.T @ np.linalg.inv(dense_sigma(sys)) @ sys.beta_hat @ pv_half_inv
    oracle = sys.n_periods * np.linalg.eigvalsh(m).min()
    assert res.statistic == pytest.approx(oracle, rel=1e-8)
    assert res.dof == 5 - 2 + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_kp_rank_matches_the_rank_pencil_oracle(k, extra, weak_last, seed):
    # N = K+1 when extra = 1; a last beta column scaled by 1e-6 when weak_last;
    # factor rows scaled over 8 decades
    rng = np.random.default_rng(seed)
    scale = np.ones(k)
    scale[-1] = 1e-6 if weak_last else 1.0
    spec = dataclasses.replace(preset_dgp("strong", k=k, n=k + extra, t=120), weak_scale=scale)
    returns, factors = simulate(spec, seed)
    rows = 10.0 ** rng.uniform(-4.0, 4.0, k)
    factors = dataclasses.replace(factors, factors=factors.factors * rows[:, None])
    sys = fit_model(returns, factors).stacked
    oracle = sys.n_periods * scipy.linalg.eigh(sys.h_hat[k:, k:], sys.psi_hat[k:, k:], eigvals_only=True)[0]
    # absolute floor near zero: rounding of the whitened pencil's largest root
    floor = 1e-12 * sys.n_periods * np.linalg.eigvalsh(sys.h_whitened)[-1]
    rank = kp_rank(sys).statistic
    assert rank == pytest.approx(max(oracle, 0.0), rel=1e-9, abs=floor)
    if k == 1:
        assert sfar_distant(sys, rng.standard_normal(1)).statistic == pytest.approx(rank, rel=1e-12)


# -- boundedness ------------------------------------------------------------------


def test_boundedness_strong_vs_weak():
    sys, _ = fitted_system(k=2, n=6, t=300, sigma_e=0.15, seed=19)
    rep = boundedness_diagnostic(sys, alpha=0.05, n_directions=16, seed=0)
    assert rep.bounded_all

    weak_sys, _ = fitted_system(
        k=2, n=6, t=300, sigma_e=0.15, beta_scale=(3e-3, 8e-4), seed=20
    )
    rep_w = boundedness_diagnostic(weak_sys, alpha=0.05, n_directions=16, seed=0)
    assert not rep_w.bounded_all
    assert len(rep_w.unbounded_directions) >= 1


@pytest.mark.parametrize("alpha", [-0.1, 0.0, 1.5, np.nan])
def test_boundedness_rejects_a_level_outside_0_1(alpha):
    # at weak (2, 6) every scanned direction is unbounded at the 5 % level, so
    # a level that yields no critical value must not certify the set bounded
    sys = fit_model(*simulate(preset_dgp("weak", k=2, n=6, t=300), 3)).stacked
    assert not boundedness_diagnostic(sys, alpha=0.05, n_directions=8).bounded_all
    with pytest.raises(ValueError, match="alpha"):
        boundedness_diagnostic(sys, alpha=alpha, n_directions=8)


def test_boundedness_degenerate_level():
    sys, _ = fitted_system(k=2, n=5, t=80, seed=21)
    rep = boundedness_diagnostic(sys, alpha=1.0, n_directions=5, seed=0)
    assert not rep.bounded_all
    assert len(rep.unbounded_directions) == 5


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(1, 4),
    st.sampled_from([3, 10, 30, 100]),
    st.integers(0, 2**32 - 1),
)
def test_rank_certificate_bounds_every_direction(k, extra, t, seed):
    rng = np.random.default_rng(seed)
    sys = synthetic_system(rng, k, k + extra, t=t)
    rep = boundedness_diagnostic(sys, alpha=0.05, n_directions=16, seed=seed % 7)
    assert rep.rank_shortcut == (kp_rank(sys).statistic > rep.critical_value)
    if not rep.rank_shortcut:
        return
    assert rep.bounded_all and rep.unbounded_directions == []
    # an explicit scan: a half circle at K = 2, random directions at K = 3
    if k == 2:
        angles = np.linspace(0.0, np.pi, 181)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        dirs = rng.standard_normal((200, k))
    for d in dirs:
        assert sfar_distant(sys, d).statistic > rep.critical_value


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([3, 10, 30, 100]),
    st.integers(0, 2**32 - 1),
)
@example(k=1, extra=4, t=3, seed=1425)
@example(k=1, extra=3, t=3, seed=4804)
def test_rank_statistic_bounds_every_column_limit(k, extra, t, seed):
    # Courant-Fischer on {(0 ; y)}: the Rayleigh term T b'Hb / b'Psi b of the
    # column limit at b = (0 ; -d) is at least T times that pencil's smallest
    # root, the rank statistic, and the column limit adds nonnegative roots.
    # The limit is taken exactly, at the normals (0 ; -d): a statistic at a
    # finite point c d sits O(1/c) away from it, more than the floor at T = 3
    rng = np.random.default_rng(seed)
    sys = synthetic_system(rng, k, k + extra, t=t)
    rank = kp_rank(sys).statistic
    dirs = rng.standard_normal((50, k))
    b = np.concatenate([np.zeros((50, k)), -dirs], axis=1)
    rayleigh = t * np.einsum("pi,ij,pj->p", b, sys.h_hat, b) / np.einsum("pi,ij,pj->p", b, sys.psi_hat, b)
    limits = subset._projected_roots(sys, dirs, kind="column")[0]
    floor = 1e-9 * t * np.linalg.eigvalsh(sys.h_whitened)[-1]
    assert np.all(rayleigh >= rank - floor)
    assert np.all(limits >= rayleigh - floor)
    rep = boundedness_diagnostic(sys, alpha=0.05, n_directions=16, seed=seed % 7, kind="column")
    assert rep.rank_shortcut == (rank > rep.critical_value)
    if rep.rank_shortcut:
        assert rep.bounded_all and np.all(limits > rep.critical_value)


def test_column_scan_takes_column_limits_direction_by_direction():
    # weak (2, 6), seed 3: the row limits accept all 64 directions, the
    # column limits about half of them
    sys = fit_model(*simulate(preset_dgp("weak", k=2, n=6, t=300), 3)).stacked
    rows = boundedness_diagnostic(sys, n_directions=64, seed=0)
    cols = boundedness_diagnostic(sys, n_directions=64, seed=0, kind="column")
    assert not cols.rank_shortcut
    dirs = np.random.default_rng(0).standard_normal((64, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    limits = sfar_statistics(sys, 1e12 * dirs, 1, "column")
    clear = np.abs(limits - cols.critical_value) > 1e-6 * cols.critical_value
    accepted = {tuple(d) for d in cols.unbounded_directions}
    assert [tuple(d) in accepted for d in dirs[clear]] == list(limits[clear] <= cols.critical_value)
    assert 0 < len(accepted) < len(rows.unbounded_directions) == 64
    with pytest.raises(ValueError, match="kind"):
        boundedness_diagnostic(sys, kind="full")


def test_boundedness_rank_shortcut_k1():
    sys, _ = fitted_system(k=1, n=5, t=200, sigma_e=0.2, seed=22)
    rep = boundedness_diagnostic(sys, alpha=0.05, n_directions=4, seed=0)
    assert rep.rank_shortcut == (kp_rank(sys).pvalue < 0.05)
    assert isinstance(rep, BoundednessReport)
