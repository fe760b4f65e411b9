import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpremia import subset
from riskpremia._linalg import chi2_ppf, chol_spd
from riskpremia.kronecker import kps_factorize, kps_residual_report
from riskpremia.montecarlo import preset_dgp, simulate
from riskpremia.pipeline import fit_model
from riskpremia.panels import FactorPanel, ReturnPanel
from riskpremia.subset import (
    BoundednessReport,
    SubsetHypothesis,
    boundedness_diagnostic,
    build_stacked,
    far_trace,
    kp_rank,
    sfar_column,
    sfar_distant,
    sfar_minimized,
    sfar_row,
    sfar_row_statistics,
    stacked_score_covariance,
)
from riskpremia.threestep import second_stage
from riskpremia.varstage import fit_var1

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


def fitted_system(rng=None, k=2, n=5, t=120, sigma_e=0.4, beta_scale=None, seed=0):
    rng = rng or np.random.default_rng(seed)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=k, n=n)
    if beta_scale is not None:
        beta = beta * np.asarray(beta_scale)[None, :]
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, sigma_e, t)
    var = fit_var1(factors)
    return build_stacked(returns, factors, var, second_stage(returns, factors, var)), lam1


def synthetic_system(rng, k, n, t=100):
    """A StackedSystem with freely chosen Phi, Psi, Sigma for algebraic tests."""
    from riskpremia.subset import StackedSystem

    phi = rng.standard_normal((n, 2 * k))
    a = rng.standard_normal((2 * k, 2 * k))
    psi = a @ a.T / (2 * k) + np.eye(2 * k)
    b = rng.standard_normal((n, n))
    sigma = b @ b.T / n + np.eye(n)
    kps = kps_factorize(np.kron(psi, sigma), 2 * k, n)
    return StackedSystem(
        phi_hat=phi,
        w_hat=np.eye(2 * k),
        psi_hat=psi,
        sigma_hat=sigma,
        q_xx=np.eye(k),
        kps=kps,
        xbar_lagged=np.zeros((k, t)),
        vhat=np.zeros((k, t)),
        rbar=np.zeros((n, t)),
        residuals=np.zeros((n, t)),
    )


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
    assert np.allclose(sys_p.w_hat, sys.w_hat, rtol=1e-12)


@pytest.mark.parametrize("variant", ["I", "II"])
def test_stacked_system_reuses_second_stage(variant):
    rng = np.random.default_rng(4)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=2, n=5)
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.5, 90)
    var = fit_var1(factors)
    reg = second_stage(returns, factors, var, variant=variant)
    sys = build_stacked(returns, factors, var, reg)
    # Phi = (d + beta phi1 : beta) is the second stage itself, not a re-fit
    assert sys.residuals is reg.residuals
    assert np.array_equal(sys.d_hat, reg.d_hat + reg.beta_hat @ var.phi1)
    assert np.array_equal(sys.beta_hat, reg.beta_hat)


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
    dense = kps_factorize(
        stacked_score_covariance(stacked.rbar, stacked.xbar_lagged, stacked.vhat, stacked.phi_hat),
        2 * k,
        n,
    )
    dense_sys = build_stacked(returns, factors, fit.var, fit.reg, kps=dense)
    assert fit.cov_mode == ("kps" if kps_residual_report(dense).passed else "hc0")
    h = SubsetHypothesis("row", 0, spec.lambda1[0])
    got = sfar_row(h, stacked).statistic
    ref = sfar_row(h, dense_sys).statistic
    assert abs(got - ref) <= 1e-10 * abs(ref)


# -- sFAR row ---------------------------------------------------------------------


def test_restriction_matrix_shape_and_k1():
    a = restriction_matrix(np.array([1.5]))
    assert np.allclose(a, [[1.0], [-1.5]])
    a2 = restriction_matrix(np.array([0.5, -0.25]))
    assert a2.shape == (4, 3)
    assert np.allclose(a2[2, :2], [-0.5, 0.25])


def test_k1_scalar_reduction_matches_far():
    sys, lam1 = fitted_system(k=1, n=4, t=90, seed=4)
    h = SubsetHypothesis("row", 0, np.array([lam1[0, 0]]))
    res = sfar_row(h, sys)
    # 1x1 pencil: explicit ratio
    a = restriction_matrix(h.value)
    hm = sys.phi_hat.T @ np.linalg.inv(sys.sigma_hat) @ sys.phi_hat
    expected = sys.n_periods * ((a.T @ hm @ a) / (a.T @ sys.psi_hat @ a)).item()
    assert res.statistic == pytest.approx(expected, rel=1e-8)
    assert res.statistic == pytest.approx(far_trace(sys, lam1[:1, :1].reshape(1, 1)), rel=1e-8)
    assert res.statistic == pytest.approx(sys.n_periods * res.roots[:1].sum(), rel=1e-10)


def test_sfar_row_equals_numeric_min_over_nuisance():
    for seed in (5, 6):
        sys, lam1 = fitted_system(k=2, n=5, t=100, seed=seed)
        h = SubsetHypothesis("row", 0, lam1[0])
        eig = sfar_row(h, sys)
        num = sfar_minimized(h, sys, n_starts=20, seed=seed)
        assert num.statistic == pytest.approx(eig.statistic, rel=1e-6)


def test_sfar_row_lower_bounds_far_over_nuisance_draws():
    rng = np.random.default_rng(7)
    sys, lam1 = fitted_system(k=2, n=5, t=100, seed=8)
    h = SubsetHypothesis("row", 0, lam1[0])
    stat = sfar_row(h, sys).statistic
    for _ in range(100):
        lam = np.vstack([lam1[0], rng.standard_normal((1, 2))])
        assert stat <= far_trace(sys, lam) + 1e-8 * max(1.0, stat)


def test_sfar_row_nonzero_index_matches_explicit_permutation():
    sys, lam1 = fitted_system(k=2, n=5, t=100, seed=9)
    h = SubsetHypothesis("row", 1, lam1[1])
    stat = sfar_row(h, sys).statistic
    # oracle: minimize FAR over the other row numerically
    num = sfar_minimized(h, sys, n_starts=20, seed=1)
    assert num.statistic == pytest.approx(stat, rel=1e-6)


def _pencil_by_permutation_matrix(sys, index, g):
    """Reference statistic and roots: Phi and Psi permuted by an explicit
    2K x 2K matrix, and H formed from the permuted Phi."""
    k = sys.n_factors
    order = [index] + [i for i in range(k) if i != index]
    perm = np.eye(k)[order]
    tp = np.block([[np.eye(k), np.zeros((k, k))], [np.zeros((k, k)), perm]])
    phi, psi = sys.phi_hat @ tp.T, tp @ sys.psi_hat @ tp.T
    hmat = phi.T @ np.linalg.inv(sys.sigma_hat) @ phi
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
        res = sfar_row(SubsetHypothesis("row", index, value), sys)
        stat, roots = _pencil_by_permutation_matrix(sys, index, restriction_matrix(value))
        scale = sys.n_periods * roots.max()
        assert res.statistic == pytest.approx(stat, rel=1e-12, abs=1e-12 * scale)
        np.testing.assert_allclose(res.roots, roots, rtol=1e-12, atol=1e-12 * roots.max())
        dist = sfar_distant(value, sys)
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
                stat = sfar_row(SubsetHypothesis("row", index, value), sys).statistic
                oracle = float(mp_row_statistic(mpmath.mp, sys, index, value))
                assert abs(stat - oracle) <= 1e-12 * oracle


def test_sigma_factored_once_per_system(monkeypatch):
    sys, lam1 = fitted_system(k=3, n=6, t=120, seed=23)
    calls = []

    def counting_chol(m, *args, **kwargs):
        if np.array_equal(m, sys.sigma_hat):
            calls.append(1)
        return chol_spd(m, *args, **kwargs)

    monkeypatch.setattr(subset, "chol_spd", counting_chol)
    for index in range(3):
        sfar_row(SubsetHypothesis("row", index, lam1[index]), sys)
        sfar_distant(lam1[index], sys)
    far_trace(sys, lam1)
    kp_rank(sys)
    boundedness_diagnostic(sys, n_directions=4)
    assert len(calls) == 1


def test_sfar_roots_real_nonnegative_and_continuous():
    sys, lam1 = fitted_system(k=2, n=6, t=110, seed=10)
    h0 = lam1[0]
    base = sfar_row(SubsetHypothesis("row", 0, h0), sys)
    assert np.all(base.roots >= 0.0)
    eps = 1e-6
    shifted = sfar_row(SubsetHypothesis("row", 0, h0 + eps), sys)
    slope = abs(shifted.statistic - base.statistic) / eps
    bigger = sfar_row(SubsetHypothesis("row", 0, h0 + 1e-3), sys)
    big_slope = abs(bigger.statistic - base.statistic) / 1e-3
    assert slope < 10 * max(big_slope, 1.0) + 1e3  # no jump at small perturbation


def test_sfar_invariant_to_asset_rotation():
    rng = np.random.default_rng(11)
    sys = synthetic_system(rng, k=2, n=5)
    lam0 = rng.standard_normal(2)
    stat = sfar_row(SubsetHypothesis("row", 0, lam0), sys).statistic
    rot = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    sys_rot = dataclasses.replace(
        sys, phi_hat=rot @ sys.phi_hat, sigma_hat=rot @ sys.sigma_hat @ rot.T
    )
    stat_rot = sfar_row(SubsetHypothesis("row", 0, lam0), sys_rot).statistic
    assert stat_rot == pytest.approx(stat, rel=1e-8)


def test_subset_values_of_the_wrong_length_raise_a_located_error():
    sys = fit_model(*simulate(preset_dgp("strong", k=2, n=4, t=80), 0)).stacked
    calls = [
        lambda: sfar_distant(np.ones(3), sys),
        lambda: sfar_distant(np.ones(1), sys),
        lambda: sfar_row_statistics(sys, np.ones((2, 3)), 0),
        lambda: sfar_row(SubsetHypothesis("row", 0, np.ones(3)), sys),
        lambda: sfar_column(SubsetHypothesis("column", 0, np.ones(3)), sys),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="needs 2 values, got [13]$"):
            call()


# -- columns ----------------------------------------------------------------------


def test_sfar_column_k1_equals_row():
    sys, lam1 = fitted_system(k=1, n=4, t=90, seed=12)
    val = np.array([lam1[0, 0] + 0.1])
    row = sfar_row(SubsetHypothesis("row", 0, val), sys)
    col = sfar_column(SubsetHypothesis("column", 0, val), sys)
    assert col.statistic == pytest.approx(row.statistic, rel=1e-8)
    assert col.method == "numeric"


def test_sfar_column_multistart_stability_and_dominance():
    sys, lam1 = fitted_system(k=2, n=5, t=100, seed=13)
    h = SubsetHypothesis("column", 0, lam1[:, 0])
    r1 = sfar_column(h, sys, n_starts=20, seed=0)
    r2 = sfar_column(h, sys, n_starts=20, seed=42)
    assert r2.statistic == pytest.approx(r1.statistic, rel=1e-6)
    # fixing the column at any value dominates the unrestricted-FAR minimum
    assert r1.statistic <= far_trace(sys, lam1) + 1e-8


# -- distant values and rank ------------------------------------------------------


def test_distant_value_matches_large_c_limit():
    rng = np.random.default_rng(14)
    sys, _ = fitted_system(k=2, n=5, t=100, seed=14)
    for _ in range(4):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        limit = sfar_distant(d, sys).statistic
        far_out = sfar_row(SubsetHypothesis("row", 0, 1e6 * d), sys).statistic
        assert far_out == pytest.approx(limit, rel=1e-4)


def test_distant_value_bounded_below_by_rank_stat():
    rng = np.random.default_rng(15)
    sys, _ = fitted_system(k=2, n=6, t=100, seed=15)
    rank = kp_rank(sys)
    for _ in range(8):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        assert sfar_distant(d, sys).statistic >= rank.statistic - 1e-8


def test_distant_equals_rank_stat_when_k1():
    sys, _ = fitted_system(k=1, n=5, t=90, seed=16)
    rank = kp_rank(sys)
    res = sfar_distant(np.array([1.0]), sys)
    assert res.statistic == pytest.approx(rank.statistic, rel=1e-8)
    res_neg = sfar_distant(np.array([-3.7]), sys)
    assert res_neg.statistic == pytest.approx(rank.statistic, rel=1e-8)


def test_interlacing_of_distant_pencil_roots():
    rng = np.random.default_rng(17)
    sys = synthetic_system(rng, k=3, n=7)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    res = sfar_distant(d, sys)
    k = 3
    # standardized pencil via reverse-order Cholesky keeps the lower-right
    # K x K block equal to the standardized rank matrix; Cauchy interlacing
    # then bounds root[j + K - 1] >= block eigenvalue j
    g = distant_restriction(d)
    hm = sys.phi_hat.T @ np.linalg.inv(sys.sigma_hat) @ sys.phi_hat
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
        sys, phi_hat=phi, psi_hat=np.eye(4), sigma_hat=np.eye(5)
    )
    assert kp_rank(sys0).statistic == pytest.approx(0.0, abs=1e-10)

    res = kp_rank(sys)
    pv = sys.psi_v
    w, q = np.linalg.eigh(pv)
    pv_half_inv = q @ np.diag(w**-0.5) @ q.T
    m = pv_half_inv @ sys.beta_hat.T @ np.linalg.inv(sys.sigma_hat) @ sys.beta_hat @ pv_half_inv
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
    oracle = sys.n_periods * scipy.linalg.eigh(sys.h_hat[k:, k:], sys.psi_v, eigvals_only=True)[0]
    # absolute floor near zero: rounding of the whitened pencil's largest root
    floor = 1e-12 * sys.n_periods * np.linalg.eigvalsh(sys.h_whitened)[-1]
    rank = kp_rank(sys).statistic
    assert rank == pytest.approx(max(oracle, 0.0), rel=1e-9, abs=floor)
    if k == 1:
        assert sfar_distant(rng.standard_normal(1), sys).statistic == pytest.approx(rank, rel=1e-12)


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
        assert sfar_distant(d, sys).statistic > rep.critical_value


def test_boundedness_rank_shortcut_k1():
    sys, _ = fitted_system(k=1, n=5, t=200, sigma_e=0.2, seed=22)
    rep = boundedness_diagnostic(sys, alpha=0.05, n_directions=4, seed=0)
    assert rep.rank_shortcut == (kp_rank(sys).pvalue < 0.05)
    assert isinstance(rep, BoundednessReport)
