import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpremia._linalg import NumericalError, vec
from riskpremia.kronecker import (
    kps_factorize,
    kps_factorize_model,
    rearrange,
)
from riskpremia.subset import model_score_terms

from oracles import kps_omega, kps_sigma, rearrange_inverse, vec_kron


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T / n + np.eye(n))


def rearrange_oracle(s, p, k):
    # direct translation of the block definition, loop by loop
    out = np.zeros((p * p, k * k))
    for j in range(p):
        for i in range(p):
            block = s[i * k : (i + 1) * k, j * k : (j + 1) * k]
            out[j * p + i, :] = block.reshape(-1, order="F")
    return out


def test_rearrange_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    p, k = 3, 2
    s = rng.standard_normal((p * k, p * k))
    assert np.allclose(rearrange(s, p, k), rearrange_oracle(s, p, k))


def test_rearrange_identity_4x4():
    r = rearrange(np.eye(4), 2, 2)
    v = np.eye(2).reshape(-1, order="F")
    assert np.allclose(r, np.outer(v, v))
    sv = np.linalg.svd(r, compute_uv=False)
    assert np.allclose(sv, [2.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_rearrange_kron_outer_is_rank_one():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(3)
    v = rng.standard_normal(4)
    s = np.kron(np.outer(u, u), np.outer(v, v))
    r = rearrange(s, 3, 4)
    sv = np.linalg.svd(r, compute_uv=False)
    assert sv[1] < 1e-12 * sv[0]


def test_rearrange_is_linear():
    rng = np.random.default_rng(2)
    p, k = 2, 3
    s1 = rng.standard_normal((6, 6))
    s2 = rng.standard_normal((6, 6))
    a, b = 0.7, -2.3
    assert np.allclose(
        rearrange(a * s1 + b * s2, p, k),
        a * rearrange(s1, p, k) + b * rearrange(s2, p, k),
    )


def test_rearrange_inverse_roundtrip():
    rng = np.random.default_rng(3)
    p, k = 4, 3
    s = rng.standard_normal((12, 12))
    assert np.allclose(rearrange_inverse(rearrange(s, p, k), p, k), s)
    m = rng.standard_normal((p * p, k * k))
    assert np.allclose(rearrange(rearrange_inverse(m, p, k), p, k), m)


def test_rearrange_dimension_mismatch():
    with pytest.raises(ValueError):
        rearrange(np.eye(5), 2, 2)


def test_exact_kronecker_recovery():
    rng = np.random.default_rng(4)
    p, k = 4, 3
    omega = random_spd(rng, p)
    sigma = random_spd(rng, k, scale=2.5)
    s = np.kron(omega, sigma)
    fact = kps_factorize(s, p, k)
    assert fact.residual_rel < 1e-12
    assert np.allclose(np.kron(fact.omega, fact.sigma), s, rtol=1e-10, atol=1e-10 * np.abs(s).max())


def test_residual_matches_truncated_svd_oracle():
    rng = np.random.default_rng(5)
    p, k = 3, 4
    omega = random_spd(rng, p)
    sigma = random_spd(rng, k)
    noise = rng.standard_normal((p * k, p * k))
    noise = 0.01 * (noise + noise.T)
    s = np.kron(omega, sigma) + noise
    fact = kps_factorize(s, p, k)
    # Eckart-Young: the Frobenius error of the best Kronecker approximation
    # equals the norm of the rank-1 residual of R(S).
    sv = np.linalg.svd(rearrange(s, p, k), compute_uv=False)
    oracle = np.sqrt(np.sum(sv[1:] ** 2)) / np.linalg.norm(s)
    assert abs(fact.residual_rel - oracle) < 1e-10
    assert fact.residual_rel < 0.2


def test_sample_covariance_residual_shrinks_with_t():
    rng = np.random.default_rng(6)
    p, k = 4, 3
    omega = random_spd(rng, p)
    sigma = random_spd(rng, k)
    lw = np.linalg.cholesky(omega)
    le = np.linalg.cholesky(sigma)
    resids = []
    for t in (500, 5000, 50000):
        w = rng.standard_normal((t, p)) @ lw.T
        e = rng.standard_normal((t, k)) @ le.T
        h = np.einsum("ti,tj->tij", w, e).reshape(t, p * k)
        s_hat = h.T @ h / t
        resids.append(kps_factorize(s_hat, p, k).residual_rel)
    assert resids[0] > resids[1] > resids[2]
    assert resids[2] < 0.05


def test_product_invariant_to_normalization():
    rng = np.random.default_rng(7)
    p, k = 3, 3
    s = np.kron(random_spd(rng, p), random_spd(rng, k))
    s += 0.005 * random_spd(rng, p * k)
    f1 = kps_factorize(s, p, k, normalize="omega11")
    f2 = kps_factorize(s, p, k, normalize="sigma11")
    assert f2.sigma[0, 0] == pytest.approx(1.0)
    products = [np.kron(f.omega, f.sigma) for f in (f1, f2)]
    assert np.allclose(*products, rtol=1e-10, atol=1e-12)
    assert abs(f1.residual_rel - f2.residual_rel) < 1e-12


def test_pivot_fallback_when_leading_entry_vanishes():
    # omega with a zero (1,1) entry forces the max-abs renormalization
    omega = np.array([[0.0, 0.0], [0.0, 4.0]])
    sigma = np.eye(3)
    fact = kps_factorize(np.kron(omega, sigma), 2, 3)
    assert fact.normalization == "maxabs"
    assert fact.residual_rel < 1e-12


def test_zero_matrix_rejected():
    with pytest.raises(ValueError):
        kps_factorize(np.zeros((6, 6)), 2, 3)


def test_residual_report_has_no_flag():
    rng = np.random.default_rng(8)
    s = np.kron(random_spd(rng, 2), random_spd(rng, 4))
    rep = kps_factorize(s, 2, 4)
    assert rep.residual_rel < 1e-12

    g = rng.standard_normal((8, 40))
    wish = g @ g.T / 40
    noisy = kps_factorize(wish, 2, 4)
    # the residual does not predict the size of the tests, so the
    # factorization passes no verdict on it
    assert not any(isinstance(getattr(noisy, f.name), bool) for f in dataclasses.fields(noisy))


@st.composite
def model_moments(draw):
    """(Qxx, Sigma_v, s2, beta) of random data: N = 1, N = K+1 or any N,
    strong, weak or near-unspanned beta."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    n = draw(st.one_of(st.just(1), st.just(k + 1), st.integers(1, 8)))
    t = 3 * (n + k) + 5
    xbar = rng.standard_normal((k, t))
    vhat = rng.standard_normal((k, t))
    resid = draw(st.sampled_from([1e-3, 0.3, 1.0])) * rng.standard_normal((n, t))
    beta = draw(st.sampled_from([1.0, 1e-3, 1e-6])) * rng.standard_normal((n, k))
    sig2 = float(np.einsum("nt,nt->", resid, resid) / resid.size)
    return xbar @ xbar.T / t, vhat @ vhat.T / t, sig2, beta


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=150, deadline=None)
@given(model_moments())
def test_terms_route_matches_dense_factorization(moments):
    terms = model_score_terms(*moments)
    p, k = terms[0][0].shape[0], terms[0][1].shape[0]
    dense = kps_factorize(sum(np.kron(a, b) for a, b in terms), p, k)
    omega_x, omega_v, alpha, gamma = kps_factorize_model(*moments)
    q_xx, sigma_v, _, beta = moments
    omega = kps_omega(omega_x, omega_v, q_xx, sigma_v)
    sigma = kps_sigma(alpha, gamma, beta, sigma_v)
    assert dense.normalization == "omega11"
    assert omega_x == 1.0 / q_xx[0, 0]      # Omega_11 = 1
    assert _rel(omega, dense.omega) <= 1e-10
    assert _rel(sigma, dense.sigma) <= 1e-10
    # SPD by construction: no clipping, no jitter
    np.linalg.cholesky(omega)
    np.linalg.cholesky(sigma)


def test_terms_route_exact_product_and_zero():
    # one asset: every B_j is a scalar, so S is exactly one Kronecker product
    rng = np.random.default_rng(9)
    q_xx, sigma_v = random_spd(rng, 3), random_spd(rng, 3)
    beta = rng.standard_normal((1, 3))
    omega_x, omega_v, alpha, gamma = kps_factorize_model(q_xx, sigma_v, 0.7, beta)
    omega = kps_omega(omega_x, omega_v, q_xx, sigma_v)
    sigma = kps_sigma(alpha, gamma, beta, sigma_v)
    s = sum(np.kron(a, b) for a, b in model_score_terms(q_xx, sigma_v, 0.7, beta))
    assert np.allclose(np.kron(omega, sigma), s, rtol=1e-12, atol=1e-14 * np.abs(s).max())
    with pytest.raises(NumericalError, match="Qxx"):
        kps_factorize_model(np.zeros((3, 3)), sigma_v, 0.7, beta)


@pytest.mark.parametrize("term", ["Qxx", "Sigma_v", "sigma_e2"])
def test_degenerate_model_terms_raise_naming_the_term(term):
    # s2 = 0 or Sigma_v = 0 leaves u2 = 0, and Qxx_11 = 0 leaves no pivot: one
    # factor would be singular, so the factorization refuses instead
    rng = np.random.default_rng(10)
    k, n, r = 2, 5, 4
    args = {
        "q_xx": np.stack([random_spd(rng, k) for _ in range(r)]),
        "sigma_v": np.stack([random_spd(rng, k) for _ in range(r)]),
        "sigma_e2": rng.uniform(0.1, 1.0, r),
        "beta": rng.standard_normal((r, n, k)),
    }
    zeroed = {"Qxx": "q_xx", "Sigma_v": "sigma_v", "sigma_e2": "sigma_e2"}[term]
    args[zeroed] = args[zeroed].copy()
    args[zeroed][2] = 0.0
    with pytest.raises(NumericalError, match=rf"{term}.* at stack entry \(2,\)"):
        kps_factorize_model(**args)
    single = {name: value[2] for name, value in args.items()}
    with pytest.raises(NumericalError, match=rf"{term}.*not positive$"):
        kps_factorize_model(**single)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.sampled_from([(), (3,), (2, 3)]),
    st.booleans(),
)
def test_vec_kron_matches_dense_kron(seed, dims, batch, shared_a):
    p, q, m, n = dims
    rng = np.random.default_rng(seed)
    # a batch axis on b alone (shared a) or on both factors
    a = rng.standard_normal((p, q) if shared_a else batch + (p, q))
    b = rng.standard_normal(batch + (m, n))
    got = vec_kron(a, b)
    assert got.shape == batch + (p * q * m * n,)
    for idx in np.ndindex(*batch):
        a_i = a if shared_a else a[idx]
        assert np.array_equal(got[idx], vec(np.kron(a_i, b[idx])))
