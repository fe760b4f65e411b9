import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskpremia.kronecker import (
    kps_factorize,
    kps_factorize_terms,
    kps_residual_report,
    rearrange,
    rearrange_inverse,
)
from riskpremia.subset import model_score_terms


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
    assert np.allclose(fact.product, s, rtol=1e-10, atol=1e-10 * np.abs(s).max())


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
    assert np.allclose(f1.product, f2.product, rtol=1e-10, atol=1e-12)
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


def test_residual_report_flags():
    rng = np.random.default_rng(8)
    s = np.kron(random_spd(rng, 2), random_spd(rng, 4))
    fact = kps_factorize(s, 2, 4)
    rep = kps_residual_report(fact)
    assert rep.passed and rep.singular_ratio < 1e-12

    g = rng.standard_normal((8, 40))
    wish = g @ g.T / 40
    noisy = kps_residual_report(kps_factorize(wish, 2, 4))
    assert noisy.singular_ratio > 0.02

    forced = kps_residual_report(fact, threshold=0.10)
    assert forced.to_dict()["flag"] == "pass"
    # warn branch on a synthetic residual
    from riskpremia.kronecker import KpsDiagnostic

    warn = KpsDiagnostic(residual_rel=0.25, singular_ratio=0.3, threshold=0.10, passed=False)
    assert warn.to_dict()["flag"] == "warn"


@st.composite
def kronecker_terms(draw):
    """Model score terms on random data (N = 1, N = K+1, near-unspanned beta,
    s2 = 0) or a single exact product."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        p, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        return [(random_spd(rng, p), random_spd(rng, k))]
    k = draw(st.integers(1, 4))
    n = draw(st.one_of(st.just(1), st.just(k + 1), st.integers(1, 8)))
    t = 3 * (n + k) + 5
    xbar = rng.standard_normal((k, t))
    vhat = rng.standard_normal((k, t))
    resid = draw(st.sampled_from([0.0, 0.3, 1.0])) * rng.standard_normal((n, t))
    beta = draw(st.sampled_from([1.0, 1e-3, 1e-6])) * rng.standard_normal((n, k))
    return model_score_terms(xbar, vhat, resid, beta)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=150, deadline=None)
@given(kronecker_terms())
def test_terms_route_matches_dense_factorization(terms):
    p, k = terms[0][0].shape[0], terms[0][1].shape[0]
    s = sum(np.kron(a, b) for a, b in terms)
    dense = kps_factorize(s, p, k)
    sv = dense.spectrum
    # a near-tied leading pair leaves the factors ill-posed on both routes
    assume(sv.size == 1 or sv[1] < 0.9 * sv[0])
    fact = kps_factorize_terms(terms)
    r = len(terms)
    assert fact.normalization == dense.normalization
    assert _rel(fact.omega, dense.omega) <= 1e-10
    assert _rel(fact.sigma, dense.sigma) <= 1e-10
    assert abs(fact.residual_rel - dense.residual_rel) <= 1e-12
    assert fact.spectrum.shape == sv.shape
    assert np.allclose(fact.spectrum[:r], sv[:r], rtol=1e-10, atol=1e-12 * sv[0])
    assert np.all(fact.spectrum[r:] == 0.0)


def test_terms_route_exact_product_and_zero():
    rng = np.random.default_rng(9)
    omega, sigma = random_spd(rng, 4), random_spd(rng, 3)
    fact = kps_factorize_terms([(omega, sigma)])
    assert fact.residual_rel == 0.0
    assert np.allclose(fact.product, np.kron(omega, sigma), rtol=1e-12)
    with pytest.raises(ValueError):
        kps_factorize_terms([(np.zeros((2, 2)), np.eye(3))])
