import ast
import dataclasses
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskpremia.montecarlo import (
    DgpSpec,
    EigenLabSpec,
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
from riskpremia import confsets, moments, montecarlo, pipeline, subset, threestep
from riskpremia._linalg import NumericalError
from riskpremia.moments import robust_tests
from riskpremia.pipeline import FIT_ERRORS, fit_model
from riskpremia.subset import sfar_row
from riskpremia.varstage import RankError
from riskpremia.threestep import asymptotic_covariance

from oracles import bootstrap_lambda1_cov, seedsequence_draws, term_by_term_covariance

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    for replicate in range(3):   # the cached law keeps raising, call after call
        with pytest.raises(ValueError, match="spectral radius"):
            simulate(bad, seed=0, replicate=replicate)
    r, f = simulate(spec, seed=0, init="burnin")
    assert f.n_periods == 31
    assert simulate(bad, seed=0, init="burnin")[1].n_periods == 31


def simulate_by_steps(spec, seed, replicate=0, init="stationary"):
    """Oracle: ``simulate`` stepping x_{s+1} = mu + phi1 x_s + v_s one period at a time."""
    k, n, t = spec.n_factors, spec.n_assets, spec.t
    rng = montecarlo.replicate_rng(seed, replicate, 0)
    if init == "stationary":
        mean = np.linalg.solve(np.eye(k) - spec.phi1, spec.mu)
        gamma = scipy.linalg.solve_discrete_lyapunov(spec.phi1, spec.sigma_v)
        w, q = np.linalg.eigh(0.5 * (gamma + gamma.T))
        x0 = mean + q @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ rng.standard_normal(k)
        burn = 0
    else:
        x0, burn = spec.mu.copy(), 200
    lv = np.linalg.cholesky(spec.sigma_v) if np.any(spec.sigma_v) else np.zeros((k, k))
    total = t + burn
    shocks = lv @ rng.standard_normal((k, total))
    x = np.empty((k, total + 1))
    x[:, 0] = x0
    for s in range(total):
        x[:, s + 1] = spec.mu + spec.phi1 @ x[:, s] + shocks[:, s]
    x, v = x[:, burn:], shocks[:, burn:]
    e = np.sqrt(spec.sigma_e2) * rng.standard_normal((n, t))
    r = spec.c[:, None] + spec.effective_beta @ (spec.lambda1 @ x[:, :-1] + v) + e
    return r, x


def stable_phi(rng, k, radius):
    """Non-symmetric K x K matrix with spectral radius ``radius``: complex pairs
    (rotation-scaling blocks) in a random basis of condition number at most 4."""
    d = np.zeros((k, k))
    for i in range(0, k - 1, 2):
        rho = radius * (1.0 if i == 0 else rng.uniform(0.3, 1.0))
        angle = rng.uniform(0.1, np.pi - 0.1)
        d[i : i + 2, i : i + 2] = rho * np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
    if k % 2:
        d[-1, -1] = radius * rng.uniform(-1.0, 1.0) if k > 1 else radius
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    basis = q * rng.uniform(0.5, 2.0, k)
    return basis @ d @ np.linalg.inv(basis)


class RecordingRng:
    """Generator wrapper that keeps a copy of every standard-normal draw,
    whether returned or written into ``out``."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        self.log.append(np.copy(z))
        return z


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.floats(0.0, 0.99),
    st.booleans(),
    st.sampled_from(["stationary", "burnin"]),
    st.integers(0, 2**32 - 1),
)
def test_banded_path_matches_the_step_loop(k, radius, zero_shocks, init, seed):
    rng = np.random.default_rng(seed)
    n, t = 3, 40
    root = rng.standard_normal((k, k))
    spec = DgpSpec(
        c=rng.standard_normal(n), beta=rng.standard_normal((n, k)),
        lambda1=rng.standard_normal((k, k)), mu=rng.standard_normal(k),
        phi1=stable_phi(rng, k, radius),
        sigma_v=np.zeros((k, k)) if zero_shocks else root @ root.T + 0.1 * np.eye(k),
        sigma_e2=0.5, t=t,
    )
    # each call builds one Generator: simulate's, re-keyed per replicate,
    # then the one of replicate_rng that simulate_by_steps draws from
    draws = {}
    with pytest.MonkeyPatch.context() as mp:
        real_generator = np.random.Generator
        mp.setattr(np.random, "Generator",
                   lambda bitgen: RecordingRng(real_generator(bitgen), draws.setdefault(len(draws), [])))
        returns, factors = simulate(spec, seed=seed % 1000, replicate=3, init=init)
        r_ref, x_ref = simulate_by_steps(spec, seed % 1000, 3, init)
    # the same generator calls in the same order, bit for bit
    assert [z.shape for z in draws[0]] == [z.shape for z in draws[1]]
    assert all(np.array_equal(a, b) for a, b in zip(draws[0], draws[1]))
    x, r = factors.factors, returns.returns
    assert x.shape == x_ref.shape == (k, t + 1) and r.shape == r_ref.shape == (n, t)
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    assert np.abs(r - r_ref).max() <= 1e-12 * np.abs(r_ref).max()
    # deterministic per (seed, replicate), with the law cached or computed afresh
    again_r, again_f = simulate(spec, seed=seed % 1000, replicate=3, init=init)
    fresh_r, fresh_f = simulate(dataclasses.replace(spec), seed=seed % 1000, replicate=3, init=init)
    for other_r, other_f in ((again_r, again_f), (fresh_r, fresh_f)):
        assert np.array_equal(other_r.returns, r) and np.array_equal(other_f.factors, x)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("kind", ["strong", "weak"])
@pytest.mark.parametrize("init", ["stationary", "burnin"])
@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 2**32 - 4), st.integers(1, 3))
def test_a_block_draws_what_numpy_seedsequence_generators_draw(k, kind, init, seed, start, size):
    # replicate r's draws are those of Generator(Philox(SeedSequence(seed,
    # spawn_key=(r, 0)))), bit for bit, whatever block it is drawn in
    spec = preset_dgp(kind, k=k, n=k + 2, t=30)
    reps = range(start, start + size)
    log = []
    with pytest.MonkeyPatch.context() as mp:
        real_generator = np.random.Generator
        mp.setattr(np.random, "Generator", lambda bitgen: RecordingRng(real_generator(bitgen), log))
        returns, factors = simulate(spec, seed, reps, init=init)
    per_replicate = [seedsequence_draws(spec, seed, rep, init) for rep in reps]
    expected = [z for draws in per_replicate for z in draws]
    assert [z.shape for z in log] == [z.shape for z in expected]
    assert all(np.array_equal(a, b) for a, b in zip(log, expected))
    if init == "stationary":
        law = spec._law
        for x, draws in zip(factors.factors, per_replicate):
            assert np.array_equal(x[:, 0], law.mean + law.half @ draws[0])


def test_a_block_builds_no_seed_sequence_and_one_bit_generator(monkeypatch):
    # the keys of a block come from one vectorized hash, so a 50-replicate
    # block builds neither a SeedSequence nor a Philox per replicate
    built = Counter()
    for name in ("SeedSequence", "Philox"):
        def counting(*args, _real=getattr(np.random, name), _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    np.random.Philox(np.random.SeedSequence(3))
    assert built == {"SeedSequence": 1, "Philox": 1}
    built.clear()
    simulate(preset_dgp("strong", k=1, n=4, t=30), 3, range(50))
    assert built["SeedSequence"] == 0 and built["Philox"] <= 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**160 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@example(seed=0, start=0, size=1, stream=0)
@example(seed=2**32 + 5, start=2**32 - 3, size=6, stream=2**32 - 1)
@example(seed=2**130 + 11, start=7, size=4, stream=1)
@example(seed=2**160 - 1, start=2**31, size=2, stream=2**31)
def test_philox_keys_are_those_of_numpy_seedsequence(seed, start, size, stream):
    reps = range(start, min(start + size, 2**32))
    keys = montecarlo._philox_keys(seed, reps, stream)
    expected = [np.random.SeedSequence(seed, spawn_key=(r, stream)).generate_state(2, np.uint64)
                for r in reps]
    assert keys.dtype == np.uint64 and np.array_equal(keys, expected)
    rng = replicate_rng(seed, reps[-1], stream)
    reference = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(reps[-1], stream))))
    assert np.array_equal(rng.standard_normal(5), reference.standard_normal(5))


def test_seeds_and_indices_outside_the_keys_raise():
    spec = preset_dgp("strong", k=1, n=3, t=30)
    for seed in (1.0, "1", None, [1, 2]):
        with pytest.raises(TypeError, match="seed"):
            simulate(spec, seed)
        with pytest.raises(TypeError, match="seed"):
            replicate_rng(seed, 0, 0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        simulate(spec, -1)
    for replicate in (-1, range(-1, 2), 2**32, range(2**32 - 1, 2**32 + 1)):
        with pytest.raises(ValueError, match=r"replicate must lie in \[0, 2\*\*32\)"):
            simulate(spec, 0, replicate)
    with pytest.raises(ValueError, match=r"replicate must lie in \[0, 2\*\*32\)"):
        replicate_rng(0, 2**32, 0)
    with pytest.raises(ValueError, match=r"stream must lie in \[0, 2\*\*32\)"):
        replicate_rng(0, 0, 2**32)
    with pytest.raises(TypeError):
        replicate_rng(0, 0, 1.5)
    # the last index below the bound is one word, as SeedSequence takes it
    simulate(spec, 0, range(2**32 - 2, 2**32))


# Runs in a fresh interpreter: before it raised, an empty range reached
# dtbtrs with no right-hand side, which corrupted the heap
EMPTY_BLOCK = textwrap.dedent(
    """
    from riskpremia.montecarlo import preset_dgp, simulate

    spec = preset_dgp("strong", k=2, n=4, t=30)
    for _ in range(2):
        try:
            simulate(spec, 0, range(0))
        except ValueError as exc:
            print(exc)
    print(simulate(spec, 0, range(3))[0].returns.shape)
    """
)


def test_an_empty_block_raises_before_drawing():
    run = subprocess.run([sys.executable, "-c", EMPTY_BLOCK], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["replicate must be a nonempty range, got range(0, 0)"] * 2 + ["(3, 4, 30)"]


def test_simulate_computes_the_law_once_per_spec(monkeypatch):
    calls = []
    real = scipy.linalg.solve_discrete_lyapunov
    monkeypatch.setattr(scipy.linalg, "solve_discrete_lyapunov",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    spec = preset_dgp("strong", k=1, n=4, t=40)
    power_curve(["far"], [spec.lambda1], spec, reps=100, seed=1)
    assert len(calls) == 1


def test_spec_arrays_are_private_read_only_copies():
    base = preset_dgp("strong", k=2, n=4, t=40)
    phi1 = base.phi1.copy()
    spec = dataclasses.replace(base, phi1=phi1)
    before = simulate(spec, seed=2)[1].factors
    phi1[0, 0] = 0.9                     # the caller's array is not the spec's
    with pytest.raises(ValueError, match="read-only"):
        spec.phi1[0, 0] = 0.9
    for name in ("c", "beta", "lambda1", "mu", "phi1", "sigma_v", "weak_scale"):
        assert not getattr(spec, name).flags.writeable
    assert np.array_equal(simulate(spec, seed=2)[1].factors, before)


def test_weak_scale_zero_column():
    spec = preset_dgp("strong", k=2, n=4, t=40)
    spec = dataclasses.replace(spec, weak_scale=np.array([1.0, 0.0]))
    assert np.allclose(spec.effective_beta[:, 1], 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        dataclasses.replace(spec, weak_scale=np.array([1.0, -1.0]))
    # every field is checked against (N, K) = (4, 2) of beta, before any draw
    for name, bad in (
        ("weak_scale", np.array([0.5])), ("lambda1", np.eye(3)), ("mu", np.zeros(3)),
        ("c", np.zeros(5)), ("phi1", np.zeros((2, 3))), ("sigma_v", np.eye(1)),
        ("beta", np.ones(4)), ("beta", np.ones((4, 0))),
    ):
        with pytest.raises(ValueError, match=f"^{name} must"):
            dataclasses.replace(spec, **{name: bad})
    for value in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^sigma_e2 must be finite and nonnegative"):
            dataclasses.replace(spec, sigma_e2=value)


@pytest.mark.parametrize("name", ["c", "beta", "lambda1", "mu", "phi1", "sigma_v", "weak_scale"])
def test_dgp_spec_rejects_a_non_finite_entry_naming_the_field(name):
    # a NaN used to pass, then fail at the first draw (a LinAlgError from
    # phi1, an unlocated non-finite return elsewhere) or, in sigma_v, never
    spec = preset_dgp("strong", k=2, n=4, t=40)
    for bad in (np.nan, np.inf):
        arr = np.array(getattr(spec, name))
        arr.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            dataclasses.replace(spec, **{name: arr})


def test_dgp_spec_takes_a_zero_or_positive_definite_sigma_v():
    # a singular PSD sigma_v used to construct, then fail inside simulate with
    # an unlocated LinAlgError from the shock factor
    spec = preset_dgp("strong", k=2, n=4, t=40)
    for bad in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]], -np.eye(2), [[1.0, 2.0], [2.0, 1.0]]):
        with pytest.raises(ValueError, match="^sigma_v must be zero or positive definite$"):
            dataclasses.replace(spec, sigma_v=np.array(bad))
    zero = dataclasses.replace(spec, sigma_v=np.zeros((2, 2)))
    assert np.array_equal(simulate(zero, seed=1)[1].factors, simulate(zero, seed=2)[1].factors)


def test_dgp_spec_requires_an_integer_t():
    # a float or string t would construct, then fail inside simulate
    spec = preset_dgp("strong", k=2, n=4, t=40)
    assert dataclasses.replace(spec, t=np.int64(40)).t == 40
    for bad in (50.5, 40.0, "40", True):
        with pytest.raises(ValueError, match="^t must be an integer"):
            dataclasses.replace(spec, t=bad)
    fit = fit_model(*simulate(spec, seed=1))
    with pytest.raises(ValueError, match="^t must be an integer"):
        calibrate(fit.var, fit.reg, fit.por, t=40.0)


def test_calibrate_simulate_self_consistency():
    spec0 = preset_dgp("strong", k=2, n=6, t=300)
    returns, factors = simulate(spec0, seed=3)
    fit = fit_model(returns, factors)
    spec = calibrate(fit.var, fit.reg, fit.por, t=100_000)
    big_r, big_f = simulate(spec, seed=4)
    refit = fit_model(big_r, big_f)
    cov = refit.asymptotic_cov
    se = np.sqrt(np.diag(cov.v_lambda1) / spec.t)
    diff = np.abs(refit.por.lambda1 - spec.lambda1).reshape(-1, order="F")
    assert np.all(diff < 4 * se)
    # lambda0 recovered too through the intercept construction, with its
    # standard errors from the joint oracle's lambda0 block
    v_joint = term_by_term_covariance(big_f, refit.var, refit.reg, refit.por)
    se0 = np.sqrt(np.diag(v_joint[:2, :2]) / spec.t)
    assert np.all(np.abs(refit.por.lambda0 - fit.por.lambda0) < 4 * se0)


# -- experiments -----------------------------------------------------------------


def test_power_curve_validation_and_degenerate_level():
    spec = preset_dgp("strong", k=1, n=4, t=80)
    with pytest.raises(ValueError, match="100 replicates"):
        power_curve(["far"], [spec.lambda1], spec, reps=10)
    table = power_curve(["far"], [spec.lambda1], spec, reps=100, level=1.0, seed=0)
    assert np.all(table.rejection == 1.0)


def test_power_curve_wald_covariance_once_per_fit(monkeypatch):
    from riskpremia import pipeline

    fits, evaluated = [], []

    def recording_fit(*args, **kwargs):
        fits.append(fit_model(*args, **kwargs))
        return fits[-1]

    def recording_cov(var, reg, por, q_xx):
        evaluated.append(por.lambda1.reshape(-1))   # one entry per fit of the stack
        return asymptotic_covariance(var, reg, por, q_xx)

    monkeypatch.setattr(montecarlo, "fit_model", recording_fit)
    monkeypatch.setattr(pipeline, "asymptotic_covariance", recording_cov)
    spec = preset_dgp("strong", k=1, n=4, t=80)
    table = power_curve(["wald"], [0.0, 0.5, 1.0], spec, reps=100, seed=3)
    assert table.failures["wald"] == 0
    # every fit with a price of risk enters exactly one covariance evaluation,
    # stacked with the others of its block, and none is made per hypothesis;
    # each fit_model call fits a block of replicates
    entered = np.sort(np.concatenate(evaluated))
    expected = np.sort(np.concatenate([f.por.lambda1.reshape(-1) for f in fits if f.por is not None]))
    assert len(expected) == 100
    np.testing.assert_array_equal(entered, expected)
    assert len(evaluated) < 100


def per_hypothesis_tests(fit, tests, h0_mats, level):
    """Oracle: each test at each hypothesis on its own, failures per point."""
    out = np.full((len(tests), len(h0_mats)), np.nan)
    robust = [t for t in tests if t in ("far", "klm", "jklm")]
    for j, lam in enumerate(h0_mats):
        if robust:
            try:
                res = robust_tests(fit, lam, which=tuple(robust))
                for i, t in enumerate(tests):
                    if t in res:
                        out[i, j] = res[t].pvalue < level
            except FIT_ERRORS:
                pass
        if "wald" in tests:
            i = tests.index("wald")
            try:
                out[i, j] = fit.wald(lam).pvalue < level
            except FIT_ERRORS:
                pass
        if "sfar" in tests:
            i = tests.index("sfar")
            try:
                out[i, j] = sfar_row(fit.stacked, np.asarray(lam)[0], 0).pvalue < level
            except FIT_ERRORS:
                pass
    return out


def per_hypothesis_power_curve(tests, h0_mats, spec, reps, level, seed):
    """(rejection, failures) of ``power_curve`` from the per-hypothesis oracle,
    each replicate simulated and fitted on its own."""
    failed = np.full((len(tests), len(h0_mats)), np.nan)
    results = []
    for rep in range(reps):
        try:
            fit = fit_model(*simulate(spec, seed, rep))
        except FIT_ERRORS:
            results.append(failed)
            continue
        results.append(per_hypothesis_tests(fit, tests, h0_mats, level))
    stack = np.stack(results)
    counts = np.sum(~np.isnan(stack), axis=0)
    freq = np.nansum(stack, axis=0) / np.maximum(counts, 1)
    failures = {t: int(reps * len(h0_mats) - counts[i].sum()) for i, t in enumerate(tests)}
    return freq, failures


def test_power_curve_matches_the_per_hypothesis_oracle(monkeypatch):
    spec = preset_dgp("strong", k=2, n=6, t=300)
    tests = ["far", "klm", "jklm", "wald", "sfar"]
    offsets = np.linspace(-0.3, 0.3, 5)
    h0_mats = [spec.lambda1 + d for d in offsets]
    # every third replicate's fit fails: the robust tests at point 1, Wald at
    # 3 and sFAR at 4, wherever a kernel meets that fit and such a
    # hypothesis, alone or stacked with other fits and hypotheses.  A fit is
    # known by its phi_hat[0, 0] (robust tests, sFAR) or Lambda1[0, 0] (Wald),
    # read off the replicate fitted on its own: a block's fit equals it
    flaky = [fit_model(*simulate(spec, 3, rep)) for rep in range(0, 100, 3)]
    flaky_fits = {"system": {fit.stacked.phi_hat[0, 0] for fit in flaky},
                  "por": {fit.por.lambda1[0, 0] for fit in flaky}}
    fail_at = {name: spec.lambda1[0, 0] + offsets[j]
               for name, j in (("robust", 1), ("wald", 3), ("sfar", 4))}

    def inject(real, name, flaky, key, pos, corner):
        def wrapped(*args):
            values = np.asarray(args[pos])[corner]
            if np.isin(key(args[0]), list(flaky)).any() and np.any(values == fail_at[name]):
                raise NumericalError(f"injected {name}")
            return real(*args)
        return wrapped

    def system_key(sys):
        return sys.phi_hat[..., 0, 0]

    def por_key(por):
        return por.lambda1[..., 0, 0]

    robust = inject(moments.robust_statistics, "robust", flaky_fits["system"], system_key, 1, (..., 0, 0))
    wald = inject(threestep.wald_statistics, "wald", flaky_fits["por"], por_key, 2, (..., 0, 0))
    monkeypatch.setattr(moments, "robust_statistics", robust)
    monkeypatch.setattr(confsets, "robust_statistics", robust)
    monkeypatch.setattr(threestep, "wald_statistics", wald)
    monkeypatch.setattr(confsets, "wald_statistics", wald)
    monkeypatch.setattr(subset, "_projected_roots", inject(
        subset._projected_roots, "sfar", flaky_fits["system"], system_key, 1, (..., 0)))

    table = power_curve(tests, h0_mats, spec, reps=100, seed=3)
    freq, failures = per_hypothesis_power_curve(tests, h0_mats, spec, 100, 0.05, 3)
    assert table.failures == failures == {
        "far": 34, "klm": 34, "jklm": 34, "wald": 34, "sfar": 34
    }
    assert table.failure_kinds == {t: {"NumericalError": 34} for t in tests}
    np.testing.assert_array_equal(table.rejection, freq)
    assert ((table.rejection > 0.0) & (table.rejection < 1.0)).any()


def test_chunked_runs_match_one_fit_at_a_time(monkeypatch):
    # replicates 5 and 6 have no price of risk; a one-byte budget makes every
    # block one replicate (and every chunk one point).  A replicate is known
    # by its first return; a block holding one of them with other replicates
    # splits on the price of risk, so its fit raises ValueError, as
    # fit_model does when its fits split
    spec = preset_dgp("strong", k=2, n=6, t=300)
    per_replicate = []
    evaluate_tests = montecarlo._evaluate_tests
    special = {simulate(spec, 5, rep)[0].returns[0, 0] for rep in (5, 6)}

    def mixed_fit(returns, factors):
        hits = np.isin(returns.returns[:, 0, 0], list(special))
        if hits.any() and len(returns.returns) > 1:
            raise ValueError("a stack of fits needs a price of risk for every fit or for none")
        fit = fit_model(returns, factors)
        return dataclasses.replace(fit, por=None) if hits.any() else fit

    def recording(fit, families, shape):
        out = evaluate_tests(fit, families, shape)
        per_replicate.extend(out)
        return out

    def runs():
        per_replicate.clear()
        table = power_curve(["far", "klm", "jklm", "wald", "sfar"],
                            [spec.lambda1 + d for d in (-0.2, 0.0, 0.2)], spec, reps=100, seed=5)
        surface = power_surface(spec, spec.lambda1[0, 0] + np.array([-0.4, 0.0, 0.4]),
                                spec.lambda1[0, 1] + np.array([-0.4, 0.4]), reps=100, seed=5)
        density = sfar_density_experiment(spec, reps=30, seed=5)
        return table, surface, density, list(per_replicate)

    monkeypatch.setattr(montecarlo, "fit_model", mixed_fit)
    monkeypatch.setattr(montecarlo, "_evaluate_tests", recording)
    table, surface, density, chunked = runs()
    assert table.failure_kinds["wald"] == {"RankError": 6}
    monkeypatch.setattr(confsets, "CHUNK_BYTES", 1)
    one_table, one_surface, one_density, one_by_one = runs()
    np.testing.assert_array_equal(one_table.rejection, table.rejection)
    assert one_table.failures == table.failures
    assert one_table.failure_kinds == table.failure_kinds
    np.testing.assert_array_equal(one_surface.rejection, surface.rejection)
    assert one_surface.failures == surface.failures
    assert one_surface.failure_kinds == surface.failure_kinds
    assert (one_density.failures, one_density.failure_kinds) == (density.failures, density.failure_kinds)
    np.testing.assert_allclose(one_density.statistics, density.statistics, rtol=1e-12, atol=0)
    # replicate by replicate: the same p-values and failures
    assert len(chunked) == len(one_by_one) == 200
    for (pvalues, kinds), (one_pvalues, one_kinds) in zip(chunked, one_by_one):
        np.testing.assert_allclose(pvalues, one_pvalues, rtol=1e-12, atol=0)
        assert kinds == one_kinds


def test_block_fallback_matches_one_replicate_at_a_time(monkeypatch):
    # replicate 4's VAR design is rank deficient and replicate 30's last
    # factor is unspanned in the third stage, both known by their data; their
    # blocks fail (a RankError, a price-of-risk split raised by the real
    # third_stage) and are run again in halves.  At a one-byte budget every
    # block is one replicate, so the two runs must agree on every result,
    # failure and failure kind
    spec = preset_dgp("weak", k=2, n=6, t=300)
    seed, outcomes = 5, []
    bad_x0 = simulate(spec, seed, 4)[1].factors[0, 0]
    unspanned_beta = fit_model(*simulate(spec, seed, 30)).reg.beta_hat[0, 0]
    real_var1, real_third = pipeline.fit_var1, pipeline.third_stage

    def rank_deficient(factors):
        if np.isin(factors.factors[..., 0, 0], bad_x0).any():
            raise RankError("injected rank-deficient design")
        return real_var1(factors)

    def unspanned(reg, var):
        beta = reg.beta_hat.copy()
        beta[np.isin(beta[:, 0, 0], unspanned_beta), :, -1] = 0.0
        return real_third(dataclasses.replace(reg, beta_hat=beta), var)

    def recording_fit(returns, factors):
        try:
            fit = fit_model(returns, factors)
        except (ValueError,) + FIT_ERRORS as exc:
            outcomes.append(type(exc).__name__)
            raise
        outcomes.append((len(returns.returns), fit.por is None))
        return fit

    monkeypatch.setattr(pipeline, "fit_var1", rank_deficient)
    monkeypatch.setattr(pipeline, "third_stage", unspanned)
    monkeypatch.setattr(montecarlo, "fit_model", recording_fit)

    def runs():
        outcomes.clear()
        h0 = [spec.lambda1 + d for d in (-0.2, 0.0, 0.2)]
        table = power_curve(["far", "klm", "jklm", "wald", "sfar"], h0, spec, reps=100, seed=seed)
        surface = power_surface(spec, spec.lambda1[0, 0] + np.array([-0.4, 0.4]),
                                spec.lambda1[0, 1] + np.array([-0.4, 0.4]), reps=100, seed=seed)
        density = sfar_density_experiment(spec, reps=40, seed=seed)
        boot = bootstrap_lambda1_cov(spec, reps=40, seed=seed)
        return table, surface, density, boot, list(outcomes)

    table, surface, density, boot, blocked = runs()
    assert table.failure_kinds["far"] == {"RankError": 3}
    assert table.failure_kinds["wald"] == {"RankError": 6}
    assert density.failure_kinds == {"RankError": 1}
    assert surface.failure_kinds == {"sfar": {"RankError": 4}}
    # both blocks failed and were split; replicate 30 was fitted alone,
    # without a price of risk
    assert {"RankError", "ValueError"} <= set(blocked) and (1, True) in blocked
    monkeypatch.setattr(confsets, "CHUNK_BYTES", 1)
    one_table, one_surface, one_density, one_boot, single = runs()
    assert all(outcome == "RankError" or outcome[0] == 1 for outcome in single)
    np.testing.assert_array_equal(one_table.rejection, table.rejection)
    assert one_table.failures == table.failures
    assert one_table.failure_kinds == table.failure_kinds
    np.testing.assert_array_equal(one_surface.rejection, surface.rejection)
    assert one_surface.failures == surface.failures
    assert one_surface.failure_kinds == surface.failure_kinds
    np.testing.assert_array_equal(one_density.statistics, density.statistics)
    assert (one_density.failures, one_density.failure_kinds) == (density.failures, density.failure_kinds)
    np.testing.assert_array_equal(one_boot, boot)


@pytest.mark.parametrize("k, n", [(1, 11), (2, 6)])
def test_results_are_bitwise_equal_at_every_block_budget(monkeypatch, k, n):
    # one replicate per block (and per scan chunk), the default blocks, and
    # every replicate in one block: the same p-values, statistics and failures
    spec = preset_dgp("weak", k=k, n=n, t=300)
    h0 = [spec.lambda1 + d for d in (-0.2, 0.0)]
    per_replicate = []
    real = montecarlo._replicates

    def recording(*args):
        results, refits = real(*args)
        per_replicate.append(results)
        return results, refits

    monkeypatch.setattr(montecarlo, "_replicates", recording)
    runs = []
    for budget in (1, confsets.CHUNK_BYTES, 1 << 30):
        monkeypatch.setattr(confsets, "CHUNK_BYTES", budget)
        per_replicate.clear()
        table = power_curve(["far", "klm", "jklm", "wald", "sfar"], h0, spec, reps=100, seed=4)
        density = sfar_density_experiment(spec, reps=40, seed=4)
        runs.append((table, density, list(per_replicate)))
    (table, density, results), others = runs[0], runs[1:]
    pvalues = np.array([res[0] for res in results[0]])
    assert pvalues.shape == (100, 5, 2) and np.isfinite(pvalues).all()
    for other_table, other_density, other_results in others:
        np.testing.assert_array_equal(np.array([res[0] for res in other_results[0]]), pvalues)
        assert [res[1] for res in other_results[0]] == [res[1] for res in results[0]]
        np.testing.assert_array_equal(other_table.rejection, table.rejection)
        assert other_table.failures == table.failures
        assert other_table.failure_kinds == table.failure_kinds
        np.testing.assert_array_equal(other_density.statistics, density.statistics)
        assert other_density.statistics.shape == (40,)
        assert other_density.failures == density.failures
        assert other_density.failure_kinds == density.failure_kinds


@given(st.integers(0, 500), st.integers(1, 64))
def test_blocks_cover_the_replicates_in_balanced_ranges(reps, size):
    blocks = montecarlo._blocks(reps, size)
    assert [rep for block in blocks for rep in block] == list(range(reps))
    assert len(blocks) == -(-reps // size)
    sizes = [len(block) for block in blocks]
    assert all(1 <= s <= size for s in sizes)
    assert not sizes or max(sizes) - min(sizes) <= 1


def test_a_block_traces_an_innovation_rank_error_to_its_replicate():
    # replicate 2's second factor is half the first one lagged, so its
    # innovations are rank deficient: the block's fit raises RankError, and
    # its halves trace the error to that replicate alone
    spec = preset_dgp("strong", k=2, n=6, t=120)
    returns, factors = simulate(spec, 3, range(5))
    x = factors.factors.copy()
    x[2, 1, 1:] = 0.5 * x[2, 0, :-1]
    factors = dataclasses.replace(factors, factors=x)
    with pytest.raises(RankError, match="R-diagonal condition"):
        fit_model(returns, factors)
    value = spec.lambda1[0]

    def evaluate(fit):
        return subset.sfar_statistics(fit.stacked, value, 0)

    results, refits = montecarlo._run_block(returns, factors, evaluate)
    assert isinstance(results[2], RankError)
    assert refits == 4         # halves (0, 1 | 2, 3, 4), then (2 | 3, 4)
    for rep in (0, 1, 3, 4):
        one = fit_model(dataclasses.replace(returns, returns=returns.returns[rep]),
                        dataclasses.replace(factors, factors=x[rep]))
        assert results[rep] == evaluate(one)


def test_a_linalg_error_at_one_replicate_is_recorded_as_its_failure(monkeypatch):
    # LinAlgError subclasses ValueError, yet it is one of FIT_ERRORS: the
    # replicate that raises it alone is a failure of its own, as a RankError
    # is, and the experiment goes on
    spec = preset_dgp("strong", k=1, n=4, t=80)
    marker = simulate(spec, 0, 3)[0].returns[0, 0]

    def failing_fit(returns, factors):
        if np.isin(returns.returns[..., 0, 0], marker).any():
            raise np.linalg.LinAlgError("injected failure at replicate 3")
        return fit_model(returns, factors)

    monkeypatch.setattr(montecarlo, "fit_model", failing_fit)
    table = power_curve(["far"], [spec.lambda1], spec, reps=100, seed=0)
    assert table.failures == {"far": 1}
    assert table.failure_kinds == {"far": {"LinAlgError": 1}}
    density = sfar_density_experiment(spec, reps=40, seed=0)
    assert (density.failures, density.failure_kinds) == (1, {"LinAlgError": 1})
    assert density.statistics.size == 39


def test_block_refits_count_the_fits_made_after_a_block_raised(monkeypatch):
    # replicate 2's innovations are rank deficient, as above: its block's fit
    # raises and is refitted in halves, and ``block_refits`` is the count of
    # fit_model calls beyond one per block
    spec = preset_dgp("strong", k=2, n=6, t=120)
    real_simulate, calls = montecarlo.simulate, []

    def with_a_rank_deficient_replicate(spec, seed, block):
        returns, factors = real_simulate(spec, seed, block)
        if 2 in block:
            x = factors.factors.copy()
            x[block.index(2), 1, 1:] = 0.5 * x[block.index(2), 0, :-1]
            factors = dataclasses.replace(factors, factors=x)
        return returns, factors

    def counted(returns, factors):
        calls.append(len(returns.returns))
        return fit_model(returns, factors)

    def blocks(reps):
        return len(montecarlo._blocks(reps, montecarlo._block_size(spec)))

    monkeypatch.setattr(montecarlo, "fit_model", counted)
    monkeypatch.setattr(montecarlo, "simulate", with_a_rank_deficient_replicate)
    density = sfar_density_experiment(spec, reps=40, seed=3)
    assert density.failure_kinds == {"RankError": 1}
    assert density.block_refits == len(calls) - blocks(40) > 0
    calls.clear()
    table = power_curve(["far", "sfar"], [spec.lambda1], spec, reps=100, seed=3)
    assert table.failure_kinds == {"far": {"RankError": 1}, "sfar": {"RankError": 1}}
    assert table.block_refits == len(calls) - blocks(100) > 0
    # no block raises: one fit per block and no refit
    monkeypatch.setattr(montecarlo, "simulate", real_simulate)
    calls.clear()
    table = power_curve(["far", "sfar"], [spec.lambda1], spec, reps=100, seed=3)
    assert table.block_refits == 0 and len(calls) == blocks(100)
    assert sfar_density_experiment(spec, reps=40, seed=3).block_refits == 0


def test_a_kps_run_never_forms_the_residuals(monkeypatch):
    # the fits keep no residuals, and only the hc0 variance forms them
    formed = []
    real = subset.StackedSystem.residuals.func

    def counting(sys):
        formed.append(sys.batch_shape)
        return real(sys)

    counted = cached_property(counting)
    counted.__set_name__(subset.StackedSystem, "residuals")
    monkeypatch.setattr(subset.StackedSystem, "residuals", counted)
    spec = preset_dgp("strong", k=2, n=6, t=300)
    power_curve(["far", "klm", "jklm", "wald", "sfar"], [spec.lambda1], spec, reps=100, seed=1)
    sfar_density_experiment(spec, reps=30, seed=1)
    assert formed == []
    fit = fit_model(*simulate(spec, 1, 0), cov="hc0")
    robust_tests(fit, spec.lambda1)
    robust_tests(fit, 2 * spec.lambda1)
    assert formed == [()]


@pytest.mark.parametrize("k, n, size, bound_kb", [(1, 11, 96, 52), (5, 20, 23, 156)])
def test_a_block_s_traced_peak_per_replicate_stays_under_its_bound(k, n, size, bound_kb):
    # one block as the benchmark's mc workloads run it: simulate, fit, then
    # FAR/KLM/JKLM/Wald at (1, 11) or row sFAR at (5, 20); the bounds sit 5 %
    # above the peaks measured when the fits stopped keeping their residuals
    # (49.3 and 147.9 KB per replicate), which were 75.8 KB at blocks of 32
    # and 196.0 KB at blocks of 13 before, and 95.1 and 220.1 KB at blocks of
    # 17 and 8 before that
    spec = preset_dgp("strong", k=k, n=n, t=300)
    assert montecarlo._block_size(spec) == size
    if k == 1:
        full, h0 = confsets.full_lambda_binding(1), spec.lambda1.reshape(1, 1)
        families = [([0, 1, 2], list(moments.TESTS), full, h0), ([3], ["wald"], full, h0)]

        def evaluate(fit):
            return montecarlo._evaluate_tests(fit, families, (4, 1))
    else:
        def evaluate(fit):
            return subset.sfar_statistics(fit.stacked, spec.lambda1[0], 0)

    # a first block loads what a run loads once; the traced block follows it
    montecarlo._run_block(*simulate(spec, 0, range(size)), evaluate)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        results, _ = montecarlo._run_block(*simulate(spec, 1, range(size)), evaluate)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(results) == size and not any(isinstance(res, Exception) for res in results)
    assert peak / size < bound_kb * 1024


# Runs in a fresh interpreter, so the test process's own heap does not decide
# where glibc's mmap and trim thresholds stand.
REPEAT_FAULTS = textwrap.dedent(
    """
    import resource

    from riskpremia.montecarlo import preset_dgp, sfar_density_experiment

    spec = preset_dgp("strong", k=5, n=20, t=300)
    faults = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sfar_density_experiment(spec, reps=40, seed=2024)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(faults)
    """
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_a_repeated_monte_carlo_call_reuses_its_heap_memory():
    # the second 40-replicate call at (5, 20) reuses the heap the first one
    # grew: it took 1,453-1,455 minor faults while glibc unmapped and trimmed
    # each block's arrays, and takes about 1 once _replicates has raised the
    # thresholds above a block
    env = {**os.environ, "PYTHONPATH": str(SRC), **{v: "1" for v in BLAS_THREADS}}
    run = subprocess.run(
        [sys.executable, "-c", REPEAT_FAULTS], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    first, second = ast.literal_eval(run.stdout)
    assert second < 100, (first, second)


def test_fit_model_is_called_once_per_block_with_the_observed_fields(monkeypatch):
    # the benchmark's trace wraps fit_model in every module that binds it and
    # reads cov_mode and por off each result
    results = []
    real = pipeline.fit_model

    def observed(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    for module in (pipeline, montecarlo):
        monkeypatch.setattr(module, "fit_model", observed)
    size = preset_dgp("strong", k=1, n=11, t=300)
    power_curve(["far", "klm", "jklm", "wald"], [size.lambda1], size, reps=100, seed=7)
    assert len(results) == -(-100 // montecarlo._block_size(size)) == 2
    sfar = preset_dgp("strong", k=5, n=20, t=300)
    sfar_density_experiment(sfar, reps=20, seed=2024)
    assert len(results) - 2 == -(-20 // montecarlo._block_size(sfar)) == 1
    for fit in results:
        assert fit.cov_mode == "kps"
        assert fit.por is None or isinstance(fit.por, threestep.PriceOfRisk)


def test_the_variance_mode_is_an_argument_and_blocks_do_not_split_on_it(monkeypatch):
    # at (1, 4, T = 80) some fits' KPS residuals are large, but no fit picks
    # its own variance mode, so every block is fitted once
    spec = preset_dgp("strong", k=1, n=4, t=80)
    panels = simulate(spec, 3, range(2))
    with pytest.raises(ValueError, match="unknown covariance mode 'auto'"):
        fit_model(*panels, cov="auto")
    assert fit_model(*panels, cov="hc0").cov_mode == "hc0"
    assert not hasattr(fit_model(*panels), "kps_diag")
    calls = []

    def counted(returns, factors):
        calls.append(len(returns.returns))
        return fit_model(returns, factors)

    monkeypatch.setattr(montecarlo, "fit_model", counted)
    power_curve(["far", "wald"], [spec.lambda1], spec, reps=1000, seed=3)
    assert len(calls) == -(-1000 // montecarlo._block_size(spec)) == 3
    assert sum(calls) == 1000


def test_power_curve_keeps_failures_per_test(monkeypatch):
    # a fit without a price of risk loses Wald only
    spec = preset_dgp("strong", k=1, n=4, t=80)
    before = power_curve(["far", "wald"], [spec.lambda1], spec, reps=100, seed=2)
    assert before.failures == {"far": 0, "wald": 0}
    assert before.failure_kinds == {"far": {}, "wald": {}}

    def singular(*args):
        raise RankError("beta'beta is singular")

    monkeypatch.setattr(pipeline, "third_stage", singular)
    table = power_curve(["far", "wald"], [spec.lambda1], spec, reps=100, seed=2)
    assert table.failures == {"far": 0, "wald": 100}
    assert table.failure_kinds == {"far": {}, "wald": {"RankError": 100}}
    assert table.rejection[0] == before.rejection[0]
    # a test with no result at a point has no frequency there, not 0 +- 0
    assert np.isnan(table.rejection[1]).all() and np.isnan(table.std_error[1]).all()
    assert np.isfinite(table.std_error[0]).all()

    # a failed fit loses every test at every hypothesis: every fourth
    # replicate's fit raises, known by its first return, and so does the fit
    # of any block that holds one of them
    bad = {simulate(spec, 2, rep)[0].returns[0, 0] for rep in range(3, 100, 4)}

    def flaky_fit(returns, factors):
        if np.isin(returns.returns[:, 0, 0], list(bad)).any():
            raise NumericalError("injected fit failure")
        return fit_model(returns, factors)

    monkeypatch.setattr(montecarlo, "fit_model", flaky_fit)
    table = power_curve(["far", "wald"], [spec.lambda1, 2 * spec.lambda1], spec, reps=100, seed=2)
    assert table.failures == {"far": 50, "wald": 200}
    assert table.failure_kinds == {
        "far": {"NumericalError": 50}, "wald": {"NumericalError": 50, "RankError": 150}
    }


def test_a_block_without_a_price_of_risk_is_not_split(monkeypatch):
    # no fit has a price of risk: Wald fails its setup on every block alike, so
    # each block is fitted once (the variance mode is pinned, so no block
    # splits on it) and every (replicate, hypothesis) pair fails Wald alone
    spec = preset_dgp("strong", k=1, n=11, t=300)
    calls = []

    def kps_fit(returns, factors):
        calls.append(len(returns.returns))
        return fit_model(returns, factors, cov="kps")

    def singular(*args):
        raise RankError("beta'beta is singular")

    monkeypatch.setattr(montecarlo, "fit_model", kps_fit)
    monkeypatch.setattr(pipeline, "third_stage", singular)
    tests = ["far", "klm", "jklm", "wald"]
    table = power_curve(tests, [spec.lambda1], spec, reps=1000, seed=3)
    size = montecarlo._block_size(spec)
    assert len(calls) == -(-1000 // size) and sum(calls) == 1000
    assert table.failures == {"far": 0, "klm": 0, "jklm": 0, "wald": 1000}
    assert table.failure_kinds == {"far": {}, "klm": {}, "jklm": {}, "wald": {"RankError": 1000}}

    # a robust-test failure on such a block still splits it down to the
    # replicate that raised, known by its phi_hat[0, 0] fitted on its own
    bad = kps_fit(*simulate(spec, 3, 5)).stacked.phi_hat[0, 0]
    real = confsets.robust_statistics

    def flaky(sys, lams, *args):
        if np.isin(sys.phi_hat[..., 0, 0], bad).any():
            raise NumericalError("injected robust failure")
        return real(sys, lams, *args)

    calls.clear()
    monkeypatch.setattr(confsets, "robust_statistics", flaky)
    table = power_curve(tests, [spec.lambda1], spec, reps=100, seed=3)
    assert len(calls) > -(-100 // size) and 1 in calls
    assert table.failure_kinds == {t: {"NumericalError": 1} for t in tests[:3]} | {
        "wald": {"RankError": 100}
    }


def test_power_curve_rejects_invalid_hypotheses_before_simulating(monkeypatch):
    spec = preset_dgp("strong", k=2, n=4, t=80)
    calls = []

    def recording_simulate(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "simulate", recording_simulate)
    bad = spec.lambda1.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        power_curve(["far"], [spec.lambda1, bad], spec, reps=100)
    with pytest.raises(ValueError):
        power_curve(["far"], [np.zeros(3)], spec, reps=100)
    with pytest.raises(ValueError, match="unknown test"):
        power_curve(["far", "lm"], [spec.lambda1], spec, reps=100)
    with pytest.raises(ValueError, match="^need at least one test$"):
        power_curve([], [spec.lambda1], spec, reps=100)
    with pytest.raises(ValueError, match="finite"):
        power_surface(spec, np.array([0.0, np.inf]), np.zeros(2), reps=100)
    # an empty grid, as ``mc --grid-steps 0`` gives, has nothing to test
    for empty in ([], np.zeros((0, 2, 2))):
        with pytest.raises(ValueError, match="^need at least one hypothesis$"):
            power_curve(["far"], empty, spec, reps=100)
    with pytest.raises(ValueError, match="^need at least one hypothesis$"):
        power_surface(spec, np.zeros(0), np.zeros(0), reps=100)
    assert calls == []


def test_invalid_levels_and_surfaces_raise_before_simulating(monkeypatch):
    spec = preset_dgp("strong", k=2, n=4, t=80)
    calls = []

    def recording_simulate(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "simulate", recording_simulate)
    axis = np.zeros(2)
    with pytest.raises(ValueError, match="finite"):
        power_surface(spec, np.full(2, np.nan), axis, reps=100, level=1.0)
    for level in (np.nan, -0.5, 0.0, 1.5):
        with pytest.raises(ValueError, match="level"):
            power_surface(spec, axis, axis, reps=100, level=level)
        with pytest.raises(ValueError, match="level"):
            power_curve(["far"], [spec.lambda1], spec, reps=100, level=level)
    # replicate counts are checked before any draw as well: the surface, a
    # power_curve, needs at least 100
    for reps in (99, 0, -3):
        with pytest.raises(ValueError, match="replicate"):
            power_surface(spec, axis, axis, reps=reps)
        with pytest.raises(ValueError, match="replicate"):
            power_surface(spec, axis, axis, reps=reps, level=1.0)
    for reps in (1, 0, -3):
        with pytest.raises(ValueError, match="replicates"):
            bootstrap_lambda1_cov(spec, reps=reps)
    assert calls == []


def test_power_surface_degenerate_level_and_minimum_location():
    spec = preset_dgp("strong", k=2, n=3, t=200)
    ax = spec.lambda1[0, 0] + np.linspace(-1.2, 1.2, 3)
    ay = spec.lambda1[0, 1] + np.linspace(-1.2, 1.2, 3)
    # at level one every point with a result rejects: no p-value is one
    assert np.all(power_surface(spec, ax, ay, reps=100, level=1.0).rejection == 1.0)
    surf = power_surface(spec, ax, ay, reps=150, level=0.05, seed=2).rejection[0].reshape(3, 3)
    center = surf[1, 1]
    assert center <= surf.min() + 0.05
    assert surf[0, 0] > center and surf[-1, -1] > center


def test_power_surface_counts_failed_points_and_raises_bugs(monkeypatch):
    spec = preset_dgp("strong", k=2, n=3, t=80)
    ax = spec.lambda1[0, 0] + np.array([-0.5, 0.5])
    ay = spec.lambda1[0, 1] + np.array([-0.5, 0.5])
    calls = []

    def first_point_fails(sys, values, index, kind):
        calls.append(len(values))
        if len(calls) <= 3:
            raise NumericalError("matrix is not positive definite")
        return np.full(np.broadcast_shapes(values.shape[:-1], sys.batch_shape), np.inf)

    # in blocks of two replicates, the call over the first block's stacked
    # fits fails, so does replicate 0 on its own, and so does its first point
    # on the point-by-point retry; replicate 0 keeps its other three points,
    # and every point with a result rejects, so the surface is exactly one
    # with one failure recorded
    monkeypatch.setattr(confsets, "sfar_statistics", first_point_fails)
    monkeypatch.setattr(montecarlo, "_block_size", lambda spec: 2)
    table = power_surface(spec, ax, ay, reps=100, seed=1)
    assert np.array_equal(table.rejection[0].reshape(2, 2), np.ones((2, 2)))
    assert table.failures == {"sfar": 1}
    assert table.failure_kinds == {"sfar": {"NumericalError": 1}}
    # one call over the 4-point mesh for the first block; the block is
    # refitted in halves: replicate 0 alone, with its point-by-point retry,
    # then replicate 1; then one call per later block
    assert calls == [4, 4, 1, 1, 1, 1, 4] + [4] * 49

    def bug(*args):
        raise TypeError("programming error")

    monkeypatch.setattr(confsets, "sfar_statistics", bug)
    with pytest.raises(TypeError):
        power_surface(spec, ax, ay, reps=100, seed=1)


def test_power_surface_is_nan_when_every_replicate_fails(monkeypatch):
    def numerical(*args, **kwargs):
        raise NumericalError("matrix is not positive definite")

    monkeypatch.setattr(montecarlo, "fit_model", numerical)
    table = power_surface(preset_dgp("strong", k=2, n=4, t=60), np.array([0.0, 0.25]),
                          np.array([0.0, 0.05]), reps=100)
    assert table.rejection.shape == (1, 4) and np.isnan(table.rejection).all()
    assert np.isnan(table.std_error).all()
    assert table.failures == {"sfar": 400}
    assert table.failure_kinds == {"sfar": {"NumericalError": 400}}


def test_sfar_density_replicates_independent_of_reps():
    spec = preset_dgp("strong", k=2, n=4, t=60)
    for seed in (0, 11):
        short = sfar_density_experiment(spec, reps=5, seed=seed).statistics
        long = sfar_density_experiment(spec, reps=8, seed=seed).statistics
        assert short.size == 5 and long.size == 8
        assert np.array_equal(short, long[:5])


def test_sfar_density_zero_reps_edge():
    spec = preset_dgp("strong", k=2, n=6, t=120)
    res = sfar_density_experiment(spec, reps=0)
    assert res.statistics.size == 0
    assert np.isnan(res.ks_pvalue)


def test_sfar_density_ks_pvalue_and_quantile_se_equal_scipy_stats():
    res = sfar_density_experiment(preset_dgp("strong", k=2, n=4, t=80), reps=12, seed=3)
    assert res.statistics.size == 12
    ks = scipy.stats.kstest(res.statistics, scipy.stats.chi2.cdf, args=(res.dof_bound,))
    assert res.ks_pvalue == ks.pvalue
    # the chi-square quantiles and density are closed forms, SciPy's to 1e-12
    levels = np.array(res.quantile_levels)
    np.testing.assert_allclose(res.chi2_quantiles, scipy.stats.chi2.ppf(levels, res.dof_bound),
                               rtol=1e-12, atol=0)
    dens = scipy.stats.chi2.pdf(res.chi2_quantiles, res.dof_bound)
    old_se = np.sqrt(levels * (1 - levels) / res.statistics.size) / np.maximum(dens, 1e-12)
    np.testing.assert_allclose(res.quantile_se, old_se, rtol=1e-12, atol=0)


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
    assert res.failure_kinds == {"NumericalError": 3}

    # a statistic that fails on one fit of a stacked chunk fails that
    # replicate alone, with its exception class
    monkeypatch.setattr(montecarlo, "fit_model", fit_model)
    clean = sfar_density_experiment(spec, reps=6, seed=4)
    assert clean.failure_kinds == {}
    bad = set(clean.statistics[[1, 4]])
    real = montecarlo.sfar_statistics

    def flaky(sys, values, index):
        stats = real(sys, values, index)
        if np.isin(stats, list(bad)).any():
            raise RankError("injected")
        return stats

    monkeypatch.setattr(montecarlo, "sfar_statistics", flaky)
    res = sfar_density_experiment(spec, reps=6, seed=4)
    assert res.failures == 2 and res.failure_kinds == {"RankError": 2}
    np.testing.assert_array_equal(res.statistics, clean.statistics[[0, 2, 3, 5]])

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


@pytest.mark.parametrize("field", [{"reps": 0}, {"reps": -3}, {"k": 0}, {"k": 4}, {"k": 5}])
def test_eigenlab_spec_rejects_empty_draws_and_k_outside_1_to_l(field):
    # no replicate leaves no quantile to read, and K > L gives a negative dof
    args = {"n_rows": 6, "dim": 3, "k": 1, "reps": 10, **field}
    with pytest.raises(ValueError, match="replicate|K <= L"):
        EigenLabSpec(**args)
    assert EigenLabSpec(n_rows=6, dim=3, k=3, reps=1).k == 3


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
    returns, factors = simulate(dataclasses.replace(spec, t=40_000), seed=7)
    fit = fit_model(returns, factors)
    ana = fit.asymptotic_cov.v_lambda1
    assert boot.shape == (1, 1)
    assert abs(boot[0, 0] - ana[0, 0]) / ana[0, 0] < 0.15


def test_replicate_rng_bit_stability():
    a = replicate_rng(1, 2, 3).standard_normal(4)
    b = replicate_rng(1, 2, 3).standard_normal(4)
    c = replicate_rng(1, 2, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bootstrap_without_two_prices_of_risk_raises_rank_error(monkeypatch):
    def no_price_of_risk(*args, **kwargs):
        raise RankError("singular beta'beta")

    monkeypatch.setattr(pipeline, "third_stage", no_price_of_risk)
    spec = preset_dgp("strong", k=2, n=4, t=80)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RankError, match="0 of 20 had one"):
            bootstrap_lambda1_cov(spec, reps=20)
    assert [str(w.message) for w in caught] == []
