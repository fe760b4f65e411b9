"""Monte Carlo engine: calibrated DGPs, size/power studies, eigenvalue lab.

Reproducibility contract: every replicate draws from a counter-based
generator keyed by (seed, replicate, stream), so replicate r's draws and
result do not depend on ``reps``: a longer run extends a shorter one, and the
draws are bit-identical per (seed, replicate).  Replicate r's draws are those
of ``Generator(Philox(SeedSequence(seed, spawn_key=(r, 0))))``, reproducible
with NumPy alone; ``simulate`` derives a block's keys at once
(``_philox_keys``) and re-keys one Philox per replicate.  It gets the factor
path from one banded forward substitution of the stacked VAR(1) recursion,
equal to the step-by-step recursion up to rounding; the quantities that
depend on the spec alone (stationary law, shock factor, band) are computed
once per ``DgpSpec``.  The experiments simulate, fit and evaluate a block of
replicates at a time over a leading replicate axis (``_replicates``).  A
block's size counts what its fits keep, plus N^2 floats of headroom
(``_block_size``): they keep no second-stage residuals, so the one
block-sized N x T array is the returns ``simulate`` draws, and a block
holds 96 replicates at (K, N, T) = (1, 11, 300) and 23 at (5, 20, 300).
Before its first block, ``_replicates`` allocates and frees one untouched
buffer of twice the block's return panel, which raises glibc's mmap and
trim thresholds above a block's arrays: the next blocks reuse the heap
instead of faulting their arrays in again (1,453 minor page faults per
40-replicate call at (5, 20) before, about 1 after).  Results do not
depend on it, and the raised thresholds stay for the process, as after
any large free.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import confsets
from ._linalg import chi2_pdf, chi2_ppf, ks_chi2_pvalue
from .confsets import VALID_TESTS, full_lambda_binding, row_binding, scan_pvalues
from .moments import TESTS
from .panels import FactorPanel, ReturnPanel
from .pipeline import FIT_ERRORS, fit_model
from .subset import sfar_dof, sfar_statistics
from .threestep import PriceOfRisk, ReturnRegression
from .varstage import VarEstimate


# NumPy SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(const, mult):
    """SeedSequence's hash constants: successive (xor, multiplier) pairs
    (const * mult**i, const * mult**(i + 1)) mod 2**32."""
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hash(value, xor, mult):
    """SeedSequence's hash of 32-bit words, Python ints or uint32 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words, Python ints or uint32 arrays."""
    word = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return word ^ word >> 16


def _philox_keys(seed: int, reps: range, stream: int) -> np.ndarray:
    """The (len(reps), 2) uint64 Philox keys of replicates ``reps``: row i is
    ``SeedSequence(seed, spawn_key=(reps[i], stream)).generate_state(2,
    np.uint64)``, all rows at once.

    SeedSequence hashes its entropy words into a 4-word pool and the pool
    into the key.  The words are the seed's 32-bit words, little end first
    and zero-padded to 4, then the replicate and the stream.  The seed's
    words are mixed once, as Python ints; each of the replicate and stream
    words is mixed into the 4 pool words as uint32 array operations over the
    whole range.  A non-integer seed raises TypeError; a negative seed, an
    empty range, or a replicate or stream outside [0, 2**32) raises
    ValueError, since SeedSequence would split a larger index into two words.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    seed, stream = int(seed), operator.index(stream)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not reps:
        raise ValueError(f"replicate must be a nonempty range, got {reps!r}")
    for name, index in (("replicate", reps[0]), ("replicate", reps[-1]), ("stream", stream)):
        if not 0 <= index < 2**32:
            raise ValueError(f"{name} must lie in [0, 2**32), got {index}")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, *next(consts)) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, *next(consts)))
    # one row per pool word, one column per replicate
    pool = np.array(pool, np.uint32)[:, None]
    for word in (np.fromiter(reps, np.uint32, len(reps)), stream):
        xor, mult = np.array([next(consts) for _ in range(4)], np.uint32).T[..., None]
        pool = _mix(pool, _hash(word, xor, mult))
    consts = _hash_constants(_INIT_B, _MULT_B)
    xor, mult = np.array([next(consts) for _ in range(4)], np.uint32).T[..., None]
    state = _hash(pool, xor, mult).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


def replicate_rng(seed: int, replicate: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, replicate, stream): that of
    ``Philox(SeedSequence(seed, spawn_key=(replicate, stream)))``."""
    key = _philox_keys(seed, range(replicate, replicate + 1), stream)[0]
    return np.random.Generator(np.random.Philox(key=key))


class _FactorLaw(NamedTuple):
    """What ``simulate`` needs of a spec's factor VAR, computed once per spec."""

    radius: float                # spectral radius of phi1
    mean: np.ndarray | None      # stationary mean; None when radius >= 1
    half: np.ndarray | None      # square root of the stationary covariance
    shock_factor: np.ndarray     # Cholesky factor of sigma_v (zeros if sigma_v = 0)
    band: np.ndarray             # recursion band over the spec's T periods


@dataclass(frozen=True)
class DgpSpec:
    """Return-and-factor generating process R_t = c + beta (L1 X_{t-1} + v_t) + e_t.

    ``weak_scale`` multiplies beta column-wise; values of order 1/sqrt(T)
    emulate nearly unspanned factors.  The arrays are copied and made
    read-only, so the law ``simulate`` caches on the spec cannot go stale.
    Their shapes are checked against the (N, K) of ``beta``, their entries
    must be finite, ``sigma_v`` zero or positive definite (by one Cholesky
    factorization), ``sigma_e2`` finite and nonnegative and ``t`` an integer
    (a Python or NumPy int, not a bool); a failure is a ValueError naming
    the field.
    """

    c: np.ndarray            # (N,)
    beta: np.ndarray         # (N, K)
    lambda1: np.ndarray      # (K, K)
    mu: np.ndarray           # (K,)
    phi1: np.ndarray         # (K, K)
    sigma_v: np.ndarray      # (K, K) SPD, or zero
    sigma_e2: float
    t: int
    weak_scale: np.ndarray = None  # (K,), defaults to ones

    def __post_init__(self):
        beta_shape = np.shape(self.beta)
        if len(beta_shape) != 2 or min(beta_shape) < 1:
            raise ValueError(f"beta must be N x K with N, K >= 1, got shape {beta_shape}")
        n, k = beta_shape
        if self.weak_scale is None:
            object.__setattr__(self, "weak_scale", np.ones(k))
        shapes = {"c": (n,), "beta": (n, k), "lambda1": (k, k), "mu": (k,), "phi1": (k, k),
                  "sigma_v": (k, k), "weak_scale": (k,)}
        for name, shape in shapes.items():
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape} at N = {n}, K = {k}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.isfinite(self.sigma_e2) or self.sigma_e2 < 0:
            raise ValueError(f"sigma_e2 must be finite and nonnegative, got {self.sigma_e2!r}")
        if np.any(self.weak_scale < 0):
            raise ValueError("weak_scale must be nonnegative")
        if isinstance(self.t, bool) or not isinstance(self.t, (int, np.integer)):
            raise ValueError(f"t must be an integer sample length, got {self.t!r}")
        if self.t < self.beta.shape[1] + 2:
            raise ValueError("sample length too short for the factor count")
        if np.any(self.sigma_v):
            try:
                np.linalg.cholesky(self.sigma_v)
            except np.linalg.LinAlgError:
                raise ValueError("sigma_v must be zero or positive definite") from None

    @property
    def n_assets(self) -> int:
        return self.beta.shape[0]

    @property
    def n_factors(self) -> int:
        return self.beta.shape[1]

    @property
    def effective_beta(self) -> np.ndarray:
        return self.beta * self.weak_scale[None, :]

    @cached_property
    def _law(self) -> _FactorLaw:
        k, phi1, sigma_v = self.n_factors, self.phi1, self.sigma_v
        radius = float(np.abs(np.linalg.eigvals(phi1)).max())
        mean = half = None
        if radius < 1.0:
            # SciPy's solve: at K >= 3 the preset gamma has a repeated eigenvalue, so
            # a last-bit change in it rotates the eigh root and every stationary draw
            import scipy.linalg
            mean = np.linalg.solve(np.eye(k) - phi1, self.mu)
            gamma = scipy.linalg.solve_discrete_lyapunov(phi1, sigma_v)
            w, q = np.linalg.eigh(0.5 * (gamma + gamma.T))
            half = q * np.sqrt(np.maximum(w, 0.0))
        shock_factor = np.linalg.cholesky(sigma_v) if np.any(sigma_v) else np.zeros((k, k))
        return _FactorLaw(radius, mean, half, shock_factor, _recursion_band(phi1, self.t))


def calibrate(
    var: VarEstimate,
    reg: ReturnRegression,
    por: PriceOfRisk | None = None,
    t: int = 300,
) -> DgpSpec:
    """Populate a DGP from three-step estimation output.

    The intercept is chosen so that re-estimation recovers the fitted
    lambda0; Lambda1 comes from the third stage when available and from the
    least-squares ratio of the stacked coefficients otherwise.  A weak
    design scales the loadings with ``dataclasses.replace(spec,
    weak_scale=...)``, as ``preset_dgp`` does.
    """
    beta = reg.beta_hat
    if por is not None:
        lam1 = por.lambda1
        lam0 = por.lambda0
    else:
        sol, *_ = np.linalg.lstsq(beta, np.column_stack([reg.a_hat + reg.g_hat, reg.d_hat]), rcond=None)
        lam0, lam1 = sol[:, 0] + var.mu, sol[:, 1:] + var.phi1
    c = beta @ lam0 - reg.g_hat
    return DgpSpec(
        c=c,
        beta=beta,
        lambda1=lam1,
        mu=var.mu,
        phi1=var.phi1,
        sigma_v=var.sigma_v,
        sigma_e2=reg.sigma_e2,
        t=t,
    )


def preset_dgp(kind: str = "strong", k: int = 1, n: int = 11, t: int = 300) -> DgpSpec:
    """Deterministic single- and two-factor calibrations for experiments.

    Magnitudes mimic bond-return regressions and differ by design, as the
    empirical calibrations do: the single-factor design keeps loadings small
    enough that the score covariance stays near its Kronecker form (the
    full-vector tests are studied there), while the multi-factor design run
    through the subset statistic carries larger loadings so the strong case
    sits firmly in the chi-square regime of the bound.  Weak variants scale
    all loadings toward the sampling-noise level, of order 1/sqrt(T).
    """
    rng = np.random.default_rng(701)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    loading = 1.0 if k == 1 else 3.5
    base = loading * signs[:, None] * (0.14 + 0.10 * rng.random((n, k)))
    lam1 = 0.25 * np.eye(k) + 0.05 * (np.ones((k, k)) - np.eye(k))
    phi1 = 0.45 * np.eye(k) + 0.08 * (np.ones((k, k)) - np.eye(k))
    sigma_v = np.eye(k) + 0.2 * (np.ones((k, k)) - np.eye(k))
    spec = DgpSpec(
        c=0.1 * signs,
        beta=base,
        lambda1=lam1,
        mu=0.05 * np.ones(k),
        phi1=phi1,
        sigma_v=sigma_v,
        sigma_e2=1.0,
        t=t,
    )
    if kind == "strong":
        return spec
    if kind == "weak":
        return replace(spec, weak_scale=np.full(k, 0.06))
    raise ValueError("kind must be 'strong' or 'weak'")


def _recursion_band(phi1: np.ndarray, periods: int) -> np.ndarray:
    """LAPACK lower band storage of the stacked recursion x_0 = x0,
    x_{s+1} - phi1 x_s = mu + v_s (s < periods).

    The system is unit lower-triangular with (periods + 1) K unknowns, ordered
    by period then factor, and lower bandwidth 2K - 1: entry (i, j) is stored
    at ``band[i - j, j]``, and -phi1[a, b] sits at i - j = K + a - b.
    """
    k = phi1.shape[0]
    band = np.zeros((2 * k, (periods + 1) * k))
    band[0] = 1.0
    for a in range(k):
        for b in range(k):
            band[k + a - b, b : periods * k : k] = -phi1[a, b]
    return band


def simulate(spec: DgpSpec, seed: int, replicate=0, init: str = "stationary"):
    """Draw one panel pair; bit-identical for identical (spec, seed, replicate).

    The draws are x_0 (stationary init only), the factor shocks, then the
    return noise, all from the generator of ``replicate_rng(seed, replicate,
    0)``, that of ``Philox(SeedSequence(seed, spawn_key=(replicate, 0)))``, so
    NumPy alone reproduces them.  The factor path solves the stacked recursion
    x_{s+1} = mu + phi1 x_s + v_s in one banded forward substitution (LAPACK
    ``dtbtrs``), equal to stepping the recursion up to rounding.
    ``init="burnin"`` starts at mu and drops 200 periods.

    ``replicate`` may be a range: the panels then carry a leading replicate
    axis, each replicate drawn from its own stream as above, and every
    factor path comes from the one ``dtbtrs`` call, one right-hand side per
    replicate; each entry equals ``simulate`` of its replicate bit for bit.
    The block's Philox keys are derived at once (``_philox_keys``), and one
    Philox bit generator is re-keyed per replicate, with its counter at 0
    and its buffer empty, as a fresh one.  An empty range, or a replicate
    outside [0, 2**32), raises ValueError before anything is allocated.
    The draws go straight into the block's buffers, and the returns are
    summed as (beta f + c) + sigma e in the noise buffer, one replicate's
    beta f at a time, so the one block-sized N x T array is the one returned.
    """
    k, n, t = spec.n_factors, spec.n_assets, spec.t
    reps = replicate if isinstance(replicate, range) else range(replicate, replicate + 1)
    keys = _philox_keys(seed, reps, 0)
    law = spec._law
    if init == "stationary":
        if law.mean is None:
            raise ValueError(f"phi1 spectral radius {law.radius:.3f} >= 1; no stationary law")
        burn, band = 0, law.band
    elif init == "burnin":
        burn = 200
        band = _recursion_band(spec.phi1, t + burn)
    else:
        raise ValueError("init must be 'stationary' or 'burnin'")

    total = t + burn
    # Fortran-ordered, so dtbtrs solves in place; rhs is a view of it
    columns = np.empty(((total + 1) * k, len(reps)), order="F")
    rhs = columns.reshape(total + 1, k, len(reps))
    shocks = np.empty((len(reps), k, total))
    noise = np.empty((len(reps), n, t))
    bitgen = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bitgen)
    state = bitgen.state            # counter 0 and an empty buffer
    for b, key in enumerate(keys):
        state["state"]["key"] = key
        bitgen.state = state
        rhs[0, :, b] = spec.mu if burn else law.mean + law.half @ rng.standard_normal(k)
        rng.standard_normal(out=shocks[b])
        rng.standard_normal(out=noise[b])
    shocks = law.shock_factor @ shocks
    rhs[1:] = spec.mu[:, None] + shocks.transpose(2, 1, 0)
    # loaded at the first draw, so runs that never simulate go without
    # scipy.linalg; a NumPy solve would change the paths' rounding
    import scipy.linalg
    path, _ = scipy.linalg.lapack.dtbtrs(band, columns, uplo="L", diag="U", overwrite_b=1)
    x = np.ascontiguousarray(path.reshape(total + 1, k, -1)[burn:].transpose(2, 1, 0))
    f = spec.lambda1 @ x[..., :-1]
    f += shocks[..., burn:]
    noise *= np.sqrt(spec.sigma_e2)
    beta = spec.effective_beta
    for b in range(len(reps)):
        fitted = beta @ f[b]
        fitted += spec.c[:, None]
        noise[b] += fitted
    r = noise
    if not isinstance(replicate, range):
        x, r = x[0], r[0]
    factors = FactorPanel(x, tuple(f"f{i + 1}" for i in range(k)))
    return ReturnPanel(tuple(range(1, n + 1)), r), factors


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _block_size(spec: DgpSpec) -> int:
    """Replicates per block: as many as ``confsets.CHUNK_BYTES`` holds of
    what their fits keep, from the spec's (K, N, T) alone.

    A fitted replicate keeps Phi, Psi, Qxx, Sigma_v, vhat and the VAR's QR
    factors of (1, X_{t-1}, X_t), and no second-stage residual: the fit
    sums sigma_e^2 one replicate at a time and forms the residuals and xbar
    only for hc0.  The panels, which the fit holds by reference, the
    (1 + 2K) x (1 + 2K) R, the two scalars of Sigma and the simulation
    buffers are not counted.  The N^2 term and 3K^2 of the 9K^2 count no
    array the fit keeps (Sigma is two scalars): they stay as headroom, so a
    block's size (96 at (K, N, T) = (1, 11, 300), 23 at (5, 20, 300)) and
    its peak memory do not grow."""
    k, n, t = spec.n_factors, spec.n_assets, spec.t
    # Phi (N x 2K); Psi (2K x 2K); Qxx, Sigma_v; 3K^2 + N^2 headroom; vhat (K x T); Q (T x (1 + 2K))
    floats = 2 * n * k + 9 * k * k + n * n + (3 * k + 1) * t
    return max(1, confsets.CHUNK_BYTES // (8 * floats))


# A MiB under glibc's DEFAULT_MMAP_THRESHOLD_MAX (32 MiB on 64-bit): freeing
# an mmapped chunk larger than that leaves the dynamic mmap threshold where
# it was, and with glibc's header and page rounding a request of 32 MiB less
# one page already counts as larger (glibc 2.36)
_RAISE_CAP = 31 << 20


def _blocks(reps: int, size: int) -> list[range]:
    """0..reps-1 cut into ceil(reps / size) ranges whose sizes differ by at
    most one, so no block is a runt."""
    count = -(-reps // size)
    edges = [reps * i // max(count, 1) for i in range(count + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def _replicates(spec: DgpSpec, reps: int, seed: int, evaluate) -> tuple[list, int]:
    """Results of replicates 0..reps-1, simulated, fitted and evaluated a
    block at a time, and the number of block refits.

    The replicates are cut into blocks of at most ``_block_size(spec)``,
    balanced by ``_blocks``.  Each block is one ``simulate`` and one
    ``fit_model`` call on stacked panels; ``evaluate(fit)`` takes the stacked
    fit and returns one result per replicate.  A replicate's draws, fit and
    result do not depend on the block it is in, so a block whose fit or
    evaluation raises one of FIT_ERRORS or a ValueError (its fits split on
    the price of risk, or a scan fails on one of them, say) is fitted again
    as two halves of its panels, down to single replicates; no other code
    traces a failure back to its replicate.  A replicate that raises one of
    FIT_ERRORS on its own has that exception in place of its result, as
    fitting and evaluating it alone gives; any other exception of a single
    replicate propagates.  The refits are the ``fit_model``
    calls made after a block raised, 0 when none did.

    Before the first block it allocates and frees one untouched buffer of
    twice the largest block's return panel, capped at 31 MiB, under
    glibc's 32 MiB ceiling.  glibc raises its mmap threshold to the size of a freed mmapped
    chunk, and its trim threshold to twice that (mallopt(3), NOTES), so the
    block arrays are then served from the heap and stay there between
    blocks instead of being unmapped or trimmed at the end of one block and
    faulted in again by the next: a 40-replicate ``sfar_density_experiment``
    at (5, 20, 300) took 1,453 minor page faults a call before this and
    about 1 after.  The raised thresholds stay for the process, as after
    any large free.  Results do not depend on it; on other allocators it is
    one untouched allocation.
    """
    blocks = _blocks(reps, _block_size(spec))
    panel = 8 * max(map(len, blocks), default=0) * spec.n_assets * spec.t
    np.empty(min(2 * panel, _RAISE_CAP), dtype=np.uint8)
    results, refits = [], 0
    for block in blocks:
        res, extra = _run_block(*simulate(spec, seed, block), evaluate)
        results += res
        refits += extra
    return results, refits


def _run_block(returns: ReturnPanel, factors: FactorPanel, evaluate) -> tuple[list, int]:
    """``evaluate`` of the fit of stacked panels, or of their halves if that
    raises, and the number of ``fit_model`` calls made on halves."""
    try:
        return list(evaluate(fit_model(returns, factors))), 0
    except FIT_ERRORS + (ValueError,) as exc:
        n = len(returns.returns)
        if n == 1:
            if not isinstance(exc, FIT_ERRORS):     # LinAlgError is a ValueError too
                raise
            return [exc], 0
        results, refits = [], 0
        for half in (slice(None, n // 2), slice(n // 2, None)):
            res, extra = _run_block(
                replace(returns, returns=returns.returns[half]),
                replace(factors, factors=factors.factors[half]),
                evaluate,
            )
            results += res
            refits += 1 + extra
        return results, refits


@dataclass(frozen=True)
class PowerTable:
    tests: tuple[str, ...]
    grid: np.ndarray             # (n_points, K*K) hypothesis values (vec, column-major)
    rejection: np.ndarray        # (n_tests, n_points)
    std_error: np.ndarray        # (n_tests, n_points) binomial
    failures: dict
    failure_kinds: dict          # test -> {exception class name: failed pairs}
    reps: int
    level: float
    block_refits: int            # fit_model calls made after a block raised


def _evaluate_tests(fit, families, shape) -> list:
    """Per fit of a stacked fit: p-values (tests, points), NaN where a test
    failed, and a Counter of the failures by (test row, exception class name).

    Each family of (rows, tests, binding, parameter stack) is one
    ``scan_pvalues`` over the stack.  A failure on a stack of several fits
    propagates, so ``_run_block`` refits the block in halves; on one fit a
    family whose setup fails fails at every point.  A stack has a price of
    risk for every fit or for none, so a stack without one fails every fit's
    Wald points with the setup's error and needs no split.
    """
    reps = fit.stacked.batch_shape[0]
    pvalues = np.full((reps, *shape), np.nan)
    kinds = [Counter() for _ in range(reps)]
    for rows, tests, binding, params in families:
        try:
            values, failures = scan_pvalues(tests, fit, binding, params)
        except FIT_ERRORS as exc:
            if reps > 1 and not (tests == ["wald"] and fit.por is None):
                raise
            for fails in kinds:
                fails.update({(row, type(exc).__name__): len(params) for row in rows})
            continue
        pvalues[:, rows] = values.swapaxes(0, 1)
        for _, exc in failures:    # failed points come from a stack of one fit
            kinds[0].update((row, type(exc).__name__) for row in rows)
    return list(zip(pvalues, kinds))


def power_curve(
    tests,
    h0_grid,
    spec: DgpSpec,
    reps: int,
    level: float = 0.05,
    seed: int = 0,
) -> PowerTable:
    """Rejection frequencies of the chosen tests over a hypothesis grid.

    ``h0_grid`` holds at least one finite K x K matrix (scalars allowed when
    K = 1); no test, an empty grid, an invalid matrix or a level outside
    (0, 1] raises ValueError before any replicate is drawn.  The sFAR entry tests
    the first row of Lambda1 against the matrix's first row.  Each block of
    replicates (``_replicates``) is one stacked fit and runs one
    ``confsets.scan_pvalues`` per test family (far/klm/jklm together, wald, sfar) over the whole grid;
    the numbers are those of scanning each fit on its own.  ``failures`` counts, per
    test, the (replicate, hypothesis) pairs without a result, and
    ``failure_kinds`` splits that count by the exception raised: by the fit,
    by a family's per-fit setup, or at a point.  ``rejection`` and
    ``std_error`` are NaN where no replicate has a result.  ``block_refits``
    counts the ``fit_model`` calls made on halves of a block that raised.
    """
    if reps < 100:
        raise ValueError("need at least 100 replicates for stable frequencies")
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must lie in (0, 1], got {level!r}")
    tests = [t.lower() for t in tests]
    if not tests:
        raise ValueError("need at least one test")
    if set(tests) - set(VALID_TESTS):
        raise ValueError(f"unknown test in {tests}; expected any of {VALID_TESTS}")
    if len(h0_grid) == 0:
        raise ValueError("need at least one hypothesis")
    k = spec.n_factors
    h0_mats = np.array([np.asarray(h, dtype=float).reshape(k, k) for h in h0_grid])
    if not np.isfinite(h0_mats).all():
        raise ValueError("hypotheses must be finite")
    params = h0_mats.swapaxes(-1, -2).reshape(-1, k * k)      # column-major vec
    full, families = full_lambda_binding(k), []
    for family, binding, stack in (
        (TESTS, full, params), (("wald",), full, params), (("sfar",), row_binding(k, 0), h0_mats[:, 0])
    ):
        rows = [i for i, t in enumerate(tests) if t in family]
        if rows:
            families.append((rows, [tests[i] for i in rows], binding, stack))
    shape = (len(tests), len(h0_mats))
    results, refits = _replicates(spec, reps, seed, lambda fit: _evaluate_tests(fit, families, shape))
    pvalues = np.full((reps, *shape), np.nan)
    kinds = Counter()
    for rep, res in enumerate(results):
        if isinstance(res, Exception):    # the fit failed: every test, every point
            kinds.update({(row, type(res).__name__): len(h0_mats) for row in range(len(tests))})
        else:
            pvalues[rep], fails = res
            kinds.update(fails)
    counts = np.sum(~np.isnan(pvalues), axis=0)
    with np.errstate(invalid="ignore"):    # NaN where no replicate has a result
        freq = np.sum(pvalues < level, axis=0) / counts
    se = np.sqrt(freq * (1 - freq) / counts)
    failures = {t: int(reps * len(h0_mats) - counts[i].sum()) for i, t in enumerate(tests)}
    failure_kinds = {
        t: {name: n for (row, name), n in sorted(kinds.items()) if row == i}
        for i, t in enumerate(tests)
    }
    return PowerTable(
        tests=tuple(tests),
        grid=params,
        rejection=freq,
        std_error=se,
        failures=failures,
        failure_kinds=failure_kinds,
        reps=reps,
        level=level,
        block_refits=refits,
    )


@dataclass(frozen=True)
class SfarDensityResult:
    """sFAR draws at the true row against their chi^2(K(N-K+1)) bound;
    ``quantile_se`` takes the bound's density at each of its quantiles.
    ``ks_pvalue`` is a property, not a field: the constructor, ``fields``,
    ``asdict``, ``replace``, ``repr`` and ``==`` leave it out."""

    statistics: np.ndarray
    dof_bound: int
    quantile_levels: tuple[float, ...]
    empirical_quantiles: np.ndarray
    chi2_quantiles: np.ndarray
    quantile_se: np.ndarray
    failures: int
    failure_kinds: dict          # {exception class name: failed replicates}
    block_refits: int            # fit_model calls made after a block raised

    @cached_property
    def ks_pvalue(self) -> float:
        """Exact KS p-value of ``statistics`` against chi^2(``dof_bound``), NaN
        when no replicate succeeded.  The first read loads ``scipy.stats``
        (about 40 MB and 1 s); only callers that never read it skip that, and
        the ``mc`` CLI summary reads it."""
        if self.statistics.size == 0:
            return float("nan")
        return ks_chi2_pvalue(self.statistics, self.dof_bound)


# levels of the empirical and chi-square quantiles of the sFAR density
SFAR_QUANTILE_LEVELS = (0.90, 0.95, 0.99)


def sfar_density_experiment(spec: DgpSpec, reps: int, seed: int = 0) -> SfarDensityResult:
    """Null distribution of the subset statistic at the true first row of
    Lambda1, with its quantiles at ``SFAR_QUANTILE_LEVELS``.

    Each block of replicates is one stacked fit and one stacked
    ``sfar_statistics`` call (``_replicates``); ``failure_kinds`` counts
    the failed replicates by the exception class that the fit or the
    statistic raised, and ``block_refits`` the ``fit_model`` calls made on
    halves of a block that raised.  Negative ``reps`` raise ValueError
    before any draw.  It loads no ``scipy.stats``."""
    k, n = spec.n_factors, spec.n_assets
    if reps < 0:
        raise ValueError("reps must be nonnegative")
    quantile_levels = SFAR_QUANTILE_LEVELS
    results, refits = _replicates(
        spec, reps, seed, lambda fit: sfar_statistics(fit.stacked, spec.lambda1[0], 0)
    )
    stats = np.asarray([s for s in results if not isinstance(s, Exception)])
    failures = len(results) - stats.size
    failed = Counter(type(s).__name__ for s in results if isinstance(s, Exception))
    failure_kinds = dict(sorted(failed.items()))
    dof = sfar_dof(k, n)
    if stats.size:
        qs = np.quantile(stats, quantile_levels)
        chi_qs = np.array([chi2_ppf(p, dof) for p in quantile_levels])
        dens = chi2_pdf(chi_qs, dof)
        q_se = np.sqrt(np.array(quantile_levels) * (1 - np.array(quantile_levels)) / stats.size) / np.maximum(dens, 1e-12)
    else:
        qs = chi_qs = q_se = np.array([])
    return SfarDensityResult(
        statistics=stats,
        dof_bound=dof,
        quantile_levels=quantile_levels,
        empirical_quantiles=qs,
        chi2_quantiles=chi_qs,
        quantile_se=q_se,
        failures=failures,
        failure_kinds=failure_kinds,
        block_refits=refits,
    )


def power_surface(
    spec: DgpSpec,
    axis1: np.ndarray,
    axis2: np.ndarray,
    reps: int,
    level: float = 0.05,
    seed: int = 0,
) -> PowerTable:
    """``power_curve(["sfar"])`` over the mesh axis1 x axis2 of the first row
    of Lambda1 (K = 2); ``rejection[0].reshape(len(axis1), len(axis2))`` is
    the surface.

    The other rows of each hypothesis in ``grid`` are those of
    ``spec.lambda1``; the row statistic does not read them.  Failures are
    counted per (replicate, point) as in ``power_curve``, a point without a
    result in any replicate is NaN, and validation is ``power_curve``'s.
    """
    if spec.n_factors != 2:
        raise ValueError("power_surface is defined for two-factor models")
    h0_mats = np.repeat(spec.lambda1[None], len(axis1) * len(axis2), axis=0)
    h0_mats[:, 0] = np.stack(np.meshgrid(axis1, axis2, indexing="ij"), axis=-1).reshape(-1, 2)
    return power_curve(["sfar"], h0_mats, spec, reps, level, seed)


# ---------------------------------------------------------------------------
# Wishart eigenvalue lab
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenLabSpec:
    """Noncentral Gaussian matrix lab: Xi = Z + mean, eigenvalues of Xi'Xi."""

    n_rows: int                   # N
    dim: int                      # L (2K - 1 in the subset problem)
    k: int                        # K
    noncentrality: np.ndarray | None = None   # (N, L) mean matrix
    reps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"need at least one replicate, got {self.reps}")
        if not 1 <= self.k <= self.dim:
            raise ValueError(f"need 1 <= K <= L, got K = {self.k}, L = {self.dim}")
        if self.noncentrality is not None:
            m = np.asarray(self.noncentrality, dtype=float)
            if m.shape != (self.n_rows, self.dim):
                raise ValueError("noncentrality must be N x L")
            if np.linalg.matrix_rank(m) > self.k - 1:
                raise ValueError("null-configuration mean must have rank <= K-1")
            object.__setattr__(self, "noncentrality", m)
        if self.dim > self.n_rows:
            raise ValueError("lab assumes at least as many rows as columns")


@dataclass(frozen=True)
class WishartLabResult:
    eigenvalues: np.ndarray       # (reps, L) ascending
    small_sums: np.ndarray        # sum of the L-K+1 smallest
    large_sums: np.ndarray        # sum of the K-1 largest, 0 at K = 1
    central_dof: int              # (L-K+1)(N-K+1)


# replicates drawn per batch of the lab, which bounds its working set
EIGEN_LAB_BATCH = 20_000


def wishart_eigen_lab(spec: EigenLabSpec) -> WishartLabResult:
    """Sample eigenvalues of Xi'Xi with Xi = Z + M, Z standard normal."""
    rng = replicate_rng(spec.seed, 0, 0)
    n, l, k = spec.n_rows, spec.dim, spec.k
    chunks = []
    done = 0
    while done < spec.reps:
        b = min(EIGEN_LAB_BATCH, spec.reps - done)
        z = rng.standard_normal((b, n, l))
        if spec.noncentrality is not None:
            z += spec.noncentrality[None]
        gram = np.einsum("bij,bik->bjk", z, z)
        chunks.append(np.linalg.eigvalsh(gram))
        done += b
    eig = np.vstack(chunks)
    small = eig[:, : l - k + 1].sum(axis=1)
    large = eig[:, l - k + 1 :].sum(axis=1)
    return WishartLabResult(
        eigenvalues=eig,
        small_sums=small,
        large_sums=large,
        central_dof=(l - k + 1) * (n - k + 1),
    )


def rank_one_noncentrality(n: int, l: int, kappa: float) -> np.ndarray:
    """Rank-1 mean matrix with squared singular value kappa (K = 2 null);
    a negative or non-finite kappa raises ValueError."""
    if not (np.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa!r}")
    u = np.ones(n) / np.sqrt(n)
    v = np.ones(l) / np.sqrt(l)
    return np.sqrt(kappa) * np.outer(u, v)
