"""Monte Carlo engine: calibrated DGPs, size/power studies, eigenvalue lab.

Reproducibility contract: every replicate draws from a counter-based
generator keyed by (seed, replicate, stream), so results are bit-identical
across serial and threaded runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.stats

from ._linalg import NumericalError, chi2_ppf
from .panels import FactorPanel, ReturnPanel
from .pipeline import ModelFit, fit_model
from .subset import SubsetHypothesis, sfar_row
from .threestep import PriceOfRisk, ReturnRegression
from .varstage import RankError, VarEstimate

# Numerical failures of one replicate or grid point: counted as failures, never
# swallowed beyond these so that programming errors surface.
FIT_ERRORS = (NumericalError, RankError, np.linalg.LinAlgError)


def replicate_rng(seed: int, replicate: int = 0, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, replicate, stream)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate, stream))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DgpSpec:
    """Return-and-factor generating process R_t = c + beta (L1 X_{t-1} + v_t) + e_t.

    ``weak_scale`` multiplies beta column-wise; values of order 1/sqrt(T)
    emulate nearly unspanned factors.
    """

    c: np.ndarray            # (N,)
    beta: np.ndarray         # (N, K)
    lambda1: np.ndarray      # (K, K)
    mu: np.ndarray           # (K,)
    phi1: np.ndarray         # (K, K)
    sigma_v: np.ndarray      # (K, K) SPD
    sigma_e2: float
    t: int
    weak_scale: np.ndarray = None  # (K,), defaults to ones

    def __post_init__(self):
        for name in ("c", "beta", "lambda1", "mu", "phi1", "sigma_v"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        ws = np.ones(self.beta.shape[1]) if self.weak_scale is None else np.asarray(
            self.weak_scale, dtype=float
        )
        object.__setattr__(self, "weak_scale", ws)
        if np.any(ws < 0):
            raise ValueError("weak_scale must be nonnegative")
        if self.t < self.beta.shape[1] + 2:
            raise ValueError("sample length too short for the factor count")
        if np.any(np.linalg.eigvalsh(0.5 * (self.sigma_v + self.sigma_v.T)) < -1e-12):
            raise ValueError("sigma_v must be positive semidefinite")

    @property
    def n_assets(self) -> int:
        return self.beta.shape[0]

    @property
    def n_factors(self) -> int:
        return self.beta.shape[1]

    @property
    def effective_beta(self) -> np.ndarray:
        return self.beta * self.weak_scale[None, :]

    def to_dict(self) -> dict:
        return {
            "c": self.c.tolist(),
            "beta": self.beta.tolist(),
            "lambda1": self.lambda1.tolist(),
            "mu": self.mu.tolist(),
            "phi1": self.phi1.tolist(),
            "sigma_v": self.sigma_v.tolist(),
            "sigma_e2": self.sigma_e2,
            "t": self.t,
            "weak_scale": self.weak_scale.tolist(),
        }


def calibrate(
    returns: ReturnPanel,
    factors: FactorPanel,
    var: VarEstimate,
    reg: ReturnRegression,
    por: PriceOfRisk | None = None,
    t: int = 300,
    weak_scale=None,
) -> DgpSpec:
    """Populate a DGP from three-step estimation output.

    The intercept is chosen so that re-estimation recovers the fitted
    lambda0; Lambda1 comes from the third stage when available and from the
    least-squares ratio of the stacked coefficients otherwise.
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
        weak_scale=weak_scale,
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


def simulate(spec: DgpSpec, seed: int, replicate: int = 0, init: str = "stationary"):
    """Draw one panel pair; bit-identical for identical (spec, seed, replicate)."""
    k, n, t = spec.n_factors, spec.n_assets, spec.t
    rng = replicate_rng(seed, replicate)
    eigmax = np.abs(np.linalg.eigvals(spec.phi1)).max()
    if init == "stationary":
        if eigmax >= 1.0:
            raise ValueError(f"phi1 spectral radius {eigmax:.3f} >= 1; no stationary law")
        mean = np.linalg.solve(np.eye(k) - spec.phi1, spec.mu)
        gamma = scipy.linalg.solve_discrete_lyapunov(spec.phi1, spec.sigma_v)
        w, q = np.linalg.eigh(0.5 * (gamma + gamma.T))
        half = q @ np.diag(np.sqrt(np.maximum(w, 0.0)))
        x0 = mean + half @ rng.standard_normal(k)
        burn = 0
    elif init == "burnin":
        x0 = spec.mu.copy()
        burn = 200
    else:
        raise ValueError("init must be 'stationary' or 'burnin'")

    lv = np.linalg.cholesky(spec.sigma_v + 1e-300 * np.eye(k)) if np.any(spec.sigma_v) else np.zeros((k, k))
    total = t + burn
    shocks = lv @ rng.standard_normal((k, total))
    x = np.empty((k, total + 1))
    x[:, 0] = x0
    for s in range(total):
        x[:, s + 1] = spec.mu + spec.phi1 @ x[:, s] + shocks[:, s]
    x = x[:, burn:]
    v = shocks[:, burn:]
    e = np.sqrt(spec.sigma_e2) * rng.standard_normal((n, t))
    beta = spec.effective_beta
    r = spec.c[:, None] + beta @ (spec.lambda1 @ x[:, :-1] + v) + e
    factors = FactorPanel(x, tuple(f"f{i + 1}" for i in range(k)))
    returns = ReturnPanel(
        tuple(range(1, n + 1)), r, tuple(f"t{s + 1}" for s in range(t))
    )
    return returns, factors


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerTable:
    tests: tuple[str, ...]
    grid: np.ndarray             # (n_points, K*K) hypothesis values (vec, column-major)
    rejection: np.ndarray        # (n_tests, n_points)
    std_error: np.ndarray        # (n_tests, n_points) binomial
    failures: dict
    reps: int
    level: float


def _evaluate_tests(fit: ModelFit, tests, h0_mats, level, cov_cache):
    """Rejection indicators, NaN on per-point failure."""
    from .moments import robust_tests

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
                if cov_cache.get("cov") is None:
                    cov_cache["cov"] = fit.asymptotic_cov()
                out[i, j] = fit.wald(lam, cov=cov_cache["cov"]).pvalue < level
            except FIT_ERRORS:
                pass
        if "sfar" in tests:
            i = tests.index("sfar")
            try:
                h = SubsetHypothesis("row", 0, np.asarray(lam)[0])
                out[i, j] = sfar_row(h, fit.stacked).pvalue_upper < level
            except FIT_ERRORS:
                pass
    return out


def power_curve(
    tests,
    h0_grid,
    spec: DgpSpec,
    reps: int,
    level: float = 0.05,
    seed: int = 0,
    threads: int = 1,
) -> PowerTable:
    """Rejection frequencies of the chosen tests over a hypothesis grid.

    ``h0_grid`` holds K x K matrices (scalars allowed when K = 1).  The sFAR
    entry tests the first row of Lambda1 against the matrix's first row.
    """
    if reps < 100:
        raise ValueError("need at least 100 replicates for stable frequencies")
    tests = [t.lower() for t in tests]
    k = spec.n_factors
    h0_mats = [np.asarray(h, dtype=float).reshape(k, k) for h in h0_grid]

    def one(rep):
        returns, factors = simulate(spec, seed, rep)
        try:
            fit = fit_model(returns, factors)
        except FIT_ERRORS:
            return np.full((len(tests), len(h0_mats)), np.nan)
        return _evaluate_tests(fit, tests, h0_mats, level, {})

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(reps)))
    else:
        results = [one(rep) for rep in range(reps)]
    stack = np.stack(results)                       # (reps, tests, points)
    counts = np.sum(~np.isnan(stack), axis=0)
    freq = np.nansum(stack, axis=0) / np.maximum(counts, 1)
    se = np.sqrt(np.maximum(freq * (1 - freq), 0.0) / np.maximum(counts, 1))
    failures = {t: int(reps * len(h0_mats) - counts[i].sum()) for i, t in enumerate(tests)}
    return PowerTable(
        tests=tuple(tests),
        grid=np.array([m.reshape(-1, order="F") for m in h0_mats]),
        rejection=freq,
        std_error=se,
        failures=failures,
        reps=reps,
        level=level,
    )


@dataclass(frozen=True)
class SfarDensityResult:
    statistics: np.ndarray
    dof_bound: int
    ks_pvalue: float
    quantile_levels: tuple[float, ...]
    empirical_quantiles: np.ndarray
    chi2_quantiles: np.ndarray
    quantile_se: np.ndarray
    failures: int


def sfar_density_experiment(
    spec: DgpSpec,
    reps: int,
    seed: int = 0,
    row_index: int = 0,
    quantile_levels=(0.90, 0.95, 0.99),
) -> SfarDensityResult:
    """Null distribution of the subset statistic at the true row of Lambda1."""
    if reps < 0:
        raise ValueError("reps must be nonnegative")
    k, n = spec.n_factors, spec.n_assets
    truth = spec.lambda1[row_index]
    stats, failures = [], 0
    for rep in range(reps):
        returns, factors = simulate(spec, seed, rep)
        try:
            fit = fit_model(returns, factors)
            res = sfar_row(SubsetHypothesis("row", row_index, truth), fit.stacked)
            stats.append(res.statistic)
        except FIT_ERRORS:
            failures += 1
    stats = np.asarray(stats)
    dof = k * (n - k + 1)
    if stats.size == 0:
        return SfarDensityResult(
            statistics=stats, dof_bound=dof, ks_pvalue=float("nan"),
            quantile_levels=tuple(quantile_levels),
            empirical_quantiles=np.array([]), chi2_quantiles=np.array([]),
            quantile_se=np.array([]), failures=failures,
        )
    ks = scipy.stats.kstest(stats, scipy.stats.chi2(dof).cdf)
    qs = np.quantile(stats, quantile_levels)
    chi_qs = np.array([chi2_ppf(p, dof) for p in quantile_levels])
    dens = scipy.stats.chi2(dof).pdf(chi_qs)
    q_se = np.sqrt(np.array(quantile_levels) * (1 - np.array(quantile_levels)) / stats.size) / np.maximum(dens, 1e-12)
    return SfarDensityResult(
        statistics=stats,
        dof_bound=dof,
        ks_pvalue=float(ks.pvalue),
        quantile_levels=tuple(quantile_levels),
        empirical_quantiles=qs,
        chi2_quantiles=chi_qs,
        quantile_se=q_se,
        failures=failures,
    )


def power_surface(
    spec: DgpSpec,
    axis1: np.ndarray,
    axis2: np.ndarray,
    reps: int,
    level: float = 0.05,
    seed: int = 0,
    row_index: int = 0,
) -> np.ndarray:
    """Rejection frequency of the row-subset test over a 2D hypothesis grid.

    Requires K = 2: the tested row runs over (axis1 x axis2).
    """
    if spec.n_factors != 2:
        raise ValueError("power_surface is defined for two-factor models")
    if level >= 1.0:
        return np.ones((len(axis1), len(axis2)))
    crit = chi2_ppf(1 - level, 2 * (spec.n_assets - 1))
    hits = np.zeros((len(axis1), len(axis2)))
    counts = np.zeros_like(hits)
    for rep in range(reps):
        returns, factors = simulate(spec, seed, rep)
        try:
            fit = fit_model(returns, factors)
        except FIT_ERRORS:
            continue
        for i, v1 in enumerate(axis1):
            for j, v2 in enumerate(axis2):
                res = sfar_row(
                    SubsetHypothesis("row", row_index, np.array([v1, v2])), fit.stacked
                )
                hits[i, j] += res.statistic > crit
                counts[i, j] += 1
    return hits / np.maximum(counts, 1)


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
    large_sums: np.ndarray        # sum of the K-1 largest
    central_dof: int              # (L-K+1)(N-K+1)


def wishart_eigen_lab(spec: EigenLabSpec, batch: int = 20_000) -> WishartLabResult:
    """Sample eigenvalues of Xi'Xi with Xi = Z + M, Z standard normal."""
    rng = replicate_rng(spec.seed)
    n, l, k = spec.n_rows, spec.dim, spec.k
    chunks = []
    done = 0
    while done < spec.reps:
        b = min(batch, spec.reps - done)
        z = rng.standard_normal((b, n, l))
        if spec.noncentrality is not None:
            z += spec.noncentrality[None]
        gram = np.einsum("bij,bik->bjk", z, z)
        chunks.append(np.linalg.eigvalsh(gram))
        done += b
    eig = np.vstack(chunks) if chunks else np.empty((0, l))
    small = eig[:, : l - k + 1].sum(axis=1)
    large = eig[:, l - k + 1 :].sum(axis=1)
    return WishartLabResult(
        eigenvalues=eig,
        small_sums=small,
        large_sums=large,
        central_dof=(l - k + 1) * (n - k + 1),
    )


def rank_one_noncentrality(n: int, l: int, kappa: float) -> np.ndarray:
    """Rank-1 mean matrix with squared singular value kappa (K = 2 null)."""
    u = np.ones(n) / np.sqrt(n)
    v = np.ones(l) / np.sqrt(l)
    return np.sqrt(kappa) * np.outer(u, v)


# ---------------------------------------------------------------------------
# Bootstrap cross-check of the Wald covariance
# ---------------------------------------------------------------------------


def bootstrap_lambda1_cov(spec: DgpSpec, reps: int = 2000, seed: int = 0) -> np.ndarray:
    """Parametric-bootstrap covariance of vec(Lambda1_hat), scaled by T."""
    draws = []
    for rep in range(reps):
        returns, factors = simulate(spec, seed, rep)
        try:
            fit = fit_model(returns, factors)
        except FIT_ERRORS:
            continue
        if fit.por is None:
            continue
        draws.append(fit.por.lambda1.reshape(-1, order="F"))
    draws = np.asarray(draws)
    return np.cov(draws.T, ddof=1).reshape(
        (spec.n_factors**2, spec.n_factors**2)
    ) * spec.t
