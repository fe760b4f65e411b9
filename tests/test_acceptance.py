"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 10 needs an external zero-coupon dataset and is skipped
unless RISKPREMIA_DATA points at one.
"""

import os
import time

import numpy as np
import pytest
import scipy.stats

from riskpremia._linalg import chi2_ppf
from riskpremia.confsets import GridAxis, GridSpec, joint_confidence_set, row_binding
from riskpremia.kronecker import kps_factorize
from riskpremia.montecarlo import (
    EigenLabSpec,
    power_curve,
    preset_dgp,
    rank_one_noncentrality,
    sfar_density_experiment,
    simulate,
    wishart_eigen_lab,
)
from riskpremia.moments import robust_tests
from riskpremia.pipeline import fit_model
from riskpremia.subset import (
    SubsetHypothesis,
    build_stacked,
    kp_rank,
    sfar_column,
    sfar_distant,
    sfar_row,
)
from riskpremia.threestep import second_stage
from riskpremia.varstage import fit_var1

from oracles import second_stage_contemporaneous, sfar_minimized
from test_threestep import make_dataset


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def random_instance(rng, k, n, t=80, beta_scale=1.0, sigma_e=0.5):
    beta = beta_scale * rng.uniform(0.4, 1.2, (n, k)) * np.sign(rng.standard_normal((n, k)))
    lam0 = rng.standard_normal(k)
    lam1 = 0.3 * rng.standard_normal((k, k))
    mu = 0.1 * rng.standard_normal(k)
    phi = 0.4 * np.eye(k) + 0.05 * rng.standard_normal((k, k))
    sigma_v = np.eye(k) + 0.2 * (np.ones((k, k)) - np.eye(k))
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, sigma_e, t)
    var = fit_var1(factors)
    return build_stacked(returns, factors, var, second_stage(returns, factors, var)), lam1, (returns, factors, var)


def test_criterion_1_far_decomposition():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 5))
        k = min(k, n - 2)
        _, lam1, (returns, factors, _) = random_instance(rng, k, n, t=40 + 4 * k)
        h0 = lam1 + 0.1 * rng.standard_normal((k, k))
        mode = "kps" if i % 2 == 0 else "hc0"
        out = robust_tests(fit_model(returns, factors), h0, mode=mode)
        total = out["klm"].statistic + out["jklm"].statistic
        rel = abs(total - out["far"].statistic) / max(out["far"].statistic, 1e-12)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report(
        1, "FAR = KLM + JKLM on 200 random instances (rel err < 1e-8)",
        worst < 1e-8 and elapsed < 10,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_variant_identity():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, 4))
        sys, lam1, (returns, factors, var) = random_instance(rng, k, n, t=50)
        r1 = second_stage_contemporaneous(returns, factors, var)
        r2 = second_stage(returns, factors, var)
        for a, b in ((r1.a_hat, r2.a_hat), (r1.d_hat, r2.d_hat), (r1.beta_hat, r2.beta_hat)):
            scale = max(np.abs(b).max(), 1e-12)
            worst = max(worst, np.abs(a - b).max() / scale)
    elapsed = time.time() - t0
    report(
        2, "three-step variants I and II identical on 100 datasets (rel < 1e-10)",
        worst < 1e-10 and elapsed < 10,
        f"worst rel diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_sfar_minimization_oracle():
    t0 = time.time()
    rng = np.random.default_rng(303)
    column_offsets = 0.05 * np.random.default_rng(313).standard_normal((50, 2))
    worst, above = 0.0, -np.inf
    for i in range(50):
        n = 4 + i % 3
        sys, lam1, _ = random_instance(rng, 2, n, t=70)
        h = SubsetHypothesis("row", i % 2, lam1[i % 2] + 0.05 * rng.standard_normal(2))
        eig = sfar_row(h, sys)
        num = sfar_minimized(h, sys, seed=i)
        worst = max(worst, abs(num - eig.statistic) / max(eig.statistic, 1e-12))
        # the column arm: the closed form is the exact minimum, so it never
        # lies above the optimizer's value by more than rounding
        h = SubsetHypothesis("column", i % 2, lam1[:, i % 2] + column_offsets[i])
        eig = sfar_column(h, sys).statistic
        num = sfar_minimized(h, sys, seed=i)
        worst = max(worst, abs(num - eig) / max(eig, 1e-12))
        above = max(above, (eig - num) / max(num, 1e-12))
    elapsed = time.time() - t0
    report(
        3, "pencil row and column sFAR equal 20-start numerical min of FAR over nuisance "
        "rows/columns (rel < 1e-6, never above it by 1e-12)",
        worst < 1e-6 and above <= 1e-12 and elapsed < 120,
        f"worst rel err {worst:.2e}, most above {above:.1e}, {elapsed:.1f}s",
    )


def test_criterion_4_distant_value_limit():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst_lim, min_gap = 0.0, np.inf
    directions_checked = 0
    for i in range(4):
        sys, _, _ = random_instance(rng, 2, 5 + i % 2, t=90)
        rank = kp_rank(sys)
        for _ in range(4):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            limit = sfar_distant(d, sys)
            far_out = sfar_row(SubsetHypothesis("row", 0, 1e6 * d), sys)
            rel = abs(far_out.statistic - limit.statistic) / max(limit.statistic, 1e-12)
            worst_lim = max(worst_lim, rel)
            min_gap = min(min_gap, limit.statistic - rank.statistic)
            directions_checked += 1
    worst_k1 = 0.0
    for i in range(4):
        sys1, _, _ = random_instance(rng, 1, 4, t=70)
        rank1 = kp_rank(sys1)
        res = sfar_distant(rng.standard_normal(1), sys1)
        worst_k1 = max(worst_k1, abs(res.statistic - rank1.statistic) / max(rank1.statistic, 1e-12))
    elapsed = time.time() - t0
    report(
        4, "sFAR at c=1e6 matches the distant limit (1e-4), bounded below by the rank "
           "statistic, equal at K=1 (1e-8)",
        worst_lim < 1e-4 and min_gap > -1e-8 and worst_k1 < 1e-8 and elapsed < 60,
        f"16 directions: worst rel {worst_lim:.2e}, min gap {min_gap:.2e}, "
        f"K=1 rel {worst_k1:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_chi_square_bound():
    t0 = time.time()
    spec_s = preset_dgp("strong", k=2, n=6, t=300)
    strong = sfar_density_experiment(spec_s, reps=5000, seed=2024)
    spec_w = preset_dgp("weak", k=2, n=6, t=300)
    weak = sfar_density_experiment(spec_w, reps=5000, seed=2024)
    weak_ok = bool(
        np.all(weak.empirical_quantiles <= weak.chi2_quantiles + 2 * weak.quantile_se)
    )
    elapsed = time.time() - t0
    report(
        5, "sFAR null quantiles bounded by chi2(K(N-K+1)) under weak id; "
           "KS pass at 1% under strong id (5000 reps, T=300, K=2, N=6)",
        weak_ok and strong.ks_pvalue > 0.01 and elapsed < 600,
        f"strong KS p={strong.ks_pvalue:.3f}; weak q {np.round(weak.empirical_quantiles, 2)} "
        f"vs chi2 {np.round(weak.chi2_quantiles, 2)}, {elapsed:.0f}s",
    )


def test_criterion_6_size_control():
    t0 = time.time()
    sizes = {}
    for kind in ("strong", "weak"):
        spec = preset_dgp(kind, k=1, n=11, t=300)
        table = power_curve(
            ["far", "klm", "jklm", "wald"], [spec.lambda1], spec,
            reps=2000, level=0.05, seed=7,
        )
        sizes[kind] = dict(zip(table.tests, table.rejection[:, 0]))
    robust_ok = all(
        0.035 <= sizes[kind][t] <= 0.065
        for kind in ("strong", "weak")
        for t in ("far", "klm", "jklm")
    )
    wald_distorted = sizes["weak"]["wald"] > 0.065
    elapsed = time.time() - t0
    report(
        6, "FAR/KLM/JKLM size in [3.5%, 6.5%] (strong and weak); weak-case Wald "
           "size exceeds 6.5% (2000 reps, T=300)",
        robust_ok and wald_distorted and elapsed < 600,
        f"strong {({t: round(v, 4) for t, v in sizes['strong'].items()})}, "
        f"weak {({t: round(v, 4) for t, v in sizes['weak'].items()})}, {elapsed:.0f}s",
    )


def test_criterion_7_wishart_lab():
    t0 = time.time()
    # central case: trace of W_{L-K+1}(N-K+1, I) is chi2((L-K+1)(N-K+1))
    central = wishart_eigen_lab(EigenLabSpec(n_rows=5, dim=3, k=1, reps=100_000, seed=12))
    ks = scipy.stats.kstest(central.small_sums, scipy.stats.chi2(central.central_dof).cdf)

    n, l, k = 6, 3, 2
    qs = []
    for kappa in (1e2, 1e3, 1e4):
        lab = wishart_eigen_lab(
            EigenLabSpec(n_rows=n, dim=l, k=k,
                         noncentrality=rank_one_noncentrality(n, l, kappa),
                         reps=40_000, seed=13)
        )
        qs.append(float(np.quantile(lab.small_sums, 0.95)))
    dof = (l - k + 1) * (n - k + 1)
    central_q = scipy.stats.chi2(dof).ppf(0.95)
    se = np.sqrt(0.95 * 0.05 / 40_000) / scipy.stats.chi2(dof).pdf(central_q)
    ordering = qs[0] < qs[1] < qs[2]
    bounded = all(q <= central_q + 2 * se for q in qs)
    elapsed = time.time() - t0
    report(
        7, "central Wishart eigenvalue sum is chi2 (KS at 1%, 1e5 draws); "
           "noncentral small-sum quantiles increase in kappa, bounded by central",
        ks.pvalue > 0.01 and ordering and bounded and elapsed < 300,
        f"KS p={ks.pvalue:.3f}; q95 {np.round(qs, 3)} vs central {central_q:.3f}, {elapsed:.0f}s",
    )


def test_criterion_8_kronecker_factorization():
    t0 = time.time()
    rng = np.random.default_rng(808)
    p, k = 4, 3
    a = rng.standard_normal((p, p))
    omega = a @ a.T / p + np.eye(p)
    b = rng.standard_normal((k, k))
    sigma = b @ b.T / k + np.eye(k)
    exact = kps_factorize(np.kron(omega, sigma), p, k)
    exact_ok = exact.residual_rel < 1e-12

    lw, le = np.linalg.cholesky(omega), np.linalg.cholesky(sigma)
    resids = []
    for t in (500, 5000, 50000):
        w = rng.standard_normal((t, p)) @ lw.T
        e = rng.standard_normal((t, k)) @ le.T
        h = np.einsum("ti,tj->tij", w, e).reshape(t, p * k)
        resids.append(kps_factorize(h.T @ h / t, p, k).residual_rel)
    trend_ok = resids[0] > resids[1] > resids[2]

    noisy = np.kron(omega, sigma) + 0.02 * np.eye(p * k)
    f1 = kps_factorize(noisy, p, k, normalize="omega11")
    f2 = kps_factorize(noisy, p, k, normalize="sigma11")
    products = [np.kron(f.omega, f.sigma) for f in (f1, f2)]
    norm_ok = np.allclose(*products, rtol=1e-10, atol=1e-12)
    elapsed = time.time() - t0
    report(
        8, "KPS factorization: exact recovery < 1e-12, residual decreasing over "
           "T in {500, 5000, 50000}, product invariant to normalization (1e-10)",
        exact_ok and trend_ok and norm_ok and elapsed < 60,
        f"exact {exact.residual_rel:.1e}; trend {np.round(resids, 4)}, {elapsed:.0f}s",
    )


def test_criterion_9_coverage():
    t0 = time.time()
    spec = preset_dgp("strong", k=2, n=6, t=300)
    truth = spec.lambda1[0]
    reps, hits = 500, 0
    for rep in range(reps):
        returns, factors = simulate(spec, 909, rep)
        fit = fit_model(returns, factors)
        grid = GridSpec(
            axes=(
                GridAxis(truth[0] - 1.0, truth[0] + 1.0, 5),
                GridAxis(truth[1] - 1.0, truth[1] + 1.0, 5),
            ),
            binding=row_binding(2, index=0),
        )
        cs = joint_confidence_set("sfar", grid, 0.95, fit, seed=rep)
        if not cs.is_empty and np.any(
            np.all(np.isclose(cs.accepted, truth[None, :], atol=1e-9), axis=1)
        ):
            hits += 1
    rate = hits / reps
    elapsed = time.time() - t0
    report(
        9, "95% sFAR joint confidence sets contain the true premia in >= 93% of "
           "500 replicates (strong two-factor calibration)",
        rate >= 0.93 and elapsed < 900,
        f"coverage {rate:.3f}, {elapsed:.0f}s",
    )


DATA_PATH = os.environ.get("RISKPREMIA_DATA", "")


@pytest.mark.skipif(
    not DATA_PATH or not os.path.exists(DATA_PATH),
    reason="zero-coupon dataset not supplied (set RISKPREMIA_DATA)",
)
def test_criterion_10_empirical_rank_statistics():
    from riskpremia.panels import excess_returns, load_yield_csv, pca_factors

    t0 = time.time()
    panel = load_yield_csv(
        DATA_PATH,
        annualized_percent=os.environ.get("RISKPREMIA_DATA_ANNUALIZED", "1") == "1",
    )
    lo = os.environ.get("RISKPREMIA_DATA_START", "1987-01")
    hi = os.environ.get("RISKPREMIA_DATA_END", "2011-12")
    keep = [i for i, d in enumerate(panel.dates) if lo <= d[:7] <= hi]
    from riskpremia.panels import YieldPanel

    panel = YieldPanel(
        dates=tuple(panel.dates[i] for i in keep),
        maturities=panel.maturities,
        yields=panel.yields[keep],
    )

    from riskpremia.panels import FactorPanel

    def rank_for(maturities, pcs):
        returns = excess_returns(panel, maturities, interpolate=True)
        factors = pca_factors(panel, max(pcs) + 1)
        fp = FactorPanel(
            factors.factors[list(pcs)],
            tuple(f"PC{i + 1}" for i in pcs),
            dates=factors.dates,
        )
        fit = fit_model(returns, fp)
        return kp_rank(fit.stacked)

    # Table-1 design: 11 maturities (exact composition is convention-dependent;
    # the 10% tolerance absorbs it), five PCs
    table1 = rank_for([6, 12, 18, 24, 30, 36, 42, 48, 60, 84, 120], range(5))
    ok1 = abs(table1.statistic - 1.6561) / 1.6561 < 0.10

    # three-factor designs on maturities {3, 60, 120}
    strong3 = rank_for([3, 60, 120], (0, 1, 2))
    weak3 = rank_for([3, 60, 120], (0, 2, 4))
    ok8 = (
        abs(strong3.statistic - 310.9294) / 310.9294 < 0.10
        and abs(weak3.statistic - 0.0654) / 0.0654 < 0.10
    )

    # Table-4 qualitative pattern on maturities {2, 3, 12, 60, 120}
    mats4 = [2, 3, 12, 60, 120]
    pair35 = rank_for(mats4, (2, 4))
    quad1235 = rank_for(mats4, (0, 1, 2, 4))
    singles_bounded = all(
        rank_for(mats4, (j,)).pvalue < 0.05 for j in range(5)
    )
    ok4 = pair35.pvalue > 0.01 and quad1235.pvalue > 0.01 and singles_bounded
    elapsed = time.time() - t0
    report(
        10, "empirical rank statistics reproduce the reported values within 10% "
            "and the weak-combination pattern",
        ok1 and ok8 and ok4,
        f"table1 {table1.statistic:.4f}, strong3 {strong3.statistic:.4f}, "
        f"weak3 {weak3.statistic:.4f}, {elapsed:.0f}s",
    )
