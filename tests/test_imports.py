"""What importing the package costs.  The empirical path (yield CSV, fit,
robust tests, row and column sFAR, confidence sets) runs on NumPy alone: the
chi-square laws are closed forms.  Monte Carlo loads scipy.linalg at its
first draw and reading ``ks_pvalue`` loads scipy.stats; neither loads
scipy.special.  A command records SciPy's version without importing it.
SciPy is the oracle of the chi-square tests below."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

from riskpremia._linalg import chi2_pdf, chi2_ppf, chi2_sf

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: the test process itself has SciPy loaded.
FRESH = textwrap.dedent(
    """
    import sys
    import tempfile
    from pathlib import Path

    import numpy as np

    import riskpremia
    import riskpremia.cli
    from riskpremia.confsets import GridAxis, GridSpec, joint_confidence_set, row_binding
    from riskpremia.moments import robust_tests
    from riskpremia.montecarlo import power_curve, preset_dgp, sfar_density_experiment, simulate
    from riskpremia.panels import YieldPanel, excess_returns, load_yield_csv, pca_factors, save_panel_csv
    from riskpremia.pipeline import fit_model
    from riskpremia.subset import kp_rank, sfar_column

    EMPIRICAL = ("scipy.special", "scipy.linalg", "scipy._lib._array_api")
    HEAVY = ("scipy.stats", "scipy.optimize")

    def loaded(names=EMPIRICAL + HEAVY):
        return [m for m in names if m in sys.modules]

    assert loaded() == [], f"importing the package loads {loaded()}"

    # the empirical path, before anything simulates: a yield CSV read from disk
    rng = np.random.default_rng(0)
    t, mats = 160, (1, 2, 3, 12, 13, 24, 25)
    level = 0.004 + 0.0008 * np.cumsum(rng.standard_normal(t)) / np.sqrt(t)
    slope = 0.0002 * np.cumsum(rng.standard_normal(t)) / np.sqrt(t)
    curve = np.array([level + slope * np.log1p(m) + 0.00005 * rng.standard_normal(t) for m in mats]).T
    dates = tuple(f"{1987 + i // 12}-{i % 12 + 1:02d}" for i in range(t))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "yields.csv"
        save_panel_csv(path, YieldPanel(dates, mats, curve))
        yields = load_yield_csv(path)
        # a command reads SciPy's version from its metadata, not by importing it
        code = riskpremia.cli.main(["test", "--input", str(path), "--maturities", "1,2,12,24",
                                    "--factors", "pca:2", "--stat", "far,klm,jklm,wald,sfar",
                                    "--out", str(Path(tmp) / "test")])
        assert code == 0 and "scipy" not in sys.modules, (code, loaded())
    fit = fit_model(excess_returns(yields, (1, 2, 12, 24)), pca_factors(yields, 2))
    lam1 = fit.por.lambda1
    for mode in ("kps", "hc0"):
        res = robust_tests(fit, lam1 + 0.1, mode)
        assert all(0.0 <= r.pvalue <= 1.0 for r in res.values()), res
    assert 0.0 <= fit.wald(lam1 + 0.1).pvalue <= 1.0
    assert 0.0 <= kp_rank(fit.stacked).pvalue <= 1.0
    assert 0.0 <= sfar_column(fit.stacked, lam1[:, 1], 1).pvalue <= 1.0
    # a grid of accepted points touches its boundary, so the boundedness
    # diagnostic decides (rank certificate or distant-value scan)
    axes = tuple(GridAxis(v - 1e-6, v + 1e-6, 3) for v in lam1[0])
    cs = joint_confidence_set("sfar", GridSpec(axes, row_binding(2, index=0)), 0.95, fit)
    assert cs.accepted_mask.all() and cs.bounded in ("bounded", "unbounded"), cs.bounded
    assert loaded() == [], f"the empirical path loads {loaded()}"

    spec = preset_dgp("strong", k=2, n=4, t=200)
    fit = fit_model(*simulate(spec, 0))
    assert loaded() == ["scipy.linalg", "scipy._lib._array_api"], loaded()

    table = power_curve(
        ["far", "klm", "jklm", "wald"], [0.0, 0.25], preset_dgp("strong", k=1, n=4, t=60),
        reps=100, seed=1,
    )
    assert table.rejection.shape == (4, 2), table.rejection.shape
    res = sfar_density_experiment(preset_dgp("strong", k=2, n=4, t=80), reps=2)
    assert res.failures == 0
    assert loaded(HEAVY + ("scipy.special",)) == [], f"Monte Carlo loads {loaded()}"
    assert 0.0 <= res.ks_pvalue <= 1.0
    assert "scipy.stats" in sys.modules
    """
)


def test_import_and_light_entry_points_leave_scipy_stats_and_optimize_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", FRESH], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr


def test_chi2_sf_matches_scipy_special_to_1e_12():
    x = np.concatenate([np.geomspace(1e-8, 1.0, 200), np.linspace(1.0, 600.0, 1200)])
    for dof in range(1, 201):
        np.testing.assert_allclose(
            chi2_sf(x, dof), scipy.special.gammaincc(dof / 2.0, x / 2.0), rtol=1e-12, atol=0,
            err_msg=f"dof {dof}",
        )


def test_chi2_ppf_matches_scipy_stats_to_1e_12():
    p = np.linspace(0.0, 1.0, 201)
    for dof in range(1, 201):
        got = np.array([chi2_ppf(q, dof) for q in p])
        np.testing.assert_allclose(got, scipy.stats.chi2.ppf(p, dof), rtol=1e-12, atol=0,
                                   err_msg=f"dof {dof}")


def test_chi2_pdf_matches_scipy_stats_to_1e_12():
    grid = np.concatenate([np.geomspace(1e-6, 1.0, 60), np.linspace(1.0, 400.0, 400)])
    for dof in range(1, 201):
        x = np.concatenate([grid, [chi2_ppf(p, dof) for p in (0.90, 0.95, 0.99)]])
        np.testing.assert_allclose(chi2_pdf(x, dof), scipy.stats.chi2.pdf(x, dof), rtol=1e-12,
                                   atol=0, err_msg=f"dof {dof}")


@pytest.mark.parametrize("dof", [1, 2, 3, 10, 11])
def test_chi2_edge_values_are_exact(dof):
    assert chi2_sf(np.array([-np.inf, -1.0, 0.0]), dof).tolist() == [1.0, 1.0, 1.0]
    assert chi2_sf(np.inf, dof) == 0.0 and math.isnan(chi2_sf(np.nan, dof))
    assert type(chi2_sf(3.0, dof)) is float and chi2_sf(np.array([3.0]), dof).shape == (1,)
    assert chi2_ppf(0.0, dof) == 0.0 and chi2_ppf(1.0, dof) == math.inf
    assert all(math.isnan(chi2_ppf(p, dof)) for p in (-0.1, 1.1, math.nan))
    zero = scipy.stats.chi2.pdf(0.0, dof)
    assert chi2_pdf(0.0, dof) == zero and chi2_pdf(np.zeros(2), dof).tolist() == [zero, zero]


def test_chi2_dof_zero_and_invalid_dof():
    assert chi2_sf(np.array([0.0, 1e-13, 1e-6, np.nan]), 0).tolist() == [1.0, 1.0, 0.0, 0.0]
    assert chi2_ppf(0.95, 0) == 0.0
    for dof in (2.5, -1, -2.0, math.nan, math.inf):
        for call in (lambda: chi2_sf(1.0, dof), lambda: chi2_ppf(0.5, dof),
                     lambda: chi2_ppf(0.0, dof), lambda: chi2_pdf(1.0, dof)):
            with pytest.raises(ValueError, match="dof"):
                call()
