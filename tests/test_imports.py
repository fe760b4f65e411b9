"""What importing the package costs: the hot paths need NumPy, scipy.linalg
and scipy.special only, so scipy.stats and scipy.optimize load in the
functions that call them and nowhere else."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import scipy.stats

from riskpremia._linalg import chi2_pdf, chi2_ppf

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: the test process itself has scipy.stats loaded.
FRESH = textwrap.dedent(
    """
    import sys

    import numpy as np

    import riskpremia
    import riskpremia.cli
    from riskpremia.confsets import GridAxis, GridSpec, joint_confidence_set, row_binding
    from riskpremia.montecarlo import power_curve, preset_dgp, sfar_density_experiment, simulate
    from riskpremia.pipeline import fit_model
    from riskpremia.subset import SubsetHypothesis, sfar_column

    HEAVY = ("scipy.stats", "scipy.optimize")

    def loaded():
        return [m for m in HEAVY if m in sys.modules]

    assert loaded() == [], f"importing the package loads {loaded()}"

    table = power_curve(
        ["far", "klm", "jklm", "wald"], [0.0, 0.25], preset_dgp("strong", k=1, n=4, t=60),
        reps=100, seed=1,
    )
    assert table.rejection.shape == (4, 2), table.rejection.shape

    spec = preset_dgp("strong", k=2, n=4, t=200)
    fit = fit_model(*simulate(spec, 0))
    row = spec.lambda1[0]
    # a grid of accepted points touches its boundary, so the boundedness
    # diagnostic decides (rank certificate or distant-value scan)
    axes = tuple(GridAxis(v - 0.01, v + 0.01, 3) for v in row)
    cs = joint_confidence_set("sfar", GridSpec(axes, row_binding(2, index=0)), 0.95, fit)
    assert cs.accepted_mask.all() and cs.bounded in ("bounded", "unbounded"), cs.bounded
    assert loaded() == [], f"the light entry points load {loaded()}"

    res = sfar_density_experiment(preset_dgp("strong", k=2, n=4, t=80), reps=2)
    assert res.failures == 0
    assert loaded() == [], f"the sFAR density experiment loads {loaded()}"
    assert 0.0 <= res.ks_pvalue <= 1.0
    assert "scipy.stats" in sys.modules
    h = SubsetHypothesis("column", 0, spec.lambda1[:, 0])
    assert np.isfinite(sfar_column(h, fit.stacked, n_starts=2).statistic)
    assert "scipy.optimize" in sys.modules
    """
)


def test_import_and_light_entry_points_leave_scipy_stats_and_optimize_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", FRESH], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr


def test_chi2_ppf_equals_scipy_stats_bit_for_bit():
    p = np.linspace(0.0, 1.0, 201)
    for dof in range(1, 201):
        got = np.array([chi2_ppf(q, dof) for q in p])
        np.testing.assert_array_equal(got, scipy.stats.chi2.ppf(p, dof), err_msg=f"dof {dof}")
    assert chi2_ppf(0.0, 3) == 0.0 and chi2_ppf(1.0, 3) == np.inf
    assert chi2_ppf(0.95, 0) == 0.0


def test_chi2_pdf_equals_scipy_stats_bit_for_bit():
    grid = np.concatenate([np.geomspace(1e-6, 1.0, 60), np.linspace(1.0, 400.0, 400)])
    for dof in range(1, 201):
        x = np.concatenate([grid, [chi2_ppf(p, dof) for p in (0.90, 0.95, 0.99)]])
        np.testing.assert_array_equal(chi2_pdf(x, dof), scipy.stats.chi2.pdf(x, dof), err_msg=f"dof {dof}")
