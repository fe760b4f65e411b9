import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import riskpremia
from riskpremia import cli, confsets, pipeline
from riskpremia.cli import main
from riskpremia.moments import robust_statistics, robust_tests
from riskpremia._linalg import NumericalError, chi2_ppf, ks_chi2_pvalue
from riskpremia.montecarlo import (
    EigenLabSpec,
    power_curve,
    power_surface,
    preset_dgp,
    rank_one_noncentrality,
    sfar_density_experiment,
    wishart_eigen_lab,
)
from riskpremia.panels import YieldPanel, save_panel_csv
from riskpremia.pipeline import fit_model
from riskpremia.subset import sfar_column, sfar_row
from riskpremia.varstage import RankError

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(heading: str) -> list[list[str]]:
    """The argument lists of the ``riskpremia`` lines in the first ``sh``
    block under ``heading`` of the README."""
    block = README.read_text().split(heading, 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("riskpremia ")]


FIGURE_COMMANDS = readme_commands("## Reproducing the figures")
EIGENLAB_COMMANDS = readme_commands("## The Wishart bound study")


@pytest.fixture()
def yields_csv(tmp_path):
    rng = np.random.default_rng(0)
    t, mats = 120, (1, 2, 3, 6, 12, 13, 24, 25)
    level = 0.004 + 0.0008 * np.cumsum(rng.standard_normal(t)) / np.sqrt(t)
    slope = 0.0002 * np.cumsum(rng.standard_normal(t)) / np.sqrt(t)
    curve = np.array([level + slope * np.log1p(m) + 0.00005 * rng.standard_normal(t) for m in mats]).T
    panel = YieldPanel(
        dates=tuple(f"19{87 + i // 12}-{i % 12 + 1:02d}" for i in range(t)),
        maturities=mats,
        yields=curve,
    )
    path = tmp_path / "yields.csv"
    save_panel_csv(path, panel)
    return path


def run(args):
    return main([str(a) for a in args])


def test_ingest_roundtrip(tmp_path, yields_csv, capsys):
    out = tmp_path / "out"
    code = run(["ingest", "--input", yields_csv, "--maturities", "12,24",
                "--factors", "pca:2", "--out", out])
    assert code == 0
    assert (out / "returns.csv").exists()
    assert (out / "factors.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert "numpy" in manifest["versions"]
    assert manifest["versions"]["riskpremia"] == riskpremia.__version__
    # re-ingesting our own output must be stable: returns file reload matches
    from riskpremia.panels import load_yield_csv, excess_returns, pca_factors

    panel = load_yield_csv(yields_csv)
    returns = excess_returns(panel, [12, 24])
    lines = (out / "returns.csv").read_text().strip().splitlines()
    assert len(lines) == returns.n_periods + 1


def test_ingest_missing_file_exit_2(tmp_path, capsys):
    code = run(["ingest", "--input", tmp_path / "nope.csv", "--maturities", "12",
                "--out", tmp_path / "o"])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err



def test_missing_user_files_exit_2(tmp_path, yields_csv, capsys):
    missing_h0 = tmp_path / "missing.json"
    assert run(["test", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:1",
                "--stat", "far", "--h0", f"@{missing_h0}", "--out", tmp_path / "t"]) == 2
    assert str(missing_h0) in capsys.readouterr().err
    missing_macro = tmp_path / "missing.csv"
    assert run(["ingest", "--input", yields_csv, "--maturities", "12,24",
                "--factors", "pca:2,macro:m1", "--macro-input", missing_macro,
                "--out", tmp_path / "i"]) == 2
    assert str(missing_macro) in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["existing-file", "under-a-file"])
def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys, under):
    # --out names an existing file, or a folder below one: a configuration
    # error, like any other unusable file named on the command line
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert run(["eigenlab", "--n", 5, "--dim", 2, "--reps", 10, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert blocker.read_text() == ""


def test_estimate_outputs_and_variant_agreement(tmp_path, yields_csv):
    # one second-stage route: the variant I reparameterization agrees with it
    # to rounding (criterion 2), and --variant or a "variant" key is an error
    data = ["--input", yields_csv, "--maturities", "12,24", "--factors", "pca:2"]
    out = tmp_path / "est"
    assert run(["estimate", *data, "--out", out]) == 0
    est = json.loads((out / "estimates.json").read_text())
    assert "variant" not in est
    assert "variant" not in json.loads((out / "manifest.json").read_text())["config"]
    assert len(est["beta"]) == 2 and len(est["beta"][0]) == 2
    assert 0.0 <= est["rank_test"]["pvalue"] <= 1.0
    cfg = tmp_path / "variant.json"
    cfg.write_text(json.dumps({"variant": "I"}))
    assert run(["estimate", *data, "--config", cfg, "--out", tmp_path / "c"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["estimate", *data, "--variant", "II", "--out", tmp_path / "v"])
    assert exc.value.code == 2


def test_estimates_json_has_exactly_its_keys(tmp_path, yields_csv):
    out = tmp_path / "est"
    assert run(["estimate", "--input", yields_csv, "--maturities", "12,24",
                "--factors", "pca:2", "--out", out]) == 0
    est = json.loads((out / "estimates.json").read_text())
    assert list(est) == [
        "beta", "beta_tstats", "column_joint_pvalues", "rank_test", "lambda0", "lambda1",
        "a_hat", "d_hat", "g_hat", "sigma_e2", "mu", "phi1", "sigma_v",
    ]


def test_estimate_tstats_use_the_variance_of_vec_beta(tmp_path, yields_csv):
    # the diagonal of Sigma_v^-1 kron sigma_e^2 I_N, the variance of vec(beta_hat)
    from riskpremia._linalg import chi2_sf
    from riskpremia.panels import excess_returns, load_yield_csv, pca_factors

    out = tmp_path / "est"
    assert run(["estimate", "--input", yields_csv, "--maturities", "2,12,24",
                "--factors", "pca:2", "--out", out]) == 0
    est = json.loads((out / "estimates.json").read_text())
    panel = load_yield_csv(yields_csv)
    fit = fit_model(excess_returns(panel, [2, 12, 24]), pca_factors(panel, 2))
    beta, t = fit.reg.beta_hat, fit.n_periods
    v_beta = np.kron(np.linalg.inv(fit.var.sigma_v), fit.reg.sigma_e2 * np.eye(3))
    var_beta = np.diag(v_beta).reshape(2, 3).T
    np.testing.assert_allclose(est["beta_tstats"], beta / np.sqrt(var_beta / t), rtol=1e-12)
    stats = t * (beta**2 / var_beta).sum(axis=0)
    np.testing.assert_allclose(est["column_joint_pvalues"], [chi2_sf(s, 3) for s in stats], rtol=1e-10)


def test_same_command_twice_is_byte_identical(tmp_path, yields_csv):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["test", "--input", yields_csv, "--maturities", "12,24", "--factors",
            "pca:2", "--stat", "far,klm,jklm,sfar", "--h0", "zeros", "--seed", "3"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert (out1 / "tests.json").read_text() == (out2 / "tests.json").read_text()


def test_test_command_matches_one_call_per_statistic(tmp_path, yields_csv):
    # one call per statistic, rendered by the CLI's own writer: computing the
    # robust statistics in one pass must not change tests.json by a byte; a
    # K^2 --h0 is Lambda1 (column-major) and sFAR tests its first row or its
    # second column
    for h0, lam, kind, index in (("zeros", np.zeros((2, 2)), "row", 0),
                                 ("0.1,0,0,0.2", np.diag([0.1, 0.2]), "column", 1)):
        out = tmp_path / h0
        argv = ["test", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:2",
                "--stat", "far,klm,jklm,wald,sfar", "--h0", h0, "--subset-kind", kind,
                "--subset-index", index, "--out", out]
        assert run(argv) == 0
        args = cli.build_parser().parse_args([str(a) for a in argv])
        _, returns, factors = cli._build_panels(args)
        fit = fit_model(returns, factors, cov=args.cov)
        results = [robust_tests(fit, lam, which=(s,))[s].to_dict() for s in ("far", "klm", "jklm")]
        results.append(fit.wald(lam).to_dict())
        value = lam[index] if kind == "row" else lam[:, index]
        subset_test = sfar_row if kind == "row" else sfar_column
        results.append(subset_test(fit.stacked, value, index).to_dict())
        expected = cli._render_json({"results": results}) + "\n"
        assert (out / "tests.json").read_text() == expected
        # one record: the common keys, and the sFAR pencil roots besides
        written = json.loads(expected)["results"]
        common = ["name", "statistic", "dof", "pvalue", "bound_only", "h0"]
        assert [list(r) for r in written] == [common] * 4 + [common + ["roots"]]
        assert [r["name"] for r in written] == ["FAR", "KLM", "JKLM", "Wald", "sFAR"]
        assert [r["bound_only"] for r in written] == [False] * 4 + [True]
        assert written[3]["h0"] == lam.tolist() and written[4]["h0"] == value.tolist()
        assert written[4]["dof"] == 2 * (2 - 2 + 1)


def test_cs_subset_index_out_of_range_exit_2(tmp_path, yields_csv, capsys):
    out = tmp_path / "cs"
    assert run(["cs", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:2",
                "--stat", "sfar", "--h0", "0.1,0.2", "--subset-index", "5",
                "--grid=-1:1:3,-1:1:3", "--out", out]) == 2
    assert "--subset-index 5 out of range for K = 2" in capsys.readouterr().err
    assert not (out / "set.json").exists()


@pytest.mark.parametrize("index", ["5", "-1"])
@pytest.mark.parametrize("h0", ["0.1,0.2", "0.1,0.2,0.3,0.4"])
def test_test_subset_index_out_of_range_names_the_flag(tmp_path, yields_csv, capsys, index, h0):
    # K values or K^2: the same message, naming the flag
    assert run(["test", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:2",
                "--stat", "sfar", "--h0", h0, f"--subset-index={index}",
                "--out", tmp_path / "t"]) == 2
    assert f"--subset-index {index} out of range for K = 2" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_test_command_h0_sizes(tmp_path, yields_csv, capsys):
    base = ["test", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:2",
            "--out", tmp_path / "h"]
    # K values only when sfar is the only statistic; any other count names both sizes
    assert run(base + ["--stat", "sfar", "--h0", "0.1,0"]) == 0
    for stat, h0 in (("far,sfar", "0.1,0"), ("sfar", "0.1,0,0")):
        assert run(base + ["--stat", stat, "--h0", h0]) == 2
        err = capsys.readouterr().err
        assert "4 values" in err and "or 2" in err


def test_test_rejects_a_non_finite_h0(tmp_path, yields_csv, capsys):
    # a configuration error, not a p-value outside [0, 1]
    assert run(["test", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:1",
                "--stat", "far", "--h0", "nan", "--out", tmp_path / "t"]) == 2
    err = capsys.readouterr().err
    assert "--h0" in err and "finite" in err
    assert not (tmp_path / "t").exists()


def test_cs_rejects_a_non_finite_h0(tmp_path, yields_csv, capsys):
    # a configuration error, not an all-NaN surface reported as an empty set
    assert run(["cs", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:2",
                "--stat", "far", "--h0", "0,nan,0,0", "--grid=-1:1:5", "--out", tmp_path / "cs"]) == 2
    err = capsys.readouterr().err
    assert "--h0" in err and "finite" in err
    assert not (tmp_path / "cs").exists()


@pytest.mark.parametrize("h0", [{"a": 1}, [True, False, 0, 1], [[1, 2], [3]], "1,2,x,4"],
                         ids=["object", "booleans", "ragged", "word"])
def test_h0_takes_only_numbers(tmp_path, yields_csv, capsys, h0):
    # a JSON object or booleans in an @file, a ragged list or a word in the
    # list are configuration errors naming --h0; a nested list of numbers is vec'd
    base = ["test", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:2",
            "--stat", "far", "--out", tmp_path / "t"]
    path = tmp_path / "h0.json"
    path.write_text("[[0.1, 0], [0, 0]]")
    assert run(base + ["--h0", f"@{path}"]) == 0
    capsys.readouterr()
    if not isinstance(h0, str):
        path.write_text(json.dumps(h0))
        h0 = f"@{path}"
    assert run(base + ["--h0", h0, "--out", tmp_path / "bad"]) == 2
    assert "--h0" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(("grid", "word"), [("-inf:1:5", "finite"), ("0:nan:5", "finite"),
                                            ("-1e308:1e308:3", "finite"),
                                            ("0:1", "lo:hi:steps"), ("0:1:5,1", "lo:hi:steps")])
def test_cs_grid_parts_must_be_finite_lo_hi_steps(tmp_path, yields_csv, capsys, grid, word):
    # a non-finite bound or span used to exit 0 with a NaN surface called "empty"
    assert run(["cs", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:1",
                "--stat", "far", f"--grid={grid}", "--out", tmp_path / "cs"]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and word in err
    assert not (tmp_path / "cs").exists()


def test_test_command_far_dof(tmp_path, yields_csv):
    out = tmp_path / "t"
    code = run(["test", "--input", yields_csv, "--maturities", "12,24", "--factors",
                "pca:1", "--stat", "far,wald", "--h0", "zeros", "--out", out])
    assert code == 0
    payload = json.loads((out / "tests.json").read_text())
    far_res = payload["results"][0]
    assert far_res["name"] == "FAR"
    assert far_res["dof"] == 1 * 2      # K*N with K=1, N=2
    wald_res = payload["results"][1]
    assert wald_res["dof"] == 1


def test_cs_command_surface_and_projection(tmp_path, yields_csv):
    out = tmp_path / "cs"
    code = run(["cs", "--input", yields_csv, "--maturities", "12,24", "--factors",
                "pca:1", "--stat", "far", "--grid=-2:2:9", "--level", "0.9",
                "--out", out])
    assert code == 0
    rows = (out / "surface.csv").read_text().strip().splitlines()
    assert rows[0] == "x1,pvalue"
    assert len(rows) == 10
    summary = json.loads((out / "set.json").read_text())
    assert summary["bounded"] in ("bounded", "unbounded", "empty")
    assert summary["failures"] == []


def test_cs_records_its_failed_points(tmp_path, yields_csv, monkeypatch):
    # a point whose statistic raises is NaN in surface.csv, and set.json says why
    def failing_at_half(sys, lam, mode, tests):
        if np.any(lam == 0.5):
            raise NumericalError("forced failure")
        return robust_statistics(sys, lam, mode, tests)

    monkeypatch.setattr(confsets, "robust_statistics", failing_at_half)
    out = tmp_path / "cs"
    assert run(["cs", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:1",
                "--stat", "far", "--grid=-1:1:5", "--out", out]) == 0
    rows = (out / "surface.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[1] == "nan" for row in rows] == [False, False, False, True, False]
    summary = json.loads((out / "set.json").read_text())
    assert summary["failures"] == [[3, "NumericalError('forced failure')"]]


def test_cs_exits_3_when_no_point_is_accepted_and_some_failed(tmp_path, yields_csv, monkeypatch, capsys):
    # far from the estimate every tested point rejects; the failed one did
    # not test, so the set is not reported empty
    def failing_at_41(sys, lam, mode, tests):
        if np.any(lam == 41.0):
            raise NumericalError("forced failure")
        return robust_statistics(sys, lam, mode, tests)

    monkeypatch.setattr(confsets, "robust_statistics", failing_at_41)
    out = tmp_path / "cs"
    assert run(["cs", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:1",
                "--stat", "far", "--grid=40:42:3", "--out", out]) == 3
    assert capsys.readouterr().err == (
        "numerical error: no grid point is accepted and 1 of 3 points failed; the first, point 1: "
        "NumericalError('forced failure')\n"
    )
    assert not out.exists()


def short_hc0_args(tmp_path, rows: int, factors: int) -> list:
    """The common arguments of an hc0 run on ``rows`` rows of a random-walk
    yield CSV with 11 maturities, N = 10 held and ``factors`` principal
    components, so T = rows - 1."""
    rng = np.random.default_rng(3)
    mats = tuple(range(1, 12))
    level = 0.004 + 0.0008 * np.cumsum(rng.standard_normal(rows)) / np.sqrt(rows)
    panel = YieldPanel(
        dates=tuple(f"19{87 + i // 12}-{i % 12 + 1:02d}" for i in range(rows)),
        maturities=mats,
        yields=level[:, None] + 0.0002 * rng.standard_normal((rows, len(mats))),
    )
    path = tmp_path / "short.csv"
    save_panel_csv(path, panel)
    return ["--input", path, "--maturities", "1,2,3,4,5,6,7,8,9,10", "--factors", f"pca:{factors}",
            "--cov", "hc0"]


def test_hc0_at_nk_not_below_t_is_a_numerical_failure(tmp_path, capsys):
    # K = 3, N = 10 and T = 24: the hc0 V_ff is singular, so test exits 3,
    # and so does cs, whose points all fail: a set no point tested is not empty
    common = short_hc0_args(tmp_path, 25, 3)
    assert run(["test", *common, "--stat", "far,klm,jklm", "--out", tmp_path / "t"]) == 3
    assert capsys.readouterr().err == "numerical error: hc0 V_ff is singular: NK = 30 is not below T = 24\n"
    assert run(["cs", *common, "--stat", "far", "--grid=-1:1:3", "--out", tmp_path / "cs"]) == 3
    assert capsys.readouterr().err == (
        "numerical error: no grid point has a p-value: all 3 points failed; the first, point 0: "
        "NumericalError('hc0 V_ff is singular: NK = 30 is not below T = 24')\n"
    )
    assert not (tmp_path / "cs").exists()


def test_hc0_at_n_plus_k_not_below_t_is_a_numerical_failure(tmp_path, capsys):
    # K = 1, N = 10 and T = 11: NK < T, yet V_ff has rank K (T - 1 - K) = 9
    # below NK = 10; factored by jitter, its FAR here read 1.7e15 with exit 0
    common = short_hc0_args(tmp_path, 12, 1)
    assert run(["test", *common, "--stat", "far,klm", "--out", tmp_path / "t"]) == 3
    assert capsys.readouterr().err == "numerical error: hc0 V_ff is singular: N + K = 11 is not below T = 11\n"
    assert run(["cs", *common, "--stat", "far", "--grid=-1:1:3", "--out", tmp_path / "cs"]) == 3
    assert "all 3 points failed" in capsys.readouterr().err


def test_mc_smoke_and_determinism(tmp_path):
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    args = ["mc", "--dgp", "strong", "--k", "1", "--n", "4", "--t", "80",
            "--reps", "120", "--tests", "far", "--grid-steps", "3",
            "--grid-radius", "0.5", "--seed", "11"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert (out1 / "power_strong.csv").read_text() == (out2 / "power_strong.csv").read_text()
    header = (out1 / "power_strong.csv").read_text().splitlines()[0]
    assert header == "offset,far_freq,far_se"
    # a zero count is taken as given and rejected, not replaced by a default
    assert run(["mc", "--k", "0", "--reps", "100", "--grid-steps", "3",
                "--out", tmp_path / "m0"]) == 2


def test_mc_reports_its_replicate_rate_on_stderr_only(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["mc", "--k", "1", "--n", "4", "--t", "80", "--reps", "100", "--tests", "far",
            "--grid-steps", "3", "--seed", "3"]
    for out in (out1, out2):
        assert run(args + ["--out", out]) == 0
        err = capsys.readouterr().err
        assert "mc: 100 replicates in " in err and "replicates/s)" in err
    assert (out1 / "power_strong.csv").read_bytes() == (out2 / "power_strong.csv").read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (out1, out2)]
    for manifest in manifests:
        del manifest["config"]["out"]
    assert manifests[0] == manifests[1]
    # an invalid level is a validation error, before any replicate
    for level in ("nan", "-0.5", "0", "1.5"):
        assert run(args + ["--level", level, "--out", tmp_path / "bad"]) == 2
        assert "level" in capsys.readouterr().err
    assert run(["mc", "--experiment", "power-surface", "--k", "2", "--n", "3", "--reps", "100",
                "--grid-steps", "3", "--level", "nan", "--out", tmp_path / "bad"]) == 2
    assert "level" in capsys.readouterr().err
    # so is a replicate count below one, and no rate is printed
    for reps in ("0", "-3"):
        assert run(["mc", "--experiment", "power-surface", "--k", "2", "--n", "3", "--reps", reps,
                    "--grid-steps", "3", "--out", tmp_path / "bad"]) == 2
        err = capsys.readouterr().err
        assert "replicate" in err and "replicates/s" not in err
    # and so is a grid without points, in either power study
    for experiment in ("power", "power-surface"):
        assert run(["mc", "--experiment", experiment, "--k", "2", "--n", "3", "--reps", "100",
                    "--grid-steps", "0", "--out", tmp_path / "bad"]) == 2
        err = capsys.readouterr().err
        assert "error: need at least one hypothesis" in err and "replicates/s" not in err
    assert not (tmp_path / "bad").exists()


def test_mc_sfar_density_experiment(tmp_path):
    out = tmp_path / "md"
    code = run(["mc", "--experiment", "sfar-density", "--dgp", "weak", "--k", "2",
                "--n", "4", "--t", "100", "--reps", "60", "--out", out, "--seed", "2"])
    assert code == 0
    summary = json.loads((out / "sfar_density_weak_summary.json").read_text())
    assert summary["dof_bound"] == 2 * (4 - 2 + 1)
    assert sum(summary["failure_kinds"].values()) == summary["failures"]
    assert summary["block_refits"] == 0


def test_mc_power_surface_experiment(tmp_path):
    out = tmp_path / "ps"
    code = run(["mc", "--experiment", "power-surface", "--k", "2", "--n", "3",
                "--reps", "100", "--grid-steps", "3", "--out", out])
    assert code == 0
    rows = (out / "power_surface_strong.csv").read_text().splitlines()
    assert rows[0] == "x,y,rejection"
    assert len(rows) == 1 + 3 * 3



def test_mc_power_studies_write_their_failure_record(tmp_path, monkeypatch):
    # no fit has a price of risk: Wald fails at every (replicate, point), and
    # the summary says so where the CSV shows only NaN
    def singular(*args):
        raise RankError("beta'beta is singular")

    monkeypatch.setattr(pipeline, "third_stage", singular)
    out = tmp_path / "pw"
    assert run(["mc", "--k", "1", "--n", "4", "--t", "80", "--reps", "100", "--tests", "far,wald",
                "--grid-steps", "3", "--seed", "3", "--out", out]) == 0
    summary = json.loads((out / "power_strong_summary.json").read_text())
    assert summary == {
        "failures": {"far": 0, "wald": 300},
        "failure_kinds": {"far": {}, "wald": {"RankError": 300}},
        "block_refits": 0,
    }
    assert run(["mc", "--experiment", "power-surface", "--k", "2", "--n", "3", "--reps", "100",
                "--grid-steps", "2", "--out", out]) == 0
    summary = json.loads((out / "power_surface_strong_summary.json").read_text())
    assert summary == {"failures": {"sfar": 0}, "failure_kinds": {"sfar": {}}, "block_refits": 0}


def test_one_grid_step_tests_the_truth(tmp_path):
    # a one-point curve or surface is a size study at the true Lambda1, not
    # a power point at the offset -radius
    out = tmp_path / "one"
    assert run(["mc", "--k", "1", "--n", "4", "--t", "80", "--reps", "100", "--tests", "far",
                "--grid-steps", "1", "--out", out]) == 0
    spec = preset_dgp("strong", k=1, n=4, t=80)
    table = power_curve(["far"], [spec.lambda1], spec, reps=100)
    got = np.loadtxt(out / "power_strong.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(got, [[0.0, table.rejection[0, 0], table.std_error[0, 0]]])

    assert run(["mc", "--experiment", "power-surface", "--k", "2", "--n", "3", "--reps", "100",
                "--grid-steps", "1", "--out", out]) == 0
    spec = preset_dgp("strong", k=2, n=3)
    x, y = spec.lambda1[0]
    table = power_surface(spec, [x], [y], reps=100)
    got = np.loadtxt(out / "power_surface_strong.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(got, [[x, y, table.rejection[0, 0]]])
    assert (x, y) == (0.25, 0.05)


def test_mc_power_surface_needs_two_factors(tmp_path, capsys):
    code = run(["mc", "--experiment", "power-surface", "--k", "1", "--n", "3",
                "--reps", "100", "--grid-steps", "3", "--out", tmp_path / "ps"])
    assert code == 2
    assert "two-factor" in capsys.readouterr().err

def test_eigenlab_command(tmp_path):
    out = tmp_path / "e"
    code = run(["eigenlab", "--n", "5", "--dim", "3", "--k", "2", "--reps", "4000",
                "--kappa", "100", "--out", out, "--seed", "4"])
    assert code == 0
    summary = json.loads((out / "eigen_summary.json").read_text())
    assert summary["central_dof"] == (3 - 2 + 1) * (5 - 2 + 1)
    assert (out / "eigen.csv").exists()


@pytest.mark.parametrize("kappa", ["-1", "nan", "inf"])
def test_eigenlab_rejects_a_negative_or_non_finite_kappa(tmp_path, capsys, kappa):
    # a configuration error that names kappa, raised before any draw and
    # without a warning from the square root
    out = tmp_path / "e"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["eigenlab", "--n", "6", "--dim", "3", "--k", "2", "--reps", "100",
                    "--kappa", kappa, "--out", out]) == 2
    assert "error: kappa must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_a_linalg_error_is_a_numerical_failure(tmp_path, yields_csv, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, yet it exits 3 as a numerical error
    def failing_fit(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "fit_model", failing_fit)
    out = tmp_path / "est"
    assert run(["estimate", "--input", yields_csv, "--maturities", "12,24",
                "--factors", "pca:2", "--out", out]) == 3
    assert capsys.readouterr().err == "numerical error: SVD did not converge\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--reps", "0"], ["--k", "5"], ["--k", "0"]])
def test_eigenlab_rejects_no_replicates_and_k_above_dim(tmp_path, capsys, bad):
    out = tmp_path / "e"
    assert run(["eigenlab", "--n", "6", "--dim", "3", *bad, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_merging(tmp_path, yields_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"maturities": "12,24", "factors": "pca:1"}))
    # explicit --maturities wins, spelled out or abbreviated; config supplies factors
    for flag in ("--maturities", "--mat"):
        out = tmp_path / f"c{flag}"
        code = run(["test", "--input", yields_csv, flag, "12",
                    "--config", cfg, "--stat", "far", "--out", out])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["maturities"] == "12"
        assert manifest["config"]["factors"] == "pca:1"
        assert json.loads((out / "tests.json").read_text())["results"][0]["dof"] == 1

    # config values go through the flag's type, like the flag itself
    cfg.write_text(json.dumps({"reps": "100", "tests": "far"}))
    out = tmp_path / "mc"
    assert run(["mc", "--config", cfg, "--k", "1", "--n", "4", "--t", "80",
                "--grid-steps", "3", "--out", out]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["reps"] == 100

    # unknown keys, including the removed 'threads', are configuration errors
    for bad in ({"not_a_flag": 1}, {"threads": 2}):
        cfg2 = tmp_path / "bad.json"
        cfg2.write_text(json.dumps(bad))
        assert run(["test", "--input", yields_csv, "--maturities", "12", "--config",
                    cfg2, "--out", tmp_path / "c2"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["test", "--input", yields_csv, "--maturities", "12", "--threads", "2",
             "--out", tmp_path / "c3"])
    assert exc.value.code == 2

    # a value its flag cannot take is a configuration error naming the key:
    # a list or an object, a boolean off a switch, null where the default is
    # not None, a choice the flag does not offer; the top level is an object
    test = ["test", "--input", yields_csv, "--maturities", "12", "--factors", "pca:1"]
    for bad, key in (({"maturities": [12, 24]}, "maturities"), ({"h0": {"a": 1}}, "h0"),
                     ({"seed": True}, "seed"), ({"seed": None}, "seed"),
                     ({"interpolate": "yes"}, "interpolate"), ({"subset_kind": "diagonal"}, "subset_kind"),
                     ([{"seed": 1}], "object")):
        cfg2.write_text(json.dumps(bad))
        assert run(test + ["--config", cfg2, "--out", tmp_path / "c4"]) == 2
        assert key in capsys.readouterr().err
    # a number goes through the flag's type like its text: "stat" 5 is the
    # unknown statistic '5', "reps" 500.0 fails as --reps 500.0 does
    cfg2.write_text(json.dumps({"stat": 5}))
    assert run(test + ["--config", cfg2, "--out", tmp_path / "c5"]) == 2
    assert "unknown statistic '5'" in capsys.readouterr().err
    mc = ["mc", "--k", "1", "--n", "4", "--t", "80", "--grid-steps", "3"]
    cfg2.write_text(json.dumps({"reps": 500.0}))
    for argv in (mc + ["--config", cfg2], mc + ["--reps", "500.0"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", tmp_path / "c6"])
        assert exc.value.code == 2
        assert "invalid int value: '500.0'" in capsys.readouterr().err
    assert not any((tmp_path / f"c{i}").exists() for i in (4, 5, 6))

    # a manifest's config replayed through --config reproduces its run
    for argv, required, name in (
        (test + ["--stat", "far,sfar", "--annualized-percent"], test[:5], "tests.json"),
        (mc + ["--reps", "100", "--level", "0.1"], mc[:1], "power_strong.csv"),
    ):
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(argv + ["--out", first]) == 0
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
        assert run(required + ["--config", replay, "--out", again]) == 0
        assert (again / name).read_bytes() == (first / name).read_bytes()
        configs = [json.loads((out / "manifest.json").read_text())["config"] for out in (first, again)]
        for config in configs:
            del config["out"], config["config"]
        assert configs[0] == configs[1]


def test_cov_is_a_flag_of_the_fitting_commands_only(tmp_path, yields_csv, capsys):
    # test and cs run FAR/KLM/JKLM with --cov (kps by default, as in the
    # manifest); no output of estimate reads a variance mode, and mc fits with
    # the library default, so --cov or a "cov" config key is an error there
    out = tmp_path / "t"
    assert run(["test", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:1",
                "--cov", "hc0", "--out", out]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["cov"] == "hc0"
    parser, data = cli.build_parser(), ["--input", "y.csv", "--maturities", "12", "--out", "o"]
    assert parser.parse_args(["cs", *data, "--grid", "0:1:2"]).cov == "kps"
    assert not hasattr(parser.parse_args(["estimate", *data]), "cov")
    assert not hasattr(parser.parse_args(["ingest", *data]), "cov")
    assert not hasattr(parser.parse_args(["eigenlab", "--n", "3", "--dim", "2", "--out", "o"]), "cov")
    mc = ["mc", "--k", "1", "--n", "4", "--t", "80", "--reps", "100", "--grid-steps", "3"]
    with pytest.raises(SystemExit) as exc:
        run(mc + ["--cov", "hc0", "--out", tmp_path / "m1"])
    assert exc.value.code == 2
    assert "--cov" in capsys.readouterr().err
    cfg = tmp_path / "cov.json"
    cfg.write_text(json.dumps({"cov": "hc0"}))
    assert run(mc + ["--config", cfg, "--out", tmp_path / "m2"]) == 2
    assert "'cov'" in capsys.readouterr().err
    assert not (tmp_path / "m1").exists() and not (tmp_path / "m2").exists()
    est = ["estimate", "--input", yields_csv, "--maturities", "12,24", "--factors", "pca:1"]
    with pytest.raises(SystemExit) as exc:
        run(est + ["--cov", "hc0", "--out", tmp_path / "e1"])
    assert exc.value.code == 2
    assert "--cov" in capsys.readouterr().err
    assert run(est + ["--config", cfg, "--out", tmp_path / "e2"]) == 2
    assert "'cov'" in capsys.readouterr().err
    assert not (tmp_path / "e1").exists() and not (tmp_path / "e2").exists()


def test_unknown_stat_exit_2(tmp_path, yields_csv):
    assert run(["test", "--input", yields_csv, "--maturities", "12,24",
                "--factors", "pca:1", "--stat", "bogus", "--out", tmp_path / "x"]) == 2


def test_readme_command_lines_parse():
    commands = readme_commands("## Command line")
    assert len(commands) >= 6 and len(FIGURE_COMMANDS) == 6 and len(EIGENLAB_COMMANDS) == 6
    parser = cli.build_parser()
    for argv in commands + FIGURE_COMMANDS + EIGENLAB_COMMANDS:
        parser.parse_args(argv)


@pytest.mark.parametrize("argv", FIGURE_COMMANDS, ids=lambda argv: argv[argv.index("--out") + 1][4:])
def test_figure_commands_write_the_arrays_of_their_library_call(tmp_path, argv):
    # each README figure command, at small sizes, writes bit for bit the
    # arrays of the library call it stands for; a repeated flag's last value wins
    small = argv + ["--reps", "20" if "sfar-density" in argv else "100", "--grid-steps", "3",
                    "--out", str(tmp_path)]
    args = cli.build_parser().parse_args(small)
    assert run(small) == 0
    spec = preset_dgp(args.dgp, k=args.k, n=args.n, t=args.t)
    offsets = np.linspace(-args.grid_radius, args.grid_radius, args.grid_steps)

    def csv(name):
        return np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)

    if args.experiment == "sfar-density":
        res = sfar_density_experiment(spec, reps=args.reps, seed=args.seed)
        summary = json.loads((tmp_path / f"sfar_density_{args.dgp}_summary.json").read_text())
        assert np.array_equal(csv(f"sfar_density_{args.dgp}.csv")[:, 0], res.statistics)
        assert summary["dof_bound"] == res.dof_bound and summary["ks_pvalue"] == res.ks_pvalue
        for key in ("empirical_quantiles", "chi2_quantiles"):
            assert np.array_equal(summary[key], getattr(res, key))
    elif args.experiment == "power-surface":
        axis1, axis2 = spec.lambda1[0, 0] + offsets, spec.lambda1[0, 1] + offsets
        table = power_surface(spec, axis1, axis2, reps=args.reps, seed=args.seed)
        got = csv(f"power_surface_{args.dgp}.csv")
        assert np.array_equal(got[:, 0], np.repeat(axis1, len(axis2)))
        assert np.array_equal(got[:, 1], np.tile(axis2, len(axis1)))
        assert np.array_equal(got[:, 2], table.rejection[0])
    else:
        truth = spec.lambda1[0, 0]
        grid = [np.array([[truth + off]]) for off in offsets]
        table = power_curve(["wald", "far", "klm", "jklm"], grid, spec, reps=args.reps, seed=args.seed)
        got = csv(f"power_{args.dgp}.csv")
        assert np.array_equal(got[:, 0], offsets)
        assert np.array_equal(got[:, 1::2], table.rejection.T)
        assert np.array_equal(got[:, 2::2], table.std_error.T)


@pytest.mark.parametrize("argv", EIGENLAB_COMMANDS, ids=lambda argv: argv[argv.index("--out") + 1][4:])
def test_eigenlab_commands_write_the_quantiles_of_their_library_call(tmp_path, argv):
    # each README eigenlab line, at small sizes, writes bit for bit the
    # quantiles and KS p-value of its lab and the chi-square quantiles of its dof
    small = argv + ["--reps", "400", "--out", str(tmp_path)]
    args = cli.build_parser().parse_args(small)
    assert run(small) == 0
    m = rank_one_noncentrality(args.n, args.dim, args.kappa) if args.kappa else None
    lab = wishart_eigen_lab(EigenLabSpec(n_rows=args.n, dim=args.dim, k=args.k,
                                         noncentrality=m, reps=args.reps, seed=args.seed))
    levels = (0.5, 0.9, 0.95, 0.99)
    got = np.loadtxt(tmp_path / "eigen.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(got[:, 0], levels)
    assert np.array_equal(got[:, 1], [np.quantile(lab.small_sums, p) for p in levels])
    # at --k 1 the large sum is the empty sum, so that column reads 0
    assert np.array_equal(got[:, 2], [np.quantile(lab.large_sums, p) for p in levels])
    summary = json.loads((tmp_path / "eigen_summary.json").read_text())
    assert summary["central_dof"] == lab.central_dof
    assert summary["quantile_levels"] == list(levels)
    assert summary["chi2_quantiles"] == [chi2_ppf(p, lab.central_dof) for p in levels]
    assert summary["ks_pvalue_vs_central"] == ks_chi2_pvalue(lab.small_sums, lab.central_dof)
