"""Command-line front end: ingest, estimate, test, cs, mc, eigenlab.

Each command computes its results and returns them as {file name: payload};
``main`` writes them into ``--out``, then a ``manifest.json`` with the
resolved configuration, seed, and package versions, sufficient to re-run it
to identical results, and prints the path of every file but the manifest.
Exit codes: 0 success, 2 configuration/validation, 3 numerical failure,
4 internal error.  Human diagnostics go to stderr; machine output to files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

from . import __version__
from ._linalg import NumericalError, chi2_ppf, chi2_sf, format_float, ks_chi2_pvalue
from .confsets import GridAxis, GridSpec, full_lambda_binding, joint_confidence_set, project_cs, row_binding
from .montecarlo import (
    EigenLabSpec,
    preset_dgp,
    power_curve,
    power_surface,
    rank_one_noncentrality,
    sfar_density_experiment,
    wishart_eigen_lab,
)
from .moments import TESTS, robust_tests
from .panels import (
    FactorPanel,
    PanelError,
    excess_returns,
    load_yield_csv,
    panel_table,
    pca_factors,
    save_matrix_csv,
)
from .pipeline import fit_model
from .subset import VARIANCE_MODES, SubsetHypothesis, kp_rank, sfar_column, sfar_row
from .varstage import RankError


def _render_json(o, indent=0) -> str:
    """Minimal JSON writer rendering floats with 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(o, (np.floating, float)):
        if not np.isfinite(o):
            return '"nan"' if np.isnan(o) else f'"{o}"'
        return format_float(float(o))
    if isinstance(o, (np.integer, int)) and not isinstance(o, bool):
        return str(int(o))
    if isinstance(o, bool):
        return "true" if o else "false"
    if o is None:
        return "null"
    if isinstance(o, str):
        return json.dumps(o)
    if isinstance(o, np.ndarray):
        o = o.tolist()
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [f"{inner}{_render_json(v, indent + 2)}" for v in o]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_render_json(v, indent + 2)}"
            for k, v in o.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(o).__name__}")


def _versions():
    return {
        "riskpremia": __version__,
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "python": sys.version.split()[0],
    }


def _parse_factor_spec(spec: str):
    """'pca:K[,macro:COL...]' -> (k, [macro column names])."""
    k, macro = None, []
    for part in spec.split(","):
        part = part.strip()
        if part.startswith("pca:"):
            k = int(part[4:])
        elif part.startswith("macro:"):
            macro.append(part[6:])
        else:
            raise PanelError(f"unknown factor spec component {part!r}")
    if k is None:
        raise PanelError("factor spec must name a PCA count, e.g. pca:5")
    return k, macro


def _open_user_file(path):
    """Open a file named on the command line; one that cannot be read is a PanelError."""
    try:
        return open(path, newline="")
    except OSError as exc:
        raise PanelError(f"cannot read {path}: {exc.strerror}") from exc


def _load_macro_columns(path, names, dates):
    with _open_user_file(path) as fh:
        reader = csv.DictReader(fh)
        rows = {row[reader.fieldnames[0]].strip(): row for row in reader}
    series = []
    for name in names:
        vals = []
        for d in dates:
            if d not in rows:
                raise PanelError(f"macro file {path} missing date {d}")
            try:
                vals.append(float(rows[d][name]))
            except (KeyError, TypeError, ValueError):
                raise PanelError(f"macro file {path}: bad value for {name!r} at {d}") from None
        series.append(vals)
    return np.asarray(series)


def _build_panels(args):
    panel = load_yield_csv(args.input, annualized_percent=args.annualized_percent)
    maturities = [int(m) for m in args.maturities.split(",")]
    returns = excess_returns(
        panel, maturities, interpolate=args.interpolate, period_months=args.period_months
    )
    k, macro_cols = _parse_factor_spec(args.factors)
    factors = pca_factors(panel, k)
    if macro_cols:
        if not args.macro_input:
            raise PanelError("macro factors requested but --macro-input not given")
        extra = _load_macro_columns(args.macro_input, macro_cols, factors.dates)
        factors = FactorPanel(
            np.vstack([factors.factors, extra]),
            labels=factors.labels + tuple(macro_cols),
            dates=factors.dates,
        )
    return panel, returns, factors


def _parse_h0(text: str, k: int, sfar_only: bool) -> np.ndarray:
    """``--h0`` as Lambda1 (K^2 values, column-major), or as the sFAR row or
    column itself (K values, accepted only when sFAR is the only test)."""
    if text == "zeros":
        vals = np.zeros(k * k)
    elif text.startswith("@"):
        with _open_user_file(text[1:]) as fh:
            vals = np.asarray(json.load(fh), dtype=float).reshape(-1)
    else:
        vals = np.asarray([float(x) for x in text.split(",")], dtype=float)
    if vals.size == k * k:
        return vals.reshape(k, k, order="F")
    if vals.size == k and sfar_only:
        return vals
    raise PanelError(
        f"--h0 needs {k * k} values (vec of Lambda1), or {k} (the sFAR row or column) "
        f"when sfar is the only statistic; got {vals.size}"
    )


def _subset_value(h0: np.ndarray, kind: str, index: int) -> np.ndarray:
    """The sFAR values of a parsed ``--h0``: row or column ``index`` of Lambda1."""
    if h0.ndim == 1:
        return h0
    if not 0 <= index < len(h0):
        raise PanelError(f"--subset-index {index} out of range for K = {len(h0)}")
    return h0[index] if kind == "row" else h0[:, index]


def _parse_grid(text: str):
    axes = []
    for part in text.split(","):
        lo, hi, steps = part.split(":")
        axes.append(GridAxis(float(lo), float(hi), int(steps)))
    return axes


# ---------------------------------------------------------------------------
# Commands: each returns {file name: payload}; a dict is written as JSON and
# a (header, rows) pair as CSV.
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> dict:
    _, returns, factors = _build_panels(args)
    return {"returns.csv": panel_table(returns), "factors.csv": panel_table(factors)}


def cmd_estimate(args) -> dict:
    _, returns, factors = _build_panels(args)
    fit = fit_model(returns, factors, cov=args.cov)
    if fit.por is None:
        raise RankError("near-singular beta'beta: (nearly) unspanned factors present")
    n, t = fit.n_assets, fit.n_periods
    beta = fit.reg.beta_hat
    # var of vec(beta_hat) is Sigma_v^-1 kron sigma_e^2 I_N: one variance per column
    cov = fit.asymptotic_cov
    var_beta = cov.sigma_e2 * np.diag(cov.sigma_v_inv)
    col_stats = t * np.einsum("nj,nj->j", beta, beta) / var_beta
    rank, kps = kp_rank(fit.stacked), fit.stacked.kps
    return {"estimates.json": {
        "beta": beta.tolist(),
        "beta_tstats": (beta / np.sqrt(var_beta / t)).tolist(),
        "column_joint_pvalues": [chi2_sf(s, n) for s in col_stats],
        "rank_test": {"statistic": rank.statistic, "dof": rank.dof, "pvalue": rank.pvalue},
        "lambda0": fit.por.lambda0.tolist(),
        "lambda1": fit.por.lambda1.tolist(),
        "a_hat": fit.reg.a_hat.tolist(),
        "d_hat": fit.reg.d_hat.tolist(),
        "g_hat": fit.reg.g_hat.tolist(),
        "sigma_e2": fit.reg.sigma_e2,
        "mu": fit.var.mu.tolist(),
        "phi1": fit.var.phi1.tolist(),
        "sigma_v": fit.var.sigma_v.tolist(),
        "cov_mode": fit.cov_mode,
        "kps_diagnostic": {"residual_rel": kps.residual_rel, "singular_ratio": kps.singular_ratio},
        "kps_spectrum": fit.stacked.kps.spectrum.tolist(),
    }}


def cmd_test(args) -> dict:
    _, returns, factors = _build_panels(args)
    fit = fit_model(returns, factors, cov=args.cov)
    stats = [stat.strip().lower() for stat in args.stat.split(",")]
    h0 = _parse_h0(args.h0, fit.n_factors, sfar_only=set(stats) == {"sfar"})
    robust = [stat for stat in stats if stat in TESTS]
    robust = robust_tests(fit, h0, which=tuple(robust)) if robust else {}
    results = []
    for stat in stats:
        if stat in robust:
            res = robust[stat]
        elif stat == "wald":
            res = fit.wald(h0)
        elif stat == "sfar":
            value = _subset_value(h0, args.subset_kind, args.subset_index)
            h = SubsetHypothesis(args.subset_kind, args.subset_index, value)
            res = (sfar_row if args.subset_kind == "row" else sfar_column)(h, fit.stacked)
        else:
            raise PanelError(f"unknown statistic {stat!r}")
        results.append(res.to_dict())
    return {"tests.json": {"results": results}}


def cmd_cs(args) -> dict:
    _, returns, factors = _build_panels(args)
    fit = fit_model(returns, factors, cov=args.cov)
    k = fit.n_factors
    axes = _parse_grid(args.grid)
    stat = args.stat.lower()
    h0 = _parse_h0(args.h0 or "zeros", k, sfar_only=stat == "sfar")
    if stat == "sfar":
        base = _subset_value(h0, "row", args.subset_index)
        binding = row_binding(k, index=args.subset_index, base=base, vary=range(len(axes)))
    else:
        binding = full_lambda_binding(k, base=h0.reshape(-1, order="F"), vary=range(len(axes)))
    grid = GridSpec(axes=tuple(axes), binding=binding)
    cs = joint_confidence_set(stat, grid, args.level, fit, seed=args.seed)
    surface = [[*point, p] for point, p in zip(grid.points(), cs.pvalues.reshape(-1))]
    return {
        "surface.csv": ([f"x{i + 1}" for i in range(len(axes))] + ["pvalue"], surface),
        "set.json": {
            "test": stat,
            "level": args.level,
            "bounded": cs.bounded,
            "n_accepted": int(cs.accepted.shape[0]),
            "projections": {f"axis{i + 1}": project_cs(cs, i) for i in range(len(axes))},
        },
    }


def cmd_mc(args) -> dict:
    """The experiment's outputs; its replicate rate goes to stderr only, so
    the files of a run do not depend on its speed."""
    start = time.perf_counter()
    outputs = _mc_outputs(args)
    elapsed = time.perf_counter() - start
    print(f"mc: {args.reps} replicates in {elapsed:.2f} s "
          f"({args.reps / max(elapsed, 1e-9):.1f} replicates/s)", file=sys.stderr)
    return outputs


def _mc_outputs(args) -> dict:
    kind = args.dgp
    spec = preset_dgp(kind, k=args.k, n=args.n, t=args.t)
    if args.experiment == "sfar-density":
        res = sfar_density_experiment(spec, reps=args.reps, seed=args.seed)
        return {
            f"sfar_density_{kind}.csv": (["statistic"], [[s] for s in res.statistics]),
            f"sfar_density_{kind}_summary.json": {
                "dof_bound": res.dof_bound,
                "ks_pvalue": res.ks_pvalue,
                "quantile_levels": list(res.quantile_levels),
                "empirical_quantiles": res.empirical_quantiles.tolist(),
                "chi2_quantiles": res.chi2_quantiles.tolist(),
                **_failure_record(res),
            },
        }
    # one step tests the truth; np.linspace would give the offset -radius
    steps = args.grid_steps
    offsets = np.linspace(-args.grid_radius, args.grid_radius, steps) if steps != 1 else np.zeros(1)
    if args.experiment == "power-surface":
        if spec.n_factors != 2:
            raise PanelError("power-surface is defined for two-factor models (--k 2)")
        lam = spec.lambda1[0]
        axis1, axis2 = lam[0] + offsets, lam[1] + offsets
        table = power_surface(spec, axis1, axis2, reps=args.reps, level=args.level, seed=args.seed)
        surf = table.rejection[0].reshape(len(axis1), len(axis2))
        rows = [[v1, v2, surf[i, j]] for i, v1 in enumerate(axis1) for j, v2 in enumerate(axis2)]
        return {
            f"power_surface_{kind}.csv": (["x", "y", "rejection"], rows),
            f"power_surface_{kind}_summary.json": _failure_record(table),
        }
    h0_grid = np.repeat(spec.lambda1[None], len(offsets), axis=0)
    h0_grid[:, 0, 0] += offsets
    tests = [t.strip() for t in args.tests.split(",")]
    table = power_curve(tests, h0_grid, spec, reps=args.reps, level=args.level, seed=args.seed)
    cells = np.stack([table.rejection, table.std_error], axis=1).reshape(-1, len(offsets))
    header = ["offset"] + [f"{t}_{w}" for t in table.tests for w in ("freq", "se")]
    return {
        f"power_{kind}.csv": (header, [[off, *col] for off, col in zip(offsets, cells.T)]),
        f"power_{kind}_summary.json": _failure_record(table),
    }


def _failure_record(res) -> dict:
    """An experiment's failures, split by exception class, and its block
    refits: what its CSV cannot show."""
    return {
        "failures": res.failures,
        "failure_kinds": res.failure_kinds,
        "block_refits": res.block_refits,
    }


EIGEN_QUANTILE_LEVELS = (0.5, 0.9, 0.95, 0.99)


def cmd_eigenlab(args) -> dict:
    """Quantiles of the eigenvalue sums at ``EIGEN_QUANTILE_LEVELS``, with
    the central chi-square quantiles that bound the small sum."""
    m = rank_one_noncentrality(args.n, args.dim, float(args.kappa)) if args.kappa else None
    spec = EigenLabSpec(
        n_rows=args.n, dim=args.dim, k=args.k, noncentrality=m,
        reps=args.reps, seed=args.seed,
    )
    res = wishart_eigen_lab(spec)
    rows = [
        [p, np.quantile(res.small_sums, p),
         np.quantile(res.large_sums, p) if res.large_sums.size else ""]
        for p in EIGEN_QUANTILE_LEVELS
    ]
    return {
        "eigen.csv": (["quantile", "small_sum", "large_sum"], rows),
        "eigen_summary.json": {
            "central_dof": res.central_dof,
            "quantile_levels": list(EIGEN_QUANTILE_LEVELS),
            "chi2_quantiles": [chi2_ppf(p, res.central_dof) for p in EIGEN_QUANTILE_LEVELS],
            "ks_pvalue_vs_central": ks_chi2_pvalue(res.small_sums, res.central_dof),
            "reps": args.reps,
            "kappa": args.kappa,
        },
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_data_flags(p):
    p.add_argument("--input", required=True, help="yields CSV (date,<m1>,<m2>,...)")
    p.add_argument("--maturities", required=True, help="held maturities, e.g. 6,12,24")
    p.add_argument("--factors", default="pca:3", help="pca:K[,macro:COL...]")
    p.add_argument("--macro-input", default=None, help="CSV with macro factor columns")
    p.add_argument("--annualized-percent", action="store_true")
    p.add_argument("--interpolate", action="store_true")
    p.add_argument("--period-months", type=int, default=1)


def _add_common(p):
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON file of flag defaults")


def build_parser():
    parser = argparse.ArgumentParser(prog="riskpremia")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="yields CSV -> returns + factors CSVs")
    _add_data_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("estimate", help="three-step estimates with diagnostics")
    _add_data_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="evaluate statistics at a hypothesis")
    _add_data_flags(p)
    _add_common(p)
    p.add_argument("--stat", default="far", help="comma list of far,klm,jklm,wald,sfar")
    p.add_argument("--h0", default="zeros")
    p.add_argument("--subset-kind", choices=["row", "column"], default="row")
    p.add_argument("--subset-index", type=int, default=0)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("cs", help="confidence sets by test inversion")
    _add_data_flags(p)
    _add_common(p)
    p.add_argument("--stat", default="sfar")
    p.add_argument("--grid", required=True, help="lo:hi:steps[,lo:hi:steps...]")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--h0", default=None, help="base values for non-varying entries")
    p.add_argument("--subset-index", type=int, default=0)
    p.set_defaults(func=cmd_cs)

    p = sub.add_parser("mc", help="Monte Carlo experiments on preset DGPs")
    _add_common(p)
    p.add_argument("--experiment", default="power",
                   choices=["power", "sfar-density", "power-surface"])
    p.add_argument("--dgp", choices=["strong", "weak"], default="strong")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=11)
    p.add_argument("--t", type=int, default=300)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--tests", default="far,klm,jklm,wald")
    p.add_argument("--grid-radius", type=float, default=1.0)
    p.add_argument("--grid-steps", type=int, default=21)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("eigenlab", help="noncentral Wishart eigenvalue sampling")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--kappa", type=float, default=None)
    p.set_defaults(func=cmd_eigenlab)
    for name in ("estimate", "test", "cs"):
        sub.choices[name].add_argument(
            "--cov", choices=VARIANCE_MODES, default="kps",
            help="variance of FAR/KLM/JKLM; hc0 over-rejects: at T = 300 its FAR size is "
                 "11.8 %% at (K, N) = (1, 11) and 97.5 %% at (5, 20) (see fit_model)")
    return parser


def _apply_config(parser, args, argv):
    """Re-parse with a JSON config file's values as the subcommand's defaults.

    Explicit flags, abbreviated ones included, win, and string values go
    through each flag's ``type=`` like typed flags.
    """
    try:
        overrides = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PanelError(f"cannot read config file: {exc}") from exc
    overrides = {key.replace("-", "_"): val for key, val in overrides.items()}
    for key in overrides:
        if not hasattr(args, key):
            raise PanelError(f"unknown config key {key!r}")
    (commands,) = parser._subparsers._group_actions
    commands.choices[args.command].set_defaults(**overrides)
    return parser.parse_args(argv)


def _write(path: Path, payload) -> None:
    if isinstance(payload, dict):
        path.write_text(_render_json(payload) + "\n")
    else:
        save_matrix_csv(path, *payload)


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config(parser, args, argv)
        outputs = args.func(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in outputs.items():
            _write(out / name, payload)
        config = {k: v for k, v in vars(args).items() if k != "func"}
        _write(out / "manifest.json", {"command": args.command, "config": config,
                                       "versions": _versions()})
        for name in outputs:
            print(str(out / name))
        return 0
    except (RankError, NumericalError, np.linalg.LinAlgError) as exc:
        # first: LinAlgError is a ValueError, and a numerical failure exits 3
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (PanelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
