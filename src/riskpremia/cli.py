"""Command-line front end: ingest, estimate, test, cs, mc, eigenlab.

Every command writes a ``manifest.json`` with the resolved configuration,
seed, and package versions, sufficient to re-run it to identical results.
Exit codes: 0 success, 2 configuration/validation, 3 numerical failure,
4 internal error.  Human diagnostics go to stderr; machine output to files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._linalg import NumericalError, chi2_sf, format_float
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
from .moments import robust_tests
from .panels import (
    FactorPanel,
    PanelError,
    excess_returns,
    load_yield_csv,
    pca_factors,
    save_factor_csv,
    save_return_csv,
)
from .pipeline import fit_model
from .subset import SubsetHypothesis, kp_rank, sfar_column, sfar_row
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


def _dump_json(path, payload):
    Path(path).write_text(_render_json(payload) + "\n")


def _versions():
    import scipy

    return {
        "riskpremia": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _write_manifest(out: Path, command: str, config: dict):
    out.mkdir(parents=True, exist_ok=True)
    config = {k: v for k, v in config.items() if k != "func"}
    _dump_json(out / "manifest.json", {
        "command": command,
        "config": config,
        "versions": _versions(),
    })


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


def _load_macro_columns(path, names, dates):
    with open(path, newline="") as fh:
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


def _parse_h0(text: str, k: int, full: bool):
    size = k * k if full else k
    if text == "zeros":
        vals = np.zeros(size)
    elif text.startswith("@"):
        vals = np.asarray(json.loads(Path(text[1:]).read_text()), dtype=float).reshape(-1)
    else:
        vals = np.asarray([float(x) for x in text.split(",")], dtype=float)
    if vals.size != size:
        raise PanelError(f"hypothesis needs {size} values, got {vals.size}")
    return vals.reshape(k, k, order="F") if full else vals


def _parse_grid(text: str):
    axes = []
    for part in text.split(","):
        lo, hi, steps = part.split(":")
        axes.append(GridAxis(float(lo), float(hi), int(steps)))
    return axes


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    out = Path(args.out)
    _, returns, factors = _build_panels(args)
    out.mkdir(parents=True, exist_ok=True)
    save_return_csv(out / "returns.csv", returns)
    save_factor_csv(out / "factors.csv", factors)
    _write_manifest(out, "ingest", vars(args))
    print(str(out / "returns.csv"))
    print(str(out / "factors.csv"))
    return 0


def cmd_estimate(args) -> int:
    out = Path(args.out)
    _, returns, factors = _build_panels(args)
    fit = fit_model(returns, factors, variant=args.variant, cov=args.cov)
    if fit.por is None:
        raise RankError("near-singular beta'beta: (nearly) unspanned factors present")
    n, k = fit.n_assets, fit.n_factors
    t = fit.n_periods
    sig_inv = np.linalg.inv(fit.var.sigma_v)
    se = np.sqrt(fit.reg.sigma_e2 * np.diag(sig_inv) / t)
    tstats = fit.reg.beta_hat / se[None, :]
    col_stats = t * np.einsum("nj,nj->j", fit.reg.beta_hat, fit.reg.beta_hat) / (
        fit.reg.sigma_e2 * np.diag(sig_inv)
    )
    col_pvalues = [chi2_sf(s, n) for s in col_stats]
    rank = kp_rank(fit.stacked)
    payload = {
        "beta": fit.reg.beta_hat.tolist(),
        "beta_tstats": tstats.tolist(),
        "column_joint_pvalues": col_pvalues,
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
        "variant": args.variant,
        "cov_mode": fit.cov_mode,
        "kps_diagnostic": fit.kps_diag.to_dict(),
        "kps_spectrum": fit.stacked.kps.spectrum.tolist(),
    }
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(out / "estimates.json", payload)
    _write_manifest(out, "estimate", vars(args))
    print(str(out / "estimates.json"))
    return 0


def cmd_test(args) -> int:
    out = Path(args.out)
    _, returns, factors = _build_panels(args)
    fit = fit_model(returns, factors, cov=args.cov)
    k = fit.n_factors
    stats = [stat.strip().lower() for stat in args.stat.split(",")]
    robust = [stat for stat in stats if stat in ("far", "klm", "jklm")]
    if robust or "wald" in stats:
        lam = _parse_h0(args.h0, k, full=True)
    robust = robust_tests(fit, lam, which=tuple(robust)) if robust else {}
    if "sfar" in stats:
        value = _parse_h0(args.h0, k, full=False)
        h = SubsetHypothesis(args.subset_kind, args.subset_index, value)
    results = []
    for stat in stats:
        if stat in robust:
            results.append(robust[stat].to_dict())
        elif stat == "wald":
            res = fit.wald(lam)
            results.append({
                "name": "Wald", "statistic": res.statistic, "dof": res.dof,
                "pvalue": res.pvalue, "bound_only": False, "h0": lam.tolist(),
            })
        elif stat == "sfar":
            res = sfar_row(h, fit.stacked) if args.subset_kind == "row" else sfar_column(h, fit.stacked)
            d = res.to_dict()
            d.update({"name": "sFAR", "bound_only": True, "h0": value.tolist(),
                      "pvalue": d.pop("pvalue_upper")})
            results.append(d)
        else:
            raise PanelError(f"unknown statistic {stat!r}")
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(out / "tests.json", {"results": results})
    _write_manifest(out, "test", vars(args))
    print(str(out / "tests.json"))
    return 0


def cmd_cs(args) -> int:
    out = Path(args.out)
    _, returns, factors = _build_panels(args)
    fit = fit_model(returns, factors, cov=args.cov)
    k = fit.n_factors
    axes = _parse_grid(args.grid)
    stat = args.stat.lower()
    if stat == "sfar":
        base = _parse_h0(args.h0, k, full=False) if args.h0 else np.zeros(k)
        binding = row_binding(k, index=args.subset_index, base=base, vary=range(len(axes)))
    else:
        base = _parse_h0(args.h0, k, full=True).reshape(-1, order="F") if args.h0 else np.zeros(k * k)
        binding = full_lambda_binding(k, base=base, vary=range(len(axes)))
    grid = GridSpec(axes=tuple(axes), binding=binding)
    cs = joint_confidence_set(stat, grid, args.level, fit, seed=args.seed)
    out.mkdir(parents=True, exist_ok=True)
    pts = grid.points()
    with open(out / "surface.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(len(axes))] + ["pvalue"])
        for point, p in zip(pts, cs.pvalues.reshape(-1)):
            writer.writerow([format_float(v) for v in point] + [format_float(p)])
    summary = {
        "test": stat,
        "level": args.level,
        "bounded": cs.bounded,
        "n_accepted": int(cs.accepted.shape[0]),
        "projections": {
            f"axis{i + 1}": project_cs(cs, i) for i in range(len(axes))
        },
    }
    _dump_json(out / "set.json", summary)
    _write_manifest(out, "cs", vars(args))
    print(str(out / "set.json"))
    return 0


_FIGURE_PRESETS = {
    "2": {"kind": "both", "k": 1, "n": 11, "t": 300, "tests": "far,klm,jklm,wald",
          "grid_radius": 1.0, "grid_steps": 21},
    "4": {"kind": "both", "k": 2, "n": 6, "t": 300},
    "6": {"kind": "both", "k": 2, "n": 3, "t": 300},
}


def _mc_power(args, spec, kind, out):
    lam = spec.lambda1
    radius = args.grid_radius
    offsets = np.linspace(-radius, radius, args.grid_steps)
    h0_grid = []
    for off in offsets:
        shifted = lam.copy()
        shifted[0, 0] += off
        h0_grid.append(shifted)
    table = power_curve(
        [t.strip() for t in args.tests.split(",")], h0_grid, spec,
        reps=args.reps, level=args.level, seed=args.seed,
    )
    path = out / f"power_{kind}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["offset"] + [f"{t}_{w}" for t in table.tests for w in ("freq", "se")])
        for j, off in enumerate(offsets):
            row = [format_float(off)]
            for i in range(len(table.tests)):
                row += [format_float(table.rejection[i, j]), format_float(table.std_error[i, j])]
            writer.writerow(row)
    return path


def cmd_mc(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.figure:
        preset = _FIGURE_PRESETS.get(args.figure)
        if preset is None:
            raise PanelError(f"unknown figure preset {args.figure!r}")
        for key, val in preset.items():
            if key != "kind" and getattr(args, key, None) in (None,):
                setattr(args, key, val)
        kinds = ("strong", "weak")
    else:
        kinds = (args.dgp,)
    args.k = args.k or 1
    args.n = args.n or 11
    args.t = args.t or 300
    args.grid_radius = args.grid_radius or 1.0
    args.grid_steps = args.grid_steps or 21
    written = []
    for kind in kinds:
        spec = preset_dgp(kind, k=args.k, n=args.n, t=args.t)
        if args.figure == "4" or args.experiment == "sfar-density":
            res = sfar_density_experiment(spec, reps=args.reps, seed=args.seed)
            path = out / f"sfar_density_{kind}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["statistic"])
                for s in res.statistics:
                    writer.writerow([format_float(s)])
            _dump_json(out / f"sfar_density_{kind}_summary.json", {
                "dof_bound": res.dof_bound,
                "ks_pvalue": res.ks_pvalue,
                "quantile_levels": list(res.quantile_levels),
                "empirical_quantiles": res.empirical_quantiles.tolist(),
                "chi2_quantiles": res.chi2_quantiles.tolist(),
                "failures": res.failures,
            })
        elif args.figure == "6" or args.experiment == "power-surface":
            lam = spec.lambda1[0]
            axis1 = lam[0] + np.linspace(-args.grid_radius, args.grid_radius, args.grid_steps)
            axis2 = lam[1] + np.linspace(-args.grid_radius, args.grid_radius, args.grid_steps)
            surf = power_surface(spec, axis1, axis2, reps=args.reps,
                                 level=args.level, seed=args.seed)
            path = out / f"power_surface_{kind}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "y", "rejection"])
                for i, v1 in enumerate(axis1):
                    for j, v2 in enumerate(axis2):
                        writer.writerow([format_float(v1), format_float(v2),
                                         format_float(surf[i, j])])
        else:
            path = _mc_power(args, spec, kind, out)
        written.append(str(path))
    _write_manifest(out, "mc", vars(args))
    for p in written:
        print(p)
    return 0


def cmd_eigenlab(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    m = None
    if args.kappa:
        m = rank_one_noncentrality(args.n, args.dim, float(args.kappa))
    spec = EigenLabSpec(
        n_rows=args.n, dim=args.dim, k=args.k, noncentrality=m,
        reps=args.reps, seed=args.seed,
    )
    res = wishart_eigen_lab(spec)
    qs = (0.5, 0.9, 0.95, 0.99)
    with open(out / "eigen.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantile", "small_sum", "large_sum"])
        for p in qs:
            writer.writerow([
                format_float(p),
                format_float(np.quantile(res.small_sums, p)),
                format_float(np.quantile(res.large_sums, p)) if res.large_sums.size else "",
            ])
    import scipy.stats

    ks = scipy.stats.kstest(res.small_sums, scipy.stats.chi2(res.central_dof).cdf)
    _dump_json(out / "eigen_summary.json", {
        "central_dof": res.central_dof,
        "ks_pvalue_vs_central": float(ks.pvalue),
        "reps": args.reps,
        "kappa": args.kappa,
    })
    _write_manifest(out, "eigenlab", vars(args))
    print(str(out / "eigen.csv"))
    return 0


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
    p.add_argument("--cov", choices=["auto", "kps", "hc0"], default="auto")
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
    p.add_argument("--variant", choices=["I", "II"], default="II")
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
    p.add_argument("--figure", default=None, help="preset: 2, 4, or 6")
    p.add_argument("--experiment", default="power",
                   choices=["power", "sfar-density", "power-surface"])
    p.add_argument("--dgp", choices=["strong", "weak"], default="strong")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--tests", default="far,klm,jklm,wald")
    p.add_argument("--grid-radius", type=float, default=None)
    p.add_argument("--grid-steps", type=int, default=None)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("eigenlab", help="noncentral Wishart eigenvalue sampling")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--kappa", type=float, default=None)
    p.set_defaults(func=cmd_eigenlab)
    return parser


def _apply_config(args, argv):
    """Fill unset flags from a JSON config file; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    try:
        overrides = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PanelError(f"cannot read config file: {exc}") from exc
    given = set()
    for a in argv:
        if a.startswith("--"):
            given.add(a.split("=", 1)[0][2:].replace("-", "_"))
    for key, val in overrides.items():
        key = key.replace("-", "_")
        if not hasattr(args, key):
            raise PanelError(f"unknown config key {key!r}")
        if key not in given:
            setattr(args, key, val)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, argv)
        return args.func(args)
    except (PanelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RankError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
