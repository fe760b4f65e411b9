"""Joint confidence sets for the two premia of one factor in a two-factor model.

Fits one simulated sample per calibration (3 excess returns, T=300), inverts
the subset test over a 2D grid at the 90/95/99% levels, writes the p-value
surface, and classifies boundedness through the distant-value scan.  The
strong calibration yields nested bounded sets around the truth; the weak one
is typically unbounded or covers the whole grid.
"""

import argparse
import csv
import json
from pathlib import Path

from riskpremia.confsets import (
    GridAxis,
    GridSpec,
    invert_surface,
    project_cs,
    pvalue_curve,
    row_binding,
)
from riskpremia.montecarlo import preset_dgp, simulate
from riskpremia.pipeline import fit_model


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/fig7")
    ap.add_argument("--steps", type=int, default=41)
    ap.add_argument("--radius", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for kind in ("strong", "weak"):
        spec = preset_dgp(kind, k=2, n=3, t=300)
        returns, factors = simulate(spec, args.seed)
        fit = fit_model(returns, factors)
        truth = spec.lambda1[0]
        grid = GridSpec(
            axes=(
                GridAxis(truth[0] - args.radius, truth[0] + args.radius, args.steps),
                GridAxis(truth[1] - args.radius, truth[1] + args.radius, args.steps),
            ),
            binding=row_binding(2, index=0),
        )
        surface = pvalue_curve("sfar", grid, fit)
        with open(out / f"surface_{kind}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda_11", "lambda_12", "pvalue"])
            for point, p in zip(grid.points(), surface.pvalues.reshape(-1)):
                writer.writerow([f"{point[0]:.17g}", f"{point[1]:.17g}", f"{p:.17g}"])
        summary = {}
        for level in (0.90, 0.95, 0.99):
            cs = invert_surface(surface, level, fit, seed=args.seed)
            summary[f"{level:.2f}"] = {
                "bounded": cs.bounded,
                "n_accepted": int(cs.accepted.shape[0]),
                "projection_axis1": project_cs(cs, 0),
                "projection_axis2": project_cs(cs, 1),
            }
        (out / f"sets_{kind}.json").write_text(json.dumps(summary, indent=2))
        print(f"{kind}: 95% set {summary['0.95']['bounded']} with "
              f"{summary['0.95']['n_accepted']} accepted points")


if __name__ == "__main__":
    main()
