"""Two-dimensional power surfaces of the subset test in a two-factor model.

Tests the two premia of the first factor jointly (3 excess returns, T=300)
over a grid centered at the calibrated truth.  The strong surface rises
toward one away from the truth; the weak surface stays flat: the subset test
is not consistent under weak identification.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from riskpremia.montecarlo import power_surface, preset_dgp


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/fig6")
    ap.add_argument("--reps", type=int, default=1000)
    ap.add_argument("--steps", type=int, default=11)
    ap.add_argument("--radius", type=float, default=1.5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for kind in ("strong", "weak"):
        spec = preset_dgp(kind, k=2, n=3, t=300)
        truth = spec.lambda1[0]
        ax1 = truth[0] + np.linspace(-args.radius, args.radius, args.steps)
        ax2 = truth[1] + np.linspace(-args.radius, args.radius, args.steps)
        table = power_surface(spec, ax1, ax2, reps=args.reps, seed=args.seed)
        surf = table.rejection[0].reshape(len(ax1), len(ax2))
        path = out / f"surface_{kind}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda_11", "lambda_12", "rejection"])
            for i, v1 in enumerate(ax1):
                for j, v2 in enumerate(ax2):
                    writer.writerow([f"{v1:.17g}", f"{v2:.17g}", f"{surf[i, j]:.17g}"])
        c = args.steps // 2
        print(f"{kind}: rejection at truth {surf[c, c]:.3f}, "
              f"at far corner {surf[-1, -1]:.3f} -> {path}")


if __name__ == "__main__":
    main()
