"""Noncentral Wishart eigenvalue experiments behind the chi-square bound.

Verifies by simulation that (i) the eigenvalue sum of a central Wishart
matches its chi-square law, and (ii) the upper quantiles of the sum of the
small eigenvalues increase with the noncentrality while staying below the
central quantiles -- the two facts that make chi-square critical values an
upper bound for the subset statistic.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from riskpremia._linalg import chi2_ppf, ks_chi2_pvalue
from riskpremia.montecarlo import EigenLabSpec, rank_one_noncentrality, wishart_eigen_lab


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/eigenlab")
    ap.add_argument("--reps", type=int, default=100_000)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--seed", type=int, default=12)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    central = wishart_eigen_lab(
        EigenLabSpec(n_rows=args.n - args.k + 1, dim=args.dim - args.k + 1, k=1,
                     reps=args.reps, seed=args.seed)
    )
    ks_pvalue = ks_chi2_pvalue(central.small_sums, central.central_dof)
    print(f"central trace vs chi2({central.central_dof}): KS p = {ks_pvalue:.4f}")

    dof = (args.dim - args.k + 1) * (args.n - args.k + 1)
    central_q = {p: chi2_ppf(p, dof) for p in (0.90, 0.95, 0.99)}
    rows = []
    for kappa in (0.0, 1e1, 1e2, 1e3, 1e4):
        m = rank_one_noncentrality(args.n, args.dim, kappa) if kappa else None
        lab = wishart_eigen_lab(
            EigenLabSpec(n_rows=args.n, dim=args.dim, k=args.k,
                         noncentrality=m, reps=args.reps // 2, seed=args.seed + 1)
        )
        qs = {p: float(np.quantile(lab.small_sums, p)) for p in (0.90, 0.95, 0.99)}
        rows.append([kappa] + [qs[p] for p in (0.90, 0.95, 0.99)])
        print(f"kappa={kappa:8.0f}: q95 small-sum {qs[0.95]:7.3f} "
              f"(central {central_q[0.95]:.3f})")
    with open(out / "quantiles.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kappa", "q90", "q95", "q99"])
        writer.writerows(rows)
        writer.writerow(["chi2"] + [central_q[p] for p in (0.90, 0.95, 0.99)])


if __name__ == "__main__":
    main()
