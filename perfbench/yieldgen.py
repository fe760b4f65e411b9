"""Seeded synthetic zero-coupon yield panels for the confidence-set workload.

Yields come from a discrete-time Gaussian affine term structure model with
three persistent latent factors,

    X_{t+1} = mu + Phi X_t + v_{t+1},            v ~ N(0, Sigma)
    r_t     = delta0 + delta1' X_t               (one-month rate)
    Phi^Q   = Phi - Lambda1,  mu^Q = mu - lambda0

so log bond prices are affine in X_t and one-month excess returns obey the
reduced-rank restriction the package tests.  Small independent measurement
noise is added to every yield, which keeps the first three principal
components well separated (``pca:3`` is full rank) without breaking the
model.  Yields are per-month continuously compounded, as in
``riskpremia.panels``.  The file is a pure function of the seed; nothing is
downloaded.
"""

from __future__ import annotations

import numpy as np

#: Maturities (months) whose one-month excess returns the workload holds.
HELD = tuple(range(12, 121, 12))
#: Columns written to the CSV: the one-month rate, every held maturity n and
#: its n+1 neighbour needed by the one-period holding return.
MATURITIES = tuple(sorted({1, *HELD, *(n + 1 for n in HELD)}))

PHI_Q = np.diag([0.995, 0.95, 0.85])
LAMBDA1 = np.array([[-0.020, 0.030, 0.000],
                    [0.000, -0.050, 0.020],
                    [0.000, 0.000, -0.050]])
LAMBDA0 = np.array([-2.0e-5, 1.0e-5, 0.0])
SHOCK_SD = np.array([5.0e-5, 8.0e-5, 1.0e-4])   # factor innovations, per month
DELTA0 = 0.004
DELTA1 = np.ones(3)
NOISE_SD = 1.0e-6                               # yield measurement noise
MONTHS = 301                                    # rows per file


def price_loadings(max_n: int):
    """Log-price coefficients (A_n, B_n) for n = 0..max_n under Q."""
    sigma = np.diag(SHOCK_SD**2)
    mu_q = -LAMBDA0                                # mu = 0 under P
    a = np.zeros(max_n + 1)
    b = np.zeros((max_n + 1, 3))
    for n in range(max_n):
        a[n + 1] = a[n] + b[n] @ mu_q + 0.5 * b[n] @ sigma @ b[n] - DELTA0
        b[n + 1] = PHI_Q.T @ b[n] - DELTA1
    return a, b


def yield_matrix(seed: int) -> np.ndarray:
    """(MONTHS, len(MATURITIES)) yields for one seed."""
    rng = np.random.default_rng(seed)
    phi = PHI_Q + LAMBDA1
    x = np.empty((MONTHS, 3))
    x[0] = 0.0
    shocks = rng.standard_normal((MONTHS, 3)) * SHOCK_SD
    for t in range(1, MONTHS):
        x[t] = phi @ x[t - 1] + shocks[t]
    a, b = price_loadings(max(MATURITIES))
    mats = np.asarray(MATURITIES)
    y = -(a[mats][None, :] + x @ b[mats].T) / mats[None, :]
    return y + NOISE_SD * rng.standard_normal(y.shape)


def write_yield_csv(path, seed: int) -> None:
    """Write ``date,<m1>,...`` rows with 17 significant digits."""
    y = yield_matrix(seed)
    lines = [",".join(["date", *map(str, MATURITIES)])]
    for t, row in enumerate(y):
        date = f"{1970 + t // 12:04d}-{t % 12 + 1:02d}"
        lines.append(",".join([date, *(format(v, ".17g") for v in row)]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
