"""Independent references for the closed forms of the package."""

import numpy as np
import scipy.optimize

from riskpremia.subset import far_trace


def sfar_minimized(h, sys, seed):
    """The subset statistic as the smallest FAR over the other rows (columns)
    of Lambda1: L-BFGS-B from the GLS-implied Lambda1, zero and 18 seeded
    starts.  K >= 2."""
    k = sys.n_factors
    rest = np.delete(np.arange(k), h.index)
    lam = np.empty((k, k))

    def objective(free):
        if h.kind == "row":
            lam[h.index], lam[rest] = h.value, free.reshape(k - 1, k)
        else:
            lam[:, h.index], lam[:, rest] = h.value, free.reshape(k, k - 1)
        try:
            return far_trace(sys, lam)
        except np.linalg.LinAlgError:
            return np.inf

    gls = np.linalg.solve(sys.h_hat[k:, k:], sys.h_hat[k:, :k])
    anchor = (gls[rest] if h.kind == "row" else gls[:, rest]).reshape(-1)
    scale = max(1.0, np.abs(anchor).max(), np.abs(h.value).max())
    rng = np.random.default_rng(seed)
    starts = [anchor, np.zeros(anchor.size)]
    starts += [anchor + scale * rng.standard_normal(anchor.size) for _ in range(18)]
    options = {"ftol": 1e-10, "gtol": 1e-12, "maxiter": 500}
    return min(
        float(scipy.optimize.minimize(objective, x0, method="L-BFGS-B", options=options).fun)
        for x0 in starts
    )
