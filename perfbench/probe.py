"""Machine-speed probe: a fixed kernel that does not touch the package.

The sandboxes this benchmark runs in share their cores with other tenants,
and their speed drifts by tens of percent over tens of seconds.  Every timed
round is bracketed by this probe; dividing the round's time by the probe's
time relative to ``NOMINAL_S`` removes most of that drift.  The probe mixes
what the package spends its time on: small LAPACK calls, small array
arithmetic and Python-level loops, plus a few dense SVDs and Kronecker
products of the size the K=5, N=20 fit works on.  It never calls
``riskpremia``, so no change to the package can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: probe time, in seconds, that counts as one nominal second of speed.
NOMINAL_S = 0.12

_rng = np.random.default_rng(20240607)
_M = _rng.standard_normal((24, 24))
_SPD = _M @ _M.T + 24.0 * np.eye(24)
_B = _rng.standard_normal(24)
_C = _rng.standard_normal((40, 12))
_ONES = np.ones(24)
_WIDE = _rng.standard_normal((100, 400))
_Q = _rng.standard_normal((10, 10))
_S = _rng.standard_normal((20, 20))


def probe_seconds() -> float:
    """Wall time of a fixed amount of probe work."""
    start = time.perf_counter()
    acc = 0
    for _ in range(300):
        np.linalg.eigh(_SPD)
        np.linalg.solve(_SPD, _B)
        np.linalg.svd(_C, full_matrices=False)
        np.kron(_M[:6, :6], _M[:4, :4]) @ _ONES
        for i in range(300):
            acc += i * i
    for _ in range(6):
        np.linalg.svd(_WIDE, full_matrices=False)
        np.kron(_Q, _S).sum()
    return time.perf_counter() - start


def slowdown() -> float:
    """Probe time over nominal: > 1 when the machine runs slow."""
    return probe_seconds() / NOMINAL_S
