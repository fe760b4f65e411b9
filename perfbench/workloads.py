"""The three benchmark workloads, driven only through public entry points.

Each workload runs in rounds of constant work.  Round ``i`` of a run with
seed ``s`` uses pool entry ``(s + i) % pool``: a Monte Carlo seed for the
``mc-*`` workloads, a synthetic yield CSV for ``cs-k3``.  Every pool entry has
reference outputs recorded in ``reference.json`` (``run.py --record``), so
each round's outputs are checked, not only its speed.

Module attributes are looked up at call time (``montecarlo.power_curve``,
not a captured name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riskpremia import confsets, moments, montecarlo, panels, pipeline

import yieldgen

LEVEL = 0.95
#: p-values this close to the test level may flip under another BLAS kernel;
#: such grid points are left out of the mask comparison.
NEAR_LEVEL = 1e-8
#: relative tolerance on recorded sFAR quantiles and FAR/KLM statistics.
REFERENCE_RTOL = 1e-8
#: relative tolerance of the FAR = KLM + JKLM identity.
IDENTITY_RTOL = 1e-10
#: cs-k3 grid points, evenly spaced over the FAR slice, where the FAR and
#: KLM statistics are recomputed in both variance modes and checked.
IDENTITY_POINTS = 3


@dataclass
class RoundOutput:
    units: int
    failed_units: int = 0
    counters: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)   # compared with the reference


class McSize:
    """Size of FAR/KLM/JKLM/Wald at the true Lambda1, K=1, N=11, T=300."""

    name = "mc-size-k1"
    unit = "replicates"
    pool = 32
    trace_rounds = 4
    tests = ("far", "klm", "jklm", "wald")
    reps = 100          # power_curve's minimum; two kinds per round

    def __init__(self, workdir: Path, smoke: bool = False):
        self.ref_key = self.name
        self.units_per_round = 2 * self.reps

    def setup(self):
        self.specs = {kind: montecarlo.preset_dgp(kind, k=1, n=11, t=300)
                      for kind in ("strong", "weak")}

    def input_seed(self, p: int) -> int:
        return 7 + p

    def warm_up(self):
        for spec in self.specs.values():
            returns, factors = montecarlo.simulate(spec, seed=0)
            fit = pipeline.fit_model(returns, factors)
            moments.robust_tests(fit, spec.lambda1)
            fit.wald(spec.lambda1)

    def run_round(self, p: int) -> RoundOutput:
        record, failed = {}, 0
        for kind, spec in self.specs.items():
            table = montecarlo.power_curve(
                list(self.tests), [spec.lambda1], spec, reps=self.reps, seed=self.input_seed(p)
            )
            valid = self.reps - np.array([table.failures[t] for t in self.tests])
            counts = np.rint(table.rejection[:, 0] * valid).astype(int)
            record[kind] = {
                "rejections": dict(zip(self.tests, counts.tolist())),
                "failures": dict(table.failures),
            }
            failed += int(self.reps - valid.min())
        units = self.units_per_round
        return RoundOutput(
            units=units,
            failed_units=failed,
            counters={"montecarlo.replicates": units,
                      "montecarlo.replicates_ok": units - failed},
            record=record,
        )

    def compare(self, got: dict, ref: dict) -> list[str]:
        return [] if got == ref else [f"rejection counts {got} != reference {ref}"]


class McSfar:
    """Null density of the subset statistic, K=5, N=20, T=300."""

    name = "mc-sfar-k5"
    unit = "replicates"
    pool = 64
    trace_rounds = 5
    reps = 40           # per kind; two kinds per round

    def __init__(self, workdir: Path, smoke: bool = False):
        self.ref_key = self.name
        self.units_per_round = 2 * self.reps

    def setup(self):
        self.specs = {kind: montecarlo.preset_dgp(kind, k=5, n=20, t=300)
                      for kind in ("strong", "weak")}

    def input_seed(self, p: int) -> int:
        return 2024 + p

    def warm_up(self):
        for spec in self.specs.values():
            montecarlo.sfar_density_experiment(spec, reps=1, seed=0)

    def run_round(self, p: int) -> RoundOutput:
        record, failed = {}, 0
        for kind, spec in self.specs.items():
            res = montecarlo.sfar_density_experiment(spec, reps=self.reps, seed=self.input_seed(p))
            bad = res.failures + int(np.sum(~np.isfinite(res.statistics) | (res.statistics < 0)))
            failed += bad
            record[kind] = {
                "quantiles": res.empirical_quantiles.tolist(),
                "dof": res.dof_bound,
                "failures": res.failures,
            }
        units = self.units_per_round
        return RoundOutput(
            units=units,
            failed_units=failed,
            counters={"montecarlo.replicates": units,
                      "montecarlo.replicates_ok": units - failed},
            record=record,
        )

    def compare(self, got: dict, ref: dict) -> list[str]:
        errors = []
        for kind, r in ref.items():
            g = got[kind]
            if (g["dof"], g["failures"]) != (r["dof"], r["failures"]):
                errors.append(f"{kind}: dof/failures {g} != reference {r}")
            elif not np.allclose(g["quantiles"], r["quantiles"], rtol=REFERENCE_RTOL, atol=0.0):
                errors.append(f"{kind}: sFAR quantiles {g['quantiles']} != reference {r['quantiles']}")
        return errors


class CsK3:
    """CSV -> excess returns -> pca:3 -> fit -> three inverted confidence sets."""

    name = "cs-k3"
    unit = "grid points"
    pool = 16
    trace_rounds = 2
    far_width = 0.1     # half-width of the vec(Lambda1) slice around the estimate
    sfar_width = 0.3    # half-width of the row-0 cube around the estimate

    def __init__(self, workdir: Path, smoke: bool = False):
        self.workdir = workdir
        self.steps = 5 if smoke else 15
        self.ref_key = f"{self.name}-smoke" if smoke else self.name
        self.units_per_round = 2 * self.steps**2 + self.steps**3

    def input_seed(self, p: int) -> int:
        return 1000 + p

    def csv_path(self, p: int) -> Path:
        return self.workdir / f"yields-{p}.csv"

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for p in range(self.pool):
            yieldgen.write_yield_csv(self.csv_path(p), seed=self.input_seed(p))

    def warm_up(self):
        self._round(0, steps=2)

    def run_round(self, p: int) -> RoundOutput:
        return self._round(p, self.steps)

    def _round(self, p: int, steps: int) -> RoundOutput:
        panel = panels.load_yield_csv(self.csv_path(p))
        returns = panels.excess_returns(panel, yieldgen.HELD)
        factors = panels.pca_factors(panel, 3)
        fit = pipeline.fit_model(returns, factors)
        if fit.por is None:
            raise RuntimeError("third stage unavailable; grids are centred on its estimate")
        lam = fit.por.lambda1
        base = lam.reshape(-1, order="F")
        vary = (0, 4)                                   # Lambda1[0,0], Lambda1[1,1]
        far_grid = confsets.GridSpec(
            tuple(confsets.GridAxis(base[i] - self.far_width, base[i] + self.far_width, steps)
                  for i in vary),
            confsets.full_lambda_binding(3, base=base, vary=vary),
        )
        row = lam[0]
        sfar_grid = confsets.GridSpec(
            tuple(confsets.GridAxis(v - self.sfar_width, v + self.sfar_width, steps) for v in row),
            confsets.row_binding(3, index=0, base=row),
        )
        sets = {
            "far-kps": confsets.joint_confidence_set("far", far_grid, LEVEL, fit, mode="kps"),
            "far-hc0": confsets.joint_confidence_set("far", far_grid, LEVEL, fit, mode="hc0"),
            "sfar-row0": confsets.joint_confidence_set("sfar", sfar_grid, LEVEL, fit),
        }
        record = {"cov_mode": fit.cov_mode, "sets": {}, "points": _point_statistics(fit, far_grid)}
        units = finite = 0
        for key, cs in sets.items():
            pv = cs.pvalues.reshape(-1)
            units += pv.size
            finite += int(np.sum(np.isfinite(pv)))
            record["sets"][key] = {
                "mask": np.packbits(cs.accepted_mask.reshape(-1)).tobytes().hex(),
                "n_accepted": int(cs.accepted_mask.sum()),
                "bounded": cs.bounded,
                "near": np.flatnonzero(np.abs(pv - (1 - LEVEL)) < NEAR_LEVEL).tolist(),
            }
        return RoundOutput(
            units=units,
            failed_units=units - finite,
            counters={"confsets.points": units, "confsets.finite": finite},
            record=record,
        )

    def compare(self, got: dict, ref: dict) -> list[str]:
        errors = []
        if got["cov_mode"] != ref["cov_mode"]:
            errors.append(f"cov_mode {got['cov_mode']} != reference {ref['cov_mode']}")
        for key, r in ref["sets"].items():
            g = got["sets"][key]
            if g["bounded"] != r["bounded"]:
                errors.append(f"{key}: bounded {g['bounded']!r} != reference {r['bounded']!r}")
            gm, rm = _unpack(g["mask"]), _unpack(r["mask"])
            if gm.size != rm.size:
                errors.append(f"{key}: grid size {gm.size} != reference {rm.size}")
                continue
            diff = np.flatnonzero(gm != rm)
            diff = sorted(set(diff.tolist()) - set(g["near"]) - set(r["near"]))
            if diff:
                errors.append(f"{key}: accepted mask differs at {len(diff)} points, first {diff[:5]}")
        return errors + _compare_points(got["points"], ref["points"])


def _point_statistics(fit, grid) -> dict:
    """{mode: [[far, klm, jklm], ...]} at IDENTITY_POINTS grid points."""
    pts = grid.points()
    picks = np.linspace(0, len(pts) - 1, IDENTITY_POINTS + 2).round().astype(int)[1:-1]
    out = {}
    for mode in ("kps", "hc0"):
        out[mode] = []
        for i in picks:
            lam = grid.binding.assemble(pts[i]).reshape(3, 3, order="F")
            res = moments.robust_tests(fit, lam, mode=mode)
            out[mode].append([float(res[t].statistic) for t in ("far", "klm", "jklm")])
    return out


def _compare_points(got: dict, ref: dict) -> list[str]:
    """FAR and KLM against the reference; FAR = KLM + JKLM as computed.

    Both statistics are compared to REFERENCE_RTOL times the reference FAR:
    KLM is a part of FAR and is near 0 at the grid's centre, the estimate.
    The identity holds by construction while JKLM is derived as FAR - KLM;
    it guards a later path that computes JKLM on its own."""
    errors = []
    for mode, rows in ref.items():
        for i, ((far, klm, jklm), (rfar, rklm, _)) in enumerate(zip(got[mode], rows)):
            if not np.allclose([far, klm], [rfar, rklm], rtol=0.0, atol=REFERENCE_RTOL * rfar):
                errors.append(f"point {i} ({mode}): FAR, KLM {far!r}, {klm!r} "
                              f"!= reference {rfar!r}, {rklm!r}")
            if not np.isclose(far, klm + jklm, rtol=IDENTITY_RTOL, atol=0.0):
                errors.append(f"point {i} ({mode}): FAR {far!r} != KLM + JKLM {klm + jklm!r}")
    return errors


def _unpack(hexmask: str) -> np.ndarray:
    return np.unpackbits(np.frombuffer(bytes.fromhex(hexmask), dtype=np.uint8))


WORKLOADS = {w.name: w for w in (McSize, McSfar, CsK3)}
