#!/usr/bin/env python3
"""riskpremia benchmark: Monte Carlo size, large-shape sFAR density, CSV to
confidence sets.

Run from the repository root:

    python3 perfbench/run.py --workload mc-size-k1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cs-k3 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke           # every workload, tiny, checked
    python3 perfbench/run.py --record          # rewrite reference.json

The package is imported from ``src/`` of the checkout, in one process, with
BLAS pinned to one thread before numpy is imported.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints per-layer metrics from a traced pass
(see tracer.py).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a full
result record, with the environment, go to ``.perfbench_out/``.
"""

import os
import time

_T_START = time.perf_counter()

# Fixed before numpy is imported anywhere in this process.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

MIN_ROUNDS = 3
SETUP_REPEATS = 3       # workload set-ups timed per run; setup_s takes their median

TRACE_TARGETS = (
    "montecarlo.simulate",
    "pipeline.fit_model",
    "varstage.fit_var1",
    "threestep.second_stage",
    "threestep.third_stage",
    "threestep.asymptotic_covariance",
    "threestep.wald_test",
    "subset.build_stacked",
    "subset.stacked_score_covariance",
    "subset.sfar_row",
    "subset.boundedness_diagnostic",
    "kronecker.kps_factorize",
    "moments.robust_tests",
    "confsets.joint_confidence_set",
    "panels.load_yield_csv",
    "panels.excess_returns",
    "panels.pca_factors",
)


class SetupError(RuntimeError):
    """The checkout does not hold the package this benchmark measures."""


def import_package():
    if not (SRC / "riskpremia" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'riskpremia'}")
    sys.path.insert(0, str(SRC))
    import riskpremia

    if Path(riskpremia.__file__).resolve().parent != (SRC / "riskpremia").resolve():
        raise SetupError(f"riskpremia imported from {riskpremia.__file__}, not {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def environment(workload: str, seed: int, pool_indices, input_seeds) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "riskpremia").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_fixed": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "pool_indices": list(pool_indices),
        "input_seeds": list(input_seeds),
    }


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def pool_index(work, seed: int, i: int) -> int:
    return (seed + i) % work.pool


@dataclass
class Round:
    pool: int
    out: object            # workloads.RoundOutput, None if the round raised
    wall: float            # seconds
    cpu: float             # process CPU seconds
    error: str | None
    slowdown: float        # mean probe slowdown measured around the round

    def norm_wall(self) -> float:
        return self.wall / self.slowdown

    def norm_cpu(self) -> float:
        return self.cpu / self.slowdown


def run_rounds(work, seed: int, seconds: float = 0.0, count: int | None = None, tracer=None):
    """Rounds for ``count`` rounds, or for at least ``seconds`` (and
    MIN_ROUNDS), each bracketed by the speed probe."""
    rounds = []
    before = probe.slowdown()
    t_end = time.perf_counter() + seconds

    def more() -> bool:
        if count is not None:
            return len(rounds) < count
        return len(rounds) < MIN_ROUNDS or time.perf_counter() < t_end

    while more():
        p = pool_index(work, seed, len(rounds))
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = work.run_round(p)
            else:
                with tracer.span("bench.round"):
                    out = work.run_round(p)
            err = None
        except Exception:  # a failed round is counted, the run goes on
            out, err = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        after = probe.slowdown()
        rounds.append(Round(p, out, wall, cpu, err, 0.5 * (before + after)))
        before = after
    return rounds


def check_rounds(work, rounds, reference: dict):
    """Count attempted and failed units; compare outputs with the reference."""
    refs = reference.get("workloads", {}).get(work.ref_key, {})
    attempted = failed = 0
    errors = []
    for r in rounds:
        p, out = r.pool, r.out
        if out is None:
            attempted += work.units_per_round
            failed += work.units_per_round
            errors.append(f"pool {p}: round raised\n{r.error}")
            continue
        attempted += out.units
        bad = out.failed_units
        ref = refs.get(str(p))
        mism = ["no reference recorded"] if ref is None else work.compare(out.record, ref)
        if mism:
            bad = out.units
            errors += [f"pool {p}: {m}" for m in mism]
        failed += bad
    return attempted, failed, errors


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def setup_workload(wl, name: str, tag: str, smoke: bool = False):
    work = wl.WORKLOADS[name](OUT / "work" / tag, smoke=smoke)
    work.setup()
    work.warm_up()
    return work


def timed_setup(wl, name: str, tag: str, import_s: float):
    """(workload, set-up seconds, the set-ups' samples), probe-normalised.

    Set-up seconds are the import time plus the median of SETUP_REPEATS
    workload set-ups (spec/data generation and warm-up)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work = setup_workload(wl, name, tag)
        samples.append(time.perf_counter() - t0)
    slowdown = probe.slowdown()
    return work, (import_s + statistics.median(samples)) / slowdown, samples


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def measure(wl, args, import_s: float) -> int:
    work, setup_s, setup_samples = timed_setup(wl, args.workload, f"seed{args.seed}", import_s)
    reference = load_reference()
    OUT.mkdir(exist_ok=True)

    if args.trace:
        metrics, rounds, extra = traced_run(work, args)
    else:
        rounds = run_rounds(work, args.seed, seconds=args.seconds)
    attempted, failed, errors = check_rounds(work, rounds, reference)

    if not args.trace:
        done = [r for r in rounds if r.out is not None] or rounds
        units = work.units_per_round
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput": (statistics.median(units / r.norm_wall() for r in done), "units/s"),
            "cpu_ms_per_unit": (statistics.median(1e3 * r.norm_cpu() / units for r in done), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
        extra = {
            "import_s": import_s,
            "setup_samples_s": setup_samples,
            "raw_throughput": statistics.median(units / r.wall for r in done),
            "raw_cpu_ms_per_unit": statistics.median(1e3 * r.cpu / units for r in done),
            "round_wall_s": [r.wall for r in rounds],
            "round_cpu_s": [r.cpu for r in rounds],
            "slowdowns": [r.slowdown for r in rounds],
        }

    correct = not errors and failed == 0
    pools = [r.pool for r in rounds]
    env = environment(args.workload, args.seed, pools, [work.input_seed(p) for p in pools])
    print(f"workload {args.workload} (units are {work.unit}), seed {args.seed}, "
          f"{len(rounds)} rounds, trace {int(args.trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} frac "
          f"({failed} of {attempted} units)")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print("environment " + json.dumps(env))
    result = {"environment": env, "correct": correct, "attempted": attempted,
              "failed": failed, "failed_frac": failed / attempted, "errors": errors,
              "rounds": len(rounds), "extra": extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


def traced_run(work, args):
    """Untraced rounds for half the run, then a fixed number traced.

    The traced pass always covers ``work.trace_rounds`` rounds, so its call
    counts repeat exactly for a seed; the overhead compares the probe-
    normalised median round times of the two passes."""
    from tracer import Tracer

    plain = run_rounds(work, args.seed, seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install({t: None for t in TRACE_TARGETS} | {"pipeline.fit_model": _observe_fit})
    try:
        traced = run_rounds(work, args.seed, count=work.trace_rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    def round_time(rounds):
        return statistics.median(r.norm_wall() for r in rounds)

    calls, self_s = tracer.calls(), tracer.self_times()
    metrics = {}
    for t in TRACE_TARGETS:
        metrics[f"{t}.calls"] = (calls.get(t, 0), "count")
        metrics[f"{t}.self_s"] = (self_s.get(t, 0.0), "s")
        metrics[f"{t}.failed"] = (tracer.failed.get(t, 0), "count")
    counters = dict(tracer.counters)
    for r in traced:
        for k, v in (r.out.counters if r.out is not None else {}).items():
            counters[k] = counters.get(k, 0) + v

    def ratio(num, base):
        b = counters.get(base, 0)
        return counters.get(num, 0) / b if b else 0.0

    metrics["montecarlo.ok_ratio"] = (ratio("montecarlo.replicates_ok", "montecarlo.replicates"), "ratio")
    metrics["confsets.ok_ratio"] = (ratio("confsets.finite", "confsets.points"), "ratio")
    metrics["pipeline.kps_mode_ratio"] = (ratio("pipeline.fits_kps", "pipeline.fits"), "ratio")
    metrics["pipeline.por_ratio"] = (ratio("pipeline.fits_por", "pipeline.fits"), "ratio")
    for base in ("montecarlo.replicates", "confsets.points", "pipeline.fits"):
        metrics[base] = (counters.get(base, 0), "count")
    metrics["trace.overhead_frac"] = (round_time(traced) / round_time(plain) - 1.0, "frac")
    metrics["trace.uncovered_s"] = (self_s.get("bench.round", 0.0), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.absent"] = (len(tracer.absent), "count")
    extra = {"absent": tracer.absent, "untraced_rounds": len(plain),
             "traced_rounds": len(traced)}
    return metrics, plain + traced, extra


def _observe_fit(counters, fit):
    counters["pipeline.fits"] += 1
    counters["pipeline.fits_kps"] += fit.cov_mode == "kps"
    counters["pipeline.fits_por"] += fit.por is not None


def smoke(wl) -> int:
    """One tiny round per workload, untraced and traced, with output checks."""
    from tracer import Tracer

    reference = load_reference()
    ok = True
    for name in wl.WORKLOADS:
        work = setup_workload(wl, name, "smoke", smoke=True)
        rounds = run_rounds(work, 0, count=1)
        tracer = Tracer()
        tracer.install({t: None for t in TRACE_TARGETS})
        try:
            rounds += run_rounds(work, 0, count=1, tracer=tracer)
        finally:
            tracer.uninstall()
        attempted, failed, errors = check_rounds(work, rounds, reference)
        calls = tracer.calls()
        if tracer.absent:
            errors.append(f"trace targets absent: {tracer.absent}")
        if calls.get("pipeline.fit_model", 0) == 0:
            errors.append("traced round made no fit_model call")
        status = "ok" if not errors and failed == 0 else "FAILED"
        print(f"smoke {name}: {status}, {failed} of {attempted} units failed, "
              f"{sum(calls.values())} spans")
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        ok &= status == "ok"
    return 0 if ok else 1


def record(wl) -> int:
    """Rewrite reference.json from the current program (every pool entry)."""
    out = {"note": "Reference outputs per pool entry; regenerate with run.py --record.",
           "environment": environment("all", -1, [], []),
           "tolerances": {"near_level": wl.NEAR_LEVEL, "reference_rtol": wl.REFERENCE_RTOL,
                          "identity_rtol": wl.IDENTITY_RTOL},
           "workloads": {}}
    jobs = [(name, False, range(cls.pool)) for name, cls in wl.WORKLOADS.items()]
    jobs.append(("cs-k3", True, range(1)))
    for name, smoke_size, pool in jobs:
        work = setup_workload(wl, name, "record", smoke=smoke_size)
        recs = {}
        for p in pool:
            res = work.run_round(p)
            if res.failed_units:
                raise RuntimeError(f"{name} pool {p}: {res.failed_units} failed units")
            recs[str(p)] = res.record
        out["workloads"][work.ref_key] = recs
        print(f"recorded {work.ref_key}: {len(recs)} entries", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("mc-size-k1", "mc-sfar-k5", "cs-k3"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny checked run of every workload")
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = ap.parse_args(argv)
    if not (args.smoke or args.record) and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl = import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.record:
        return record(wl)
    if args.smoke:
        return smoke(wl)
    return measure(wl, args, time.perf_counter() - _T_START)


if __name__ == "__main__":
    sys.exit(main())
