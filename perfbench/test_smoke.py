"""Tests of the benchmark harness itself, so it cannot rot unnoticed.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def test_smoke_runs_every_workload_and_passes_its_checks():
    proc = subprocess.run(RUN + ["--smoke"], capture_output=True, text=True,
                          timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("smoke ")]
    assert len(lines) == 3, proc.stdout
    assert all(": ok," in line for line in lines), proc.stdout


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "mc-size-k1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_traced_metric():
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    for target in run.TRACE_TARGETS:
        for field in ("calls", "self_s", "failed"):
            assert f"{target}.{field}" in names
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == ["mc-size-k1", "mc-sfar-k5", "cs-k3"]


def test_tracer_wraps_aliases_and_reports_missing_targets():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from riskpremia import montecarlo, pipeline, varstage
    from tracer import Tracer

    original = varstage.fit_var1
    tracer = Tracer()
    tracer.install({"varstage.fit_var1": None, "varstage.no_such_function": None,
                    "no_such_module.f": None})
    try:
        assert pipeline.fit_var1 is not original      # the alias callers use
        spec = montecarlo.preset_dgp("strong", k=1, n=3, t=50)
        _, factors = montecarlo.simulate(spec, seed=0)
        pipeline.fit_var1(factors)
    finally:
        tracer.uninstall()
    assert pipeline.fit_var1 is original and varstage.fit_var1 is original
    assert tracer.calls() == {"varstage.fit_var1": 1}
    assert tracer.absent == ["varstage.no_such_function", "no_such_module.f"]
    assert tracer.self_times()["varstage.fit_var1"] > 0.0
