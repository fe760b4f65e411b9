"""Every script under scripts/ runs end to end at tiny sizes and writes its files."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script -> (tiny-size arguments, files it writes)
RUNS = {
    "fig7_confidence_sets.py": (["--steps", "3"],
                                ["surface_strong.csv", "surface_weak.csv",
                                 "sets_strong.json", "sets_weak.json"]),
    "table4_rank_tests.py": (["--t", "120"], ["rank_tests.csv"]),
}


def test_every_script_is_covered():
    assert sorted(RUNS) == sorted(p.name for p in SCRIPTS.glob("*.py"))


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_writes_its_files(script, tmp_path, monkeypatch, capsys):
    args, files = RUNS[script]
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [script, "--out", str(out), *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    for name in files:
        lines = (out / name).read_text().splitlines()
        assert len(lines) >= 2, f"{name} has no rows"
    assert "np.float64" not in capsys.readouterr().out
