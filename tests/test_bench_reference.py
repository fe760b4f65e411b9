"""Every benchmark pool entry reproduces its recorded reference outputs.

``perfbench/run.py --smoke`` checks a few entries, and ``cs-k3`` only at its
smoke grid; this runs each workload's full round on every entry of its pool
and compares it the way the benchmark does, so a change that moves outputs
by more than the reference tolerances, or flips a rejection count, fails
here rather than in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pool_entry_matches_the_reference(name, reference, tmp_path):
    work = workloads.WORKLOADS[name](tmp_path)
    work.setup()
    refs = reference["workloads"][work.ref_key]
    mismatches = {}
    for p in range(work.pool):
        errors = work.compare(work.run_round(p).record, refs[str(p)])
        if errors:
            mismatches[p] = errors
    assert mismatches == {}
