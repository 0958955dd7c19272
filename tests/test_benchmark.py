"""The benchmark's correctness gate, with no timed repetitions: every stage
argv that ``perfbench/run.py`` runs must still be accepted, and its outputs
must pass the benchmark's checks."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["pipeline-16k", "pipeline-44k"])
def test_benchmark_gate_passes(tmp_path, workload):
    # run.py works in the current directory's .perfbench/ on its src/: a
    # directory whose src/ is the checkout's keeps the checkout untouched
    os.symlink(os.path.join(REPO, "src"), tmp_path / "src")
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
