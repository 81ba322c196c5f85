"""Smoke test of the benchmark: one traced pass of three small workloads.

Each run checks every output of its pass against the benchmark's own
oracles and reports the outcome on its last line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["chain_arith", "deep_build", "sweep_small"])
def test_benchmark_pass_is_correct(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
