"""One pass of every benchmark workload runs and reports correct outputs.

Each workload that BENCHMARK.json names runs once in a fresh process
(``melbench/run.py --seed 1 --seconds 0``). Its last output line must
say ``"correct": true`` with no failed operation, so a change that moves
a benchmark digest fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "melbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
