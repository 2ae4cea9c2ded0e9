"""One pass of every benchmark workload runs and reports correct outputs.

Each workload that BENCHMARK.json names runs once in a fresh process
(``melbench/run.py --seed 1 --seconds 0``). Its last output line must
say ``"correct": true`` with no failed operation, so a change that moves
a benchmark digest fails here too. ``tag-44k`` and ``transfer-16k`` also
run once traced (``--trace 1``): the tracer replays every forward node by
node on whole tensors and compares the result with ``forward``'s, so the
bench CNN's blocked, pool-first evaluation is checked against its plain
ops bit for bit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _one_pass(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "melbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_is_correct(workload):
    _one_pass(workload, 0)


@pytest.mark.parametrize("workload", ["tag-44k", "transfer-16k"])
def test_traced_pass_replays_forward_exactly(workload):
    result = _one_pass(workload, 1)
    assert result["metrics"]["trace.replay_mismatches"]["value"] == 0, result
