"""One pass of every benchmark workload runs and reports correct outputs.

Each workload that BENCHMARK.json names runs once in a fresh process
(``melbench/run.py --seed 1 --seconds 0``). Its last output line must
say ``"correct": true`` with no failed operation, and its digest must
equal the one pinned in ``DIGESTS``, so a change that moves a benchmark
digest fails here. The pins were taken with numpy 2.4.6 and
scipy-openblas 0.3.31 at one BLAS thread; a mismatch quotes the run's
host line, so a changed build can be told from a changed kernel.
``tag-44k`` and ``transfer-16k`` also run once traced (``--trace 1``):
the tracer replays every forward node by node on whole tensors and
compares the result with ``forward``'s, so the bench CNN's blocked,
pool-first evaluation is checked against its plain ops bit for bit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# Each workload's seed-1 digest.
DIGESTS = {"tag-44k": "e11d9c73836c75ec", "transfer-16k": "b570a21554ac8a0d",
           "stream-16k": "a92f65b7f32c2f6f"}


def _one_pass(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "melbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    for key in ("host", "digest"):
        result[key] = next(ln.split(" ", 1)[1] for ln in lines if ln.startswith(key + " "))
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_is_correct(workload):
    result = _one_pass(workload, 0)
    assert result["digest"] == DIGESTS[workload], (
        f"{workload} digest {result['digest']}, pinned {DIGESTS[workload]}; {result['host']}")


@pytest.mark.parametrize("workload", ["tag-44k", "transfer-16k"])
def test_traced_pass_replays_forward_exactly(workload):
    result = _one_pass(workload, 1)
    assert result["metrics"]["trace.replay_mismatches"]["value"] == 0, result
