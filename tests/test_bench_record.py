"""tools/bench_record.py keeps every run's correctness, traced runs included."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def recorder(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_export", lambda rev, into: rev)
    return module


def _result(correct: bool) -> dict:
    return {"correct": correct, "failed": 0 if correct else 1, "attempted": 3,
            "host": "host test", "digest": "d",
            "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCH["end_to_end"]}}


@pytest.mark.parametrize("bad_trace", [0, 1])
def test_an_incorrect_run_is_recorded_and_fails_the_script(recorder, monkeypatch, tmp_path,
                                                           capsys, bad_trace):
    bad = BENCH["workloads"][0]["name"]

    def run(tree, command, workload, seed, seconds, trace):
        return _result(not (tree.name == "change" and workload == bad and trace == bad_trace))

    monkeypatch.setattr(recorder, "_run", run)
    out = tmp_path / "bench.json"
    assert recorder.main(["--out", str(out), "--pairs", "2"]) == 1
    assert f"{bad} change{' traced' if bad_trace else ''}" in capsys.readouterr().err
    change = json.loads(out.read_text())["workloads"][bad]["change"]
    assert change["correct" if not bad_trace else "traced_correct"] is False
    assert change["failed" if not bad_trace else "traced_failed"] == (2 if not bad_trace else 1)
    assert change["traced_correct" if not bad_trace else "correct"] is True


def test_all_correct_exits_zero(recorder, monkeypatch, tmp_path):
    monkeypatch.setattr(recorder, "_run", lambda *args: _result(True))
    out = tmp_path / "bench.json"
    assert recorder.main(["--out", str(out), "--pairs", "1"]) == 0
    record = json.loads(out.read_text())
    assert all(entry[side]["traced_correct"] for entry in record["workloads"].values()
               for side in ("parent", "change"))
