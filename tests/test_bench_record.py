"""tools/bench_record.py keeps every run's correctness, traced runs included, and takes
each per-layer figure as the median of alternated traced pairs."""

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


def _result(correct: bool, value: float = 1.0) -> dict:
    return {"correct": correct, "failed": 0 if correct else 1, "attempted": 3,
            "host": "host test", "digest": "d",
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                        for m in BENCH["end_to_end"]}}


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
    assert change["failed" if not bad_trace else "traced_failed"] == 2
    assert change["traced_correct" if not bad_trace else "correct"] is True


def test_all_correct_exits_zero(recorder, monkeypatch, tmp_path):
    monkeypatch.setattr(recorder, "_run", lambda *args: _result(True))
    out = tmp_path / "bench.json"
    assert recorder.main(["--out", str(out), "--pairs", "1"]) == 0
    record = json.loads(out.read_text())
    assert all(entry[side]["traced_correct"] for entry in record["workloads"].values()
               for side in ("parent", "change"))


def test_per_layer_figures_are_medians_of_five_alternated_traced_pairs(recorder, monkeypatch,
                                                                       tmp_path):
    calls = []

    def run(tree, command, workload, seed, seconds, trace):
        calls.append((workload, seed, tree.name, trace))
        return _result(True, value=seed * (10 if tree.name == "change" else 1))

    monkeypatch.setattr(recorder, "_run", run)
    out = tmp_path / "bench.json"
    assert recorder.main(["--out", str(out), "--pairs", "7"]) == 0
    workload = BENCH["workloads"][0]["name"]
    traced = [(seed, side) for w, seed, side, trace in calls if w == workload and trace]
    assert traced == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
                      (3, "parent"), (3, "change"), (4, "change"), (4, "parent"),
                      (5, "parent"), (5, "change")]
    entry = json.loads(out.read_text())["workloads"][workload]
    assert set(entry["parent"]["traced"].values()) == {3.0}
    assert set(entry["change"]["traced"].values()) == {30.0}
    assert entry["parent"]["metrics"]["setup_s"]["median"] == 4.0
