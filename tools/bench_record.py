"""Record melbench results for a parent revision and a change, in alternated pairs.

    python3 tools/bench_record.py --out BENCH_<n>.json [--parent HEAD~] [--change HEAD]
        [--pairs 10]

Each revision's committed files are exported with ``git archive`` into a
temporary directory, so both sides run as clean checkouts and uncommitted
edits take no part. For every workload in ``BENCHMARK.json`` and seeds 1 to
``--pairs``, ``melbench/run.py --trace 0`` runs once in each tree; the side
that runs first alternates from pair to pair. One ``--trace 1`` run per side
and workload, at seed 1, follows. Every run lasts the benchmark's
``run_seconds``.

The output JSON holds the host line, and for each workload and side the
median and quartiles of every end-to-end metric, the digest of each run,
the failed and attempted counts and the per-layer metrics of the traced
run; plus whether the two sides' digests are equal seed for seed and, per
metric, how many pairs the change won (ties count for neither). The
temporary trees are removed when the script ends.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _export(rev: str, into: Path) -> str:
    """Write ``rev``'s committed files under ``into``; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    into.mkdir(parents=True)
    archive = into.parent / f"{into.name}.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), sha], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return sha


def _run(tree: Path, command: list[str], workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    """One melbench run in ``tree``: its result JSON plus the host and digest lines."""
    # The benchmark's command is a Python interpreter and a script; this interpreter runs it.
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["host"] = next((ln for ln in lines if ln.startswith("host ")), "")
    result["digest"] = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), "")
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _side(results: list[dict], traced: dict) -> dict:
    names = results[0]["metrics"]
    return {
        "metrics": {name: {"unit": results[0]["metrics"][name]["unit"],
                           **_summary([r["metrics"][name]["value"] for r in results])}
                    for name in names},
        "digests": [r["digest"] for r in results],
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "traced": {name: m["value"] for name, m in traced["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", default="HEAD~")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = list(range(1, args.pairs + 1))

    scratch = Path(tempfile.mkdtemp(prefix="bench_record-"))
    try:
        sides = ("parent", "change")
        trees = {side: scratch / side for side in sides}
        revs = {side: _export(getattr(args, side), trees[side]) for side in sides}
        record = {"command": bench["command"], "seconds": seconds, "seeds": seeds,
                  "revisions": revs, "workloads": {}}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {side: [] for side in sides}
            for i, seed in enumerate(seeds):
                for side in (sides if i % 2 == 0 else sides[::-1]):
                    result = _run(trees[side], bench["command"], workload, seed, seconds, 0)
                    runs[side].append(result)
                    record.setdefault("host", result["host"])
                    print(f"{workload} seed {seed} {side}: " + " ".join(
                        f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                        file=sys.stderr, flush=True)
            entry = {side: _side(runs[side], _run(trees[side], bench["command"], workload,
                                                  seeds[0], seconds, 1))
                     for side in sides}
            entry["digests_equal"] = entry["parent"]["digests"] == entry["change"]["digests"]
            # A pair is won when the change reads better than the parent at the same seed.
            entry["change_wins"] = {
                name: sum((c > p) if better[name] == "higher" else (c < p)
                          for p, c in zip(entry["parent"]["metrics"][name]["runs"],
                                          entry["change"]["metrics"][name]["runs"]))
                for name in entry["parent"]["metrics"]}
            record["workloads"][workload] = entry
            args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
