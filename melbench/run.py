"""Run one melstream benchmark workload and print its metrics.

    python3 melbench/run.py --workload tag-44k --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout: melstream is imported from the
checkout's ``src`` directory, and inputs are written to a scratch
directory under ``.melbench_work`` that is removed when the run ends.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# One process, one BLAS thread: sized before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _fix_mmap_threshold() -> None:
    """Pin glibc's mmap threshold at 32 MiB, the ceiling it adapts up to.

    glibc raises the threshold after large frees, so whether a later big
    array lands on the heap (and stays resident) depends on allocation
    history; with it pinned, ``peak_rss_mb`` repeats run to run.
    """
    import ctypes
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 * 1024 * 1024)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass  # not glibc: the allocator keeps its own policy

ROOT = Path(__file__).resolve().parent.parent
UNITS = {"setup_s": "s", "throughput_xrt": "x", "latency_p50_ms": "ms",
         "latency_p95_ms": "ms", "peak_rss_mb": "MB"}


def _host() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"host nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _fix_mmap_threshold()

    if not (ROOT / "src" / "melstream").is_dir():
        print(f"melbench: no melstream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from melbench import workloads
    from melbench.trace import UNITS as LAYER_UNITS, Tracer, layer_metrics
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    tracer = Tracer() if args.trace else None
    api = workloads.Api(tracer)
    scratch = ROOT / ".melbench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if tracer:
            tracer.install()
        try:
            out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, str(work), api)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not tracer:
            with contextlib.suppress(OSError):  # kept while it holds spans or other runs
                scratch.rmdir()

    out.check(len(set(out.digests)) == 1, f"outputs differ between passes: {out.digests}")
    e2e = out.metrics()
    if tracer:
        tracer.write(str(scratch / f"spans-{args.workload}-seed{args.seed}.csv"))
        layers = layer_metrics(tracer, out)
        out.check(layers["trace.replay_mismatches"] == 0,
                  "op replay disagrees with forward on the same input")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    print(f"melbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={out.passes}")
    print(_host())
    print("counts " + json.dumps(out.counts, sort_keys=True))
    for note in out.notes:
        print("note " + note)
    print(f"digest {out.digests[0]}")
    for name, value in e2e.items():
        print(f"{'traced ' if tracer else ''}{name} {value:.6g} {UNITS[name]}")
    print(f"error_rate {out.failed / out.attempted:.6g} ({out.failed}/{out.attempted})")
    for problem in out.problems:
        print("FAILED " + problem)
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
