#!/usr/bin/env python3
"""The softcoref benchmark: one workload, one process, one thread.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload short-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: spans around the benchmark's
own phase calls, then a replay of every layer on the run's inputs and
trained parameters, giving the per-layer metrics; the spans are written
to ``perfbench/.work/`` when the run ends.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with
its unit and list the environment, the exact work counts and the output
checks.  The package is imported from ``src/`` of the same checkout and
is never modified.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
# Every BLAS/OpenMP pool is pinned to one thread before numpy loads: the
# bit-identical rerun guarantee covers single-threaded training only.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# glibc moves malloc's mmap threshold as a process frees large blocks, so
# whether a large array costs fresh page faults depends on the process's
# history: over four processes the same predict call on the same
# 15-mention document took 0.56-0.94 ms, and in some a 14-mention
# document was slower than a 16-mention one.  Both thresholds are fixed
# before numpy loads, so that every run allocates alike; with them fixed,
# latency rose with document size in every process.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_SETTINGS = {M_MMAP_THRESHOLD: 64 << 20, M_TRIM_THRESHOLD: 256 << 20}
# setup_s times the import in fresh interpreters (measure.FRESH_IMPORTS).
IMPORT_CODE = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
               "import numpy, softcoref, softcoref.cli; print(time.perf_counter() - start)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("short-paper", "long-relaxed", "score-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fix_malloc() -> str:
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default (no glibc)"
    if all(libc.mallopt(param, value) == 1 for param, value in MALLOC_SETTINGS.items()):
        return "mmap threshold 64 MiB, trim threshold 256 MiB"
    return "default (mallopt refused)"


def import_package() -> None:
    """Import numpy, scipy and softcoref from this checkout."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import softcoref
    import softcoref.cli  # noqa: F401
    if Path(softcoref.__file__).resolve().parent != SRC / "softcoref":
        raise ImportError(f"softcoref imported from {softcoref.__file__}, not {SRC}")


def fresh_import_seconds() -> float:
    """Time the same import in a fresh interpreter; wait for it to end."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout)


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("softcoref/*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def recorded_dev_conll(key: str, value: float) -> str | None:
    """The dev CoNLL an earlier run of this code and seed recorded, if any;
    records this run's value when there is none."""
    path = WORKDIR / "dev_conll.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    if key not in records:
        records[key] = float(value).hex()
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    return records[key]


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    malloc = fix_malloc()
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import softcoref from {SRC}: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import measure
    import pipeline
    wl = pipeline.WORKLOADS[args.workload]
    workdir = WORKDIR / f"{wl.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    state = pipeline.State(wl, args.seed, workdir)
    state.generate()
    ops = pipeline.Ops()

    if args.trace:
        metrics, notes = measure.measure_traced(state, ops, args.seconds)
        wanted = spec["per_layer"]
    else:
        metrics, notes = measure.measure(state, ops, args.seconds, fresh_import_seconds)
        wanted = spec["end_to_end"]

    key = f"{wl.name}:{args.seed}:{code_hash()}"
    checks = pipeline.run_checks(state, recorded_dev_conll(key, state.dev_conll[-1]))
    correct = all(ok for _, ok, _ in checks) and ops.failed == 0

    declared = {m["name"]: m["unit"] for m in wanted}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("error: metric names or units differ from BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(measure.environment(
        {var: os.environ[var] for var in THREAD_VARS}, malloc)))
    for name, note in notes.items():
        print(f"samples {name}: {note}")
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"operations attempted {ops.attempted}, failed {ops.failed} "
          f"(failed_ratio {ops.failed / ops.attempted:.6f})")
    for error in ops.errors:
        print(f"failed: {error}")
    for name in declared:
        value, unit = metrics[name]
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
