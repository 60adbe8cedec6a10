#!/usr/bin/env python3
"""kvfocus benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload prune_k40 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` the
public functions each layer exposes are wrapped in spans and the run reports
per-layer metrics instead. Human-readable lines (environment, every metric
with its unit, failures) come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

``--seed n`` selects input set ``n % 20``, whose golden outputs are committed
under ``golden/``; ``--tiny`` uses input set n at self-test scale and checks
the run against a reference pass over the same stream.

Exits 0 after a complete run (the JSON line says whether outputs were
correct), and non-zero without a result when the sources or the golden file
are missing or an argument is invalid.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is one client in one process on a small shared
# machine, and a second BLAS thread mostly adds contention noise at these
# matrix sizes. Must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    """Put the checkout's src/ first on the path and import kvfocus from it."""
    if not (SRC / "kvfocus" / "__init__.py").is_file():
        raise SystemExit(f"error: no kvfocus sources at {SRC}/kvfocus; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import kvfocus

    if Path(kvfocus.__file__).resolve().parent != (SRC / "kvfocus").resolve():
        raise SystemExit(f"error: imported kvfocus from {kvfocus.__file__}, not from {SRC}")
    return kvfocus


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: a 48-document corpus and a few queries")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    _import_program()
    import environment
    import golden
    import harness
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    input_set = args.seed if args.tiny else args.seed % golden.SETS
    inputs = workloads.generate(workload, input_set)
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.tiny:
            expected = harness.reference_outputs(workload, inputs, work / "reference")
        else:
            try:
                expected = golden.load(golden.GOLDEN_DIR, workload.name, input_set,
                                       len(inputs.queries))
            except (OSError, ValueError) as exc:
                raise SystemExit(f"error: no usable golden for input set {input_set}: {exc}")
        log, recorder = harness.run_workload(workload, inputs, args.seconds,
                                             bool(args.trace), work / "run", expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if recorder is None:
        metrics = harness.end_to_end(workload, log)
    else:
        metrics = harness.per_layer(workload, log, recorder)

    env = environment.describe(ROOT, workload, inputs, log, args.seed, input_set)
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# queries {len(log.queries)} (attempted {log.queries_attempted}, "
          f"{log.stream_passes:.2f} passes over the stream), ingests {len(log.ingest_s)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    print(f"{'error_rate':34s} {log.failed / log.attempted:14.4f} share")
    if recorder is not None:
        for line in harness.span_table(recorder):
            print("# " + line)
    for message in log.errors:
        print(f"# FAILED {message}")

    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
