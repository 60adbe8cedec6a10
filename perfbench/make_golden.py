#!/usr/bin/env python3
"""Write the golden files the benchmark checks every run against.

    python3 perfbench/make_golden.py --sets 0-19 [--workload prune_k40 ...]

Each file holds, for every query of one input set's stream in stream order, the
greedy tokens and the [prefill_mults, decode_mults] CostMeter counts the
program produced. Regenerate only when a change is meant to alter them.
"""

from __future__ import annotations

import argparse
import os
import sys

from run import HERE, _import_program


def _sets(text: str) -> list[int]:
    sets: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        sets.extend(range(int(lo), int(hi or lo) + 1))
    return sets


def main(argv=None) -> int:
    _import_program()
    import golden
    import harness
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=_sets, required=True, help="e.g. 0-19 or 3,5,8")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        for input_set in args.sets:
            inputs = workloads.generate(workload, input_set)
            expected = harness.reference_outputs(
                workload, inputs, HERE / "_work" / f"golden-{os.getpid()}")
            file = golden.save(golden.GOLDEN_DIR, name, input_set, expected)
            print(f"wrote {file.relative_to(HERE.parent)} "
                  f"({len(expected['tokens'])} queries)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
