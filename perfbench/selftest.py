#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny scale (about a minute):

    python3 perfbench/selftest.py

- every workload runs untraced and traced through run.py, prints every
  metric BENCHMARK.json declares with the declared unit, checks correct, and
  (traced) fires every wrapper with stage spans covering >= 95% of a query;
- the committed golden files match the program's outputs on the first
  queries of input set 0;
- a golden with one tampered token is caught as a failed query, and a
  wrapper that never fired is reported;
- in a directory holding only BENCHMARK.json and the benchmark's files, or
  those and the sources but no golden files, the benchmark exits non-zero
  without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, _import_program

SECONDS = "1"


def _run(cwd, workload: str, trace: int, tiny: bool = True):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", SECONDS, "--trace", str(trace)] + (["--tiny"] if tiny else []),
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_cli(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if sorted(metrics) != sorted(declared):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{name}: {got}")
    if trace and metrics.get("trace.stage_coverage", {}).get("value", 0) < 0.95:
        problems.append(f"stage spans cover only {metrics['trace.stage_coverage']}")
    return problems


def check_tampered_golden() -> list[str]:
    _import_program()
    import harness
    import workloads

    workload = workloads.tiny(workloads.WORKLOADS["prune_k40"])
    inputs = workloads.generate(workload, 0)
    work = HERE / "_work" / f"selftest-{os.getpid()}"
    try:
        expected = harness.reference_outputs(workload, inputs, work / "ref")
        good, _ = harness.run_workload(workload, inputs, 0.1, False, work / "a", expected)
        tampered = json.loads(json.dumps(expected))
        tampered["tokens"][1][-1] += 1
        bad, _ = harness.run_workload(workload, inputs, 3.0, False, work / "b", tampered)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = []
    if good.failed:
        problems.append(f"untampered golden: failed={good.failed} {good.errors[:2]}")
    if not bad.failed or all(r.matched for r in bad.queries):
        problems.append("tampered golden not caught")
    return problems


def check_committed_golden(name: str) -> list[str]:
    """The first queries of input set 0 at full scale still give the committed
    golden outputs, so the generator and the golden files agree."""
    _import_program()
    import golden
    import harness
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workloads.generate(workload, 0)
    committed = golden.load(golden.GOLDEN_DIR, name, 0, len(inputs.queries))
    head = dataclasses.replace(inputs, queries=inputs.queries[:2])
    got = harness.reference_outputs(workload, head,
                                    HERE / "_work" / f"selftest-{os.getpid()}")
    if got["tokens"] != committed["tokens"][:2] or got["mults"] != committed["mults"][:2]:
        return [f"golden/{name}/0.json does not match the program on this generator"]
    return []


def check_silent_wrapper() -> list[str]:
    _import_program()
    from tracer import Recorder

    recorder = Recorder()
    recorder.fired = {name: 1 for name in recorder.fired}
    recorder.fired["rope.reposition"] = 0
    try:
        recorder.check_fired()
    except RuntimeError as exc:
        return [] if "rope.reposition" in str(exc) else [f"wrong report: {exc}"]
    return ["a wrapper that never fired was not reported"]


def _check_exits_without_result(with_sources: bool) -> list[str]:
    """Copy BENCHMARK.json and the benchmark to a bare directory, either alone
    or with the program's sources but without golden files, and run a
    full-scale workload there: it must exit non-zero without printing anything."""
    bare = HERE / "_work" / f"bare-{os.getpid()}"
    skipped = ["_work", "__pycache__"] + (["golden"] if with_sources else [])
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(*skipped))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        if with_sources:
            shutil.copytree(ROOT / "src", bare / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "prune_k40", 0, tiny=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    _import_program()
    import workloads

    checks = [(f"{name} trace={t}", lambda name=name, t=t: check_cli(spec, name, t))
              for name in workloads.WORKLOADS for t in (0, 1)]
    checks += [(f"{name} committed golden matches", lambda name=name: check_committed_golden(name))
               for name in workloads.WORKLOADS]
    checks += [("tampered golden is caught", check_tampered_golden),
               ("a wrapper that never fires is reported", check_silent_wrapper),
               ("bare directory exits non-zero",
                lambda: _check_exits_without_result(with_sources=False)),
               ("a missing golden file exits non-zero",
                lambda: _check_exits_without_result(with_sources=True))]
    failed = 0
    for name, check in checks:
        problems = check()
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for problem in problems:
            print(f"     {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
