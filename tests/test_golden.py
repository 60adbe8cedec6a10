"""The benchmark's committed goldens at tier 1: the first query of input set
0 of each workload still gives the greedy tokens and op counts committed
under perfbench/golden/, so a token or op-count drift fails here and not
only in perfbench/selftest.py."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# harness imports tracer and workloads by their bare names
MODULES = ("tracer", "workloads", "golden", "harness")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's modules, loaded read-only from their files: sys.path is
    not changed, no bytecode is written beside them, and the bare names are
    only in sys.modules while the modules load."""
    assert not set(MODULES) & set(sys.modules)
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    loaded = {}
    try:
        for name in MODULES:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            loaded[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(loaded[name])
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        for name in MODULES:
            sys.modules.pop(name, None)
    return loaded


@pytest.mark.parametrize("name", ["prune_k40", "cache_k40_decode"])
def test_first_query_reproduces_the_committed_golden(perfbench, tmp_path, name):
    workloads, golden, harness = (perfbench[m] for m in ("workloads", "golden", "harness"))
    workload = workloads.WORKLOADS[name]
    inputs = workloads.generate(workload, 0)
    committed = golden.load(golden.GOLDEN_DIR, name, 0, len(inputs.queries))
    first = dataclasses.replace(inputs, queries=inputs.queries[:1])
    got = harness.reference_outputs(workload, first, tmp_path / "work")
    assert got == {"tokens": committed["tokens"][:1], "mults": committed["mults"][:1]}
    assert not set(MODULES) & set(sys.modules)
    assert all(Path(p or ".").resolve() != PERFBENCH for p in sys.path)
