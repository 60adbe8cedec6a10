"""The environment block printed with every run."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded, if any."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                return config().decode("ascii", "replace"), int(threads())
    return "unknown", None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def describe(root: Path, workload, inputs, log, seed: int, input_set: int) -> dict:
    blas, blas_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "openblas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(root),
        "model_fingerprint": log.fingerprint,
        "seed": seed,
        "input_set": input_set,
        "model_seed": inputs.model_seed,
        "corpus_docs": len(inputs.corpus),
        "ingest_docs": len(inputs.ingest_docs),
        "stream_queries": len(inputs.queries),
        "store_bytes": log.store_bytes,
        "k": workload.k,
        "gen_tokens": workload.gen_tokens,
    }
