"""Committed reference outputs: greedy tokens and CostMeter counts per query.

One file per (workload, input set) under ``golden/<workload>/<set>.json``,
with one entry per query of the seeded stream. A run with ``--seed n`` uses
input set ``n % SETS``, so every run is checked against a committed file.
Regenerate them with ``python3 perfbench/make_golden.py`` only when a change
is meant to alter tokens or op counts.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SETS = 20


def path(directory: Path, workload: str, input_set: int) -> Path:
    return Path(directory) / workload / f"{input_set}.json"


def load(directory: Path, workload: str, input_set: int, stream_len: int) -> dict:
    """The reference for this stream; raises when it is missing or stale."""
    file = path(directory, workload, input_set)
    with open(file, encoding="utf-8") as fh:
        data = json.load(fh)
    if len(data["tokens"]) != stream_len or len(data["mults"]) != stream_len:
        raise ValueError(f"{file} covers {len(data['tokens'])} queries, the stream has "
                         f"{stream_len}; the generator changed, regenerate the golden")
    return data


def save(directory: Path, workload: str, input_set: int, expected: dict) -> Path:
    file = path(directory, workload, input_set)
    file.parent.mkdir(parents=True, exist_ok=True)
    payload = {"tokens": expected["tokens"], "mults": expected["mults"]}
    tmp = file.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    tmp.replace(file)
    return file
