"""The four answer modes, defined once in `answer`, the benchmark harness
that runs them for every (mode, doc_count) cell, and answer scoring.

naive forwards prefix, passages and query as one sequence; no-cache encodes
the prefix and document caches at query time; cache loads them from the
store; prune loads, prunes and places them. Every mode runs the store's
model. The clock starts once the documents are chosen, so encoding and
loading count as pre-fill.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass

import numpy as np

from .cache_store import CacheStore, build_document_cache, build_prefix_cache, passage_tokens
from .focus import Pipeline, PruningSchedule, run_full_context
from .model import CostMeter
from .retrieval import InvertedIndex, search
from .rope import collect_position_overflows
from .tokenizer import ByteTokenizer

MODES = ("naive", "no-cache", "cache", "prune")


def answer(store: CacheStore, index: InvertedIndex, mode: str, texts,
           query_text: str, doc_ids: list[str], *, gen_tokens: int,
           schedule: PruningSchedule | None, strategy: str, query_reserve: int):
    """Answer `query_text` over the documents `doc_ids` in `mode`, with the
    store's model.

    texts maps doc_id -> (title, text); only naive and no-cache read it, and
    only prune uses the schedule and strategy. The store's manifest is read
    once, and only cache and prune load its prefix cache; the pipeline frees
    the loaded or encoded document entries during pre-fill. Returns (tokens,
    trace dict); the trace holds at least `context_length` (the tokens before
    pruning), `decode_context_length` (the tokens decode sees), `timings`,
    `op_counts` and `warnings` (the position-overflow and, in the cached
    modes, query-reserve messages the run issued).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if query_reserve < 0:
        raise ValueError(f"query_reserve must be >= 0, got {query_reserve}")
    t0 = time.perf_counter()
    model = store.model
    tokenizer = ByteTokenizer()
    manifest = store.read_manifest()
    prefix_tokens = manifest["prefix_tokens"]
    passage_len = manifest["passage_len"]
    meter = CostMeter()

    passages = []
    if mode in ("naive", "no-cache"):
        if texts is None:
            raise ValueError(f"mode {mode} needs the text of the documents (the corpus)")
        for doc_id in doc_ids:
            if doc_id not in texts:
                raise ValueError(f"retrieved document {doc_id!r} missing from corpus")
            passages.append(passage_tokens(tokenizer, *texts[doc_id], passage_len))

    if mode == "naive":
        prepared = time.perf_counter() - t0
        issued: list[str] = []
        with collect_position_overflows(issued):
            tokens, context_length, timings = run_full_context(
                model, prefix_tokens, passages, tokenizer.encode(query_text),
                gen_tokens=gen_tokens, meter=meter)
        trace = {"query": query_text, "retrieved_ids": list(doc_ids),
                 "context_length": context_length,
                 "decode_context_length": context_length, "timings": timings,
                 "op_counts": {"prefill_mults": meter.prefill_mults,
                               "decode_mults": meter.decode_mults},
                 "warnings": issued}
    else:
        if mode == "no-cache":
            prefix = build_prefix_cache(model, prefix_tokens, meter=meter)
            entries = [build_document_cache(model, prefix, doc_tokens, doc_id=doc_id,
                                            valid_len=valid, meter=meter)
                       for doc_id, (doc_tokens, valid) in zip(doc_ids, passages)]
        else:
            prefix = store.load_prefix(manifest=manifest)
            entries = [store.load_entry(doc_id, manifest=manifest) for doc_id in doc_ids]
        if mode != "prune":
            schedule, strategy = None, "none"
        prepared = time.perf_counter() - t0
        pipeline = Pipeline(model, store, index, query_reserve=query_reserve)
        # pre-fill empties `entries`, the only holder of the entries
        result = pipeline.run_with_entries(
            query_text, entries, prefix=prefix, schedule=schedule, strategy=strategy,
            gen_tokens=gen_tokens, meter=meter)
        tokens, trace = result.tokens, asdict(result.trace)

    timings = trace["timings"]
    timings["prefill_s"] += prepared
    timings["total_s"] += prepared
    return tokens, trace


# -- benchmark harness -----------------------------------------------------


@dataclass
class BenchRow:
    mode: str
    doc_count: int
    context_length: int
    prefill_s: float
    decode_s: float
    total_s: float
    prefill_mults: int
    decode_mults: int


@dataclass
class BenchReport:
    environment: dict
    rows: list[BenchRow]
    ratios: dict[str, list[dict]]


def select_documents(index, corpus_records, query_text: str, k: int) -> list[str]:
    """Top-k retrieval, padded deterministically from the remaining corpus.

    Benchmarks need exactly k documents even when few match the query, so
    unmatched ids (ascending) fill the tail.
    """
    ranked = [doc_id for doc_id, _ in search(index, query_text, k)]
    if len(ranked) < k:
        chosen = set(ranked)
        for doc_id in sorted(record[0] for record in corpus_records):
            if len(ranked) >= k:
                break
            if doc_id not in chosen:
                ranked.append(doc_id)
                chosen.add(doc_id)
    if len(ranked) < k:
        raise ValueError(f"corpus holds only {len(ranked)} documents, need {k}")
    return ranked


def run_bench(store, index, corpus_records, query_text, *, doc_counts,
              gen_tokens=100, modes=MODES, schedule=None, strategy="none",
              query_reserve=128) -> BenchReport:
    """Run every (mode, doc_count) cell sequentially and derive scaling ratios.

    Wall-clock is reported but the multiply-accumulate counters are the
    stable signal: they are exact functions of the configuration.
    """
    schedule = schedule or PruningSchedule()
    texts = {doc_id: (title, text) for doc_id, title, text in corpus_records}
    rows = []
    for mode in modes:
        for doc_count in doc_counts:
            ids = select_documents(index, corpus_records, query_text, doc_count)
            _, trace = answer(store, index, mode, texts, query_text, ids,
                              gen_tokens=gen_tokens, schedule=schedule, strategy=strategy,
                              query_reserve=query_reserve)
            rows.append(BenchRow(mode=mode.replace("-", "_"), doc_count=doc_count,
                                 context_length=trace["context_length"], **trace["timings"],
                                 **trace["op_counts"]))

    ratios: dict[str, list[dict]] = {}
    for mode in modes:
        mode_rows = [r for r in rows if r.mode == mode.replace("-", "_")]
        pairs = []
        for a, b in zip(mode_rows, mode_rows[1:]):
            pairs.append({
                "from_doc_count": a.doc_count,
                "to_doc_count": b.doc_count,
                "prefill_mult_ratio": _ratio(b.prefill_mults, a.prefill_mults),
                "decode_mult_ratio": _ratio(b.decode_mults, a.decode_mults),
                "total_mult_ratio": _ratio(b.prefill_mults + b.decode_mults,
                                           a.prefill_mults + a.decode_mults),
            })
        ratios[mode.replace("-", "_")] = pairs

    model = store.model
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "gen_tokens": gen_tokens,
        "model": {
            "num_layers": model.config.num_layers,
            "num_heads": model.config.num_heads,
            "head_dim": model.config.head_dim,
            "max_position": model.config.rope.max_position,
            "fingerprint": model.fingerprint,
        },
        "passage_len": store.passage_len,
    }
    return BenchReport(environment=environment, rows=rows, ratios=ratios)


def _ratio(new: int, base: int) -> float | None:
    """new / base, or None when base is 0 (no decode mults with one token)."""
    return new / base if base else None


_CSV_COLUMNS = ("mode", "doc_count", "context_length", "prefill_s", "decode_s",
                "total_s", "prefill_mults", "decode_mults")


def report_to_csv(report: BenchReport) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for row in report.rows:
        values = [getattr(row, column) for column in _CSV_COLUMNS]
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in values))
    return "\n".join(lines) + "\n"


def report_to_json(report: BenchReport) -> str:
    payload = {
        "environment": report.environment,
        "rows": [asdict(row) for row in report.rows],
        "ratios": report.ratios,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- scoring ---------------------------------------------------------------


def score_answer(model_output: str, gold_answers) -> bool:
    """Containment accuracy: does any gold answer appear in the output?

    Case-insensitive and whitespace-normalized; plain substring containment,
    no token-boundary fuzzing. A gold answer that is blank after normalizing
    would be contained in every output, so it is refused (ValueError).
    """
    gold = [_normalize(answer) for answer in gold_answers]
    if not gold:
        raise ValueError("gold_answers must be non-empty")
    if not all(gold):
        raise ValueError("a gold answer is blank")
    haystack = _normalize(model_output)
    return any(answer in haystack for answer in gold)


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())
