"""Command-line surface: indexing, cache building, querying, benchmarking.

Exit codes: 0 success, 1 user error (bad input, stale store, missing files),
2 internal error. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from .cache_store import (
    CacheFormatError,
    CacheStore,
    MissingEntryError,
    StaleCacheError,
    build_document_cache,
    build_prefix_cache,
    passage_tokens,
)
from .corpus import CorpusError, read_corpus
from .focus import (
    ConfigurationError,
    Pipeline,
    PruningSchedule,
    run_full_context,
)
from .model import CapacityError, CostMeter, Model, WeightFormatError, make_config
from .retrieval import IndexFormatError, index_corpus, load_index, save_index, search
from .tokenizer import ByteTokenizer

MODES = ("naive", "no-cache", "cache", "prune")

USER_ERRORS = (
    ValueError,
    KeyError,
    FileNotFoundError,
    NotADirectoryError,
    CorpusError,
    StaleCacheError,
    MissingEntryError,
    CacheFormatError,
    IndexFormatError,
    WeightFormatError,
    ConfigurationError,
    CapacityError,
)


def score_answer(model_output: str, gold_answers) -> bool:
    """Containment accuracy: does any gold answer appear in the output?

    Case-insensitive and whitespace-normalized; plain substring containment,
    no token-boundary fuzzing.
    """
    gold = list(gold_answers)
    if not gold:
        raise ValueError("gold_answers must be non-empty")
    haystack = _normalize(model_output)
    return any(_normalize(answer) in haystack for answer in gold)


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


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

    def row(self, mode: str, doc_count: int) -> BenchRow:
        for row in self.rows:
            if row.mode == mode and row.doc_count == doc_count:
                return row
        raise KeyError(f"no bench row for mode={mode!r} doc_count={doc_count}")


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


def _run_naive(model, store, texts, doc_ids, query_text, *, gen_tokens, meter):
    """Answer with no cache: forward the prefix, each document's passage and
    the query as one sequence. texts maps doc_id -> (title, text)."""
    tokenizer = ByteTokenizer()
    passage_len = store.passage_len
    passages = []
    for doc_id in doc_ids:
        if doc_id not in texts:
            raise ValueError(f"retrieved document {doc_id!r} missing from corpus")
        passages.append(passage_tokens(tokenizer, *texts[doc_id], passage_len))
    return run_full_context(model, store.load_prefix().tokens, passages,
                            tokenizer.encode(query_text), gen_tokens=gen_tokens, meter=meter)


def _bench_one(mode, model, store, index, corpus_records, query_text, doc_count, *,
               gen_tokens, schedule, strategy, query_reserve):
    tokenizer = ByteTokenizer()
    ids = select_documents(index, corpus_records, query_text, doc_count)
    texts = {doc_id: (title, text) for doc_id, title, text in corpus_records}
    meter = CostMeter()
    passage_len = store.passage_len

    if mode == "naive":
        _, context_length, timings = _run_naive(model, store, texts, ids, query_text,
                                                gen_tokens=gen_tokens, meter=meter)
    else:
        pipeline = Pipeline(model, store, index, query_reserve=query_reserve)
        if mode == "no-cache":
            prefix = build_prefix_cache(model, store.load_prefix().tokens, meter=meter)
            entries = []
            for doc_id in ids:
                tokens, valid = passage_tokens(tokenizer, *texts[doc_id], passage_len)
                entries.append(build_document_cache(model, prefix, tokens, doc_id=doc_id,
                                                    valid_len=valid, meter=meter))
            run_schedule, run_strategy = None, "none"
        else:
            prefix = None
            entries = [store.load_entry(doc_id) for doc_id in ids]
            if mode == "cache":
                run_schedule, run_strategy = None, "none"
            else:  # prune
                run_schedule, run_strategy = schedule, strategy
        result = pipeline.run_with_entries(
            query_text, entries, retrieved_ids=ids, schedule=run_schedule,
            strategy=run_strategy, gen_tokens=gen_tokens, meter=meter, prefix=prefix)
        timings = result.trace.timings
        context_length = store.load_prefix().token_count + doc_count * passage_len \
            + len(tokenizer.encode(query_text))

    return BenchRow(
        mode=mode.replace("-", "_"),
        doc_count=doc_count,
        context_length=context_length,
        prefill_s=timings["prefill_s"],
        decode_s=timings["decode_s"],
        total_s=timings["total_s"],
        prefill_mults=meter.prefill_mults,
        decode_mults=meter.decode_mults,
    )


def run_bench(model, store, index, corpus_records, query_text, *, doc_counts,
              gen_tokens=100, modes=MODES, schedule=None, strategy="none",
              query_reserve=128, seed=None) -> BenchReport:
    """Run every (mode, doc_count) cell sequentially and derive scaling ratios.

    Wall-clock is reported but the multiply-accumulate counters are the
    stable signal: they are exact functions of the configuration.
    """
    schedule = schedule or PruningSchedule()
    rows = []
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown bench mode {mode!r}")
        for doc_count in doc_counts:
            rows.append(_bench_one(
                mode, model, store, index, corpus_records, query_text, doc_count,
                gen_tokens=gen_tokens, schedule=schedule, strategy=strategy,
                query_reserve=query_reserve))

    ratios: dict[str, list[dict]] = {}
    for mode in modes:
        mode_rows = [r for r in rows if r.mode == mode.replace("-", "_")]
        pairs = []
        for a, b in zip(mode_rows, mode_rows[1:]):
            pairs.append({
                "from_doc_count": a.doc_count,
                "to_doc_count": b.doc_count,
                "prefill_mult_ratio": b.prefill_mults / a.prefill_mults,
                "decode_mult_ratio": b.decode_mults / a.decode_mults,
                "total_mult_ratio": (b.prefill_mults + b.decode_mults)
                / (a.prefill_mults + a.decode_mults),
            })
        ratios[mode.replace("-", "_")] = pairs

    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
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


# -- commands ----------------------------------------------------------------


def _model_from_args(args) -> Model:
    if getattr(args, "weights", None):
        return Model.from_file(args.weights)
    config = make_config(
        num_layers=args.num_layers,
        num_heads=args.num_heads,
        head_dim=args.head_dim,
        max_position=args.max_position,
        rope_base=args.rope_base,
    )
    return Model.from_seed(config, args.seed)


def _schedule_from_args(args) -> PruningSchedule:
    return PruningSchedule(interval=args.n, k_finish=args.k_finish)


def cmd_index(args) -> int:
    records = list(read_corpus(args.corpus))
    index = index_corpus(records)
    save_index(index, args.index)
    print(f"indexed {index.doc_count} documents -> {args.index}")
    return 0


def cmd_build_cache(args) -> int:
    model = _model_from_args(args)
    tokenizer = ByteTokenizer()
    prefix_tokens = tokenizer.encode(args.prefix, add_bos=True)
    store = CacheStore(args.store, model)
    stats = store.build(prefix_tokens, read_corpus(args.corpus),
                        passage_len=args.passage_len, force=args.force)
    print(f"built {stats['documents']} cache entries ({stats['bytes']} bytes) -> {args.store}")
    return 0


def cmd_run(args) -> int:
    model = _model_from_args(args)
    store = CacheStore(args.store, model)
    index = load_index(args.index)
    tokenizer = ByteTokenizer()

    if args.mode == "naive":
        if not args.corpus:
            raise ValueError("--mode naive requires --corpus for the document text")
        texts = {doc_id: (title, text) for doc_id, title, text in read_corpus(args.corpus)}
        ranked = [doc_id for doc_id, _ in search(index, args.query, args.k)] if args.k else []
        meter = CostMeter()
        tokens, context_length, timings = _run_naive(model, store, texts, ranked, args.query,
                                                     gen_tokens=args.gen_tokens, meter=meter)
        payload = {
            "answer": tokenizer.decode(tokens),
            "mode": "naive",
            "trace": {
                "query": args.query,
                "retrieved_ids": ranked,
                "context_length": context_length,
                "timings": timings,
                "op_counts": {"prefill_mults": meter.prefill_mults,
                              "decode_mults": meter.decode_mults},
            },
        }
    else:
        schedule = _schedule_from_args(args) if args.mode == "prune" else None
        strategy = args.strategy if args.mode == "prune" else "none"
        pipeline = Pipeline(model, store, index, query_reserve=args.query_reserve)
        result = pipeline.run(args.query, args.k, schedule=schedule, strategy=strategy,
                              gen_tokens=args.gen_tokens)
        payload = {"answer": result.text, "mode": args.mode, "trace": result.trace.to_dict()}

    text = json.dumps(payload, indent=2)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_bench(args) -> int:
    model = _model_from_args(args)
    store = CacheStore(args.store, model)
    index = load_index(args.index)
    records = list(read_corpus(args.corpus))
    doc_counts = [int(x) for x in args.doc_counts.split(",") if x]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    report = run_bench(
        model, store, index, records, args.query,
        doc_counts=doc_counts, gen_tokens=args.gen_tokens, modes=modes,
        schedule=_schedule_from_args(args), strategy=args.strategy,
        query_reserve=args.query_reserve, seed=args.seed)
    csv_text = report_to_csv(report)
    json_text = report_to_json(report)
    if args.csv_path:
        with open(args.csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(json_text)
    print(json_text if args.out == "json" else csv_text, end="")
    return 0


def cmd_score(args) -> int:
    print("true" if score_answer(args.output, args.answer) else "false")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvfocus",
        description="KV-cache focused retrieval-augmented inference and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--seed", type=int, default=0, help="weight seed (default 0)")
    model_flags.add_argument("--weights", default=None, help="load weights from a file instead")
    model_flags.add_argument("--num-layers", type=int, default=8)
    model_flags.add_argument("--num-heads", type=int, default=4)
    model_flags.add_argument("--head-dim", type=int, default=32)
    model_flags.add_argument("--max-position", type=int, default=512)
    model_flags.add_argument("--rope-base", type=float, default=10000.0)
    model_flags.add_argument("--query-reserve", type=int, default=128,
                             help="positions kept free for the query and generation")

    p = sub.add_parser("index", help="build the BM25 index from a JSON-lines corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("build-cache", parents=[model_flags],
                       help="build the prefix cache and one entry per document")
    p.add_argument("--corpus", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--prefix", required=True, help="shared prefix text")
    p.add_argument("--passage-len", type=int, default=64)
    p.add_argument("--force", action="store_true",
                   help="rebuild even over a store for another model/prefix")
    p.set_defaults(func=cmd_build_cache)

    p = sub.add_parser("run", parents=[model_flags], help="answer one query")
    p.add_argument("--store", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", default=None, help="needed for --mode naive")
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=5, help="documents to retrieve")
    p.add_argument("--mode", choices=MODES, default="prune")
    p.add_argument("--strategy", choices=("none", "align", "sort"), default="none")
    p.add_argument("--n", type=int, default=4, help="prune every n-th layer")
    p.add_argument("--k-finish", type=int, default=5, help="caches kept after pre-fill")
    p.add_argument("--gen-tokens", type=int, default=20)
    p.add_argument("--trace", default=None, help="also write the JSON output here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", parents=[model_flags],
                       help="latency/op-count benchmark across modes and doc counts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--doc-counts", default="10,20,40")
    p.add_argument("--modes", default=",".join(MODES))
    p.add_argument("--gen-tokens", type=int, default=100)
    p.add_argument("--strategy", choices=("none", "align", "sort"), default="none")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k-finish", type=int, default=5)
    p.add_argument("--out", choices=("csv", "json"), default="json",
                   help="format printed to stdout")
    p.add_argument("--csv-path", default=None)
    p.add_argument("--json-path", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("score", help="answer-containment check")
    p.add_argument("--output", required=True, help="model output text")
    p.add_argument("--answer", action="append", required=True,
                   help="gold answer (repeatable)")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
