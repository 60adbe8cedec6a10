"""Command-line surface: argument parsing and one function per subcommand.

The answer modes, the benchmark harness and answer scoring live in
`kvfocus.bench`. The model flags belong to build-cache, which writes the
model into the store; run and bench answer with the store's model.

Exit codes: 0 success (and --help), 1 user error (bad arguments, bad input,
stale store, missing files), 2 internal error. All randomness flows from
build-cache --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from .bench import MODES, answer, report_to_csv, report_to_json, run_bench, score_answer
from .cache_store import CacheFormatError, CacheStore, MissingEntryError, StaleCacheError
from .corpus import CorpusError, read_corpus
from .focus import STRATEGIES, ConfigurationError, Pipeline, PruningSchedule, prepend_stages
from .model import CapacityError, Model, WeightFormatError, make_config
from .retrieval import IndexFormatError, index_corpus, load_index, save_index, search
from .tokenizer import ByteTokenizer

USER_ERRORS = (
    ValueError,
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
    CorpusError,
    StaleCacheError,
    MissingEntryError,
    CacheFormatError,
    IndexFormatError,
    WeightFormatError,
    ConfigurationError,
    CapacityError,
)


# -- commands ----------------------------------------------------------------


def _schedule_from_args(args) -> PruningSchedule:
    return PruningSchedule(interval=args.n, k_finish=args.k_finish)


def cmd_index(args) -> int:
    records = list(read_corpus(args.corpus))
    index = index_corpus(records)
    save_index(index, args.index)
    print(f"indexed {index.doc_count} documents -> {args.index}")
    return 0


def cmd_build_cache(args) -> int:
    if args.weights:
        model = Model.from_file(args.weights)
    else:
        model = Model.from_seed(make_config(
            num_layers=args.num_layers, num_heads=args.num_heads, head_dim=args.head_dim,
            max_position=args.max_position, rope_base=args.rope_base), args.seed)
    tokenizer = ByteTokenizer()
    prefix_tokens = tokenizer.encode(args.prefix, add_bos=True)
    store = CacheStore(args.store, model)
    stats = store.build(prefix_tokens, read_corpus(args.corpus),
                        passage_len=args.passage_len, force=args.force)
    print(f"built {stats['documents']} cache entries ({stats['bytes']} bytes) -> {args.store}")
    return 0


def cmd_run(args) -> int:
    store = CacheStore.open(args.store)
    index = load_index(args.index)
    pipeline = Pipeline(store.model, store, index, query_reserve=args.query_reserve)
    texts = ({doc_id: (title, text) for doc_id, title, text in read_corpus(args.corpus)}
             if args.corpus else None)
    if args.k < 0:
        raise ValueError(f"--k must be >= 0, got {args.k}")
    t0 = time.perf_counter()
    doc_ids = [doc_id for doc_id, _ in search(index, args.query, args.k)] if args.k > 0 else []
    t1 = time.perf_counter()
    tokens, trace = answer(pipeline, args.mode, texts, args.query, doc_ids,
                           gen_tokens=args.gen_tokens, schedule=_schedule_from_args(args),
                           strategy=args.strategy)
    trace["timings"] = prepend_stages({"retrieve_s": t1 - t0}, trace["timings"])
    payload = {"answer": pipeline.tokenizer.decode(tokens), "mode": args.mode, "trace": trace}
    text = json.dumps(payload, indent=2)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_bench(args) -> int:
    store = CacheStore.open(args.store)
    index = load_index(args.index)
    pipeline = Pipeline(store.model, store, index, query_reserve=args.query_reserve)
    records = list(read_corpus(args.corpus))
    try:
        doc_counts = [int(x) for x in args.doc_counts.split(",") if x]
    except ValueError:
        raise ValueError(f"--doc-counts must be comma-separated integers, "
                         f"got {args.doc_counts!r}") from None
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    report = run_bench(
        pipeline, records, args.query,
        doc_counts=doc_counts, gen_tokens=args.gen_tokens, modes=modes,
        schedule=_schedule_from_args(args), strategy=args.strategy)
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

    query_flags = argparse.ArgumentParser(add_help=False)
    query_flags.add_argument("--store", required=True)
    query_flags.add_argument("--index", required=True)
    query_flags.add_argument("--query", required=True)
    query_flags.add_argument("--strategy", choices=STRATEGIES, default="none")
    query_flags.add_argument("--n", type=int, default=4, help="prune every n-th layer")
    query_flags.add_argument("--k-finish", type=int, default=5, help="caches kept after pre-fill")
    query_flags.add_argument("--query-reserve", type=int, default=128,
                             help="positions kept free for the query and generation")

    p = sub.add_parser("index", help="build the BM25 index from a JSON-lines corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("build-cache",
                       help="build the prefix cache, one entry per document and the model file")
    p.add_argument("--seed", type=int, default=0, help="weight seed (default 0)")
    p.add_argument("--weights", default=None, help="load weights from a file instead")
    p.add_argument("--num-layers", type=int, default=8)
    p.add_argument("--num-heads", type=int, default=4)
    p.add_argument("--head-dim", type=int, default=32)
    p.add_argument("--max-position", type=int, default=512)
    p.add_argument("--rope-base", type=float, default=10000.0)
    p.add_argument("--corpus", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--prefix", required=True, help="shared prefix text")
    p.add_argument("--passage-len", type=int, default=64)
    p.add_argument("--force", action="store_true",
                   help="rebuild even over a store for another model/prefix")
    p.set_defaults(func=cmd_build_cache)

    p = sub.add_parser("run", parents=[query_flags], help="answer one query")
    p.add_argument("--corpus", default=None, help="document text, needed by the modes that encode documents")
    p.add_argument("--k", type=int, default=5, help="documents to retrieve (0 or more)")
    p.add_argument("--mode", choices=MODES, default="prune")
    p.add_argument("--gen-tokens", type=int, default=20)
    p.add_argument("--trace", default=None, help="also write the JSON output here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", parents=[query_flags],
                       help="latency/op-count benchmark across modes and doc counts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--doc-counts", default="10,20,40")
    p.add_argument("--modes", default=",".join(MODES))
    p.add_argument("--gen-tokens", type=int, default=100)
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return 1  # argparse has printed the usage and the error
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        # a KeyError's str() quotes its message
        message = exc.args[0] if isinstance(exc, MissingEntryError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
