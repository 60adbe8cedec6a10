"""One benchmark run: set up a store, drive the query stream and ingests, check them.

A single client drives the public API in a closed loop: the next operation
starts only when the previous one has returned. All wall-clock times come
from this module's own timers around public calls.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from kvfocus import ByteTokenizer, CacheStore, CostMeter, Model, Pipeline, PruningSchedule
from kvfocus import cache_store as kv_cache_store
from kvfocus import retrieval as kv_retrieval
from kvfocus.cache_store import passage_tokens
from kvfocus.model import make_config

from tracer import Recorder
from workloads import (PASSAGE_LEN, PREFIX, PRUNE_INTERVAL, PRUNE_K_FINISH, QUERY_RESERVE,
                       Inputs, Workload)

SETUP_REPEATS = 3
# Ingests run in this many bursts spread through the query loop, so their
# latency samples the same host speed phases as the queries do: one ~1.5 s
# phase after the queries gave a 10-seed spread of 0.3-0.4 on ingest_p50_ms.
# ingest_p90_ms is the median over bursts of each burst's p90, so a host
# phase that slows a few bursts moves it no more than it moves a median.
INGEST_BURSTS = 16
TRACE_STAGES = {
    "retrieval.search": "retrieve",
    "cache_store.load_prefix": "load",
    "cache_store.load_entry": "load",
    "focus.n_reuse": "plan",
    "focus.plan_positions": "plan",
    "focus.plan_validate": "plan",
    "focus.prefill": "prefill",
    "focus.final_alloc": "final_alloc",
    "model.decode": "decode",
}


@dataclass
class QueryRecord:
    op: int
    full_s: float
    ttft_s: float | None
    mults: list[int]
    matched: bool


@dataclass
class RunLog:
    setup_s: list[float] = field(default_factory=list)
    queries: list[QueryRecord] = field(default_factory=list)
    queries_attempted: int = 0
    untraced_full_s: list[float] = field(default_factory=list)
    ingest_s: list[float] = field(default_factory=list)
    ingest_burst: list[int] = field(default_factory=list)  # burst of each ingest_s sample
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    store_bytes: int = 0
    fingerprint: str = ""
    stream_passes: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _file_sizes(store: CacheStore) -> dict:
    """Current on-disk size of every file a query reads, keyed as the tracer
    looks them up: doc id, "prefix" and "manifest"."""
    with open(store.manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sizes = {doc_id: (store.root / "docs" / info["file"]).stat().st_size
             for doc_id, info in manifest["docs"].items()}
    sizes["prefix"] = (store.root / "prefix.cfkv").stat().st_size
    sizes["manifest"] = store.manifest_path.stat().st_size
    return sizes


def setup(inputs: Inputs, work: Path, repeats: int, log: RunLog):
    """Model.from_seed + index_corpus + CacheStore.build on a fresh store,
    `repeats` times; each timing goes to the log and the last store is kept."""
    prefix_tokens = ByteTokenizer().encode(PREFIX)
    for attempt in range(repeats):
        root = work / f"store{attempt}"
        if attempt:
            shutil.rmtree(work / f"store{attempt - 1}")
        t0 = time.perf_counter()
        model = Model.from_seed(make_config(), inputs.model_seed)
        index = kv_retrieval.index_corpus(inputs.corpus)
        store = CacheStore(root, model)
        store.build(prefix_tokens, inputs.corpus, passage_len=PASSAGE_LEN)
        log.setup_s.append(time.perf_counter() - t0)
    log.store_bytes = _store_bytes(root)
    log.fingerprint = model.fingerprint
    return model, index, store


class Client:
    """The closed-loop client: runs one workload's operations against a built store."""

    def __init__(self, workload: Workload, inputs: Inputs, model, index, store,
                 expected: dict, log: RunLog, recorder: Recorder | None):
        self.w = workload
        self.inputs = inputs
        self.model = model
        self.store = store
        self.pipeline = Pipeline(model, store, index, query_reserve=QUERY_RESERVE)
        self.corpus = list(inputs.corpus)
        self.prefix = store.load_prefix()
        self.schedule = (PruningSchedule(interval=PRUNE_INTERVAL, k_finish=PRUNE_K_FINISH)
                         if workload.prune else None)
        self.expected = expected
        self.log = log
        self.recorder = recorder
        self.sizes = _file_sizes(store) if recorder is not None else {}

    # -- operations ---------------------------------------------------------

    def _run(self, text: str, gen_tokens: int):
        meter = CostMeter()
        t0 = time.perf_counter()
        result = self.pipeline.run(text, self.w.k, schedule=self.schedule,
                                   strategy=self.w.strategy, gen_tokens=gen_tokens,
                                   meter=meter)
        return time.perf_counter() - t0, result, meter

    def query(self, op_index: int, stream_index: int) -> None:
        text = self.inputs.queries[stream_index]
        self.log.attempted += 1
        self.log.queries_attempted += 1
        # Each query runs twice: the TTFT probe and the full run, or the
        # untraced and the traced run. Which goes first alternates, so neither
        # side always runs warm from the other.
        try:
            if op_index % 2 == 0:
                probe_s, probe, probe_meter = self._probe(text)
                full_s, result, meter = self._full(op_index, stream_index, text)
            else:
                full_s, result, meter = self._full(op_index, stream_index, text)
                probe_s, probe, probe_meter = self._probe(text)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.log.fail(f"query {stream_index}: {type(exc).__name__}: {exc}")
            return

        tokens = list(result.tokens)
        mults = [meter.prefill_mults, meter.decode_mults]
        problems = []
        if len(tokens) != self.w.gen_tokens:
            problems.append(f"{len(tokens)} tokens, expected {self.w.gen_tokens}")
        if probe.tokens[0] != tokens[0] or probe_meter.prefill_mults != meter.prefill_mults:
            problems.append("the probe run disagrees with the full run")
        if self.recorder is not None and list(probe.tokens) != tokens:
            problems.append("the traced and untraced runs disagree")
        matched = (tokens == self.expected["tokens"][stream_index]
                   and mults == self.expected["mults"][stream_index])
        if not matched:
            problems.append("tokens or op counts differ from the golden")
        if problems:
            self.log.fail(f"query {stream_index}: " + "; ".join(problems))
        if self.recorder is None:
            self.log.queries.append(QueryRecord(op_index, full_s, probe_s, mults, matched))
        else:
            self.log.queries.append(QueryRecord(op_index, full_s, None, mults, matched))
            self.log.untraced_full_s.append(probe_s)

    def _full(self, op_index: int, stream_index: int, text: str):
        """The measured run: traced in a traced run, untraced otherwise."""
        if self.recorder is None:
            return self._run(text, self.w.gen_tokens)
        with self.recorder.patched(), self.recorder.span(
                "query", op=op_index, stream=stream_index, sizes=self.sizes):
            return self._run(text, self.w.gen_tokens)

    def _probe(self, text: str):
        """The TTFT probe (gen_tokens=1); in a traced run, the untraced twin."""
        return self._run(text, 1 if self.recorder is None else self.w.gen_tokens)

    def ingest(self, op_index: int, burst: int, doc: tuple[str, str, str]) -> None:
        doc_id, title, text = doc
        self.log.attempted += 1
        try:
            if self.recorder is not None:
                with self.recorder.patched(), self.recorder.span("ingest", op=op_index):
                    elapsed, index = self._ingest(doc)
            else:
                elapsed, index = self._ingest(doc)
        except Exception as exc:
            self.log.fail(f"ingest {doc_id}: {type(exc).__name__}: {exc}")
            return
        if doc_id not in index.doc_ids:
            self.log.fail(f"ingest {doc_id}: missing from the rebuilt index")
            return
        # The next ingest indexes the grown corpus, but queries keep the index
        # of the built store: how many bursts a run reaches, which depends on
        # its speed, must not change the answers the golden holds.
        self.corpus.append(doc)
        self.log.ingest_s.append(elapsed)
        self.log.ingest_burst.append(burst)

    def _ingest(self, doc: tuple[str, str, str]):
        """build_document_cache + save_entry + index_corpus over the grown corpus."""
        doc_id, title, text = doc
        t0 = time.perf_counter()
        tokens, valid = passage_tokens(ByteTokenizer(), title, text, PASSAGE_LEN)
        entry = kv_cache_store.build_document_cache(self.model, self.prefix, tokens,
                                                    doc_id=doc_id, valid_len=valid)
        self.store.save_entry(entry)
        index = kv_retrieval.index_corpus(self.corpus + [doc])
        return time.perf_counter() - t0, index

    # -- the run --------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Queries in a closed loop for `seconds`, with the ingests in
        INGEST_BURSTS equal bursts spaced evenly through the run. A traced
        run holds the first burst back until the counting window is done, so
        the counted queries always see the store as it was built. The stream
        only repeats when a run outruns it."""
        n = len(self.inputs.queries)
        docs = self.inputs.ingest_docs
        per_burst = -(-len(docs) // INGEST_BURSTS)
        min_queries = self.w.count_window if self.recorder is not None else 1
        start = time.perf_counter()
        op = 0
        for burst in range(INGEST_BURSTS):
            deadline = start + seconds * (burst + 1) / INGEST_BURSTS
            while op < min_queries or time.perf_counter() < deadline:
                self.query(op, op % n)
                op += 1
            for i in range(burst * per_burst, min((burst + 1) * per_burst, len(docs))):
                self.ingest(i, burst, docs[i])
            # Write the burst's entries back now, outside any timed call,
            # rather than letting writeback land inside the next queries.
            os.sync()
            if self.recorder is not None:
                self.sizes = _file_sizes(self.store)
        self.log.stream_passes = op / n


def run_workload(workload: Workload, inputs: Inputs, seconds: float, trace: bool,
                 work: Path, expected: dict) -> tuple[RunLog, Recorder | None]:
    """Set up, warm up and drive one run, checking each query against
    `expected` (golden tokens and mults per query); `work` is removed afterwards."""
    log = RunLog()
    work.mkdir(parents=True, exist_ok=True)
    try:
        model, index, store = setup(inputs, work, 1 if trace else SETUP_REPEATS, log)
        # Write the ~100 MB store back now, untimed, rather than letting kernel
        # writeback land inside the measured stream.
        os.sync()
        recorder = Recorder() if trace else None
        client = Client(workload, inputs, model, index, store, expected, log, recorder)
        # Warm up, untimed and unchecked, on the query the stream reaches last.
        client._run(inputs.queries[-1], 1)
        client.run(seconds)
        if recorder is not None:
            recorder.check_fired()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return log, recorder


def reference_outputs(workload: Workload, inputs: Inputs, work: Path) -> dict:
    """Run each query of the stream once and return its greedy tokens and
    [prefill_mults, decode_mults] in stream order: the golden contents."""
    log = RunLog()
    work.mkdir(parents=True, exist_ok=True)
    try:
        model, index, store = setup(inputs, work, 1, log)
        client = Client(workload, inputs, model, index, store, {}, log, None)
        tokens, mults = [], []
        for text in inputs.queries:
            _, result, meter = client._run(text, workload.gen_tokens)
            tokens.append(list(result.tokens))
            mults.append([meter.prefill_mults, meter.decode_mults])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"tokens": tokens, "mults": mults}


# -- metrics -------------------------------------------------------------------


def pct(values, p: int) -> float:
    """p-th percentile (inclusive method) of a non-empty sample."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def burst_p90(log: RunLog) -> float:
    """Median over the ingest bursts of each burst's 90th-percentile ingest time."""
    bursts: dict[int, list[float]] = {}
    for burst, seconds in zip(log.ingest_burst, log.ingest_s):
        bursts.setdefault(burst, []).append(seconds)
    return statistics.median(pct(samples, 90) for samples in bursts.values())


def end_to_end(workload: Workload, log: RunLog) -> dict:
    full = [r.full_s for r in log.queries]
    ttft = [r.ttft_s for r in log.queries]
    # Decode rate over the whole run, not a median of per-query rates: host
    # speed phases make per-query rates bimodal, and a median jumps between
    # the modes from run to run.
    decode_s = sum(max(r.full_s - r.ttft_s, 0.0) for r in log.queries)
    ms = 1000.0
    return {
        "query_p50_ms": (pct(full, 50) * ms, "ms"),
        "query_p90_ms": (pct(full, 90) * ms, "ms"),
        "ttft_p50_ms": (pct(ttft, 50) * ms, "ms"),
        "ttft_p90_ms": (pct(ttft, 90) * ms, "ms"),
        "decode_tok_s": ((workload.gen_tokens - 1) * len(full) / decode_s, "tok/s"),
        "queries_per_s": (len(full) / sum(full), "1/s"),
        "ingest_p50_ms": (pct(log.ingest_s, 50) * ms, "ms"),
        "ingest_p90_ms": (burst_p90(log) * ms, "ms"),
        "token_match": (sum(r.matched for r in log.queries) / log.queries_attempted, "share"),
        "setup_s": (statistics.median(log.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload: Workload, log: RunLog, rec: Recorder) -> dict:
    ms = 1000.0
    queries = rec.roots("query")
    ingests = rec.roots("ingest")
    by_root: dict[int, list] = {}
    for span in rec.spans:
        by_root.setdefault(span.root.id, []).append(span)

    def per_call_ms(name, roots):
        times = [s.duration for r in roots for s in by_root[r.id] if s.name == name]
        return statistics.median(times) * ms

    def per_root_ms(name, roots=queries):
        return statistics.median(
            sum(s.duration for s in by_root[r.id] if s.name == name) for r in roots) * ms

    counted = [r for r in queries if r.attrs["op"] < workload.count_window]
    def per_root_count(fn, roots=counted):
        return sum(fn(r, by_root[r.id]) for r in roots) / len(roots)

    def bytes_read(root, spans):
        sizes = root.attrs["sizes"]
        total = 0
        for s in spans:
            if s.name == "cache_store.load_entry":
                total += sizes[s.attrs["doc_id"]]
            elif s.name == "cache_store.load_prefix":
                total += sizes["prefix"]
            elif s.name == "cache_store.read_manifest":
                total += sizes["manifest"]
        return total

    seen: set[str] = set()
    loaded = reused = 0
    for root in counted:
        docs = [s.attrs["doc_id"] for s in by_root[root.id]
                if s.name == "cache_store.load_entry"]
        loaded += len(docs)
        reused += sum(1 for d in docs if d in seen)
        seen.update(docs)

    def coverage(root):
        stages = sum(s.duration for s in by_root[root.id]
                     if s.parent is root and s.name in TRACE_STAGES)
        return stages / root.duration

    def n_named(name):
        return lambda root, spans: sum(1 for s in spans if s.name == name)

    def attr_sum(name, attr, parent_name=None):
        return lambda root, spans: sum(
            s.attrs[attr] for s in spans
            if s.name == name and (parent_name is None or s.parent.name == parent_name))

    metrics = {
        "retrieval.search_ms": (per_call_ms("retrieval.search", queries), "ms"),
        "retrieval.index_build_ms": (per_call_ms("retrieval.index_build", ingests), "ms"),
        "cache_store.load_prefix_ms": (per_call_ms("cache_store.load_prefix", queries), "ms"),
        "cache_store.manifest_reads": (per_root_count(n_named("cache_store.read_manifest")),
                                       "count"),
        "cache_store.load_entry_ms": (per_call_ms("cache_store.load_entry", queries), "ms"),
        "cache_store.entries_loaded": (per_root_count(n_named("cache_store.load_entry")),
                                       "count"),
        "cache_store.bytes_read": (per_root_count(bytes_read), "bytes"),
        "cache_store.entry_reuse_share": (reused / loaded if loaded else 0.0, "share"),
        "cache_store.build_doc_ms": (per_call_ms("cache_store.build_doc", ingests), "ms"),
        "cache_store.save_entry_ms": (per_call_ms("cache_store.save_entry", ingests), "ms"),
        "cache_store.bytes_written": (
            per_root_count(attr_sum("cache_store.save_entry", "bytes"), ingests),
            "bytes"),
        "focus.plan_ms": (statistics.median(
            sum(s.duration for s in by_root[r.id] if TRACE_STAGES.get(s.name) == "plan")
            for r in queries) * ms, "ms"),
        "focus.prefill_ms": (per_root_ms("focus.prefill"), "ms"),
        "focus.score_ms": (per_root_ms("focus.score"), "ms"),
        "focus.prefill_ctx_cols": (
            per_root_count(attr_sum("model.forward_layer", "cols", "focus.prefill")), "count"),
        "focus.n_reuse": (per_root_count(attr_sum("focus.n_reuse", "n_reuse")), "count"),
        "focus.final_alloc_ms": (per_root_ms("focus.final_alloc"), "ms"),
        "focus.decode_ctx_tokens": (
            per_root_count(attr_sum("focus.final_alloc", "ctx_tokens")), "count"),
        "rope.reposition_ms": (per_root_ms("rope.reposition"), "ms"),
        "rope.vectors_repositioned": (
            per_root_count(attr_sum("rope.reposition", "vectors")), "count"),
    }
    for layer in range(make_config().num_layers):
        metrics[f"model.prefill_layer_ms.L{layer}"] = (statistics.median(
            sum(s.duration for s in by_root[r.id]
                if s.name == "model.forward_layer" and s.parent.name == "focus.prefill"
                and s.attrs["layer"] == layer)
            for r in queries) * ms, "ms")
    metrics["model.decode_ms_per_token"] = (statistics.median(
        s.duration / s.attrs["tokens"] for r in queries for s in by_root[r.id]
        if s.name == "model.decode" and s.attrs["tokens"]) * ms, "ms")
    records = [q for q in log.queries if q.op < workload.count_window]
    metrics["model.prefill_mults"] = (sum(q.mults[0] for q in records) / len(records), "count")
    metrics["model.decode_mults"] = (sum(q.mults[1] for q in records) / len(records), "count")
    metrics["trace.overhead_share"] = (
        statistics.median(r.duration for r in queries)
        / statistics.median(log.untraced_full_s) - 1.0, "share")
    metrics["trace.stage_coverage"] = (statistics.median(coverage(r) for r in queries), "share")
    return metrics


def span_table(rec: Recorder) -> list[str]:
    """Per span name: calls, and total and self time per traced query."""
    n_queries = max(len(rec.roots("query")), 1)
    rows: dict[str, list] = {}
    for span in rec.spans:
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += span.self_time
    lines = [f"{'span':28s} {'calls':>8s} {'total ms/q':>11s} {'self ms/q':>10s}"]
    for name, (calls, total, self_time) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:28s} {calls:8d} {total * 1000 / n_queries:11.3f} "
                     f"{self_time * 1000 / n_queries:10.3f}")
    return lines
