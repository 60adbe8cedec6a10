"""The answer modes and the bench harness: one definition per mode, what the
clock covers, how often the store's manifest is read, and the benchmark's
patch points and the counts its tracer reads there."""

import importlib.util
import json
import sys
import time
import warnings
from pathlib import Path

import pytest

from kvfocus import bench, cache_store, retrieval
from kvfocus.cache_store import CacheStore, passage_tokens
from kvfocus.focus import Pipeline, PruningSchedule
from kvfocus.model import Model, make_config
from kvfocus.retrieval import index_corpus
from kvfocus.rope import PositionOverflowWarning
from kvfocus.tokenizer import ByteTokenizer

CORPUS = [(f"d{i}", f"title {i}", f"capital {i} of country {i % 3} and its tokens")
          for i in range(6)]
QUERY = "capital of country"


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    model = Model.from_seed(make_config(num_layers=2, num_heads=2, head_dim=8,
                                        max_position=160), 3)
    store = CacheStore(tmp_path_factory.mktemp("bench") / "store", model)
    store.build(ByteTokenizer().encode("context:", add_bos=True), CORPUS, passage_len=16)
    return model, store, index_corpus(CORPUS)


def answer(setup, mode, doc_ids):
    _, store, index = setup
    texts = {doc_id: (title, text) for doc_id, title, text in CORPUS}
    return bench.answer(store, index, mode, texts, QUERY, doc_ids, gen_tokens=3,
                        schedule=PruningSchedule(interval=1, k_finish=1), strategy="sort",
                        query_reserve=48)


def count_manifest_reads(monkeypatch):
    reads = []
    read_manifest = CacheStore.read_manifest

    def counting(self):
        reads.append(1)
        return read_manifest(self)

    monkeypatch.setattr(CacheStore, "read_manifest", counting)
    return reads


@pytest.mark.parametrize("mode", bench.MODES)
def test_an_answer_reads_the_manifest_once(setup, monkeypatch, mode):
    reads = count_manifest_reads(monkeypatch)
    answer(setup, mode, ["d0", "d1", "d2"])
    assert len(reads) == 1


def test_bench_reads_the_manifest_once_per_cell(setup, monkeypatch):
    _, store, index = setup
    reads = count_manifest_reads(monkeypatch)
    bench.run_bench(store, index, CORPUS, QUERY, doc_counts=[2, 4], gen_tokens=2,
                    query_reserve=48)
    # eight cells, plus one read for the report's environment
    assert len(reads) == len(bench.MODES) * 2 + 1


def test_no_cache_prefill_time_includes_encoding(setup, monkeypatch):
    _, store, index = setup
    build = bench.build_document_cache

    def slow_build(*args, **kwargs):
        time.sleep(0.05)
        return build(*args, **kwargs)

    monkeypatch.setattr(bench, "build_document_cache", slow_build)
    report = bench.run_bench(store, index, CORPUS, QUERY, doc_counts=[3],
                             gen_tokens=2, modes=("no-cache",), query_reserve=48)
    (row,) = report.rows
    assert row.prefill_s >= 0.05 * 3
    assert row.total_s == pytest.approx(row.prefill_s + row.decode_s)


@pytest.mark.parametrize("mode", bench.MODES)
def test_trace_reports_the_context_decode_sees(setup, mode):
    """context_length counts every document; decode_context_length counts
    what decode sees: in prune mode, the k_finish survivors."""
    _, store, _ = setup
    manifest = store.read_manifest()
    prefix_len, passage_len = manifest["prefix_len"], manifest["passage_len"]
    query_len = len(ByteTokenizer().encode(QUERY))
    _, trace = answer(setup, mode, ["d0", "d1", "d2"])
    assert trace["context_length"] == prefix_len + 3 * passage_len + query_len
    kept = 1 if mode == "prune" else 3  # the schedule's k_finish is 1
    assert trace["decode_context_length"] == prefix_len + kept * passage_len + query_len


def naive_warnings(setup, doc_ids, gen_tokens):
    _, store, index = setup
    texts = {doc_id: (title, text) for doc_id, title, text in CORPUS}
    _, trace = bench.answer(store, index, "naive", texts, QUERY, doc_ids,
                            gen_tokens=gen_tokens, schedule=None, strategy="none",
                            query_reserve=48)
    return trace["warnings"]


def test_naive_trace_records_position_overflow_once(setup):
    """Six documents and 45 tokens decode past max_position 160: the overflow
    is issued as a warning and kept once in the trace."""
    with pytest.warns(PositionOverflowWarning):
        over = naive_warnings(setup, [f"d{i}" for i in range(6)], 45)
    assert over == ["positions beyond the encoding range [0, 160); angles extrapolate"]


def test_naive_trace_within_range_records_no_warning(setup):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert naive_warnings(setup, ["d0", "d1", "d2"], 3) == []


def test_ratios_over_zero_decode_mults_are_none(setup):
    """With one generated token no row decodes, so each decode ratio has a
    base of 0 and is reported as None (null in JSON)."""
    _, store, index = setup
    report = bench.run_bench(store, index, CORPUS, QUERY, doc_counts=[2, 4],
                             gen_tokens=1, query_reserve=48)
    assert all(row.decode_mults == 0 for row in report.rows)
    for pairs in report.ratios.values():
        (pair,) = pairs
        assert pair["decode_mult_ratio"] is None
        assert pair["total_mult_ratio"] == pair["prefill_mult_ratio"] > 1
    ratios = json.loads(bench.report_to_json(report))["ratios"]
    assert ratios["cache"][0]["decode_mult_ratio"] is None


def test_unknown_mode_is_rejected(setup):
    with pytest.raises(ValueError, match="unknown mode"):
        answer(setup, "fast", ["d0"])


def load_tracer(monkeypatch):
    """The traced benchmark's span recorder, perfbench/tracer.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_patch_points_exist(monkeypatch):
    """Every (owner, attribute) the traced benchmark wraps is still there."""
    tracer = load_tracer(monkeypatch)
    assert tracer.TARGETS
    for owner, attribute, name, _ in tracer.TARGETS:
        assert callable(getattr(owner, attribute, None)), f"{name}: {owner}.{attribute}"


def test_traced_query_and_ingest_fire_every_wrapper(setup, monkeypatch, tmp_path):
    """One traced query and one ingest, made as the benchmark makes them,
    call every name the tracer wraps where it wraps it, and the tracer's
    extractors still find the counts they read from arguments and results."""
    model, _, index = setup
    store = CacheStore(tmp_path / "store", model)
    store.build(ByteTokenizer().encode("context:", add_bos=True), CORPUS, passage_len=16)
    pipeline = Pipeline(model, store, index, query_reserve=48)
    new_doc = ("new", "new title", "a new capital of country 1")
    tracer = load_tracer(monkeypatch)
    recorder = tracer.Recorder()
    with recorder.patched():
        with recorder.span("query"):
            result = pipeline.run(QUERY, 4, schedule=PruningSchedule(interval=1, k_finish=1),
                                  strategy="sort", gen_tokens=3)
        with recorder.span("ingest"):
            tokens, valid = passage_tokens(ByteTokenizer(), *new_doc[1:], 16)
            entry = cache_store.build_document_cache(model, store.load_prefix(), tokens,
                                                     doc_id="new", valid_len=valid)
            store.save_entry(entry)
            retrieval.index_corpus(CORPUS + [new_doc])
    recorder.check_fired()

    def recorded(name, key):
        return [span.attrs[key] for span in recorder.spans if span.name == name]

    assert set(recorded("model.forward_layer", "layer")) == set(range(model.config.num_layers))
    assert min(recorded("model.forward_layer", "cols")) > 0
    assert recorded("focus.final_alloc", "ctx_tokens") == [
        store.read_manifest()["prefix_len"] + 16 + len(ByteTokenizer().encode(QUERY))]
    assert max(recorded("rope.reposition", "vectors")) > 0
    assert recorded("model.decode", "tokens") == [len(result.tokens) - 1]


def test_traced_cache_mode_query_fires_every_wrapper(setup, monkeypatch, tmp_path):
    """A traced cache-mode query, in which pre-fill lays out every layer for
    decode, plus an ingest still fire every wrapper; final allocation then
    rotates nothing and reports the whole context."""
    model, _, index = setup
    store = CacheStore(tmp_path / "store", model)
    store.build(ByteTokenizer().encode("context:", add_bos=True), CORPUS, passage_len=16)
    pipeline = Pipeline(model, store, index, query_reserve=48)
    tracer = load_tracer(monkeypatch)
    recorder = tracer.Recorder()
    with recorder.patched():
        with recorder.span("query"):
            result = pipeline.run(QUERY, 4, gen_tokens=3)
        with recorder.span("ingest"):
            tokens, valid = passage_tokens(ByteTokenizer(), "new title", "a new capital", 16)
            entry = cache_store.build_document_cache(model, store.load_prefix(), tokens,
                                                     doc_id="new", valid_len=valid)
            store.save_entry(entry)
            retrieval.index_corpus(CORPUS + [("new", "new title", "a new capital")])
    recorder.check_fired()
    final = [span for span in recorder.spans if span.name == "focus.final_alloc"]
    assert [span.attrs["ctx_tokens"] for span in final] == [
        store.read_manifest()["prefix_len"] + 4 * 16 + len(ByteTokenizer().encode(QUERY))]
    assert not [span for span in recorder.spans
                if span.name == "rope.reposition" and span.parent in final]
    assert len(result.tokens) == 3
