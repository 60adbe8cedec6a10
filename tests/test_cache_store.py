"""Cache store: entries against monolithic forwards, persistence."""

import dataclasses
import os
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from kvfocus import framing
from kvfocus.cache_store import (
    CACHE_FRAME,
    CacheFormatError,
    CacheStore,
    MissingEntryError,
    StaleCacheError,
    _read_kv_file,
    build_document_cache,
    build_prefix_cache,
    hash_tokens,
    passage_tokens,
)
from kvfocus.focus import Pipeline
from kvfocus.model import Model, make_config
from kvfocus.retrieval import index_corpus
from kvfocus.tokenizer import PAD_ID, ByteTokenizer


@pytest.fixture
def model():
    return Model.from_seed(
        make_config(num_layers=2, num_heads=2, head_dim=8, max_position=128, vocab_size=300), 0
    )


def monolithic_cache(model, prefix_tokens, doc_tokens, visible_doc):
    """Oracle: one uncached pass over prefix followed by document."""
    tokens = list(prefix_tokens) + list(doc_tokens)
    cache = model.new_cache(len(tokens))
    visible = np.concatenate([np.ones(len(prefix_tokens), bool), visible_doc])
    model.forward(cache, tokens, positions=np.arange(len(tokens)), visible=visible)
    return cache


class TestBuild:
    def test_single_token_prefix(self, model):
        entry = build_prefix_cache(model, [65])
        assert entry.token_count == 1
        assert entry.layers[0].shape[2] == 1
        assert entry.positions[0] == 0

    def test_prefix_rebuild_is_bit_identical(self, model):
        a = build_prefix_cache(model, [1, 2, 3])
        b = build_prefix_cache(model, [1, 2, 3])
        assert a.prefix_hash == b.prefix_hash
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la[0], lb[0])
            np.testing.assert_array_equal(la[1], lb[1])

    def test_document_cache_equals_monolithic_slice(self, model):
        prefix_tokens = [10, 20, 30]
        doc_tokens = [5, 6, 7, 8, PAD_ID, PAD_ID]
        prefix = build_prefix_cache(model, prefix_tokens)
        entry = build_document_cache(model, prefix, doc_tokens, doc_id="d", valid_len=4)
        oracle = monolithic_cache(model, prefix_tokens, doc_tokens, np.arange(6) < 4)
        for (keys, values), full in zip(entry.layers, oracle.layers):
            np.testing.assert_allclose(keys, full.keys[:, 3:], atol=1e-5)
            np.testing.assert_allclose(values, full.values[:, 3:], atol=1e-5)
        np.testing.assert_array_equal(entry.positions, [3, 4, 5, 6, 7, 8])
        assert entry.token_count == 6
        assert entry.valid_len == 4

    def test_documents_are_independent_and_order_free(self, model):
        prefix = build_prefix_cache(model, [1, 2])
        docs = {"a": [11, 12], "b": [13, 14], "c": [15, 16]}
        forward_order = {d: build_document_cache(model, prefix, t, doc_id=d, valid_len=len(t))
                         for d, t in docs.items()}
        reverse_order = {d: build_document_cache(model, prefix, docs[d], doc_id=d,
                                                 valid_len=len(docs[d]))
                         for d in reversed(list(docs))}
        for d in docs:
            for la, lb in zip(forward_order[d].layers, reverse_order[d].layers):
                np.testing.assert_array_equal(la[0], lb[0])
        assert forward_order["a"].prefix_hash == forward_order["b"].prefix_hash
        assert not np.array_equal(
            forward_order["a"].layers[0][0], forward_order["b"].layers[0][0]
        )

    def test_empty_document_rejected(self, model):
        prefix = build_prefix_cache(model, [1])
        with pytest.raises(ValueError):
            build_document_cache(model, prefix, [], valid_len=0)

    def test_stale_prefix_rejected(self, model):
        other = Model.from_seed(model.config, 99)
        prefix = build_prefix_cache(other, [1, 2])
        with pytest.raises(StaleCacheError):
            build_document_cache(model, prefix, [3, 4], valid_len=2)


class TestPassageTokens:
    def test_pads_to_fixed_length(self):
        tokens, valid = passage_tokens(ByteTokenizer(), "t", "ab", 10)
        assert len(tokens) == 10
        assert valid == 4  # "t\nab"
        assert tokens[valid:] == [PAD_ID] * 6

    def test_truncates_long_text(self):
        tokens, valid = passage_tokens(ByteTokenizer(), "", "x" * 50, 8)
        assert len(tokens) == 8
        assert valid == 8

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            passage_tokens(ByteTokenizer(), "", "", 8)

    @pytest.mark.parametrize("length", [0, -5])
    def test_length_below_one_rejected(self, length):
        with pytest.raises(ValueError, match=f"passage length must be >= 1, got {length}"):
            passage_tokens(ByteTokenizer(), "t", "text", length)


class TestStore:
    def corpus(self):
        return [("doc1", "alpha", "first passage"), ("doc2", "beta", "second passage")]

    def test_build_save_load_round_trip(self, model, tmp_path):
        store = CacheStore(tmp_path / "store", model)
        stats = store.build([1, 2, 3], self.corpus(), passage_len=12)
        assert stats["documents"] == 2
        assert len(store.read_manifest()["docs"]) == 2

        entry = store.load_entry("doc1")
        prefix = build_prefix_cache(model, [1, 2, 3])
        tokens, valid = passage_tokens(ByteTokenizer(), "alpha", "first passage", 12)
        rebuilt = build_document_cache(model, prefix, tokens, doc_id="doc1", valid_len=valid)
        for la, lb in zip(entry.layers, rebuilt.layers):
            np.testing.assert_array_equal(la[0], lb[0])
            np.testing.assert_array_equal(la[1], lb[1])
        assert entry.valid_len == valid
        assert entry.prefix_len == 3

        loaded_prefix = store.load_prefix()
        assert store.read_manifest()["prefix_tokens"] == [1, 2, 3]
        assert (loaded_prefix.doc_id, loaded_prefix.prefix_len, loaded_prefix.valid_len) == ("", 0, 3)
        assert loaded_prefix.prefix_hash == hash_tokens([1, 2, 3]) == prefix.prefix_hash
        for la, lb in zip(loaded_prefix.layers, prefix.layers):
            np.testing.assert_array_equal(la[0], lb[0])

    def test_rebuild_is_byte_identical(self, model, tmp_path):
        root = tmp_path / "store"
        store = CacheStore(root, model)
        store.build([9, 8], self.corpus(), passage_len=10)
        first = {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
        store.build([9, 8], self.corpus(), passage_len=10)
        second = {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
        assert first == second

    def test_wrong_model_fingerprint_refused(self, model, tmp_path):
        root = tmp_path / "store"
        CacheStore(root, model).build([1, 2], self.corpus(), passage_len=10)
        other = Model.from_seed(model.config, 1234)
        stale = CacheStore(root, other)
        with pytest.raises(StaleCacheError):
            stale.load_entry("doc1")
        with pytest.raises(StaleCacheError):
            stale.build([1, 2], self.corpus(), passage_len=10)
        # force allows the rebuild to proceed
        stale.build([1, 2], self.corpus(), passage_len=10, force=True)
        assert CacheStore(root, other).load_entry("doc1").model_fingerprint == other.fingerprint

    @pytest.mark.parametrize("passage_len", [0, -5])
    def test_passage_len_below_one_rejected_before_writing(self, model, tmp_path, passage_len):
        store = CacheStore(tmp_path / "store", model)
        with pytest.raises(ValueError, match=f"passage length must be >= 1, got {passage_len}"):
            store.build([1, 2], self.corpus(), passage_len=passage_len)
        assert not store.manifest_path.exists()
        assert not (store.root / "prefix.cfkv").exists()

    def test_save_entry_refuses_a_store_of_another_model(self, model, tmp_path):
        root = tmp_path / "store"
        CacheStore(root, model).build([1, 2], self.corpus(), passage_len=10)
        other = Model.from_seed(model.config, 1234)
        prefix = build_prefix_cache(other, [1, 2])
        entry = build_document_cache(other, prefix, [5, 6], doc_id="new", valid_len=2)
        docs = sorted(p.name for p in (root / "docs").iterdir())
        with pytest.raises(StaleCacheError, match="pass force"):
            CacheStore(root, other).save_entry(entry)
        assert sorted(CacheStore(root, model).read_manifest()["docs"]) == ["doc1", "doc2"]
        assert sorted(p.name for p in (root / "docs").iterdir()) == docs  # no orphan file

    @pytest.mark.parametrize("mismatch", ["prefix", "passage-length"])
    def test_save_entry_refuses_an_entry_the_store_cannot_serve(self, model, tmp_path,
                                                                 mismatch):
        """An entry built on another prefix would fail every load, and one of
        another passage length every query that retrieves it with others."""
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2], self.corpus(), passage_len=10)
        prefix = build_prefix_cache(model, [3, 4] if mismatch == "prefix" else [1, 2])
        length = 10 if mismatch == "prefix" else 12
        entry = build_document_cache(model, prefix, [5] * length, doc_id="new", valid_len=1)
        manifest = store.manifest_path.read_bytes()
        docs = sorted(p.name for p in (store.root / "docs").iterdir())
        with pytest.raises(StaleCacheError, match="prefix" if mismatch == "prefix" else "12"):
            store.save_entry(entry)
        assert store.manifest_path.read_bytes() == manifest
        assert sorted(p.name for p in (store.root / "docs").iterdir()) == docs

    def test_force_rebuilds_over_a_malformed_manifest(self, model, tmp_path):
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2], self.corpus(), passage_len=10)
        store.manifest_path.write_text("[]", encoding="utf-8")
        with pytest.raises(CacheFormatError, match="not a JSON object"):
            store.build([1, 2], self.corpus(), passage_len=10)
        store.build([1, 2], self.corpus(), passage_len=10, force=True)
        assert sorted(store.read_manifest()["docs"]) == ["doc1", "doc2"]

    def test_forced_rebuild_leaves_only_listed_files(self, model, tmp_path, monkeypatch):
        """A forced rebuild over a smaller corpus writes its manifest under
        the manifest lock and removes, in the same locked block, the document
        files the new manifest does not list; every listed entry loads."""
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2], self.corpus() + [("doc3", "gamma", "third passage")],
                    passage_len=10)
        assert len(list((store.root / "docs").iterdir())) == 3
        held, events = [], []
        lock = CacheStore._manifest_lock

        @contextmanager
        def tracked(self):
            with lock(self):
                held.append(True)
                yield
                events.append(sorted(p.name for p in (self.root / "docs").iterdir()))
                held.pop()

        write_manifest = CacheStore._write_manifest

        def checked(self, manifest):
            events.append(bool(held))
            write_manifest(self, manifest)

        monkeypatch.setattr(CacheStore, "_manifest_lock", tracked)
        monkeypatch.setattr(CacheStore, "_write_manifest", checked)
        store.build([3, 4], self.corpus()[:1], passage_len=12, force=True)
        listed = store.read_manifest()["docs"]
        assert sorted(listed) == ["doc1"]
        assert events == [True, [listed["doc1"]["file"]]]
        assert sorted(p.name for p in (store.root / "docs").iterdir()) == [
            listed["doc1"]["file"]]
        assert store.load_entry("doc1").token_count == 12
        assert store.load_prefix().token_count == 2

    def test_built_entries_equal_their_loaded_copies(self, model, tmp_path):
        """A built prefix and a built document entry hold what loading their
        files gives back: float32 layers of the same shape and bits, and the
        same positions and visibility."""
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2, 3], [], passage_len=12)
        prefix = build_prefix_cache(model, [1, 2, 3])
        tokens, valid = passage_tokens(ByteTokenizer(), "alpha", "short", 12)
        assert valid < 12  # padding, so visibility is not all True
        entry = build_document_cache(model, prefix, tokens, doc_id="doc1", valid_len=valid)
        store.save_entry(entry)
        for built, loaded in ((prefix, store.load_prefix()), (entry, store.load_entry("doc1"))):
            assert len(built.layers) == len(loaded.layers) == model.config.num_layers
            for a, b in zip(built.layers, loaded.layers):
                assert a.dtype == b.dtype == np.float32
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
            for name in ("positions", "visible"):
                a, b = getattr(built, name), getattr(loaded, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert not entry.visible.all() and entry.visible.sum() == valid

    def test_missing_entry(self, model, tmp_path):
        store = CacheStore(tmp_path / "store", model)
        store.build([1], self.corpus(), passage_len=10)
        with pytest.raises(MissingEntryError):
            store.load_entry("nope")

    def test_duplicate_doc_id_rejected(self, model, tmp_path):
        store = CacheStore(tmp_path / "store", model)
        with pytest.raises(ValueError):
            store.build([1], [("d", "", "x"), ("d", "", "y")], passage_len=8)

    def test_query_independence(self, model, tmp_path):
        """Entries depend only on (model, prefix, document): running other
        forwards in between changes nothing."""
        root = tmp_path / "store"
        store = CacheStore(root, model)
        store.build([4, 5], self.corpus(), passage_len=10)
        before = store.load_entry("doc2")
        model.forward(model.new_cache(3), [33, 44, 55])  # unrelated query traffic
        store.build([4, 5], self.corpus(), passage_len=10)
        after = store.load_entry("doc2")
        for la, lb in zip(before.layers, after.layers):
            np.testing.assert_array_equal(la[0], lb[0])

    def test_hash_tokens_is_stable(self):
        assert hash_tokens([1, 2, 3]) == hash_tokens(np.array([1, 2, 3]))
        assert hash_tokens([1, 2, 3]) != hash_tokens([1, 2, 4])


class TestManifestPerQuery:
    def corpus(self):
        return [("doc1", "alpha", "first passage"), ("doc2", "beta", "second passage"),
                ("doc3", "gamma", "late arrival")]

    def test_one_manifest_read_per_run(self, model, tmp_path, monkeypatch):
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2], self.corpus(), passage_len=12)
        reads = []
        read_manifest = CacheStore.read_manifest
        monkeypatch.setattr(CacheStore, "read_manifest",
                            lambda self: reads.append(1) or read_manifest(self))
        pipeline = Pipeline(model, store, index_corpus(self.corpus()), query_reserve=32)
        pipeline.run("passage alpha beta gamma", k=3, gen_tokens=2)
        assert len(reads) == 1

    def test_entry_saved_between_queries_is_found(self, model, tmp_path):
        root = tmp_path / "store"
        corpus = self.corpus()
        store = CacheStore(root, model)
        store.build([1, 2], corpus[:2], passage_len=12)
        pipeline = Pipeline(model, store, index_corpus(corpus), query_reserve=32)
        assert pipeline.run("alpha", k=1, gen_tokens=2).trace.final_ids == ["doc1"]
        with pytest.raises(MissingEntryError):
            pipeline.run("late arrival", k=1, gen_tokens=2)

        writer = CacheStore(root, model)
        prefix = writer.load_prefix()
        tokens, valid = passage_tokens(ByteTokenizer(), "gamma", "late arrival", 12)
        writer.save_entry(build_document_cache(model, prefix, tokens, doc_id="doc3",
                                               valid_len=valid))
        assert pipeline.run("late arrival", k=1, gen_tokens=2).trace.final_ids == ["doc3"]


class TestConcurrentWriters:
    def test_concurrent_saves_lose_no_entry(self, model, tmp_path):
        """Four threads at a time each save one new document into one store,
        switching threads every 10 us, for 30 rounds: every entry they saved
        is in the manifest afterwards."""
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2], [("doc0", "alpha", "first passage")], passage_len=8)
        entry = build_document_cache(model, store.load_prefix(), [5, 6, 7, 8] + [PAD_ID] * 4,
                                     doc_id="new", valid_len=4)
        rounds, writers = 30, 4
        saved = ["doc0"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=writers) as pool:
                for r in range(rounds):
                    barrier = threading.Barrier(writers)

                    def save(doc_id):
                        barrier.wait(timeout=30)
                        store.save_entry(dataclasses.replace(entry, doc_id=doc_id))

                    ids = [f"r{r}-w{w}" for w in range(writers)]
                    futures = [pool.submit(save, doc_id) for doc_id in ids]
                    for future in futures:
                        future.result(timeout=60)
                    saved += ids
        finally:
            sys.setswitchinterval(interval)
        assert sorted(store.read_manifest()["docs"]) == sorted(saved)


class TestMalformedFiles:
    def test_short_header_is_format_error(self, model, tmp_path):
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2], [("doc1", "alpha", "first passage")], passage_len=12)
        path = store.root / "prefix.cfkv"
        path.write_bytes(path.read_bytes()[:18])
        with pytest.raises(CacheFormatError, match="header"):
            store.load_prefix()

    def test_non_ascii_ids_are_format_error(self, model, tmp_path):
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2], [("doc1", "alpha", "first passage")], passage_len=12)
        path = store.root / "prefix.cfkv"
        raw = bytearray(path.read_bytes())
        raw[8] = 0xFF  # first byte of the model fingerprint; the crc covers only the body
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheFormatError, match="ascii"):
            store.load_prefix()


class TestLoaderChecks:
    """The checks the loader makes of each cache file it reads, past the
    store-level check of the manifest: for the prefix file and a document
    file alike, a file from a store built on another prefix, a file from
    another model's store, and a header with num_heads and head_dim swapped
    (the body length is unchanged, so the frame accepts it) are each a
    StaleCacheError, and so is a document file of another passage length."""

    corpus = [("doc1", "alpha", "first passage")]

    @pytest.fixture
    def store(self, model, tmp_path):
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2], self.corpus, passage_len=12)
        return store

    @staticmethod
    def path_of(store, which):
        if which == "prefix":
            return store.root / "prefix.cfkv"
        return store.root / "docs" / store.read_manifest()["docs"]["doc1"]["file"]

    @staticmethod
    def load(store, which):
        return store.load_prefix() if which == "prefix" else store.load_entry("doc1")

    @pytest.mark.parametrize("which", ["prefix", "doc"])
    def test_file_built_on_another_prefix(self, model, store, tmp_path, which):
        other = CacheStore(tmp_path / "other", model)
        other.build([3, 4], self.corpus, passage_len=12)
        shutil.copyfile(self.path_of(other, which), self.path_of(store, which))
        with pytest.raises(StaleCacheError, match="prefix hash"):
            self.load(store, which)

    @pytest.mark.parametrize("which", ["prefix", "doc"])
    def test_file_of_another_model(self, model, store, tmp_path, which):
        other = CacheStore(tmp_path / "other", Model.from_seed(model.config, 99))
        other.build([1, 2], self.corpus, passage_len=12)
        shutil.copyfile(self.path_of(other, which), self.path_of(store, which))
        with pytest.raises(StaleCacheError, match="fingerprint"):
            self.load(store, which)

    def test_document_file_of_another_passage_length(self, model, store, tmp_path):
        other = CacheStore(tmp_path / "other", model)
        other.build([1, 2], self.corpus, passage_len=16)
        shutil.copyfile(self.path_of(other, "doc"), self.path_of(store, "doc"))
        with pytest.raises(StaleCacheError, match="dimensions"):
            store.load_entry("doc1")

    @pytest.mark.parametrize("which", ["prefix", "doc"])
    def test_heads_and_head_dim_swapped(self, store, which):
        path = self.path_of(store, which)
        raw = bytearray(path.read_bytes())
        fields = list(CACHE_FRAME.header.unpack_from(raw, 8))
        fields[3], fields[4] = fields[4], fields[3]  # num_heads, head_dim
        assert fields[3] != fields[4]
        raw[8:8 + CACHE_FRAME.header.size] = CACHE_FRAME.header.pack(*fields)
        path.write_bytes(bytes(raw))
        with pytest.raises(StaleCacheError, match="dimensions"):
            self.load(store, which)


class TestVerifiedFiles:
    """A store checks a cache file's crc once and again whenever the file's
    inode, size or mtime changes."""

    corpus = [("doc1", "alpha", "first passage"), ("doc2", "beta", "second passage")]

    @pytest.fixture
    def store(self, model, tmp_path):
        store = CacheStore(tmp_path / "store", model)
        store.build([1, 2], self.corpus, passage_len=12)
        return store

    @pytest.fixture
    def crc_calls(self, monkeypatch):
        """Counts the crc32 calls of every framed read."""
        calls = []
        crc32 = framing.zlib.crc32
        monkeypatch.setattr(framing, "zlib", SimpleNamespace(
            crc32=lambda data, value=0: calls.append(1) or crc32(data, value)))
        return calls

    @staticmethod
    def path_of(store, doc_id):
        return store.root / "docs" / store.read_manifest()["docs"][doc_id]["file"]

    @staticmethod
    def flip_body_byte(path, offset=0):
        """Damage one body byte in place: same inode, same size."""
        stat = os.stat(path)
        with open(path, "r+b") as fh:
            fh.seek(8 + CACHE_FRAME.header.size + offset)
            byte = fh.read(1)[0]
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte ^ 0xFF]))
        return stat

    def test_unchanged_file_is_checked_once(self, store, crc_calls):
        store.load_entry("doc1")
        assert len(crc_calls) == store.model.config.num_layers
        store.load_entry("doc1")
        store.load_prefix()
        store.load_prefix()
        assert len(crc_calls) == 2 * store.model.config.num_layers

    def test_standalone_reads_always_check(self, store, crc_calls):
        path = self.path_of(store, "doc1")
        cfg = store.model.config
        shape = (cfg.num_layers, cfg.num_heads, 12, cfg.head_dim)
        _read_kv_file(path, shape)
        _read_kv_file(path, shape)
        assert len(crc_calls) == 2 * store.model.config.num_layers

    def test_entry_replaced_by_save_entry_is_checked_again(self, store, crc_calls):
        entry = store.load_entry("doc1")
        store.save_entry(entry)
        crc_calls.clear()
        again = store.load_entry("doc1")
        assert len(crc_calls) == store.model.config.num_layers
        for la, lb in zip(entry.layers, again.layers):
            np.testing.assert_array_equal(la[0], lb[0])

    def test_corrupted_replacement_raises(self, store):
        path = self.path_of(store, "doc1")
        store.load_entry("doc1")
        damaged = bytearray(path.read_bytes())
        damaged[8 + CACHE_FRAME.header.size] ^= 0x01
        framing.write_atomic(path, bytes(damaged))
        with pytest.raises(CacheFormatError, match="checksum"):
            store.load_entry("doc1")

    def test_file_changed_in_place_at_a_later_time_is_checked_again(self, store):
        path = self.path_of(store, "doc1")
        store.load_entry("doc1")
        before = self.flip_body_byte(path)
        # the same inode, size and mtime: the store does not look again
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        store.load_entry("doc1")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000_000))
        with pytest.raises(CacheFormatError, match="checksum"):
            store.load_entry("doc1")

    def test_failed_file_is_never_recorded(self, store, crc_calls):
        path = self.path_of(store, "doc2")
        self.flip_body_byte(path, offset=5)
        for _ in range(2):
            crc_calls.clear()
            with pytest.raises(CacheFormatError, match="checksum"):
                store.load_entry("doc2")
            assert len(crc_calls) == store.model.config.num_layers

    def test_fresh_store_checks_again(self, store, model):
        path = self.path_of(store, "doc1")
        store.load_entry("doc1")
        before = self.flip_body_byte(path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        store.load_entry("doc1")
        with pytest.raises(CacheFormatError, match="checksum"):
            CacheStore(store.root, model).load_entry("doc1")

    def test_layers_match_the_whole_file_and_own_their_buffers(self, store):
        """Loaded tensors are bit-identical to a whole-file read of the body,
        on the checked first load and the unchecked second one, and each
        layer's keys and values are one array of its own that no other layer
        shares."""
        path = self.path_of(store, "doc1")
        cfg = store.model.config
        raw = path.read_bytes()
        start = 8 + CACHE_FRAME.header.size
        expected = np.frombuffer(raw[start:len(raw) - 4], dtype="<f4").reshape(
            cfg.num_layers, 2, cfg.num_heads, 12, cfg.head_dim).copy()
        for _ in range(2):
            layers = store.load_entry("doc1").layers
            for layer, (keys, values) in zip(layers, expected):
                assert layer.dtype == np.float32 and layer.flags.c_contiguous
                assert np.array_equal(layer[0].view(np.uint32), keys.view(np.uint32))
                assert np.array_equal(layer[1].view(np.uint32), values.view(np.uint32))
                assert layer.flags.owndata and layer.nbytes == keys.nbytes + values.nbytes
            assert len({id(layer) for layer in layers}) == cfg.num_layers

    def test_threads_loading_an_unchecked_file_get_equal_tensors(self, store, model):
        """Eight threads load the same file at once, switching every 10 us,
        through a store that has not checked it yet, for 10 rounds."""
        expected = store.load_entry("doc2")
        threads = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for _ in range(10):
                    fresh = CacheStore(store.root, model)
                    barrier = threading.Barrier(threads)

                    def load():
                        barrier.wait(timeout=30)
                        return fresh.load_entry("doc2")

                    futures = [pool.submit(load) for _ in range(threads)]
                    for future in futures:
                        for la, lb in zip(future.result(timeout=60).layers,
                                          expected.layers):
                            np.testing.assert_array_equal(la[0], lb[0])
                            np.testing.assert_array_equal(la[1], lb[1])
        finally:
            sys.setswitchinterval(interval)
