"""The framed file formats (CFKV caches, CFIX indexes, CFWT weights) and the
store manifest: pinned bytes, truncations, byte flips and crash-safe writes."""

import hashlib
import io
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvfocus import framing, model as model_module
from kvfocus.cache_store import (
    CACHE_FRAME,
    CacheStore,
    CacheStoreEntry,
    StaleCacheError,
    _read_kv_file,
    _write_kv_file,
)
from kvfocus.model import (
    WEIGHT_FRAME,
    Model,
    WeightFormatError,
    load_weights,
    make_config,
    save_weights,
)
from kvfocus.retrieval import INDEX_FRAME, index_corpus, load_index, save_index


def tiny_model(seed=0):
    config = make_config(num_layers=1, num_heads=1, head_dim=2, max_position=16, vocab_size=3)
    return Model.from_seed(config, seed)


# (layers, heads, tokens, head_dim) of the cache file write_cache writes
CACHE_SHAPE = (2, 2, 3, 4)


def write_cache(path, seed=0):
    """Seeded arrays, not a forward pass, so the bytes do not depend on BLAS."""
    rng = np.random.default_rng(seed)

    def layer():
        keys = rng.standard_normal((2, 3, 4)).astype(np.float32)
        values = rng.standard_normal((2, 3, 4)).astype(np.float32)
        return np.stack([keys, values])

    entry = CacheStoreEntry(doc_id="", model_fingerprint="0123456789abcdef",
                            prefix_hash="fedcba9876543210", prefix_len=0, valid_len=3,
                            layers=[layer(), layer()])
    _write_kv_file(path, entry, rope_base=10000.0)


def write_index(path, seed=0):
    save_index(index_corpus([("a", "", f"alpha w{seed}"), ("b", "T", "beta gamma é")]), path)


def write_weights(path, seed=0):
    model = tiny_model(seed)
    save_weights(model, path)


# name -> (writer, loader, framing, sha256 of the seed-0 file)
FORMATS = {
    "cache": (write_cache, lambda path: _read_kv_file(path, CACHE_SHAPE), CACHE_FRAME,
              "4993c475972a11bb50edfd9d96c360b13f302b509113554daf13c3fd9b198b10"),
    "index": (write_index, load_index, INDEX_FRAME,
              "b0e694a5436b2ba2a532f737f7d0d7936b5ffc2db44fea31fe576c312717d8de"),
    "weights": (write_weights, load_weights, WEIGHT_FRAME,
                "1542965e802d83af56994b4e89638fd42ba2e7b5554bea283fa15191f5d41e5c"),
}
MANIFEST_SHA256 = "010b051bf2d590ffd7d851e5e3dbf721cbce7b9e715c1a1ef7c16a8e1f5b73b8"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """name -> (path of a seed-0 file, its bytes)."""
    root = tmp_path_factory.mktemp("formats")
    out = {}
    for name, (write, *_) in FORMATS.items():
        path = root / name
        write(path)
        out[name] = (path, path.read_bytes())
    return out


def loads_or_raises_format_error(name, path):
    _, load, frame, _ = FORMATS[name]
    try:
        load(path)
    except frame.error as exc:
        assert frame.kind in str(exc) and str(path) in str(exc)


@pytest.mark.parametrize("name", FORMATS)
def test_file_bytes_are_pinned(files, name):
    assert hashlib.sha256(files[name][1]).hexdigest() == FORMATS[name][3]


def test_manifest_bytes_are_pinned(tmp_path):
    store = CacheStore(tmp_path / "store", tiny_model())
    store._write_manifest({"format": 1, "model_fingerprint": store.model.fingerprint,
                           "prefix_hash": "fedcba9876543210", "prefix_tokens": [1, 2],
                           "prefix_len": 2, "passage_len": 3,
                           "docs": {"a": {"file": "a.cfkv", "valid_len": 2}}})
    assert hashlib.sha256(store.manifest_path.read_bytes()).hexdigest() == MANIFEST_SHA256
    assert [p.name for p in store.root.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation_is_a_format_error(files, tmp_path, name):
    _, load, frame, _ = FORMATS[name]
    raw = files[name][1]
    path = tmp_path / "cut"
    for length in range(len(raw)):
        path.write_bytes(raw[:length])
        with pytest.raises(frame.error, match=re.escape(f"{frame.kind} {path}")):
            load(path)


@pytest.mark.parametrize("name", FORMATS)
def test_preamble_header_and_crc_flips_load_or_raise_format_error(files, tmp_path, name):
    frame = FORMATS[name][2]
    raw = files[name][1]
    path = tmp_path / "flipped"
    framed = list(range(8 + frame.header.size)) + list(range(len(raw) - 4, len(raw)))
    for position in framed:
        damaged = bytearray(raw)
        damaged[position] ^= 0xFF
        path.write_bytes(bytes(damaged))
        loads_or_raises_format_error(name, path)


@given(name=st.sampled_from(sorted(FORMATS)), where=st.integers(0, 2**16),
       mask=st.integers(1, 255))
@settings(max_examples=60, deadline=None)
def test_body_flips_are_format_errors(files, name, where, mask):
    _, load, frame, _ = FORMATS[name]
    path, raw = files[name]
    start = 8 + frame.header.size
    damaged = bytearray(raw)
    damaged[start + where % (len(raw) - start - 4)] ^= mask
    flipped = path.with_name(f"{name}-body-flip")
    flipped.write_bytes(bytes(damaged))
    with pytest.raises(frame.error, match="checksum"):
        load(flipped)


@pytest.mark.parametrize("name", FORMATS)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, name):
    write, load, _, _ = FORMATS[name]
    path = tmp_path / name
    write(path, seed=13)
    before = path.read_bytes()

    class FailingFile(io.FileIO):
        def write(self, data):
            if self.tell():
                raise OSError("disk full")
            return super().write(data)

    with monkeypatch.context() as patch:
        patch.setattr(framing, "open", FailingFile, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(path, seed=14)
    assert path.read_bytes() == before
    load(path)
    assert [p.name for p in tmp_path.iterdir()] == [name]  # no temporary file left


def test_writers_of_one_path_use_their_own_temp_files(tmp_path, monkeypatch):
    """A second write of the path starts while the first one's temporary file
    is still waiting to be renamed; each keeps its own file and both land."""
    path = tmp_path / "f"
    replace = framing.os.replace
    renamed = []

    def interleaved_replace(src, dst):
        renamed.append(src)
        if len(renamed) == 1:
            framing.write_atomic(path, b"second")
            assert path.read_bytes() == b"second"
        replace(src, dst)

    monkeypatch.setattr(framing.os, "replace", interleaved_replace)
    framing.write_atomic(path, b"first")
    assert len(set(renamed)) == 2
    assert path.read_bytes() == b"first"
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_chunked_body_is_framed_as_one(tmp_path):
    """A body given in chunks, numpy arrays among them, is written and
    checksummed as their concatenation; a chunk source that fails part way
    leaves the previous file and no temporary file."""
    chunks = [b"ab", np.arange(3, dtype=np.float32), b"", b"cd"]
    whole, parts = tmp_path / "whole", tmp_path / "parts"
    size = framing.write_framed(whole, WEIGHT_FRAME, b"", [b"".join(map(bytes, chunks))])
    assert framing.write_framed(parts, WEIGHT_FRAME, b"", iter(chunks)) == size
    assert parts.read_bytes() == whole.read_bytes()
    assert len(whole.read_bytes()) == size

    def failing():
        yield b"ab"
        raise OSError("source gone")

    with pytest.raises(OSError, match="source gone"):
        framing.write_framed(parts, WEIGHT_FRAME, b"", failing())
    assert parts.read_bytes() == whole.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["parts", "whole"]


class TestCacheDimensions:
    """The crc does not cover a cache file's dimensions. A header with a
    zero dimension and an empty body passes the body-length check (0 == 0),
    so the loader checks the dimensions against the shape it expects before
    it reads the body."""

    DIMENSIONS = ("num_layers", "num_heads", "head_dim", "token_count")

    @classmethod
    def write_zero(cls, path, field):
        """A 69-byte cache file: `field` zeroed in write_cache's header, no body."""
        write_cache(path)
        raw = path.read_bytes()
        fields = list(CACHE_FRAME.header.unpack_from(raw, 8))
        fields[2 + cls.DIMENSIONS.index(field)] = 0
        path.write_bytes(raw[:8] + CACHE_FRAME.header.pack(*fields)
                         + zlib.crc32(b"").to_bytes(4, "little"))
        assert path.stat().st_size == 69

    @pytest.mark.parametrize("field", DIMENSIONS)
    def test_zero_dimension_is_refused_before_the_body(self, tmp_path, field):
        path = tmp_path / "zero.cfkv"
        self.write_zero(path, field)
        with pytest.raises(StaleCacheError, match=re.escape(f"cache file {path} dimensions")):
            _read_kv_file(path, CACHE_SHAPE)


class TestWeightConfig:
    """The crc does not cover a weight file's config, so the loader checks it."""

    def rewrite_config(self, path, **fields):
        raw = bytearray(path.read_bytes())
        values = dict(zip(("layers", "heads", "head_dim", "vocab", "max_position", "base",
                           "pairing"), WEIGHT_FRAME.header.unpack_from(raw, 8)))
        values.update(fields)
        WEIGHT_FRAME.header.pack_into(raw, 8, *values.values())
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("fields", [
        {"head_dim": 3}, {"layers": 0}, {"max_position": 0}, {"base": 1.0}, {"vocab": 0},
    ], ids=["odd-head-dim", "no-layers", "no-positions", "base-one", "no-vocab"])
    def test_config_rejected_by_make_config_is_format_error(self, tmp_path, fields):
        path = tmp_path / "m.cfwt"
        write_weights(path)
        self.rewrite_config(path, **fields)
        with pytest.raises(WeightFormatError, match=re.escape(f"weight file {path}: bad config")):
            load_weights(path)

    def test_layer_count_checked_before_the_shape_table(self, tmp_path, monkeypatch):
        def no_shape_table(config):
            raise AssertionError("shape table built before the length check")

        path = tmp_path / "m.cfwt"
        write_weights(path)
        self.rewrite_config(path, layers=2**32 - 1)
        monkeypatch.setattr(model_module, "_weight_shapes", no_shape_table)
        with pytest.raises(WeightFormatError, match="length"):
            load_weights(path)

