"""Offline, query-independent construction and persistence of KV caches.

A store directory holds the cache of one shared prefix plus one file per
document, all built against one model, and that model's weight file
(model.cfwt), so `CacheStore.open` needs nothing but the directory. The
prefix and the documents are the same kind of entry (CacheStoreEntry) in
the same kind of file. Document caches are computed on top of the prefix
cache and stored with keys rotated at their canonical positions
[prefix_len, prefix_len + passage_len); any other layout is reached later
by re-positioning. Entries are valid only for
the exact (model fingerprint, prefix hash) pair recorded in the manifest,
which makes invalidation after a model or prefix change a directory-level
check.

Cache files use the shared frame of `framing` with magic "CFKV". Header
(little-endian): model_fingerprint 16s | prefix_hash 16s | num_layers u32 |
num_heads u32 | head_dim u32 | token_count u32 | rope_base f64 | pairing u8.
Body: per layer, keys then values, row-major float32 (heads, tokens,
head_dim).

An entry is stored data, read and re-positioned but never appended to, so
it keeps its file's form: per layer one float32 (2, heads, tokens,
head_dim) array, keys then values, as in the body; its positions and
visibility follow from its prefix_len and valid_len. Loading checks a
file's dimensions against the model and the manifest before it reads the
body, and reads each layer straight into an array of its own. A CacheStore
checks a file's crc once: it records each file that passed by path, inode,
size and mtime (ns) and skips the crc while those stay the same. Files are
only ever replaced by rename, so a rewritten entry gets a new inode and is
checked again. The trade-off: a bit flip on disk under an unchanged inode,
size and mtime goes unnoticed until a new CacheStore (or process) loads the
file, and so does an in-place edit within the same timestamp tick.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import re
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .framing import Framing, VerifiedFiles, open_framed, write_atomic, write_framed
from .model import CostMeter, KVCache, Model, save_weights
from .rope import PAIRING_INTERLEAVED
from .tokenizer import PAD_ID, ByteTokenizer

MANIFEST_NAME = "manifest.json"
MANIFEST_LOCK_NAME = "manifest.lock"
MODEL_NAME = "model.cfwt"


class StaleCacheError(RuntimeError):
    """A cache entry does not fit its store: it was built against a different
    model or prefix, or holds another passage length."""


class CacheFormatError(RuntimeError):
    """A cache file or a store manifest is malformed."""


class MissingEntryError(KeyError):
    """No cache entry exists for the requested document."""


CACHE_FRAME = Framing(b"CFKV", 1, struct.Struct("<16s16sIIIIdB"), CacheFormatError, "cache file")


@dataclass
class CacheStoreEntry:
    """One stored cache: the shared prefix or one document's passage, with
    keys rotated at canonical positions.

    The prefix has doc_id "", prefix_len 0, positions [0, its length) and
    its own hash as prefix_hash. A document sits at [prefix_len, prefix_len
    + passage_len); valid_len counts its real tokens before padding starts
    (padding keys are never attended). The prefix has no padding. layers
    holds, per model layer, one float32 (2, heads, tokens, head_dim) array:
    the keys, then the values.
    """

    doc_id: str
    model_fingerprint: str
    prefix_hash: str
    prefix_len: int
    valid_len: int
    layers: list[np.ndarray]

    @property
    def token_count(self) -> int:
        return self.layers[0].shape[2]

    @property
    def positions(self) -> np.ndarray:
        """The canonical position of each token, the one its keys are rotated at."""
        return np.arange(self.prefix_len, self.prefix_len + self.token_count, dtype=np.int64)

    @property
    def visible(self) -> np.ndarray:
        """False for each padding token."""
        return np.arange(self.token_count) < self.valid_len


def hash_tokens(tokens) -> str:
    ids = np.asarray(tokens, dtype=np.int64)
    return hashlib.sha256(ids.astype("<i4").tobytes()).hexdigest()[:16]


def passage_tokens(tokenizer: ByteTokenizer, title: str, text: str, length: int):
    """Tokenize a document into a fixed-length passage.

    Truncates past `length`; shorter passages are padded with PAD tokens.
    Returns (tokens of exactly `length`, count of real tokens).
    """
    if length < 1:
        raise ValueError(f"passage length must be >= 1, got {length}")
    body = f"{title}\n{text}" if title else text
    ids = tokenizer.encode(body)[:length]
    valid = len(ids)
    if valid == 0:
        raise ValueError("document produced no tokens")
    ids = ids + [PAD_ID] * (length - valid)
    return ids, valid


def build_prefix_cache(model: Model, prefix_tokens, *, meter: CostMeter | None = None) -> CacheStoreEntry:
    """Forward the shared prefix once; its cache starts at position 0."""
    tokens = [int(t) for t in prefix_tokens]
    if not tokens:
        raise ValueError("prefix must be non-empty")
    cache = model.new_cache(len(tokens))
    model.forward(cache, tokens, positions=np.arange(len(tokens)), meter=meter)
    return CacheStoreEntry(
        doc_id="",
        model_fingerprint=model.fingerprint,
        prefix_hash=hash_tokens(tokens),
        prefix_len=0,
        valid_len=len(tokens),
        layers=_stored_layers(cache, 0),
    )


def build_document_cache(
    model: Model,
    prefix: CacheStoreEntry,
    doc_tokens,
    *,
    doc_id: str = "",
    valid_len: int,
    meter: CostMeter | None = None,
) -> CacheStoreEntry:
    """Forward one fixed-length passage on top of the prefix cache.

    The first valid_len tokens are real and the rest padding, as
    passage_tokens returns them. The entry holds only the document tokens,
    rotated at canonical positions [prefix_len, prefix_len +
    len(doc_tokens)). Independent of any query and of every other document,
    so builds can run in any order.
    """
    if prefix.model_fingerprint != model.fingerprint:
        raise StaleCacheError("prefix cache was built with a different model")
    tokens = [int(t) for t in doc_tokens]
    if not 0 < valid_len <= len(tokens):
        raise ValueError(f"valid_len {valid_len} out of range for {len(tokens)} tokens")

    p = prefix.token_count
    cache = model.new_cache(p + len(tokens))
    for layer, (keys, values) in zip(cache.layers, prefix.layers):
        layer.append(keys, values, prefix.positions, prefix.visible)
    visible = np.arange(len(tokens)) < valid_len
    model.forward(
        cache,
        tokens,
        positions=np.arange(p, p + len(tokens)),
        visible=visible,
        meter=meter,
    )
    return CacheStoreEntry(
        doc_id=doc_id,
        model_fingerprint=model.fingerprint,
        prefix_hash=prefix.prefix_hash,
        prefix_len=p,
        valid_len=valid_len,
        layers=_stored_layers(cache, p),
    )


def _stored_layers(cache: KVCache, start: int) -> list[np.ndarray]:
    """The cache's tokens from `start` on, in an entry's float32 form."""
    return [np.array((layer.keys[:, start:], layer.values[:, start:]), dtype=np.float32)
            for layer in cache.layers]


def _write_kv_file(path: Path, entry: CacheStoreEntry, rope_base: float) -> int:
    layers = entry.layers
    _, num_heads, token_count, head_dim = layers[0].shape
    body = bytearray()
    for layer in layers:
        body += np.ascontiguousarray(layer, dtype=np.float32).tobytes()
    header = CACHE_FRAME.header.pack(
        entry.model_fingerprint.encode("ascii"),
        entry.prefix_hash.encode("ascii"),
        len(layers),
        num_heads,
        head_dim,
        token_count,
        rope_base,
        PAIRING_INTERLEAVED,
    )
    return write_framed(path, CACHE_FRAME, header, [body])


def _read_kv_file(path: Path, shape: tuple[int, int, int, int], *,
                  verified: VerifiedFiles | None = None):
    """Read a cache file into (model fingerprint, prefix hash, layers).

    shape is the (layers, heads, tokens, head_dim) the file must hold; a
    header that gives another is refused before the body is read. Each layer
    is read straight into a float32 (2, heads, tokens, head_dim) array of its
    own, keys then values, so one layer can be freed while the others live
    on. The crc is checked unless `verified` shows this file already passed
    it.
    """
    with open_framed(path, CACHE_FRAME, verified=verified) as frame:
        (fp, ph, num_layers, num_heads, head_dim, token_count, _rope_base, pairing
         ) = frame.fields
        if pairing != PAIRING_INTERLEAVED:
            raise CACHE_FRAME.fail(path, f"unknown pairing convention {pairing}")
        expected = num_layers * 2 * 4 * num_heads * token_count * head_dim
        if frame.body_size != expected:
            raise CACHE_FRAME.fail(path, f"body length {frame.body_size}, expected {expected}")
        try:
            fingerprint, prefix_hash = fp.decode("ascii"), ph.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CACHE_FRAME.fail(path, "header ids are not ascii") from exc
        found = (num_layers, num_heads, token_count, head_dim)
        if found != shape:
            raise StaleCacheError(f"cache file {path} dimensions {found} (layers, heads, tokens, "
                                  f"head_dim) do not match {shape} of the model config and the "
                                  f"store manifest")
        layers = []
        for _ in range(num_layers):
            layers.append(np.empty((2, num_heads, token_count, head_dim), dtype="<f4"))
            frame.readinto(layers[-1])
    return fingerprint, prefix_hash, layers


def _entry_filename(doc_id: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", doc_id)[:40]
    suffix = hashlib.sha1(doc_id.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{suffix}.cfkv"


class CacheStore:
    """On-disk store of the prefix cache and per-document cache entries.

    Bound to one model, the one `build` writes next to the caches and `open`
    reads back: reading the manifest refuses a store built with another
    model, and every load checks the file's fingerprint, prefix hash
    and dimensions rather than serving stale tensors. Writes go through a
    temp file and an atomic rename, so concurrent readers see whole files.
    Every manifest update (save_entry's, and build's final write) holds an
    exclusive lock on manifest.lock, so concurrent writers, in one process or
    several, lose no entry. Each store checks the crc of a cache file once
    (see the module docstring); its record of checked files is safe to share
    between threads.
    """

    def __init__(self, root, model: Model):
        self.root = Path(root)
        self.model = model
        self._verified = VerifiedFiles()

    @classmethod
    def open(cls, root) -> "CacheStore":
        """The store at `root`, bound to the model its build wrote there."""
        path = Path(root) / MODEL_NAME
        if not path.exists():
            raise MissingEntryError(f"no model file {path}; build the store with build-cache")
        return cls(root, Model.from_file(path))

    # -- manifest ---------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def read_manifest(self) -> dict:
        """Read the manifest, check its top-level fields and refuse a store
        built with another model; load_entry checks the record of each
        document it loads."""
        if not self.manifest_path.exists():
            raise MissingEntryError(f"no cache store at {self.root}")
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError as exc:
            raise self._bad_manifest(f"not JSON ({exc})") from exc
        if not isinstance(manifest, dict):
            raise self._bad_manifest("not a JSON object")
        for key in ("model_fingerprint", "prefix_hash"):
            if not isinstance(manifest.get(key), str):
                raise self._bad_manifest(f"{key} is not a string")
        tokens = manifest.get("prefix_tokens")
        if not isinstance(tokens, list) or not all(type(t) is int for t in tokens):
            raise self._bad_manifest("prefix_tokens is not a list of ints")
        for key in ("prefix_len", "passage_len"):
            if type(manifest.get(key)) is not int or manifest[key] < 1:
                raise self._bad_manifest(f"{key} is not an int >= 1")
        if not isinstance(manifest.get("docs"), dict):
            raise self._bad_manifest("docs is not an object")
        if manifest["model_fingerprint"] != self.model.fingerprint:
            raise StaleCacheError(
                f"store at {self.root} was built with model {manifest['model_fingerprint']}, "
                f"not {self.model.fingerprint}; pass force to rebuild it"
            )
        return manifest

    def _bad_manifest(self, problem: str) -> CacheFormatError:
        return CacheFormatError(f"manifest {self.manifest_path}: {problem}")

    @contextmanager
    def _manifest_lock(self):
        """Hold the store's advisory manifest lock (flock) for the block."""
        with open(self.root / MANIFEST_LOCK_NAME, "a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            yield

    def _write_manifest(self, manifest: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(self.manifest_path,
                     (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode("utf-8"))

    @property
    def passage_len(self) -> int:
        return self.read_manifest()["passage_len"]

    # -- building ---------------------------------------------------------

    def build(self, prefix_tokens, passages, *, passage_len: int = 64, force: bool = False) -> dict:
        """Build the prefix cache plus one entry per (doc_id, title, text).

        Every passage is read and tokenized before the first write, so a
        duplicate id, an empty document or a malformed corpus line leaves the
        store as it was. Refuses to overwrite a store built for a different
        model or prefix unless force is set. The model's weight file follows
        the caches. The manifest is written last, under the manifest lock,
        which is held until the document files it does not list, such as
        those a forced rebuild leaves, are removed. Returns {"documents": n,
        "bytes": total of the cache files}.
        """
        if passage_len < 1:
            raise ValueError(f"passage length must be >= 1, got {passage_len}")
        tokenizer = ByteTokenizer()
        staged: dict[str, tuple] = {}  # doc_id -> (tokens, valid_len)
        for doc_id, title, text in passages:
            if doc_id in staged:
                raise ValueError(f"duplicate document id {doc_id!r}")
            staged[doc_id] = passage_tokens(tokenizer, title, text, passage_len)
        prefix_tokens = [int(t) for t in prefix_tokens]
        prefix_entry = build_prefix_cache(self.model, prefix_tokens)
        if self.manifest_path.exists() and not force:
            if self.read_manifest()["prefix_hash"] != prefix_entry.prefix_hash:
                raise StaleCacheError(
                    f"store at {self.root} was built on another prefix; pass force to rebuild it"
                )

        total_bytes = self._write(prefix_entry, self.root / "prefix.cfkv")
        docs: dict[str, dict] = {}
        for doc_id, (tokens, valid) in staged.items():
            entry = build_document_cache(self.model, prefix_entry, tokens, doc_id=doc_id,
                                         valid_len=valid)
            total_bytes += self._write(entry, self.root / "docs" / _entry_filename(doc_id))
            docs[doc_id] = {"file": _entry_filename(doc_id), "valid_len": valid}
        save_weights(self.model, self.root / MODEL_NAME)
        manifest = {
            "format": CACHE_FRAME.version,
            "model_fingerprint": self.model.fingerprint,
            "prefix_hash": prefix_entry.prefix_hash,
            "prefix_tokens": prefix_tokens,
            "prefix_len": prefix_entry.token_count,
            "passage_len": passage_len,
            "docs": docs,
        }
        with self._manifest_lock():
            self._write_manifest(manifest)
            listed = {info["file"] for info in docs.values()}
            for path in (self.root / "docs").glob("*.cfkv"):
                if path.name not in listed:
                    path.unlink(missing_ok=True)
        return {"documents": len(docs), "bytes": total_bytes}

    # -- persistence ------------------------------------------------------

    def save_entry(self, entry: CacheStoreEntry) -> int:
        """Write one entry's cache file and add it to the manifest; returns
        the file's size in bytes. Nothing is written when the manifest is
        refused, or when the entry was built on another prefix or holds
        another passage length than the store's (StaleCacheError): such an
        entry could never be served."""
        name = _entry_filename(entry.doc_id)
        with self._manifest_lock():
            manifest = self.read_manifest()
            if entry.prefix_hash != manifest["prefix_hash"]:
                raise StaleCacheError(f"entry {entry.doc_id!r} was built on another prefix "
                                      f"than the store at {self.root}")
            if entry.token_count != manifest["passage_len"]:
                raise StaleCacheError(f"entry {entry.doc_id!r} holds {entry.token_count} tokens; "
                                      f"the store's passages hold {manifest['passage_len']}")
            size = self._write(entry, self.root / "docs" / name)
            manifest["docs"][entry.doc_id] = {"file": name, "valid_len": entry.valid_len}
            self._write_manifest(manifest)
        return size

    def _write(self, entry: CacheStoreEntry, path: Path) -> int:
        """Write one cache file, leaving the manifest as it is."""
        if entry.model_fingerprint != self.model.fingerprint:
            raise StaleCacheError(f"entry built with model {entry.model_fingerprint} does not "
                                  f"belong to this store's model {self.model.fingerprint}")
        path.parent.mkdir(parents=True, exist_ok=True)
        return _write_kv_file(path, entry, self.model.config.rope.base)

    def load_prefix(self, *, manifest: dict | None = None) -> CacheStoreEntry:
        """Load the prefix cache; pass a manifest already read to skip reading it."""
        manifest = manifest or self.read_manifest()
        return self._load(self.root / "prefix.cfkv", manifest, doc_id="", prefix_len=0,
                          valid_len=manifest["prefix_len"], token_count=manifest["prefix_len"])

    def load_entry(self, doc_id: str, *, manifest: dict | None = None) -> CacheStoreEntry:
        """Load one document's entry; pass a manifest already read to skip reading it."""
        manifest = manifest or self.read_manifest()
        info = manifest["docs"].get(doc_id)
        if info is None:
            raise MissingEntryError(f"no cache entry for document {doc_id!r}")
        if not isinstance(info, dict):
            raise self._bad_manifest(f"record of {doc_id!r} is not an object")
        name, valid = info.get("file"), info.get("valid_len")
        if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
            raise self._bad_manifest(f"file of {doc_id!r} is not a plain file name")
        if type(valid) is not int or not 1 <= valid <= manifest["passage_len"]:
            raise self._bad_manifest(f"valid_len of {doc_id!r} is not an int in [1, passage_len]")
        return self._load(self.root / "docs" / name, manifest, doc_id=doc_id,
                          prefix_len=manifest["prefix_len"], valid_len=valid,
                          token_count=manifest["passage_len"])

    def _load(self, path: Path, manifest: dict, *, doc_id: str, prefix_len: int,
              valid_len: int, token_count: int) -> CacheStoreEntry:
        """Read one cache file, refusing one built for another model, prefix
        or config, or one that does not hold the manifest's `token_count`."""
        cfg = self.model.config
        shape = (cfg.num_layers, cfg.num_heads, token_count, cfg.head_dim)
        fingerprint, prefix_hash, layers = _read_kv_file(path, shape, verified=self._verified)
        if fingerprint != self.model.fingerprint:
            raise StaleCacheError(
                f"cache file {path} fingerprint {fingerprint} does not match "
                f"model {self.model.fingerprint}"
            )
        if prefix_hash != manifest["prefix_hash"]:
            raise StaleCacheError(f"cache file {path} prefix hash does not match the store manifest")
        return CacheStoreEntry(
            doc_id=doc_id,
            model_fingerprint=fingerprint,
            prefix_hash=prefix_hash,
            prefix_len=prefix_len,
            valid_len=valid_len,
            layers=layers,
        )
