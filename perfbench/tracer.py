"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public kvfocus functions with timing wrappers at the
place they are looked up (for instance ``kvfocus.focus.reposition_array``,
which the pipeline calls through its own module globals, and methods such as
``Model.forward_layer`` on their class). The program itself is not changed.

A span records its name, start, end, parent span, the top-level operation
(query or ingest) it belongs to and a few counts taken from the call's
arguments or result. Spans stay in memory; self time is a span's duration
minus the time its child spans cover. Every wrapper counts its calls, and
``check_fired`` raises if one never ran, so a refactor that stops calling a
patched name fails the benchmark instead of silently zeroing a metric.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from kvfocus import cache_store as kv_cache_store
from kvfocus import focus as kv_focus
from kvfocus import retrieval as kv_retrieval
from kvfocus.cache_store import CacheStore
from kvfocus.focus import AllocationPlan
from kvfocus.model import Model


@dataclass
class Span:
    id: int
    name: str
    parent: "Span | None"
    root: "Span | None"
    start: float
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _rotated_vectors(args, kwargs, result):
    # reposition_array(config, vectors, old_positions, new_positions) rotates
    # every vector when any position moves, and returns the input otherwise.
    vectors, old, new = args[1], args[2], args[3]
    moved = bool((old != new).any()) if len(old) else False
    return {"vectors": int(vectors.size // vectors.shape[-1]) if moved else 0}


def _layer_call(args, kwargs, result):
    layer_cache = args[3]
    return {"layer": int(args[1]),
            "cols": layer_cache.token_count if layer_cache is not None else 0}


# (owner, attribute, span name, attrs from (args, kwargs, result) or None)
TARGETS = [
    (kv_focus, "search", "retrieval.search", None),
    (kv_retrieval, "index_corpus", "retrieval.index_build", None),
    (CacheStore, "read_manifest", "cache_store.read_manifest", None),
    (CacheStore, "load_prefix", "cache_store.load_prefix", None),
    (CacheStore, "load_entry", "cache_store.load_entry",
     lambda a, kw, r: {"doc_id": a[1]}),
    (kv_cache_store, "build_document_cache", "cache_store.build_doc", None),
    (CacheStore, "save_entry", "cache_store.save_entry",
     lambda a, kw, r: {"bytes": int(r) + a[0].manifest_path.stat().st_size}),
    (kv_focus, "compute_n_reuse", "focus.n_reuse", lambda a, kw, r: {"n_reuse": int(r)}),
    (kv_focus, "plan_positions", "focus.plan_positions", None),
    (AllocationPlan, "validate", "focus.plan_validate", None),
    (kv_focus, "prefill_with_pruning", "focus.prefill", None),
    (kv_focus, "accumulate_scores", "focus.score", None),
    (kv_focus, "reposition_array", "rope.reposition", _rotated_vectors),
    (kv_focus, "final_reposition", "focus.final_alloc",
     lambda a, kw, r: {"ctx_tokens": r.token_count}),
    (Model, "forward_layer", "model.forward_layer", _layer_call),
    (Model, "decode", "model.decode", lambda a, kw, r: {"tokens": len(r)}),
]


class Recorder:
    """Keeps spans in memory; patched() installs the wrappers for one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fired = {name: 0 for _, _, name, _ in TARGETS}
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), name=name, parent=parent,
                    root=parent.root if parent is not None else None,
                    start=0.0, attrs=attrs)
        if span.root is None:
            span.root = span
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must nest"
        if span.parent is not None:
            span.parent.child_time += span.duration

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name, attrs)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, func, name, attrs_fn):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            recorder.fired[name] += 1
            span = recorder._open(name, {})
            try:
                result = func(*args, **kwargs)
            finally:
                recorder._close(span)
            if attrs_fn is not None:
                span.attrs.update(attrs_fn(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Wrap every target for the duration of the block, then restore it,
        so untraced calls in between run the program unmodified."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        try:
            for owner, attribute, name, attrs_fn in TARGETS:
                original = getattr(owner, attribute)
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name, attrs_fn))
            yield
        finally:
            while self._saved:
                owner, attribute, original = self._saved.pop()
                setattr(owner, attribute, original)

    def check_fired(self) -> None:
        silent = sorted(name for name, count in self.fired.items() if count == 0)
        if silent:
            raise RuntimeError(
                "traced wrappers never fired (the program no longer calls them "
                f"where the benchmark patches them): {', '.join(silent)}"
            )

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]
