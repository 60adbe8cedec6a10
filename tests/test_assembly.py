"""Context assembly: the one-pass pre-fill and final allocation against the
rotate-everything, concatenate-float32 reference they replace, and the
decode cache pre-fill writes where its layout is already final."""

import tracemalloc

import numpy as np
import pytest

from kvfocus import focus
from kvfocus.cache_store import build_document_cache, build_prefix_cache
from kvfocus.focus import (
    PruningSchedule,
    PruningState,
    compute_n_reuse,
    final_reposition,
    plan_positions,
    prefill_with_pruning,
)
from kvfocus.model import Model, make_config
from kvfocus.rope import RopeConfig, Rotation, reposition_array

from reference import Layer, copy_cache, layer_cache

FIELDS = ("keys", "values", "position_ids", "visible")


def small_model(seed=0, **overrides):
    defaults = dict(num_layers=4, num_heads=2, head_dim=8, max_position=256, vocab_size=300)
    defaults.update(overrides)
    return Model.from_seed(make_config(**defaults), seed)


def concatenated(parts):
    """A float32 Layer from (keys, values, positions, visible) parts."""
    return Layer(*(np.concatenate([p[i] for p in parts], axis=1 if i < 2 else 0)
                   for i in range(4)))


def reference_prefill(model, prefix, entries, query_tokens, schedule, plan):
    """Pre-fill as it used to run: every layer of every cache rotated up front,
    each layer's context concatenated in float32 and copied into a fresh
    cache with room for the query's rows, which are appended to it; each
    cache's score columns are the range its own part filled in the
    concatenation, and scores cast the whole map to float64 and mask it once
    per cache.
    Returns (first token, query keys, query values, query positions, state,
    per-layer scores)."""
    cfg = model.config
    query_tokens = np.asarray(query_tokens, dtype=np.int64)
    state = PruningState.start([e.doc_id for e in entries], schedule, cfg.num_layers)
    rotated = {e.doc_id: [reposition_array(cfg.rope, keys, e.positions, plan.positions(e.doc_id))
                          for keys, _ in e.layers] for e in entries}
    by_id = {e.doc_id: e for e in entries}
    start = plan.end if entries else plan.prefix_len
    query_positions = np.arange(start, start + query_tokens.size, dtype=np.int64)
    query_rotation = Rotation.at(cfg.rope, query_positions)
    hidden = model.embed(query_tokens)
    query_keys, query_values, per_layer_scores = [], [], []
    for layer_index in range(cfg.num_layers):
        parts = [(*prefix.layers[layer_index], prefix.positions, prefix.visible)]
        spans = {}
        for cache_id in state.surviving_ids:
            e = by_id[cache_id]
            start = sum(part[0].shape[1] for part in parts)
            parts.append((rotated[cache_id][layer_index], e.layers[layer_index][1],
                          plan.positions(cache_id), e.visible))
            spans[cache_id] = (start, start + e.token_count)
        hidden, k32, v32, weights = model.forward_layer(
            layer_index, hidden, layer_cache(concatenated(parts), query_tokens.size),
            query_rotation, collect_map=True)
        query_keys.append(k32)
        query_values.append(v32)
        weights = weights.astype(np.float64)
        for cache_id, (start, stop) in spans.items():
            cols = np.zeros(weights.shape[2], dtype=bool)
            cols[start:stop] = True
            state.scores[cache_id] += float(weights[:, :, cols].sum(axis=2).mean())
        per_layer_scores.append(dict(state.scores))
        state.prune_after(layer_index + 1)
    first = int(np.argmax(model.logits(hidden)[-1]))
    return first, query_keys, query_values, query_positions, state, per_layer_scores


def reference_final(rope, prefix, entries, query_keys, query_values, query_positions,
                    state, strategy, plan):
    """The decode cache as it used to be built: five hand-made lists per
    layer, concatenated in float32 into a list of Layers."""
    entries = sorted((e for e in entries if e.doc_id in state.surviving_ids),
                     key=lambda e: state.surviving_ids.index(e.doc_id))
    if strategy == "none":
        targets = {e.doc_id: plan.positions(e.doc_id) for e in entries}
        new_query = query_positions
    else:
        placed = entries if strategy == "align" else sorted(
            entries, key=lambda e: (state.scores[e.doc_id], -state.rank_of[e.doc_id]))
        targets, cursor = {}, plan.prefix_len
        for e in placed:
            targets[e.doc_id] = np.arange(cursor, cursor + e.token_count, dtype=np.int64)
            cursor += e.token_count
        new_query = np.arange(cursor, cursor + query_positions.size, dtype=np.int64)
    layers = []
    q_len = query_positions.size
    for layer_index, (keys, values) in enumerate(prefix.layers):
        parts = [(keys, values, prefix.positions, prefix.visible)]
        for e in entries:
            keys, values = e.layers[layer_index]
            target = targets[e.doc_id]
            parts.append((reposition_array(rope, keys, e.positions, target),
                          values, target, e.visible))
        parts.append((reposition_array(rope, query_keys[layer_index], query_positions,
                                       new_query),
                      query_values[layer_index], new_query, np.ones(q_len, bool)))
        layers.append(concatenated(parts))
    return layers


def padded_documents(model, prefix, count, length=6):
    """Documents of one fixed length; every other one ends in padding."""
    docs = []
    for i in range(count):
        tokens = [(17 * i + 5 * t + 3) % 250 + 4 for t in range(length)]
        valid = length - 2 if i % 2 else length
        tokens[valid:] = [0] * (length - valid)
        docs.append(build_document_cache(model, prefix, tokens, doc_id=f"d{i}",
                                         valid_len=valid))
    return docs


SCHEDULES = {"none": None, "prune": PruningSchedule(interval=1, k_finish=2),
             "prune2": PruningSchedule(interval=2, k_finish=3)}


def check_against_reference(strategy, schedule, n_reuse):
    """Pre-fill and final allocation for a 6-token decode give the
    reference's first token, scores, pruned sets and survivors, and a decode
    cache holding its float32 values widened to float64 (exactly); returns
    the pre-fill result."""
    model = small_model(seed=11)
    prefix = build_prefix_cache(model, [1, 2, 3])
    docs = padded_documents(model, prefix, 6)
    plan = plan_positions([d.doc_id for d in docs], n_reuse, 6, prefix.token_count)
    query = [40, 41, 42, 43]
    first, qk, qv, qpos, state, scores = reference_prefill(
        model, prefix, docs, query, schedule, plan)
    expected = reference_final(model.config.rope, prefix, docs, qk, qv, qpos, state,
                               strategy, plan)

    result = prefill_with_pruning(model, prefix, docs, query, schedule, plan,
                                  strategy=strategy, gen_tokens=7)
    cache = final_reposition(model.config.rope, prefix, result)

    assert result.first_token == first
    assert result.per_layer_scores == scores
    assert result.state.pruned_at_layer == state.pruned_at_layer
    assert result.state.surviving_ids == state.surviving_ids
    for got, ref in zip(cache.layers, expected):
        for name in FIELDS:
            a, b = getattr(got, name), getattr(ref, name)
            if name in ("keys", "values"):
                assert a.dtype == np.float64 and b.dtype == np.float32, name
                b = b.astype(np.float64)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name
    tokens = model.decode(cache, first, 6)
    assert tokens == model.decode(copy_cache(expected, 6), first, 6)
    return result


class TestMatchesReference:
    @pytest.mark.parametrize("strategy", ["none", "align", "sort"])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("n_reuse", [1, 2, 6], ids=["sequential", "grouped", "slot0"])
    def test_bit_identical(self, strategy, schedule, n_reuse):
        """n_reuse=6 puts every cache in slot 0, where it does not move."""
        check_against_reference(strategy, SCHEDULES[schedule], n_reuse)

    @pytest.mark.parametrize("strategy", ["none", "align", "sort"])
    def test_layers_after_the_last_prune_event(self, strategy):
        """Over 4 layers, pruning at layer 3 leaves layer 3 with the final
        survivors: with strategy none pre-fill lays it out for decode and
        final allocation builds only layers 0-2."""
        result = check_against_reference(strategy, PruningSchedule(interval=3, k_finish=2), 2)
        assert list(result.state.pruned_at_layer) == [3]
        laid_out = [layer is not None for layer in result.decode_layers]
        assert laid_out == ([False, False, False, True] if strategy == "none" else [False] * 4)


class TestLazyRotation:
    def test_pruned_cache_is_not_rotated_again(self, monkeypatch):
        model = small_model(seed=12, num_layers=6)
        prefix = build_prefix_cache(model, [1, 2])
        docs = padded_documents(model, prefix, 6)
        plan = plan_positions([d.doc_id for d in docs], 2, 6, prefix.token_count)
        owner = {id(layer): (d.doc_id, i) for d in docs for i, layer in enumerate(d.layers)}
        calls = []
        original = focus.reposition_array

        def counted(config, vectors, old, new):  # a cache's keys are a view of its layer
            calls.append(owner.get(id(vectors.base)))
            return original(config, vectors, old, new)

        monkeypatch.setattr(focus, "reposition_array", counted)
        result = prefill_with_pruning(model, prefix, list(docs), [50, 51],
                                      PruningSchedule(interval=2, k_finish=2), plan)
        pruned_at = {doc_id: layer for layer, ids in result.state.pruned_at_layer.items()
                     for doc_id in ids}
        assert pruned_at, "the schedule should have pruned"
        for d in docs:
            layers = sorted(i for doc_id, i in calls if doc_id == d.doc_id)
            assert layers == list(range(pruned_at.get(d.doc_id, model.config.num_layers)))


class TestConstantShift:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shift", [-37, -1, 1, 5, 300])
    def test_fast_path_matches_per_token_path(self, dtype, shift):
        """A constant shift equals the same rows moved within a call whose
        extra last token makes the shifts differ, i.e. the per-token path."""
        config = RopeConfig(head_dim=16, max_position=1024)
        rng = np.random.default_rng(abs(shift))
        vectors = rng.standard_normal((3, 10, 16)).astype(dtype)
        old = np.arange(400, 410, dtype=np.int64)
        fast = reposition_array(config, vectors[:, :9], old[:9], old[:9] + shift)
        new = old + shift
        new[-1] += 1
        slow = reposition_array(config, vectors, old, new)
        assert fast.dtype == dtype
        assert np.array_equal(fast, slow[:, :9])

    def test_zero_shift_returns_input(self):
        config = RopeConfig(head_dim=8)
        vectors = np.ones((2, 4, 8), dtype=np.float32)
        positions = np.arange(3, 7)
        assert reposition_array(config, vectors, positions, positions) is vectors


def decode_buffer_bytes(result):
    """Bytes of the decode layers pre-fill laid out, spare rows included."""
    return sum(buffer.nbytes for layer in result.decode_layers if layer is not None
               for buffer in layer._buffers)


def test_prefill_does_not_copy_the_caches():
    """Pre-fill over k=40 caches of the default model must never hold a
    second copy of them: its peak allocation, less the decode layers it lays
    out (the decode cache, which final allocation and decoding built before),
    stays below the bytes of the entries' keys and values. Rotating every key
    up front, as pre-fill once did, fails this. The schedule-None case runs
    as the pipeline's cache mode does."""
    model = Model.from_seed(make_config(), 0)
    prefix = build_prefix_cache(model, [1, 99, 100, 101])
    docs = [build_document_cache(model, prefix, [(7 * i + t) % 250 + 4 for t in range(64)],
                                 doc_id=f"d{i}", valid_len=64) for i in range(40)]
    entry_bytes = sum(layer.nbytes for d in docs for layer in d.layers)
    cfg = model.config
    n_reuse = compute_n_reuse(40, cfg.rope.max_position, 64, prefix_len=prefix.token_count,
                              reserve=128)
    plan = plan_positions([d.doc_id for d in docs], n_reuse, 64, prefix.token_count)
    query = [(3 * t) % 250 + 4 for t in range(32)]
    peaks = []
    for schedule, decode in ((PruningSchedule(interval=4, k_finish=5), {}),
                             (None, {"strategy": "none", "gen_tokens": 32})):
        tracemalloc.start()
        try:
            result = prefill_with_pruning(model, prefix, list(docs), query, schedule, plan,
                                          **decode)
            peaks.append(tracemalloc.get_traced_memory()[1] - decode_buffer_bytes(result))
        finally:
            tracemalloc.stop()
    assert decode_buffer_bytes(result) > entry_bytes  # every layer was laid out for decode
    assert max(peaks) < entry_bytes, (peaks, entry_bytes)


def test_query_rotation_is_built_once_per_query(monkeypatch):
    """Pre-fill checks the query's positions and builds their rotation once,
    for every layer, whatever pruning does."""
    model = small_model(seed=13)
    prefix = build_prefix_cache(model, [1, 2])
    docs = padded_documents(model, prefix, 5)
    plan = plan_positions([d.doc_id for d in docs], 2, 6, prefix.token_count)
    built = []
    original = Rotation.at

    def counted(config, positions):
        built.append(np.array(positions))
        return original(config, positions)

    monkeypatch.setattr(Rotation, "at", counted)
    result = prefill_with_pruning(model, prefix, list(docs), [50, 51, 52],
                                  PruningSchedule(interval=1, k_finish=2), plan,
                                  strategy="sort", gen_tokens=4)
    assert len(built) == 1
    np.testing.assert_array_equal(built[0], result.query_positions)


def test_each_cache_layer_is_rotated_once_without_pruning(monkeypatch):
    """With strategy none and no schedule, pre-fill lays out every layer for
    decode: each (cache, layer) goes through reposition_array exactly once,
    and final allocation rotates nothing again, the query's keys included."""
    model = small_model(seed=13)
    prefix = build_prefix_cache(model, [1, 2])
    docs = padded_documents(model, prefix, 5)
    plan = plan_positions([d.doc_id for d in docs], 2, 6, prefix.token_count)
    owner = {id(layer): (d.doc_id, i) for d in docs for i, layer in enumerate(d.layers)}
    calls = []
    original = focus.reposition_array

    def counted(config, vectors, old, new):  # a cache's keys are a view of its layer
        calls.append(owner.get(id(vectors.base)))
        return original(config, vectors, old, new)

    monkeypatch.setattr(focus, "reposition_array", counted)
    result = prefill_with_pruning(model, prefix, list(docs), [50, 51, 52], None, plan,
                                  strategy="none", gen_tokens=4)
    assert sorted(calls) == sorted((d.doc_id, i) for d in docs
                                   for i in range(model.config.num_layers))
    cache = final_reposition(model.config.rope, prefix, result)
    assert len(calls) == len(docs) * model.config.num_layers
    assert [layer.capacity for layer in cache.layers] == [cache.token_count + 3] * 4
