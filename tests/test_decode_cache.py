"""Decode caches: in-place growth against the concatenate-and-cast reference."""

import tracemalloc
import weakref

import numpy as np
import pytest

from kvfocus import bench, focus
from kvfocus.cache_store import CacheStore
from kvfocus.focus import Pipeline, PruningSchedule
from kvfocus import model as model_module
from kvfocus.model import CostMeter, Model, _rms_norm, _seed_weights, _silu, make_config
from kvfocus.retrieval import index_corpus
from kvfocus.rope import Rotation
from kvfocus.tokenizer import ByteTokenizer

from reference import attention, copy_cache

FIELDS = ("keys", "values", "position_ids", "visible")


def tiny_model(seed=0, **overrides):
    return tiny_model_and_weights(seed, **overrides)[0]


def tiny_model_and_weights(seed=0, **overrides):
    """A tiny model and the float32 weight dict it was built from, so a
    reference can run the separate wq/wk/wv products the model fuses."""
    defaults = dict(num_layers=3, num_heads=2, head_dim=8, max_position=128, vocab_size=61)
    defaults.update(overrides)
    config = make_config(**defaults)
    weights = _seed_weights(config, seed)
    return Model(config, weights), weights


BLOCK = ("attn_norm", "wq", "wk", "wv", "wo", "ffn_norm", "w1", "w2")


def block_weights(weights, layer_index):
    """One layer's eight tensors from the weight dict, widened to float64."""
    return [weights[f"layers.{layer_index}.{name}"].astype(np.float64) for name in BLOCK]


def split_heads(model, x):
    return x.reshape(x.shape[0], model.config.num_heads, -1).transpose(1, 0, 2)


def context_cache(model, length=20):
    """A cache like the one the pipeline assembles, a position gap and
    invisible padding keys included, with no spare room."""
    cache = model.new_cache()
    tokens = (np.arange(length) * 5 + 3) % model.config.vocab_size
    positions = np.concatenate([np.arange(length // 2), np.arange(length // 2) + 40])
    visible = np.arange(length) % 7 != 6
    hidden = model.forward(cache, tokens, positions=positions, visible=visible)
    first = int(np.argmax(model.logits(hidden[-1:])[0]))
    return first, copy_cache(cache.layers)


def reference_layers(cache):
    """Plain float32 copies of every layer's fields, for the reference decode."""
    return [{name: getattr(layer, name).astype(np.float32) if name in ("keys", "values")
             else getattr(layer, name).copy() for name in FIELDS}
            for layer in cache.layers]


def reference_decode(model, weights, layers, token, steps):
    """Greedy decode as the cache used to work: each step concatenates the
    float32 cache with the new rows, casts keys/values to float64 and attends.
    q, k and v are three products with the weight dict's wq, wk and wv."""
    cfg = model.config
    out = []
    for _ in range(steps):
        position = np.array([int(layers[0]["position_ids"].max()) + 1])
        hidden = model.embed([token])
        for i, layer in enumerate(layers):
            attn_norm, wq, wk, wv, wo, ffn_norm, w1, w2 = block_weights(weights, i)
            x = _rms_norm(hidden, attn_norm)
            rotation = Rotation.at(cfg.rope, position)
            q = rotation.apply(split_heads(model, x @ wq))
            k32 = rotation.apply(split_heads(model, x @ wk)).astype(np.float32)
            v32 = split_heads(model, x @ wv).astype(np.float32)
            layer["keys"] = np.concatenate([layer["keys"], k32], axis=1)
            layer["values"] = np.concatenate([layer["values"], v32], axis=1)
            layer["position_ids"] = np.concatenate([layer["position_ids"], position])
            layer["visible"] = np.concatenate([layer["visible"], [True]])
            mask = layer["visible"][None, :].copy()
            mask[0, -1] = True
            o, _ = attention(q, layer["keys"].astype(np.float64),
                             layer["values"].astype(np.float64), mask, collect_map=False)
            hidden = hidden + o.transpose(1, 0, 2).reshape(1, -1) @ wo
            x2 = _rms_norm(hidden, ffn_norm)
            hidden = hidden + _silu(x2 @ w1) @ w2
        token = int(np.argmax(model.logits(hidden)[0]))
        out.append(token)
    return out


def assert_matches_reference(cache, layers):
    for layer, ref in zip(cache.layers, layers):
        for name in FIELDS:
            got = getattr(layer, name)
            assert got.shape == ref[name].shape, name
            assert np.array_equal(got, ref[name]), name


def general_mask_layer(model, weights, layer_index, hidden, layer_cache, rotation, visible):
    """One block as forward_layer runs it for several tokens, with separate
    wq, wk and wv products and public attention: the mask is built from the
    cached keys' visibility and a causal block in which every new key sees
    itself. Returns (hidden, keys, values, weights, mults)."""
    attn_norm, wq, wk, wv, wo, ffn_norm, w1, w2 = block_weights(weights, layer_index)
    t = hidden.shape[0]
    x = _rms_norm(hidden, attn_norm)
    q = rotation.apply(split_heads(model, x @ wq))
    k32 = rotation.apply(split_heads(model, x @ wk)).astype(np.float32)
    v32 = split_heads(model, x @ wv).astype(np.float32)
    ctx = layer_cache.token_count
    mask = np.empty((t, ctx + t), dtype=bool)
    mask[:, :ctx] = layer_cache.visible[None, :]
    mask[:, ctx:] = np.tril(np.ones((t, t), dtype=bool)) & (
        visible[None, :] | np.eye(t, dtype=bool))
    layer_cache.append(k32, v32, rotation.positions, visible)
    meter = CostMeter()
    out, weights = attention(q, layer_cache.keys, layer_cache.values, mask, meter=meter)
    hidden = hidden + out.transpose(1, 0, 2).reshape(t, -1) @ wo
    x2 = _rms_norm(hidden, ffn_norm)
    hidden = hidden + _silu(x2 @ w1) @ w2
    return hidden, k32, v32, weights, meter.prefill_mults


class TestSingleTokenMask:
    """One visible new token attends with the cache's own visibility flags
    as its mask, a view, in the unchecked attention core; an invisible one
    still gets the general mask, in which it sees itself. Either way the
    block equals the general one, run with public attention, bit for bit."""

    @pytest.mark.parametrize("new_visible", [None, True, False])
    def test_matches_the_general_mask(self, monkeypatch, new_visible):
        model, weights = tiny_model_and_weights(seed=5)
        _, context = context_cache(model)  # a position gap and padding keys
        assert not context.layers[0].visible.all()
        fast, general = copy_cache(context.layers), copy_cache(context.layers)
        fast.reserve(1)
        general.reserve(1)
        rotation = Rotation.at(model.config.rope, [fast.next_position()])
        visible = None if new_visible is None else np.array([new_visible])
        masks = []

        attend = model_module._attend

        def spy(queries, keys, values, causal_mask, *args):
            masks.append(causal_mask)
            return attend(queries, keys, values, causal_mask, *args)

        monkeypatch.setattr(model_module, "_attend", spy)
        hidden = model.embed([17])
        for i, (layer, reference) in enumerate(zip(fast.layers, general.layers)):
            meter = CostMeter()
            masks.clear()
            got = model.forward_layer(i, hidden, layer, rotation, visible=visible, meter=meter,
                                      collect_map=True)
            (mask,) = masks  # the reference's attention() below calls the core too
            want = general_mask_layer(model, weights, i, hidden, reference, rotation,
                                      np.array([new_visible is not False]))
            for name, a, b in zip(("hidden", "keys", "values", "weights"), got, want):
                assert np.array_equal(a, b), name
            assert meter.prefill_mults == want[4]
            for name in FIELDS:
                assert np.array_equal(getattr(layer, name), getattr(reference, name)), name
            assert bool(layer.visible[-1]) is (new_visible is not False)
            assert (got[3][:, 0, -1] > 0).all(), "the new token attends to itself"
            assert np.shares_memory(mask, layer.visible) is (new_visible is not False)
            hidden = got[0]


class TestBufferedDecode:
    def test_growth_mid_decode_matches_reference(self):
        model, weights = tiny_model_and_weights(seed=3)
        first, cache = context_cache(model)
        layers = reference_layers(cache)
        expected = reference_decode(model, weights, layers, first, 14)

        cache.reserve(3)
        start = cache.token_count
        capacities = []
        token, tokens = first, []
        for _ in range(14):
            hidden = model.forward(cache, [token])
            token = int(np.argmax(model.logits(hidden[-1:])[0]))
            tokens.append(token)
            capacities.append(cache.layers[0].capacity)
        assert capacities[0] == start + 3
        assert capacities[-1] > capacities[0], "the buffers should have grown mid-decode"
        assert tokens == expected
        assert_matches_reference(cache, layers)

    def test_model_decode_matches_reference_and_allocates_once(self):
        model, weights = tiny_model_and_weights(seed=4)
        first, cache = context_cache(model, length=24)
        layers = reference_layers(cache)
        expected = reference_decode(model, weights, layers, first, 9)
        start = cache.token_count
        tokens = model.decode(cache, first, 9)
        assert tokens == expected
        assert_matches_reference(cache, layers)
        assert all(layer.capacity == start + 9 for layer in cache.layers)
        # a second decode, past the first reservation, grows the buffers again
        more = reference_decode(model, weights, layers, tokens[-1], 5)
        assert model.decode(cache, tokens[-1], 5) == more
        assert_matches_reference(cache, layers)
        assert all(layer.capacity == start + 14 for layer in cache.layers)

    def test_zero_token_decode_keeps_the_cache_buffers(self):
        model = tiny_model()
        first, cache = context_cache(model)
        buffers = [layer._buffers for layer in cache.layers]
        assert model.decode(cache, first, 0) == []
        assert [layer._buffers for layer in cache.layers] == buffers
        assert all(layer.capacity == layer.token_count for layer in cache.layers)


class TestViewsAndCopies:
    def test_view_taken_before_append_is_unchanged(self):
        model = tiny_model(seed=5)
        first, cache = context_cache(model)
        views, capacities = [], {cache.layers[1].capacity}
        for step in range(6):  # growth, then in-place writes
            layer = cache.layers[1]
            views.append({name: (getattr(layer, name), getattr(layer, name).copy())
                          for name in FIELDS})
            model.forward(cache, [(first + step) % model.config.vocab_size])
            capacities.add(layer.capacity)
        assert len(capacities) > 1
        for snapshot in views:
            for name, (view, before) in snapshot.items():
                assert view.shape == before.shape, name
                assert np.array_equal(view, before), name


CORPUS = [(f"d{i}", "t", f"capital city {i}") for i in range(4)]


def small_store(tmp_path, model):
    store = CacheStore(tmp_path / "store", model)
    store.build(ByteTokenizer().encode("ctx:", add_bos=True), CORPUS, passage_len=12)
    return store


class TestPipelineReleasesEntries:
    def test_entries_collected_before_decode(self, tmp_path, monkeypatch):
        model = tiny_model(seed=8, num_layers=2, max_position=256, vocab_size=300)
        store = small_store(tmp_path, model)

        finalizers = []
        load_entry = store.load_entry

        def tracked(doc_id, **kwargs):
            entry = load_entry(doc_id, **kwargs)
            finalizers.append(weakref.finalize(entry, lambda: None))
            return entry

        alive_at_decode = []
        decode = Model.decode

        def checked(self, *args, **kwargs):
            alive_at_decode.append(sum(f.alive for f in finalizers))
            return decode(self, *args, **kwargs)

        monkeypatch.setattr(store, "load_entry", tracked)
        monkeypatch.setattr(Model, "decode", checked)
        pipeline = Pipeline(model, store, index_corpus(CORPUS), query_reserve=64)
        result = pipeline.run("capital city", k=4, gen_tokens=3)
        assert len(result.tokens) == 3
        assert len(finalizers) == 4
        assert alive_at_decode == [0]

    @pytest.mark.parametrize("mode", ["no-cache", "cache", "prune"])
    def test_bench_answer_entries_collected_before_decode(self, tmp_path, monkeypatch, mode):
        """bench.answer hands the entries it loads or encodes to the pipeline,
        which frees them during pre-fill."""
        model = tiny_model(seed=8, num_layers=2, max_position=256, vocab_size=300)
        store = small_store(tmp_path, model)
        finalizers = []

        def tracked(make):
            def wrapper(*args, **kwargs):
                entry = make(*args, **kwargs)
                finalizers.append(weakref.finalize(entry, lambda: None))
                return entry
            return wrapper

        monkeypatch.setattr(store, "load_entry", tracked(store.load_entry))
        monkeypatch.setattr(bench, "build_document_cache", tracked(bench.build_document_cache))
        alive_at_decode = []
        decode = Model.decode

        def checked(self, *args, **kwargs):
            alive_at_decode.append(sum(f.alive for f in finalizers))
            return decode(self, *args, **kwargs)

        monkeypatch.setattr(Model, "decode", checked)
        texts = {doc_id: (title, text) for doc_id, title, text in CORPUS}
        tokens, _ = bench.answer(store, index_corpus(CORPUS), mode, texts,
                                 "capital city", ["d0", "d1", "d2"], gen_tokens=3,
                                 schedule=PruningSchedule(interval=1, k_finish=1),
                                 strategy="sort", query_reserve=64)
        assert len(tokens) == 3
        assert len(finalizers) == 3
        assert alive_at_decode == [0]


class TestPipelineDecodeCache:
    @pytest.mark.parametrize("schedule, strategy", [
        (None, "none"),                                # every layer laid out in pre-fill
        (PruningSchedule(interval=2, k_finish=2), "none"),  # the last layer only
        (None, "align"),
        (PruningSchedule(interval=1, k_finish=2), "sort"),
    ], ids=["cache", "prune-none", "align", "prune-sort"])
    def test_room_for_every_token_and_no_reallocation(self, tmp_path, monkeypatch,
                                                      schedule, strategy):
        """The cache the pipeline hands to decoding is float64 with capacity
        token_count + gen_tokens - 1 in every layer, and decoding keeps its
        buffers."""
        model = tiny_model(seed=9, max_position=256, vocab_size=300)
        store = small_store(tmp_path, model)
        seen = []
        decode = Model.decode

        def checked(self, cache, *args, **kwargs):
            before = [(layer.capacity - layer.token_count, layer.keys.dtype, layer._buffers)
                      for layer in cache.layers]
            tokens = decode(self, cache, *args, **kwargs)
            seen.append([(spare, dtype, layer._buffers is buffers)
                         for (spare, dtype, buffers), layer in zip(before, cache.layers)])
            return tokens

        monkeypatch.setattr(Model, "decode", checked)
        pipeline = Pipeline(model, store, index_corpus(CORPUS), query_reserve=64)
        result = pipeline.run("capital city", k=4, schedule=schedule, strategy=strategy,
                              gen_tokens=6)
        assert len(result.tokens) == 6
        assert seen == [[(5, np.float64, True)] * model.config.num_layers]

    def test_one_token_builds_no_decode_cache(self, tmp_path, monkeypatch):
        """With gen_tokens=1 the answer is known when pre-fill ends: pre-fill
        lays out no decode layer, and neither final allocation nor decoding
        runs."""
        model = tiny_model(seed=9, max_position=256, vocab_size=300)
        store = small_store(tmp_path, model)
        pipeline = Pipeline(model, store, index_corpus(CORPUS), query_reserve=64)
        longer = pipeline.run("capital city", k=4, gen_tokens=3)
        prefills, calls = [], []
        prefill = focus.prefill_with_pruning

        def kept(*args, **kwargs):
            prefills.append(prefill(*args, **kwargs))
            return prefills[-1]

        monkeypatch.setattr(focus, "prefill_with_pruning", kept)
        monkeypatch.setattr(focus, "final_reposition", lambda *a: calls.append(a))
        monkeypatch.setattr(Model, "decode", lambda *a, **kw: calls.append(a))
        result = pipeline.run("capital city", k=4, gen_tokens=1)
        assert result.tokens == longer.tokens[:1]
        assert result.trace.decode_context_length == longer.trace.decode_context_length
        assert prefills[0].decode_layers == [None] * model.config.num_layers
        assert calls == []


def test_cache_mode_frees_entries_while_writing_the_decode_cache(tmp_path):
    """Pipeline.run in cache mode, k=40, default model, 32 tokens: pre-fill
    writes the float64 decode cache while it frees the loaded entries layer
    by layer, so the peak stays below the decode cache plus half the
    entries. Holding every entry until pre-fill ends needs all of both."""
    model = Model.from_seed(make_config(), 0)
    corpus = [(f"d{i}", f"title {i}", f"capital city {i} of country {i % 7}")
              for i in range(40)]
    store = CacheStore(tmp_path / "store", model)
    store.build(ByteTokenizer().encode("context:", add_bos=True), corpus, passage_len=64)
    pipeline = Pipeline(model, store, index_corpus(corpus), query_reserve=128)
    gen_tokens = 32
    tracemalloc.start()
    try:
        result = pipeline.run("capital city of country", 40, gen_tokens=gen_tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.trace.retrieved_ids) == 40 and len(result.tokens) == gen_tokens
    cfg = model.config
    capacity = result.trace.decode_context_length + gen_tokens - 1
    row_bytes = 2 * cfg.num_heads * cfg.head_dim * 8 + 8 + 1  # keys, values, position, flag
    decode_bytes = cfg.num_layers * capacity * row_bytes
    entry_bytes = 40 * cfg.num_layers * 2 * cfg.num_heads * 64 * cfg.head_dim * 4
    assert peak < decode_bytes + entry_bytes / 2, (peak, decode_bytes, entry_bytes)


def test_decode_step_allocates_less_than_one_layer():
    """A decode step must not copy the whole cache: its peak allocation stays
    below one layer's float32 keys at a 2,000-token context."""
    model = Model.from_seed(make_config(max_position=4096), 0)
    cache = model.new_cache()
    context = 2000
    hidden = model.forward(cache, (np.arange(context) * 31 + 7) % model.config.vocab_size)
    first = int(np.argmax(model.logits(hidden[-1:])[0]))
    cfg = model.config
    one_layer_keys = cfg.num_heads * context * cfg.head_dim * np.dtype(np.float32).itemsize
    steps = 4
    cache.reserve(1 + steps)

    tracemalloc.start()
    try:
        token = first
        peaks = []
        for step in range(1 + steps):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            hidden = model.forward(cache, [token])
            token = int(np.argmax(model.logits(hidden[-1:])[0]))
            _, peak = tracemalloc.get_traced_memory()
            if step:  # the first step is a warm-up
                peaks.append(peak - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) < one_layer_keys, (peaks, one_layer_keys)
