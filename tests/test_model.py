"""Transformer core: attention oracle, cache equivalence, weight persistence."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from kvfocus import model as model_module
from kvfocus.model import (
    CapacityError,
    CostMeter,
    LayerCache,
    Model,
    PREFILL_CHUNK,
    WeightFormatError,
    _attend,
    _rms_norm,
    _seed_weights,
    fingerprint,
    load_weights,
    make_config,
    save_weights,
)
from kvfocus.rope import PositionOverflowWarning, Rotation

from reference import attention

FIELDS = ("keys", "values", "position_ids", "visible")


def tiny_model(seed=0, **overrides):
    defaults = dict(num_layers=2, num_heads=2, head_dim=8, max_position=64, vocab_size=61)
    defaults.update(overrides)
    return Model.from_seed(make_config(**defaults), seed)


def greedy(model, hidden):
    """The greedy next token after the last hidden row."""
    return int(np.argmax(model.logits(hidden[-1:])[0]))


def reference_attention(queries, keys, values, mask):
    """Oracle: plain double-loop softmax attention, no vectorization."""
    heads, rows, dim = queries.shape
    cols = keys.shape[1]
    out = np.zeros((heads, rows, dim))
    weights = np.zeros((heads, rows, cols))
    for h in range(heads):
        for r in range(rows):
            scores = []
            for c in range(cols):
                if mask[r, c]:
                    scores.append(sum(queries[h, r, d] * keys[h, c, d] for d in range(dim)) / math.sqrt(dim))
                else:
                    scores.append(None)
            finite = [s for s in scores if s is not None]
            top = max(finite)
            exps = [math.exp(s - top) if s is not None else 0.0 for s in scores]
            z = sum(exps)
            for c in range(cols):
                weights[h, r, c] = exps[c] / z
                for d in range(dim):
                    out[h, r, d] += weights[h, r, c] * values[h, c, d]
    return out, weights


class TestAttention:
    """The checked reference attention that the model's core is compared
    against (tests/reference.py), itself against the double loop."""

    def test_single_key_gets_full_weight(self):
        q = np.ones((1, 1, 4))
        k = np.full((1, 1, 4), 0.3)
        v = np.arange(4, dtype=float).reshape(1, 1, 4)
        mask = np.ones((1, 1), dtype=bool)
        out, weights = attention(q, k, v, mask)
        np.testing.assert_allclose(weights, [[[1.0]]])
        np.testing.assert_allclose(out, v)

    def test_identical_keys_split_evenly(self):
        q = np.ones((1, 1, 4))
        k = np.tile(np.array([0.5, -0.2, 0.1, 0.9]), (1, 2, 1))
        v = np.stack([np.zeros(4), np.ones(4)]).reshape(1, 2, 4)
        mask = np.ones((1, 2), dtype=bool)
        out, weights = attention(q, k, v, mask)
        np.testing.assert_allclose(weights[0, 0], [0.5, 0.5], atol=1e-7)
        np.testing.assert_allclose(out[0, 0], np.full(4, 0.5), atol=1e-7)

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(17)
        q = rng.standard_normal((2, 3, 6))
        k = rng.standard_normal((2, 3, 6))
        v = rng.standard_normal((2, 3, 6))
        mask = np.tril(np.ones((3, 3), dtype=bool))
        out, weights = attention(q, k, v, mask)
        ref_out, ref_w = reference_attention(q, k, v, mask)
        np.testing.assert_allclose(out, ref_out, atol=1e-5)
        np.testing.assert_allclose(weights, ref_w, atol=1e-5)

    def test_rows_sum_to_one_and_masked_entries_zero(self):
        rng = np.random.default_rng(23)
        q = rng.standard_normal((2, 4, 6))
        kv = rng.standard_normal((2, 7, 6))
        mask = rng.random((4, 7)) < 0.6
        mask[:, 0] = True
        _, weights = attention(q, kv, kv, mask)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-5)
        assert (weights[:, ~mask] == 0.0).all()

    def test_shape_mismatch_rejected(self):
        q = np.ones((1, 2, 4))
        k = np.ones((1, 3, 4))
        v = np.ones((1, 2, 4))
        with pytest.raises(ValueError):
            attention(q, k, v, np.ones((2, 3), dtype=bool))

    def test_meter_counts_both_products(self):
        meter = CostMeter()
        q = np.ones((2, 3, 4))
        kv = np.ones((2, 5, 4))
        attention(q, kv, kv, np.ones((3, 5), dtype=bool), meter=meter)
        assert meter.prefill_mults == 2 * 2 * 3 * 5 * 4


class TestAttentionCore:
    """forward_layer calls the core, which makes none of the reference
    attention()'s casts and checks; on inputs that pass those checks the two
    agree bit for bit."""

    @staticmethod
    def assert_core_matches(q, k, v, mask, collect_map):
        meters = CostMeter(), CostMeter()
        want = attention(q, k, v, mask, meter=meters[0], collect_map=collect_map)
        got = _attend(q, k, v, mask, np.count_nonzero(mask), meters[1], collect_map)
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert meters[0].prefill_mults == meters[1].prefill_mults > 0

    @pytest.mark.parametrize("hidden_keys", [False, True])
    @pytest.mark.parametrize("collect_map", [False, True])
    def test_decode_shaped(self, hidden_keys, collect_map):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((4, 1, 8))
        k, v = rng.standard_normal((2, 4, 37, 8))
        visible = rng.random(37) < 0.7 if hidden_keys else np.ones(37, dtype=bool)
        visible[-1] = True  # the new token sees itself
        assert bool(visible.all()) is not hidden_keys
        self.assert_core_matches(q, k, v, visible[None, :], collect_map)

    def test_prefill_shaped_causal_block(self):
        rng = np.random.default_rng(4)
        ctx, t = 20, 6
        q = rng.standard_normal((2, t, 8))
        k, v = rng.standard_normal((2, 2, ctx + t, 8))
        mask = np.zeros((t, ctx + t), dtype=bool)
        mask[:, :ctx] = rng.random(ctx) < 0.8
        mask[:, ctx:] = np.tril(np.ones((t, t), dtype=bool))
        self.assert_core_matches(q, k, v, mask, collect_map=True)


@pytest.mark.parametrize("config", [make_config(), make_config(num_heads=2, head_dim=8)],
                         ids=["default", "tiny"])
def test_fused_qkv_product_equals_separate_products(config):
    """Model fuses wq, wk and wv into one (h, 3h) matrix. That keeps tokens
    and caches bit-identical only while this BLAS computes each column of
    x @ wqkv exactly as in x @ wq, x @ wk and x @ wv, for every row count a
    forward chunk can have."""
    weights = _seed_weights(config, 0)
    wq, wk, wv = (weights[f"layers.0.{name}"].astype(np.float64) for name in ("wq", "wk", "wv"))
    wqkv = Model(config, weights)._blocks[0][1]
    assert np.array_equal(wqkv, np.concatenate([wq, wk, wv], axis=1))
    h = config.hidden_dim
    x_all = _rms_norm(np.random.default_rng(5).standard_normal((PREFILL_CHUNK, h)), np.ones(h))
    for rows in range(1, PREFILL_CHUNK + 1):
        x = x_all[:rows]
        fused = x @ wqkv
        for i, w in enumerate((wq, wk, wv)):
            assert np.array_equal(fused[:, i * h:(i + 1) * h], x @ w), (rows, i)


class TestForward:
    def test_cache_grows_by_token_count(self):
        model = tiny_model()
        cache = model.new_cache(4)
        assert cache.token_count == 0
        model.forward(cache, [5])
        assert cache.token_count == 1
        model.forward(cache, [1, 2, 3])
        assert cache.token_count == 4
        np.testing.assert_array_equal(cache.layers[0].position_ids, [0, 1, 2, 3])
        # sized once, when it was made
        assert [(layer.capacity, layer.keys.dtype) for layer in cache.layers] == [
            (4, np.float64)] * model.config.num_layers

    def test_attention_map_shape_over_prefix(self):
        model = tiny_model()
        cache = model.new_cache(6)
        model.forward(cache, [1, 2, 3, 4])
        hidden = model.embed([5, 6])
        _, _, _, weights = model.forward_layer(0, hidden, cache.layers[0],
                                               Rotation.at(model.config.rope, [4, 5]),
                                               collect_map=True)
        assert weights.shape == (2, 2, 6)
        # the first query row cannot see the second query token
        assert weights[:, 0, 5].max() == 0.0

    def test_split_forward_matches_monolithic(self):
        """Oracle: one whole-sequence pass versus prefix-then-rest."""
        model = tiny_model(seed=3)
        tokens = np.arange(1, 13) % 61
        mono = model.new_cache(12)
        hidden_mono = model.forward(mono, tokens)
        split = model.new_cache(12)
        model.forward(split, tokens[:5])
        hidden_split = model.forward(split, tokens[5:])
        np.testing.assert_allclose(hidden_split, hidden_mono[5:], rtol=1e-5, atol=1e-7)
        for la, lb in zip(mono.layers, split.layers):
            np.testing.assert_array_equal(la.keys, lb.keys)
            np.testing.assert_array_equal(la.values, lb.values)

    def test_invisible_keys_are_skipped(self):
        model = tiny_model(seed=8)
        with_pad = model.new_cache(5)
        model.forward(with_pad, [4, 5, 9, 9], visible=np.array([True, True, False, False]),
                      positions=np.arange(4))
        h_pad = model.forward(with_pad, [7], positions=[4])
        without = model.new_cache(3)
        model.forward(without, [4, 5], positions=np.arange(2))
        h_clean = model.forward(without, [7], positions=[4])
        np.testing.assert_allclose(h_pad, h_clean, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("rows", [1, 7, 300])
def test_rms_norm_matches_the_mean_form_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, 96)) * 3.0  # a width whose inverse is inexact
    gain = rng.standard_normal(96)
    expected = x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True)
                           + model_module.NORM_EPS) * gain
    assert np.array_equal(_rms_norm(x, gain), expected)


class TestPerCallWork:
    """A forward call checks its positions and builds their rotation once,
    for every layer; every check still holds."""

    @staticmethod
    def count_rotations(monkeypatch):
        sizes = []
        original = Rotation.at

        def counted(config, positions):
            sizes.append(len(positions))
            return original(config, positions)

        monkeypatch.setattr(Rotation, "at", counted)
        return sizes

    def test_rotation_is_built_once_per_forward_call(self, monkeypatch):
        model = tiny_model(num_layers=3, max_position=512)
        sizes = self.count_rotations(monkeypatch)
        cache = model.new_cache(8)
        model.forward(cache, [1, 2, 3])
        assert sizes == [3]
        model.decode(cache, 4, 5)
        assert sizes == [3] + [1] * 5
        sizes.clear()
        model.forward(model.new_cache(PREFILL_CHUNK + 5), np.arange(PREFILL_CHUNK + 5) % 61)
        assert sizes == [PREFILL_CHUNK, 5]

    @pytest.mark.parametrize("tokens", [[5], [5, 6]])
    def test_positions_of_the_wrong_length_are_rejected(self, tokens):
        model = tiny_model()
        cache = model.new_cache(3 + len(tokens))
        model.forward(cache, [1, 2, 3])
        hidden = model.embed(tokens)
        t = len(tokens)
        for positions in (np.arange(3, 3 + t - 1), np.arange(3, 3 + t + 1)):
            with pytest.raises(ValueError, match="does not match token count"):
                model.forward_layer(0, hidden, cache.layers[0],
                                    Rotation.at(model.config.rope, positions))
            with pytest.raises(ValueError, match="does not match token count"):
                model.forward(cache, tokens, positions=positions)
        with pytest.raises(ValueError, match="visible shape"):
            model.forward(cache, tokens, visible=[True] * (t + 1))
        assert cache.token_count == 3

    def test_decode_past_the_range_warns_once_per_token(self):
        model = tiny_model(max_position=64)
        cache = model.new_cache(70)
        first = greedy(model, model.forward(cache, np.arange(60) % 61))
        with warnings.catch_warnings(record=True) as issued:
            warnings.simplefilter("always")
            model.decode(cache, first, 10)  # positions 60..69
        overflows = [w for w in issued if issubclass(w.category, PositionOverflowWarning)]
        assert len(overflows) == 6
        np.testing.assert_array_equal(cache.layers[-1].position_ids[-10:], np.arange(60, 70))


class TestPrefillDecode:
    def test_prefill_emits_one_token(self):
        model = tiny_model()
        cache = model.new_cache(3)
        first = greedy(model, model.forward(cache, [1, 2, 3]))
        assert isinstance(first, int)
        assert cache.token_count == 3
        assert model.decode(cache, first, 0) == []

    def test_split_prefill_equals_single_call(self):
        model = tiny_model(seed=5)
        tokens = (np.arange(40) * 7 + 1) % 61
        cache_one = model.new_cache(40)
        f_one = greedy(model, model.forward(cache_one, tokens))
        cache_two = model.new_cache(40)
        model.forward(cache_two, tokens[:13])
        f_two = greedy(model, model.forward(cache_two, tokens[13:]))
        assert f_one == f_two
        for la, lb in zip(cache_one.layers, cache_two.layers):
            np.testing.assert_array_equal(la.keys, lb.keys)

    def test_prefill_matches_explicit_decode_loop(self):
        """Oracle: the two-phase loop run by hand, one token at a time."""
        model = tiny_model(seed=11)
        tokens = [3, 1, 4, 1, 5]
        cache = model.new_cache(9)
        first = greedy(model, model.forward(cache, tokens))
        generated = [first] + model.decode(cache, first, 4)

        by_hand_cache = model.new_cache(9)
        hidden = model.forward(by_hand_cache, tokens)
        seq = [int(np.argmax(model.logits(hidden[-1:])[0]))]
        for _ in range(4):
            hidden = model.forward(by_hand_cache, [seq[-1]])
            seq.append(int(np.argmax(model.logits(hidden[-1:])[0])))
        assert generated == seq

    def test_decode_is_deterministic(self):
        model = tiny_model(seed=2)
        runs = []
        for _ in range(2):
            cache = model.new_cache(13)
            first = greedy(model, model.forward(cache, [9, 8, 7]))
            runs.append(model.decode(cache, first, 10))
        assert runs[0] == runs[1]

    def test_capacity_limit_enforced(self, monkeypatch):
        """The limit is checked where a cache is made, and a cache holds no
        more than it was made for: a refused write changes nothing."""
        model = tiny_model()
        monkeypatch.setattr(model_module, "MAX_CACHE_TOKENS", 8)
        with pytest.raises(CapacityError, match="over the limit of 8"):
            model.new_cache(9)
        cache = model.new_cache(8)
        with pytest.raises(CapacityError):
            model.forward(cache, np.ones(9, dtype=int))
        assert cache.token_count == 0
        first = greedy(model, model.forward(cache, np.ones(7, dtype=int)))
        assert len(model.decode(cache, first, 1)) == 1
        for run in (lambda: model.forward(cache, [1]), lambda: model.decode(cache, first, 1)):
            with pytest.raises(CapacityError):
                run()
            assert cache.token_count == 8

        layer = LayerCache.with_capacity(model.config.num_heads, model.config.head_dim, 3)
        keys = np.ones((model.config.num_heads, 2, model.config.head_dim), dtype=np.float32)
        layer.append(keys, keys, [0, 1], True)
        before = [getattr(layer, name).copy() for name in FIELDS]
        buffers = layer._buffers
        with pytest.raises(CapacityError, match="do not fit"):
            layer.append(2 * keys, 2 * keys, [2, 3], True)
        assert layer.token_count == 2 and layer.capacity == 3 and layer._buffers is buffers
        for name, was in zip(FIELDS, before):
            assert np.array_equal(getattr(layer, name), was), name

    def test_refused_decode_grows_nothing(self):
        """forward and decode check every layer's room up front, so a call
        that one layer has no room for writes no layer."""
        model = tiny_model()
        cache = model.new_cache(10)
        model.forward(cache, np.ones(8, dtype=int))
        cfg = model.config
        # one layer shorter than the others: layer 0 alone has room
        short = LayerCache.with_capacity(cfg.num_heads, cfg.head_dim, 8)
        short.append(*(getattr(cache.layers[-1], name) for name in FIELDS))
        cache.layers[-1] = short
        buffers = [layer._buffers for layer in cache.layers]
        for run in (lambda: model.decode(cache, 1, 100), lambda: model.decode(cache, 1, 2),
                    lambda: model.forward(cache, [1, 2])):
            with pytest.raises(CapacityError):
                run()
            assert [layer.token_count for layer in cache.layers] == [8] * cfg.num_layers
            assert [layer._buffers for layer in cache.layers] == buffers
            assert [layer.capacity for layer in cache.layers] == [10] * (cfg.num_layers - 1) + [8]

    def test_chunked_prefill_matches_unchunked(self, monkeypatch):
        model = tiny_model(seed=6)
        tokens = (np.arange(30) + 2) % 61
        monkeypatch.setattr(model_module, "PREFILL_CHUNK", 7)
        cache_a = model.new_cache(len(tokens))
        hidden_a = model.forward(cache_a, tokens)
        monkeypatch.setattr(model_module, "PREFILL_CHUNK", 1000)
        cache_b = model.new_cache(len(tokens))
        hidden_b = model.forward(cache_b, tokens)
        # a chunked call returns its last chunk's rows: 30 = 4 * 7 + 2
        assert hidden_a.shape == (2, model.config.hidden_dim)
        np.testing.assert_allclose(hidden_a, hidden_b[-2:], rtol=1e-5, atol=1e-7)
        assert greedy(model, hidden_a) == greedy(model, hidden_b)
        for la, lb in zip(cache_a.layers, cache_b.layers):
            np.testing.assert_array_equal(la.keys, lb.keys)
            np.testing.assert_array_equal(la.values, lb.values)
            np.testing.assert_array_equal(la.position_ids, lb.position_ids)


class TestWeights:
    def test_seeded_weights_reproducible(self, tmp_path):
        a = tiny_model(seed=42)
        b = tiny_model(seed=42)
        assert a.fingerprint == b.fingerprint
        save_weights(a, tmp_path / "a.cfwt")
        save_weights(b, tmp_path / "b.cfwt")
        assert (tmp_path / "a.cfwt").read_bytes() == (tmp_path / "b.cfwt").read_bytes()

    def test_model_holds_one_float64_copy_of_the_weights(self):
        model = tiny_model()
        arrays = []

        def collect(value):
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    collect(item)

        for value in vars(model).values():
            collect(value)
        assert not hasattr(model, "weights")
        assert {a.dtype for a in arrays} == {np.dtype(np.float64)}
        assert sum(a.size for a in arrays) == model_module._weight_count(model.config)

    def test_default_seed_model_file_is_pinned(self, tmp_path):
        """The float64 copies rounded back give the float32 file bytes."""
        model = Model.from_seed(make_config(), 0)
        path = tmp_path / "m.cfwt"
        save_weights(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b889923d993f8d35c72996b1e6920df53e07d284104c2cc907a758a396a76791")
        assert model.fingerprint == "d484ad8737b50633"
        assert Model.from_file(path).fingerprint == model.fingerprint

    def test_different_seed_changes_fingerprint(self):
        assert tiny_model(seed=1).fingerprint != tiny_model(seed=2).fingerprint

    def test_weight_file_round_trip(self, tmp_path):
        model = tiny_model(seed=13)
        path = tmp_path / "m.cfwt"
        save_weights(model, path)
        config, weights = load_weights(path)
        assert config.num_layers == model.config.num_layers
        assert fingerprint(config, weights) == model.fingerprint
        loaded = Model.from_file(path)
        first_a = greedy(model, model.forward(model.new_cache(3), [1, 2, 3]))
        first_b = greedy(loaded, loaded.forward(loaded.new_cache(3), [1, 2, 3]))
        assert first_a == first_b

    def test_corrupt_file_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.cfwt"
        save_weights(model, path)
        raw = bytearray(path.read_bytes())
        raw[50] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightFormatError):
            load_weights(path)

    @pytest.mark.parametrize("damage", ["short-header", "short-config", "short-body"])
    def test_truncated_file_rejected(self, tmp_path, damage):
        path = tmp_path / "m.cfwt"
        model = tiny_model()
        save_weights(model, path)
        raw = path.read_bytes()
        path.write_bytes({"short-header": b"CFWT",
                          "short-config": b"CFWT\x01\x00\x00\x00\x08",
                          "short-body": raw[:-5] + raw[-4:]}[damage])
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_mismatched_layer_counts_detected(self):
        model = tiny_model()
        cache = model.new_cache(1)
        model.forward(cache, [1])
        cache.layers[0] = LayerCache.with_capacity(model.config.num_heads,
                                                   model.config.head_dim, 0)
        with pytest.raises(ValueError):
            _ = cache.token_count
