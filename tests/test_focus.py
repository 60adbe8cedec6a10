"""Pipeline mechanics: grouping arithmetic, pruning, allocation, identity."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvfocus import focus
from kvfocus.cache_store import (
    CacheStore,
    CacheStoreEntry,
    build_document_cache,
    build_prefix_cache,
    passage_tokens,
)
from kvfocus.focus import (
    AllocationPlan,
    ConfigurationError,
    Pipeline,
    PruningSchedule,
    PruningState,
    accumulate_scores,
    compute_n_reuse,
    final_reposition,
    plan_positions,
    prefill_with_pruning,
    removals_per_event,
    run_full_context,
)
from kvfocus.model import KVCache, LayerCache, Model, make_config
from kvfocus.retrieval import index_corpus
from kvfocus.rope import PositionOverflowWarning, reposition_array, rotate
from kvfocus.tokenizer import ByteTokenizer


def small_model(seed=0, **overrides):
    defaults = dict(num_layers=4, num_heads=2, head_dim=8, max_position=256, vocab_size=300)
    defaults.update(overrides)
    return Model.from_seed(make_config(**defaults), seed)


def brute_force_group_count(k, capacity):
    """Oracle: smallest group count whose per-group slot need fits capacity."""
    for groups in range(1, k + 1):
        per_group = -(-k // groups)
        if per_group <= capacity:
            return groups
    return k


class TestComputeNReuse:
    def test_everything_fits_once(self):
        # capacity 16 slots, 5 caches
        assert compute_n_reuse(5, 16 * 8, cache_len=8) == 1

    def test_paper_style_arithmetic(self):
        assert compute_n_reuse(20, 4096, cache_len=256) == 2
        assert compute_n_reuse(40, 8 * 64, cache_len=64) == 5

    def test_prefix_and_reserve_shrink_capacity(self):
        assert compute_n_reuse(4, 100, cache_len=20, prefix_len=0, reserve=0) == 1
        assert compute_n_reuse(4, 100, cache_len=20, prefix_len=10, reserve=55) == 4

    def test_cache_longer_than_usable_range_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_n_reuse(2, 64, cache_len=60, prefix_len=10)

    @given(k=st.integers(1, 200), capacity=st.integers(1, 32))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_packing(self, k, capacity):
        max_position = capacity * 8
        assert compute_n_reuse(k, max_position, cache_len=8) == brute_force_group_count(k, capacity)


class TestPlanPositions:
    def test_single_group_is_sequential(self):
        plan = plan_positions(["a", "b", "c"], 1, cache_len=10, prefix_len=5)
        assert [plan.slots[i].start for i in "abc"] == [5, 15, 25]
        assert plan.end == 35
        assert plan.n_reuse < len(plan.slots)

    def test_one_group_per_cache_is_parallel_windows(self):
        plan = plan_positions(["a", "b", "c"], 3, cache_len=10, prefix_len=0)
        assert {plan.slots[i].start for i in "abc"} == {0}
        assert plan.n_reuse == len(plan.slots)
        assert plan.end == 10

    def test_round_robin_dealing(self):
        plan = plan_positions(["r0", "r1", "r2", "r3"], 2, cache_len=4, prefix_len=0)
        assert (plan.slots["r0"].group, plan.slots["r0"].slot) == (0, 0)
        assert (plan.slots["r1"].group, plan.slots["r1"].slot) == (1, 0)
        assert (plan.slots["r2"].group, plan.slots["r2"].slot) == (0, 1)
        assert (plan.slots["r3"].group, plan.slots["r3"].slot) == (1, 1)
        assert plan.slots["r0"].start == plan.slots["r1"].start == 0
        assert plan.slots["r2"].start == plan.slots["r3"].start == 4

    def test_every_id_exactly_once_and_groups_non_overlapping(self):
        ids = [f"c{i}" for i in range(11)]
        plan = plan_positions(ids, 3, cache_len=6, prefix_len=2)
        assert sorted(plan.slots) == sorted(ids)
        by_group: dict[int, list[int]] = {}
        for slot in plan.slots.values():
            by_group.setdefault(slot.group, []).append(slot.start)
        for starts in by_group.values():
            starts.sort()
            for a, b in zip(starts, starts[1:]):
                assert b - a >= 6  # sequential, non-overlapping within a group

    def test_validate_catches_overflow(self):
        plan = plan_positions(["a", "b"], 1, cache_len=32, prefix_len=0)
        with pytest.raises(ConfigurationError):
            plan.validate(48)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            plan_positions(["a", "a"], 1, 4, 0)


class TestPruningSchedule:
    def test_worked_example_removal_count(self):
        # 28 layers, every 4th, 40 -> 5 gives 5 removals across 7 events
        assert removals_per_event(40, 5, num_layers=28, interval=4) == 5

    def test_interval_beyond_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            removals_per_event(10, 2, num_layers=3, interval=4)

    def test_state_runs_worked_example(self):
        ids = [f"d{i}" for i in range(40)]
        state = PruningState.start(ids, PruningSchedule(interval=4, k_finish=5), 28)
        assert state.keep_after == {4: 35, 8: 30, 12: 25, 16: 20, 20: 15, 24: 10, 28: 5}
        assert state.settled_from == 28
        rng = np.random.default_rng(0)
        for i in ids:
            state.scores[i] = float(rng.random())
        for layer in range(1, 29):
            state.prune_after(layer)
        assert sorted(state.pruned_at_layer) == [4, 8, 12, 16, 20, 24, 28]
        assert len(state.surviving_ids) == 5
        assert all(len(v) == 5 for v in state.pruned_at_layer.values())

    def test_last_event_absorbs_the_remainder(self):
        # 8 layers, every 2nd: 11 -> 2 drops 2, 2, 2 and then 3
        state = PruningState.start([f"d{i}" for i in range(11)],
                                   PruningSchedule(interval=2, k_finish=2), 8)
        assert state.keep_after == {2: 9, 4: 7, 6: 5, 8: 2}
        # 4 -> 2 over four events drops none until the last
        state = PruningState.start([f"d{i}" for i in range(4)],
                                   PruningSchedule(interval=2, k_finish=2), 8)
        assert state.keep_after == {2: 4, 4: 4, 6: 4, 8: 2}
        assert [len(state.prune_after(layer)) for layer in range(1, 9)] == [0] * 7 + [2]
        assert list(state.pruned_at_layer) == [8]

    def test_no_pruning_when_k_at_target(self):
        state = PruningState.start(["a", "b"], PruningSchedule(interval=2, k_finish=2), 8)
        assert state.keep_after == {} and state.settled_from == 0
        assert all(state.prune_after(layer) == [] for layer in range(1, 9))
        assert PruningState.start(["a", "b", "c"], None, 8).keep_after == {}

    def test_nested_and_exact_terminal_count(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            k = int(rng.integers(2, 30))
            k_finish = int(rng.integers(1, k))
            interval = int(rng.integers(1, 5))
            layers = int(rng.integers(interval, 12))
            state = PruningState.start([f"d{i}" for i in range(k)],
                                       PruningSchedule(interval=interval, k_finish=k_finish),
                                       layers)
            for i in state.surviving_ids:
                state.scores[i] = float(rng.random())
            previous = set(state.surviving_ids)
            for layer in range(1, layers + 1):
                state.prune_after(layer)
                current = set(state.surviving_ids)
                assert current <= previous  # monotone shrinking
                assert current == previous or layer % interval == 0
                previous = current
            assert len(state.surviving_ids) == k_finish
            assert state.settled_from == layers // interval * interval

    def test_tie_break_keeps_better_retrieval_rank(self):
        state = PruningState.start(["best", "mid", "worst"],
                                   PruningSchedule(interval=1, k_finish=1), 2)
        # identical scores: the worse-ranked documents go first
        removed = state.prune_after(1)
        assert removed == ["worst"]
        removed = state.prune_after(2)
        assert removed == ["mid"]
        assert state.surviving_ids == ["best"]


class TestAccumulateScores:
    def make_state(self, ids):
        return PruningState.start(ids, PruningSchedule(interval=4, k_finish=len(ids)), 8)

    def test_all_mass_on_prefix_scores_zero(self):
        state = self.make_state(["a", "b"])
        weights = np.zeros((2, 3, 4), dtype=np.float32)
        weights[:, :, 0] = 1.0  # everything on a prefix column
        accumulate_scores(weights, {"a": slice(1, 3), "b": slice(3, 4)}, state)
        assert state.scores == {"a": 0.0, "b": 0.0}

    def test_single_document_mass_definition(self):
        state = self.make_state(["a"])
        weights = np.zeros((1, 2, 3), dtype=np.float32)
        weights[0, 0] = [0.5, 0.3, 0.2]
        weights[0, 1] = [0.1, 0.8, 0.1]
        accumulate_scores(weights, {"a": slice(1, 2)}, state)
        # mean over rows of the mass on document columns: (0.3 + 0.8) / 2
        assert state.scores["a"] == pytest.approx(0.55, abs=1e-6)

    def test_symmetric_documents_score_equally(self):
        model = small_model(seed=9)
        prefix = build_prefix_cache(model, [1, 2])
        doc = build_document_cache(model, prefix, [7, 8, 9], doc_id="a", valid_len=3)
        twin = CacheStoreEntry(doc_id="b", model_fingerprint=doc.model_fingerprint,
                               prefix_hash=doc.prefix_hash, prefix_len=doc.prefix_len,
                               valid_len=doc.valid_len, kv=doc.kv.slice(0, doc.token_count))
        plan = plan_positions(["a", "b"], 2, cache_len=3, prefix_len=2)  # shared range
        result = prefill_with_pruning(model, prefix, [doc, twin], [5, 6], None, plan)
        assert result.state.scores["a"] == pytest.approx(result.state.scores["b"], abs=1e-5)


def synthetic_entry(model, prefix, doc_id, keys_fn, token_count=8):
    """Hand-built cache entry with controlled key vectors and zero values."""
    cfg = model.config
    p = prefix.token_count
    layers = []
    for _ in range(cfg.num_layers):
        keys = keys_fn().astype(np.float32)
        layers.append(LayerCache(
            keys=keys,
            values=np.zeros_like(keys),
            position_ids=np.arange(p, p + token_count, dtype=np.int64),
            visible=np.ones(token_count, dtype=bool),
        ))
    return CacheStoreEntry(doc_id=doc_id, model_fingerprint=model.fingerprint,
                           prefix_hash=prefix.prefix_hash, prefix_len=p,
                           valid_len=token_count, kv=KVCache(layers))


def basis_spike_keys(num_heads, token_count, head_dim, magnitude):
    """Keys covering +/- every basis direction: any query hits one strongly."""
    keys = np.zeros((num_heads, token_count, head_dim), dtype=np.float32)
    for t in range(token_count):
        direction = (t // 2) % head_dim
        sign = 1.0 if t % 2 == 0 else -1.0
        keys[:, t, direction] = sign * magnitude
    return keys


class TestPruningBehavior:
    def test_zero_attention_document_pruned_first(self):
        model = small_model(seed=3)
        prefix = build_prefix_cache(model, [1, 2])
        dead = synthetic_entry(model, prefix, "dead", lambda: np.zeros((2, 8, 8)))
        live = synthetic_entry(
            model, prefix, "live", lambda: basis_spike_keys(2, 8, 8, 1e4))
        decoy = synthetic_entry(
            model, prefix, "decoy", lambda: basis_spike_keys(2, 8, 8, 1e4))
        plan = plan_positions(["dead", "live", "decoy"], 1, cache_len=8, prefix_len=2)
        result = prefill_with_pruning(model, prefix, [dead, live, decoy], [40, 41, 42],
                                      PruningSchedule(interval=2, k_finish=1), plan)
        first_pruned = result.state.pruned_at_layer[min(result.state.pruned_at_layer)]
        assert first_pruned[0] == "dead"
        assert "dead" not in result.state.surviving_ids

    def test_disabled_schedule_keeps_everything(self):
        model = small_model(seed=5)
        prefix = build_prefix_cache(model, [1])
        docs = [build_document_cache(model, prefix, [10 + i, 20 + i], doc_id=f"d{i}",
                                     valid_len=2)
                for i in range(3)]
        plan = plan_positions([d.doc_id for d in docs], 1, cache_len=2, prefix_len=1)
        result = prefill_with_pruning(model, prefix, docs, [5, 6],
                                      PruningSchedule(interval=2, k_finish=3), plan)
        assert result.state.surviving_ids == ["d0", "d1", "d2"]
        assert result.state.pruned_at_layer == {}

    def test_scores_recomputable_from_stored_maps(self, monkeypatch):
        """Final S equals document masses re-derived from the raw attention
        maps by an independent summation."""
        model = small_model(seed=21)
        prefix = build_prefix_cache(model, [1, 2])
        docs = [build_document_cache(model, prefix, [60 + i, 70 + i, 80 + i],
                                     doc_id=f"d{i}", valid_len=3)
                for i in range(3)]
        plan = plan_positions([d.doc_id for d in docs], 1, cache_len=3, prefix_len=2)
        maps = []

        def keep_map(weights, blocks, state):
            maps.append(weights)
            return accumulate_scores(weights, blocks, state)

        monkeypatch.setattr(focus, "accumulate_scores", keep_map)
        result = prefill_with_pruning(model, prefix, docs, [5, 6, 7], None, plan)
        assert len(maps) == model.config.num_layers
        # prefix columns 0-1, then d0, d1, d2 three columns each, then the query
        columns = {"d0": range(2, 5), "d1": range(5, 8), "d2": range(8, 11)}
        for doc_id in result.state.scores:
            recomputed = 0.0
            for weights in maps:
                assert weights.shape[2] == 11 + 3
                mass = 0.0
                heads, rows, _ = weights.shape
                for h in range(heads):
                    for r in range(rows):
                        for c in columns[doc_id]:
                            mass += float(weights[h, r, c])
                recomputed += mass / (heads * rows)
            assert result.state.scores[doc_id] == pytest.approx(recomputed, abs=1e-5)

    def test_reposition_equivalence_through_attention(self):
        """Attention logits against a repositioned cache equal logits against
        keys freshly rotated at the target positions (rope oracle, full layer)."""
        model = small_model(seed=22)
        prefix = build_prefix_cache(model, [1, 2])
        doc = build_document_cache(model, prefix, [9, 10, 11, 12], doc_id="d", valid_len=4)
        layer = doc.kv.layers[0]
        old = layer.position_ids
        target = np.arange(40, 44)
        moved = reposition_array(model.config.rope, layer.keys, old, target)
        unrotated = reposition_array(model.config.rope, layer.keys, old,
                                     np.zeros_like(old))
        fresh = rotate(model.config.rope, unrotated, target)
        rng = np.random.default_rng(0)
        q = rng.standard_normal((2, 3, 8))
        logits_moved = np.matmul(q, moved.astype(np.float64).transpose(0, 2, 1))
        logits_fresh = np.matmul(q, fresh.astype(np.float64).transpose(0, 2, 1))
        np.testing.assert_allclose(logits_moved, logits_fresh, atol=1e-5)

    def test_per_layer_scores_monotone_nondecreasing(self):
        model = small_model(seed=6)
        prefix = build_prefix_cache(model, [1, 2])
        docs = [build_document_cache(model, prefix, [30 + i, 40 + i, 50 + i],
                                     doc_id=f"d{i}", valid_len=3)
                for i in range(4)]
        plan = plan_positions([d.doc_id for d in docs], 2, cache_len=3, prefix_len=2)
        result = prefill_with_pruning(model, prefix, docs, [7, 8, 9], None, plan)
        for earlier, later in zip(result.per_layer_scores, result.per_layer_scores[1:]):
            for doc_id, score in earlier.items():
                assert later[doc_id] >= score - 1e-9


def rows_holding(layer, values):
    """Rows of `layer` whose values equal one of the rows of `values`
    (heads, n, head_dim). Values are never rotated, so they find a
    document's or the query's rows wherever the layout moved them."""
    match = (layer.values[:, :, None, :] == values[:, None, :, :]).all(axis=(0, 3))
    rows = np.flatnonzero(match.any(axis=1))
    assert rows.size == values.shape[1]
    return rows


class TestFinalReposition:
    def run_prefill(self, model, prefix, docs, plan, strategy, schedule=None):
        return prefill_with_pruning(model, prefix, list(docs), [60, 61], schedule, plan,
                                    strategy=strategy, gen_tokens=2)

    def make_docs(self, model, prefix, n):
        return [build_document_cache(model, prefix, [100 + 2 * i, 101 + 2 * i],
                                     doc_id=f"d{i}", valid_len=2)
                for i in range(n)]

    def test_single_survivor_align_equals_sort(self):
        model = small_model(seed=7)
        prefix = build_prefix_cache(model, [1, 2, 3])
        docs = self.make_docs(model, prefix, 1)
        plan = plan_positions(["d0"], 1, cache_len=2, prefix_len=3)
        a, b = (final_reposition(model.config.rope, prefix,
                                 self.run_prefill(model, prefix, docs, plan, strategy))
                for strategy in ("align", "sort"))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.keys, lb.keys)
            np.testing.assert_array_equal(la.position_ids, lb.position_ids)

    def test_sort_places_high_score_next_to_query(self):
        model = small_model(seed=8)
        prefix = build_prefix_cache(model, [1, 2])
        docs = self.make_docs(model, prefix, 2)
        plan = plan_positions(["d0", "d1"], 1, cache_len=2, prefix_len=2)
        prefill = self.run_prefill(model, prefix, docs, plan, "sort")
        prefill.state.scores["d0"] = 0.1
        prefill.state.scores["d1"] = 0.9
        cache = final_reposition(model.config.rope, prefix, prefill)
        layer = cache.layers[0]
        pos = layer.position_ids
        # d1 occupies the slot adjacent to the query block
        d0_max = pos[rows_holding(layer, docs[0].kv.layers[0].values)].max()
        d1_max = pos[rows_holding(layer, docs[1].kv.layers[0].values)].max()
        q_min = pos[rows_holding(layer, prefill.query[0].values)].min()
        assert d0_max < d1_max < q_min
        assert d1_max + 1 == q_min

    def test_none_is_fixed_point_without_pruning(self):
        model = small_model(seed=9)
        prefix = build_prefix_cache(model, [1, 2])
        docs = self.make_docs(model, prefix, 3)
        plan = plan_positions([d.doc_id for d in docs], 1, cache_len=2, prefix_len=2)
        prefill = self.run_prefill(model, prefix, docs, plan, "none")
        cache = final_reposition(model.config.rope, prefix, prefill)
        pos = cache.layers[0].position_ids
        expected = np.concatenate([
            np.arange(2), np.arange(2, 8), prefill.query[0].position_ids])
        np.testing.assert_array_equal(pos, expected)

    def test_align_compacts_after_pruning_gaps(self):
        model = small_model(seed=10)
        prefix = build_prefix_cache(model, [1, 2])
        docs = self.make_docs(model, prefix, 4)
        plan = plan_positions([d.doc_id for d in docs], 1, cache_len=2, prefix_len=2)
        prefill = self.run_prefill(model, prefix, docs, plan, "align",
                                   schedule=PruningSchedule(interval=2, k_finish=2))
        cache = final_reposition(model.config.rope, prefix, prefill)
        pos = cache.layers[0].position_ids
        # contiguous: prefix 0..1, two docs 2..5, query right after
        np.testing.assert_array_equal(
            pos[:8], np.concatenate([np.arange(2), np.arange(2, 6), np.array([6, 7])]))

    def test_unknown_strategy_rejected(self):
        model = small_model(seed=11)
        prefix = build_prefix_cache(model, [1])
        docs = self.make_docs(model, prefix, 1)
        plan = plan_positions(["d0"], 1, cache_len=2, prefix_len=1)
        with pytest.raises(ValueError):
            self.run_prefill(model, prefix, docs, plan, "best")


def build_fixture(tmp_path, model, corpus, prefix_text="ctx:", passage_len=12):
    tokenizer = ByteTokenizer()
    prefix_tokens = tokenizer.encode(prefix_text, add_bos=True)
    store = CacheStore(tmp_path / "store", model)
    store.build(prefix_tokens, corpus, passage_len=passage_len)
    index = index_corpus(corpus)
    return store, index, prefix_tokens


class TestPipeline:
    corpus = [
        ("doc-paris", "paris", "paris is the capital of france"),
        ("doc-rome", "rome", "rome is the capital of italy"),
        ("doc-berlin", "berlin", "berlin is the capital of germany"),
    ]

    def test_zero_documents_falls_back_to_prefix_and_query(self, tmp_path):
        model = small_model(seed=12)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        pipeline = Pipeline(model, store, index)
        result = pipeline.run("anything", k=0, gen_tokens=3)
        assert len(result.tokens) == 3
        assert result.trace.retrieved_ids == []
        assert result.trace.final_ids == []

    def test_negative_k_is_rejected(self, tmp_path):
        model = small_model(seed=12)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            Pipeline(model, store, index).run("capital", -1, gen_tokens=2)

    def test_negative_query_reserve_is_rejected(self, tmp_path):
        model = small_model(seed=12)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        with pytest.raises(ValueError, match="query_reserve must be >= 0, got -1"):
            Pipeline(model, store, index, query_reserve=-1)
        assert Pipeline(model, store, index, query_reserve=0).query_reserve == 0

    @pytest.mark.parametrize("schedule", [None, PruningSchedule(interval=2, k_finish=1)],
                             ids=["no-schedule", "prune"])
    def test_zero_documents_in_every_strategy(self, tmp_path, schedule):
        """With no caches there is nothing to place: every strategy answers
        from the prefix and query alone, with the same tokens."""
        model = small_model(seed=12)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        pipeline = Pipeline(model, store, index)
        answers = set()
        for strategy in focus.STRATEGIES:
            result = pipeline.run("anything", k=0, schedule=schedule, strategy=strategy,
                                  gen_tokens=3)
            assert result.trace.final_ids == []
            answers.add(tuple(result.tokens))
        assert len(answers) == 1 and len(answers.pop()) == 3

    def test_kept_entries_are_unchanged_and_reusable(self, tmp_path):
        """run_with_entries and prefill_with_pruning empty the list they are
        given but change no entry: entries the caller keeps come back with
        the same layers and values and give the same answer again."""
        model = small_model(seed=17)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        prefix = store.load_prefix()
        entries = [store.load_entry(doc_id) for doc_id, _, _ in self.corpus]

        def snapshot():
            return [(id(layer), [getattr(layer, name).copy() for name in
                                 ("keys", "values", "position_ids", "visible")])
                    for e in entries for layer in e.kv.layers]

        before = snapshot()
        pipeline = Pipeline(model, store, index, query_reserve=64)
        answers = []
        for schedule, strategy in ((None, "none"),
                                   (PruningSchedule(interval=2, k_finish=1), "sort")):
            for _ in range(2):
                passed = list(entries)
                result = pipeline.run_with_entries("the capital", passed, prefix=prefix,
                                                   schedule=schedule, strategy=strategy,
                                                   gen_tokens=4)
                assert passed == []
                answers.append((result.tokens, result.trace.per_layer_scores))
        assert answers[0] == answers[1] and answers[2] == answers[3]
        plan = plan_positions([e.doc_id for e in entries], 1, store.passage_len,
                              prefix.token_count)
        scores = [prefill_with_pruning(model, prefix, list(entries), [40, 41], None, plan,
                                       strategy="none", gen_tokens=3).per_layer_scores
                  for _ in range(2)]
        assert scores[0] == scores[1]
        for (id_before, fields_before), (id_after, fields_after) in zip(before, snapshot()):
            assert id_before == id_after
            for a, b in zip(fields_before, fields_after):
                assert np.array_equal(a, b)

    def test_trace_reports_schedule_contract(self, tmp_path):
        model = small_model(seed=13)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        pipeline = Pipeline(model, store, index)
        result = pipeline.run("the capital", k=3, gen_tokens=2,
                              schedule=PruningSchedule(interval=2, k_finish=1))
        assert len(result.trace.final_ids) == 1
        assert result.trace.op_counts["prefill_mults"] > 0
        timings = result.trace.timings
        assert timings["total_s"] == pytest.approx(
            timings["retrieve_s"] + timings["load_s"] + timings["prefill_s"]
            + timings["decode_s"], abs=1e-6)

    def test_single_document_identity_with_naive_forward(self, tmp_path):
        """k=1, no pruning, sequential layout reproduces the monolithic path."""
        model = small_model(seed=14)
        store, index, prefix_tokens = build_fixture(tmp_path, model, self.corpus)
        pipeline = Pipeline(model, store, index, query_reserve=64)
        query = "capital of france"
        result = pipeline.run(query, k=1, strategy="none", gen_tokens=8)

        tokenizer = ByteTokenizer()
        doc_id = result.trace.retrieved_ids[0]
        record = next(r for r in self.corpus if r[0] == doc_id)
        passage = passage_tokens(tokenizer, record[1], record[2], store.passage_len)
        naive_tokens, _, _ = run_full_context(
            model, prefix_tokens, [passage], tokenizer.encode(query), gen_tokens=8)
        assert result.tokens == naive_tokens

    def test_concurrent_runs_match_sequential_runs(self, tmp_path):
        """Independent runs may proceed concurrently: 20 pruned, sorted runs on
        threads against one model, store and index give the tokens, per-layer
        scores and op counts of the same runs made one after another."""
        model = small_model(seed=16)
        corpus = [(f"d{i}", f"title {i}", f"capital {i} of country {i % 5} and tokens")
                  for i in range(12)]
        store, index, _ = build_fixture(tmp_path, model, corpus)
        pipeline = Pipeline(model, store, index, query_reserve=64)
        queries = [f"capital {i} country {i % 5}" for i in range(20)]
        barrier = threading.Barrier(len(queries))

        def run(query):
            result = pipeline.run(query, k=8, schedule=PruningSchedule(interval=2, k_finish=2),
                                  strategy="sort", gen_tokens=6)
            return result.tokens, result.trace.per_layer_scores, result.trace.op_counts

        def run_together(query):
            barrier.wait(timeout=60)
            return run(query)

        sequential = [run(query) for query in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the Python steps too
        try:
            with ThreadPoolExecutor(max_workers=len(queries)) as pool:
                concurrent = list(pool.map(run_together, queries))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential

    def test_run_times_retrieval_and_loading(self, tmp_path, monkeypatch):
        """run's trace times retrieval and loading: with 50 ms of retrieval and
        3 x 20 ms of loading patched in, the stage times hold them, total_s is
        their sum, and the stages cover the run's wall time to within 5%."""
        model = small_model(seed=13)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        pipeline = Pipeline(model, store, index)
        search, load_entry = focus.search, CacheStore.load_entry
        monkeypatch.setattr(focus, "search",
                            lambda *a, **kw: time.sleep(0.05) or search(*a, **kw))
        monkeypatch.setattr(CacheStore, "load_entry",
                            lambda *a, **kw: time.sleep(0.02) or load_entry(*a, **kw))
        started = time.perf_counter()
        result = pipeline.run("the capital", k=3, gen_tokens=4,
                              schedule=PruningSchedule(interval=2, k_finish=1))
        wall = time.perf_counter() - started
        timings = result.trace.timings
        assert set(timings) == {"retrieve_s", "load_s", "prefill_s", "decode_s", "total_s"}
        assert timings["retrieve_s"] >= 0.05
        assert timings["load_s"] >= 3 * 0.02
        stages = sum(v for name, v in timings.items() if name != "total_s")
        assert timings["total_s"] == pytest.approx(stages, abs=1e-9)
        assert wall * 0.95 <= timings["total_s"] <= wall

    def test_run_with_entries_times_prefill_and_decode_only(self, tmp_path):
        model = small_model(seed=13)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        pipeline = Pipeline(model, store, index)
        result = pipeline.run_with_entries("the capital", [store.load_entry("doc-rome")],
                                           prefix=store.load_prefix(), gen_tokens=3)
        assert set(result.trace.timings) == {"prefill_s", "decode_s", "total_s"}

    def test_run_traces_the_context_before_and_after_pruning(self, tmp_path):
        """context_length counts the prefix, every loaded entry and the query;
        decode_context_length only the survivors."""
        model = small_model(seed=13)
        store, index, prefix_tokens = build_fixture(tmp_path, model, self.corpus)
        result = Pipeline(model, store, index).run(
            "the capital", k=3, gen_tokens=2, schedule=PruningSchedule(interval=2, k_finish=1))
        query_len = len(ByteTokenizer().encode("the capital"))
        assert len(result.trace.retrieved_ids) == 3
        assert result.trace.context_length == len(prefix_tokens) + 3 * 12 + query_len
        assert result.trace.decode_context_length == len(prefix_tokens) + 12 + query_len

    def test_query_reserve_overflow_is_a_trace_field(self, tmp_path):
        """Past the query reserve but inside the encoding range: the reserve
        warning is issued and kept in the trace, and nothing else is."""
        model = small_model(seed=13)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        pipeline = Pipeline(model, store, index, query_reserve=8)
        with pytest.warns(UserWarning, match="reserved budget of 8") as issued:
            result = pipeline.run("the capital", k=2, gen_tokens=4)
        assert not any(isinstance(w.message, PositionOverflowWarning) for w in issued)
        assert result.trace.warnings == [
            "query plus generation (11 + 4) exceeds the reserved budget of 8; "
            "positions may extrapolate"]
        assert asdict(result.trace)["warnings"] == result.trace.warnings
        quiet = Pipeline(model, store, index, query_reserve=64).run("the capital", k=2,
                                                                   gen_tokens=4)
        assert quiet.trace.warnings == []

    def test_position_overflow_is_a_trace_field(self, tmp_path):
        """Decoding past max_position raises PositionOverflowWarning; the run's
        trace keeps its message once, after the reserve warning, and a run on
        another thread at the same time, inside the range, records neither."""
        model = small_model(seed=15, max_position=64)
        store, index, _ = build_fixture(tmp_path, model, self.corpus)
        pipeline = Pipeline(model, store, index, query_reserve=4)
        inside = Pipeline(model, store, index, query_reserve=40)
        barrier = threading.Barrier(2)

        def run(p, gen_tokens):
            barrier.wait(timeout=30)
            return p.run("the capital", k=3, gen_tokens=gen_tokens).trace.warnings

        with pytest.warns(UserWarning) as issued:
            with ThreadPoolExecutor(max_workers=2) as pool:
                over = pool.submit(run, pipeline, 40)
                within = pool.submit(run, inside, 20)
                over, within = over.result(timeout=60), within.result(timeout=60)
        assert any(isinstance(w.message, PositionOverflowWarning) for w in issued)
        assert within == []
        assert len(over) == 2
        assert "reserved budget of 4" in over[0]
        assert over[1] == ("positions beyond the encoding range [0, 64); "
                           "angles extrapolate")

    def test_multi_group_run_stays_within_range(self, tmp_path):
        model = small_model(seed=15, max_position=64)
        corpus = [(f"d{i}", "t", f"tokens {i} capital") for i in range(6)]
        store, index, _ = build_fixture(tmp_path, model, corpus, passage_len=12)
        pipeline = Pipeline(model, store, index, query_reserve=20)
        result = pipeline.run("capital tokens", k=6, gen_tokens=2)
        assert result.trace.n_reuse > 1
        starts = [s["start"] for s in result.trace.plan["slots"].values()]
        assert max(starts) + 12 <= 64
