"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from kvfocus.bench import report_to_csv, report_to_json, run_bench
from kvfocus.cache_store import (
    CacheStore,
    CacheStoreEntry,
    StaleCacheError,
    build_document_cache,
    build_prefix_cache,
    passage_tokens,
)
from kvfocus.focus import (
    Pipeline,
    PruningSchedule,
    compute_n_reuse,
    final_reposition,
    plan_positions,
    prefill_with_pruning,
    removals_per_event,
    run_full_context,
)
from kvfocus.model import Model, make_config
from kvfocus.retrieval import B, K1, index_corpus, tokenize_text, search
from kvfocus.rope import PositionOverflowWarning, RopeConfig, Rotation, reposition_array
from kvfocus.tokenizer import ByteTokenizer


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS  {text}", flush=True)


def test_criterion_01_rope_oracle_suite():
    """1,000 random (k0, i, j) triples: re-positioning equals fresh rotation,
    round trips close, and q.k dots are offset-invariant, all within 1e-5."""
    started = time.perf_counter()
    cfg = RopeConfig(head_dim=64, max_position=512)
    rng = np.random.default_rng(2024)
    n = 1000
    k0 = rng.standard_normal((n, 64)).astype(np.float32)
    k0 /= np.linalg.norm(k0, axis=1, keepdims=True)
    q0 = rng.standard_normal((n, 64)).astype(np.float32)
    q0 /= np.linalg.norm(q0, axis=1, keepdims=True)
    i = rng.integers(0, 512, size=n)
    j = rng.integers(0, 512, size=n)
    delta = rng.integers(0, 128, size=n)

    at_i = Rotation.at(cfg, i).apply(k0)
    moved = reposition_array(cfg, at_i, i, j)
    fresh = Rotation.at(cfg, j).apply(k0)
    assert np.abs(moved - fresh).max() < 1e-5

    back = reposition_array(cfg, moved.copy(), j, i)
    assert np.abs(back - at_i).max() < 1e-5

    q_j = Rotation.at(cfg, j).apply(q0)
    dots = np.einsum("nd,nd->n", q_j, at_i)
    with pytest.warns(Warning):
        # shifted positions may pass max_position; extrapolation is flagged
        q_shift = Rotation.at(cfg, j + delta).apply(q0)
        k_shift = Rotation.at(cfg, i + delta).apply(k0)
    dots_shifted = np.einsum("nd,nd->n", q_shift, k_shift)
    assert np.abs(dots - dots_shifted).max() < 1e-5

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"rope oracles on {n} triples in {elapsed * 1e3:.0f} ms")


def test_criterion_02_cache_equivalence():
    """20 random toy models: stored document KV equals the monolithic slice,
    and split prefill logits equal single-pass logits, within 1e-5."""
    outer = np.random.default_rng(99)
    for instance in range(20):
        layers = int(outer.integers(1, 4))
        heads = int(outer.integers(1, 4))
        head_dim = int(outer.integers(2, 5)) * 2
        model = Model.from_seed(
            make_config(num_layers=layers, num_heads=heads, head_dim=head_dim,
                        max_position=128, vocab_size=97),
            int(outer.integers(0, 2**31)),
        )
        prefix_tokens = list(outer.integers(1, 97, size=int(outer.integers(2, 6))))
        doc_tokens = list(outer.integers(1, 97, size=int(outer.integers(3, 9))))

        prefix = build_prefix_cache(model, prefix_tokens)
        entry = build_document_cache(model, prefix, doc_tokens, doc_id="d",
                                     valid_len=len(doc_tokens))
        p = len(prefix_tokens)
        mono = model.new_cache(p + len(doc_tokens))
        model.forward(
            mono,
            prefix_tokens + doc_tokens,
            positions=np.arange(p + len(doc_tokens)),
        )
        for (keys, values), full in zip(entry.layers, mono.layers):
            assert np.abs(keys - full.keys[:, p:]).max() < 1e-5
            assert np.abs(values - full.values[:, p:]).max() < 1e-5

        seq = list(outer.integers(1, 97, size=12))
        single = model.new_cache(len(seq))
        h_single = model.forward(single, seq)
        split = model.new_cache(len(seq))
        model.forward(split, seq[:5])
        h_split = model.forward(split, seq[5:])
        logits_single = model.logits(h_single[-1:])
        logits_split = model.logits(h_split[-1:])
        assert np.abs(logits_single - logits_split).max() < 1e-5
    _report(2, "20 instances: slice equivalence and split-prefill logits within 1e-5")


def _identity_fixture(tmp_path, seed):
    model = Model.from_seed(
        make_config(num_layers=4, num_heads=2, head_dim=16, max_position=256,
                    vocab_size=300),
        seed,
    )
    corpus = [
        ("d-paris", "paris", "paris is the capital of france"),
        ("d-rome", "rome", "rome is the capital of italy"),
        ("d-berlin", "berlin", "berlin is the capital of germany"),
    ]
    tokenizer = ByteTokenizer()
    prefix_tokens = tokenizer.encode("context:", add_bos=True)
    store = CacheStore(tmp_path / f"store-{seed}", model)
    store.build(prefix_tokens, corpus, passage_len=16)
    return model, store, index_corpus(corpus), corpus, prefix_tokens


def test_criterion_03_single_document_identity(tmp_path):
    """k=1, strategy none, no pruning: greedy 20-token output identical to
    the naive monolithic forward, for 10 model seeds."""
    tokenizer = ByteTokenizer()
    query = "capital of france"
    for seed in range(10):
        model, store, index, corpus, prefix_tokens = _identity_fixture(tmp_path, seed)
        pipeline = Pipeline(model, store, index, query_reserve=64)
        result = pipeline.run(query, k=1, strategy="none", schedule=None, gen_tokens=20)

        doc_id = result.trace.retrieved_ids[0]
        title, text = next((t, x) for d, t, x in corpus if d == doc_id)
        passage = passage_tokens(tokenizer, title, text, store.passage_len)
        naive_tokens, _, _ = run_full_context(
            model, prefix_tokens, [passage], tokenizer.encode(query), gen_tokens=20)
        assert result.tokens == naive_tokens, f"seed {seed} diverged"
        assert len(result.tokens) == 20
    _report(3, "10/10 seeds: pipeline output == monolithic greedy output")


def test_criterion_04_removal_count_formula():
    """28 layers, prune every 4th, 40 -> 5: five removals per event and
    exactly five survivors, matching the worked schedule."""
    assert removals_per_event(40, 5, num_layers=28, interval=4) == 5

    model = Model.from_seed(
        make_config(num_layers=28, num_heads=1, head_dim=4, max_position=512,
                    vocab_size=67),
        0,
    )
    prefix = build_prefix_cache(model, [1, 2])
    docs = [build_document_cache(model, prefix, [(3 + i) % 67, (5 + i) % 67,
                                                 (7 + i) % 67, (11 + i) % 67],
                                 doc_id=f"d{i:02d}", valid_len=4) for i in range(40)]
    plan = plan_positions([d.doc_id for d in docs], 1, cache_len=4, prefix_len=2)
    result = prefill_with_pruning(model, prefix, docs, [20, 21, 22],
                                  PruningSchedule(interval=4, k_finish=5), plan)
    assert result.state.keep_after == {4 * e: 40 - 5 * e for e in range(1, 8)}
    assert sorted(result.state.pruned_at_layer) == [4, 8, 12, 16, 20, 24, 28]
    assert all(len(v) == 5 for v in result.state.pruned_at_layer.values())
    assert len(result.state.surviving_ids) == 5
    _report(4, "removals 5 x 7 events takes 40 caches to exactly 5")


def test_criterion_05_group_count_oracle():
    """compute_n_reuse equals brute-force minimal grouping for every
    (k <= 200, capacity <= 32); 1 when everything fits; k gives the
    parallel-windows layout."""
    cache_len = 8
    for capacity in range(1, 33):
        max_position = capacity * cache_len
        for k in range(1, 201):
            got = compute_n_reuse(k, max_position, cache_len)
            best = next(g for g in range(1, k + 1) if -(-k // g) <= capacity)
            assert got == best, (k, capacity)
            if k <= capacity:
                assert got == 1
    plan = plan_positions([f"c{i}" for i in range(7)], 7, cache_len=8, prefix_len=0)
    assert plan.n_reuse == len(plan.slots)
    assert {slot.start for slot in plan.slots.values()} == {0}
    _report(5, "6,400 (k, capacity) pairs match brute-force packing")


def _spike_keys(num_heads, token_count, head_dim, magnitude):
    """Keys covering +/- every basis direction so any query hits one hard."""
    keys = np.zeros((num_heads, token_count, head_dim), dtype=np.float32)
    for t in range(token_count):
        direction = (t // 2) % head_dim
        keys[:, t, direction] = magnitude if t % 2 == 0 else -magnitude
    return keys


def _synthetic_entry(model, prefix, doc_id, keys, token_count):
    layers = [np.stack([keys, np.zeros_like(keys)]) for _ in range(model.config.num_layers)]
    return CacheStoreEntry(doc_id=doc_id, model_fingerprint=model.fingerprint,
                           prefix_hash=prefix.prefix_hash, prefix_len=prefix.token_count,
                           valid_len=token_count, layers=layers)


def test_criterion_06_pruning_behavior():
    """Nested survivor sets, exact terminal counts, and 100/100 trials where
    the zero-attention document is pruned first."""
    rng = np.random.default_rng(6)

    # nested sets and exact terminal count on real caches
    for trial in range(15):
        model = Model.from_seed(
            make_config(num_layers=6, num_heads=2, head_dim=8, max_position=256,
                        vocab_size=89),
            int(rng.integers(0, 2**31)),
        )
        prefix = build_prefix_cache(model, [1, 2])
        k = int(rng.integers(4, 9))
        k_finish = int(rng.integers(1, k))
        interval = int(rng.integers(1, 4))
        docs = [build_document_cache(
            model, prefix, list(rng.integers(1, 89, size=3)), doc_id=f"d{i}", valid_len=3)
            for i in range(k)]
        plan = plan_positions([d.doc_id for d in docs], 1, cache_len=3, prefix_len=2)
        result = prefill_with_pruning(
            model, prefix, list(docs), list(rng.integers(1, 89, size=3)),
            PruningSchedule(interval=interval, k_finish=k_finish), plan)
        assert len(result.state.surviving_ids) == k_finish
        alive = set(d.doc_id for d in docs)
        for layer in sorted(result.state.pruned_at_layer):
            removed = set(result.state.pruned_at_layer[layer])
            assert removed <= alive  # nested: only current survivors get pruned
            alive -= removed
        assert alive == set(result.state.surviving_ids)

    # constructed dot products: the dead document always goes first
    for trial in range(100):
        model = Model.from_seed(
            make_config(num_layers=2, num_heads=2, head_dim=8, max_position=128,
                        vocab_size=97),
            int(rng.integers(0, 2**31)),
        )
        prefix = build_prefix_cache(model, [1, 2])
        dead = _synthetic_entry(model, prefix, "dead",
                                np.zeros((2, 8, 8), dtype=np.float32), 8)
        live = _synthetic_entry(model, prefix, "live", _spike_keys(2, 8, 8, 1e4), 8)
        decoy = _synthetic_entry(model, prefix, "decoy", _spike_keys(2, 8, 8, 1e4), 8)
        plan = plan_positions(["dead", "live", "decoy"], 1, cache_len=8, prefix_len=2)
        query = list(rng.integers(1, 97, size=3))
        result = prefill_with_pruning(model, prefix, [dead, live, decoy], query,
                                      PruningSchedule(interval=1, k_finish=1), plan)
        first_event = min(result.state.pruned_at_layer)
        assert result.state.pruned_at_layer[first_event][0] == "dead", f"trial {trial}"
    _report(6, "nested sets, exact terminal counts, 100/100 dead-doc-first trials")


def _rows_holding(layer, values):
    """Rows of `layer` whose values equal one of the rows of `values`
    (heads, n, head_dim). Values are never rotated, so they find a
    document's or the query's rows wherever the layout moved them."""
    match = (layer.values[:, :, None, :] == values[:, None, :, :]).all(axis=(0, 3))
    rows = np.flatnonzero(match.any(axis=1))
    assert rows.size == values.shape[1]
    return rows


def test_criterion_07_allocation_strategies():
    """100 random pruning outcomes: sort orders survivors by ascending score
    toward the query, align compacts in rank order, both end at the query."""
    rng = np.random.default_rng(7)
    model = Model.from_seed(
        make_config(num_layers=2, num_heads=2, head_dim=8, max_position=256,
                    vocab_size=89),
        1,
    )
    prefix = build_prefix_cache(model, [1, 2, 3])
    cache_len = 4
    pool = [build_document_cache(
        model, prefix, list(rng.integers(1, 89, size=cache_len)), doc_id=f"d{i}",
        valid_len=cache_len)
        for i in range(8)]

    for trial in range(100):
        count = int(rng.integers(1, 7))
        docs = list(rng.choice(len(pool), size=count, replace=False))
        entries = [pool[i] for i in docs]
        ids = [e.doc_id for e in entries]
        plan = plan_positions(ids, 1, cache_len=cache_len, prefix_len=3)
        query = list(rng.integers(1, 89, size=2))
        scores_drawn = {doc_id: float(rng.random()) for doc_id in ids}

        for strategy in ("align", "sort"):
            prefill = prefill_with_pruning(model, prefix, list(entries), query, None, plan,
                                           strategy=strategy, gen_tokens=2)
            prefill.state.scores.update(scores_drawn)
            cache = final_reposition(model.config.rope, prefix, prefill)
            # the last layer: a token's layer-0 values depend on the token
            # alone, so two documents sharing a token would match there
            layer = cache.layers[-1]
            starts = {}
            for e in entries:
                starts[e.doc_id] = int(layer.position_ids[
                    _rows_holding(layer, e.layers[-1][1])].min())
            ordered = sorted(ids, key=lambda d: starts[d])
            # contiguous block from the prefix to the query, no gaps
            assert min(starts.values()) == 3
            q_min = int(layer.position_ids[
                _rows_holding(layer, prefill.query[-1][1])].min())
            assert max(starts.values()) + cache_len == q_min
            assert sorted(starts.values()) == [3 + i * cache_len for i in range(count)]
            if strategy == "align":
                assert ordered == ids  # permutation-free: retrieval-rank order kept
            else:
                scores = [prefill.state.scores[d] for d in ordered]
                assert scores == sorted(scores)  # ascending toward the query
    _report(7, "100/100 layouts: sort ascending-to-query, align rank-ordered, no gaps")


def _bench_corpus(num_docs=48, words=40):
    rng = np.random.default_rng(12)
    vocab = ["alpha", "beta", "gamma", "delta", "engine", "cache", "tokens",
             "window", "paris", "rome", "query", "answer"]
    corpus = []
    for i in range(num_docs):
        body = " ".join(rng.choice(vocab) for _ in range(words))
        corpus.append({"id": f"d{i:03d}", "title": f"doc {i}", "text": body})
    return corpus


@pytest.fixture(scope="module")
def bench_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    corpus = _bench_corpus()
    records = [(r["id"], r["title"], r["text"]) for r in corpus]
    model = Model.from_seed(make_config(), 0)  # toy scale: 8 layers, 4x32 heads
    store = CacheStore(root / "store", model)
    tokenizer = ByteTokenizer()
    store.build(tokenizer.encode("context:", add_bos=True), records, passage_len=64)
    index = index_corpus(records)
    # naive at 40 documents runs past the encoding range by design
    with pytest.warns(PositionOverflowWarning):
        return run_bench(
            Pipeline(model, store, index, query_reserve=128), records, "cache engine tokens",
            doc_counts=[10, 20, 40], gen_tokens=100,
            modes=("naive", "no-cache", "cache", "prune"),
            schedule=PruningSchedule(interval=4, k_finish=5),
            strategy="none")


def test_criterion_08_complexity_scaling(bench_report):
    """Deterministic op counters reproduce the complexity trends: quadratic
    naive prefill, linear cached prefill, prune decode invariant to initial k,
    and pruned totals growing far slower than naive."""
    report = bench_report
    rows = {(row.mode, row.doc_count): row for row in report.rows}
    for pair in report.ratios["naive"]:
        assert 3.6 <= pair["prefill_mult_ratio"] <= 4.4, pair
    for pair in report.ratios["cache"]:
        assert 1.8 <= pair["prefill_mult_ratio"] <= 2.2, pair
    prune_decode = [rows["prune", k].decode_mults for k in (10, 20, 40)]
    spread = (max(prune_decode) - min(prune_decode)) / min(prune_decode)
    assert spread <= 0.01

    for k in (10, 20, 40):
        naive, prune = rows["naive", k], rows["prune", k]
        assert (prune.prefill_mults + prune.decode_mults
                < naive.prefill_mults + naive.decode_mults)
    naive_growth = report.ratios["naive"][-1]["total_mult_ratio"]
    prune_growth = report.ratios["prune"][-1]["total_mult_ratio"]
    assert prune_growth < naive_growth

    # the CSV and JSON forms carry identical numbers
    csv_rows = report_to_csv(report).strip().splitlines()[1:]
    json_rows = json.loads(report_to_json(report))["rows"]
    for line, row in zip(csv_rows, json_rows):
        assert float(line.split(",")[6]) == row["prefill_mults"]
        assert float(line.split(",")[7]) == row["decode_mults"]
    _report(8, "naive ~4x, cached ~2x, prune decode flat (+/-1%), prune << naive")


def test_criterion_09_retrieval_oracle():
    """BM25 through the inverted index matches exhaustive per-document
    scoring on a 1,000-document synthetic corpus, bit for bit."""
    rng = np.random.default_rng(9)
    terms = [f"w{i}" for i in range(60)]
    corpus = []
    for i in range(1000):
        body = " ".join(terms[int(t)] for t in rng.integers(0, 60, size=rng.integers(4, 16)))
        corpus.append((f"d{i:04d}", f"title {terms[int(rng.integers(0, 60))]}", body))
    index = index_corpus(corpus)

    docs = {doc_id: tokenize_text(f"{title} {text}") for doc_id, title, text in corpus}
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n

    def brute_force(query):
        counts = {}
        for token in tokenize_text(query):
            counts[token] = counts.get(token, 0) + 1
        scores = {}
        for doc_id, tokens in docs.items():
            total, matched = 0.0, False
            for term, qtf in counts.items():
                tf = tokens.count(term)
                if tf == 0:
                    continue
                matched = True
                df = sum(1 for other in docs.values() if term in other)
                idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                total += qtf * idf * (tf * (K1 + 1.0)) / (
                    tf + K1 * (1.0 - B + B * len(tokens) / avgdl))
            if matched:
                scores[doc_id] = total
        return sorted(scores.items(), key=lambda item: (-item[1], item[0]))

    for query in ("w0 w17 w59", "w3 w3 title", "w42"):
        expected = brute_force(query)
        for k in (5, 50, 1000):
            assert search(index, query, k) == expected[:k]
    _report(9, "1,000-doc corpus: index top-k == brute force, bit-exact")


def test_criterion_10_persistence(tmp_path):
    """Cache save/load round trips are bit-exact, stale fingerprints are
    refused, and rebuilding writes byte-identical files."""
    model = Model.from_seed(
        make_config(num_layers=3, num_heads=2, head_dim=8, max_position=128,
                    vocab_size=300),
        5,
    )
    corpus = [("a", "first", "alpha beta gamma"), ("b", "second", "delta epsilon")]
    root = tmp_path / "store"
    store = CacheStore(root, model)
    store.build([1, 2, 3], corpus, passage_len=12)

    prefix = build_prefix_cache(model, [1, 2, 3])
    tokenizer = ByteTokenizer()
    for doc_id, title, text in corpus:
        tokens, valid = passage_tokens(tokenizer, title, text, 12)
        rebuilt = build_document_cache(model, prefix, tokens, doc_id=doc_id,
                                       valid_len=valid)
        loaded = store.load_entry(doc_id)
        for la, lb in zip(loaded.layers, rebuilt.layers):
            assert np.array_equal(la[0], lb[0])
            assert np.array_equal(la[1], lb[1])

    with pytest.raises(StaleCacheError):
        CacheStore(root, Model.from_seed(model.config, 6)).load_entry("a")

    snapshot = {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    store.build([1, 2, 3], corpus, passage_len=12)
    again = {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    assert snapshot == again
    _report(10, "bit-exact round trip, stale fingerprint refused, rebuild identical")
