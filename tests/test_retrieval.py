"""BM25 retrieval against a brute-force per-document scoring oracle."""

import math
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvfocus.retrieval import (
    B,
    K1,
    IndexFormatError,
    index_corpus,
    load_index,
    save_index,
    search,
    tokenize_text,
)


def brute_force_scores(corpus, query_text):
    """Oracle: score every document directly from raw text, no index.

    Recomputes tf, df, lengths and the BM25 formula from scratch; unique
    query terms are visited in first-occurrence order, matching the
    documented accumulation order.
    """
    docs = {doc_id: tokenize_text(f"{title} {text}" if title else text)
            for doc_id, title, text in corpus}
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n if n else 0.0
    query_terms: dict[str, int] = {}
    for token in tokenize_text(query_text):
        query_terms[token] = query_terms.get(token, 0) + 1

    scores = {}
    for doc_id, tokens in docs.items():
        dl = len(tokens)
        total = 0.0
        matched = False
        for term, qtf in query_terms.items():
            tf = tokens.count(term)
            if tf == 0:
                continue
            matched = True
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            total += qtf * idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * dl / avgdl))
        if matched:
            scores[doc_id] = total
    return scores


def synthetic_corpus(num_docs, seed=0, vocab=40, words=12):
    import random

    rng = random.Random(seed)
    terms = [f"w{i}" for i in range(vocab)]
    corpus = []
    for i in range(num_docs):
        body = " ".join(rng.choice(terms) for _ in range(rng.randint(3, words)))
        corpus.append((f"d{i:04d}", f"title {rng.choice(terms)}", body))
    return corpus


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize_text("Hello, World! x2") == ["hello", "world", "x2"]

    def test_underscore_is_a_separator(self):
        assert tokenize_text("a_b") == ["a", "b"]

    def test_nfc_normalization(self):
        # e + combining acute composes to the same token as precomposed é
        assert tokenize_text("café") == tokenize_text("café")


class TestIndex:
    def test_empty_corpus_searches_empty(self):
        index = index_corpus([])
        assert index.doc_count == 0
        assert search(index, "anything", 5) == []

    def test_single_document_found(self):
        index = index_corpus([("d1", "", "paris is the capital")])
        results = search(index, "paris", 3)
        assert [doc for doc, _ in results] == ["d1"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            index_corpus([("d", "", "a"), ("d", "", "b")])

    def test_title_participates_in_scoring(self):
        index = index_corpus([("d1", "zebra", "plain text"), ("d2", "", "plain text")])
        assert [d for d, _ in search(index, "zebra", 2)] == ["d1"]

    def test_no_matching_terms_is_empty(self):
        index = index_corpus([("d1", "", "alpha beta")])
        assert search(index, "gamma delta", 4) == []

    def test_repeated_term_outranks_single_at_equal_length(self):
        index = index_corpus([
            ("one", "", "apple pear plum"),
            ("two", "", "apple apple plum"),
        ])
        results = search(index, "apple", 2)
        assert [d for d, _ in results] == ["two", "one"]

    def test_scores_non_negative_and_k_validated(self):
        index = index_corpus(synthetic_corpus(30, seed=3))
        assert all(s >= 0.0 for _, s in search(index, "w1 w2 w3", 30))
        with pytest.raises(ValueError):
            search(index, "w1", 0)


class TestOracle:
    def test_matches_brute_force_exactly(self):
        corpus = synthetic_corpus(60, seed=1)
        index = index_corpus(corpus)
        for query in ("w0 w1", "w5 w5 w9", "title w3", "w39"):
            expected = brute_force_scores(corpus, query)
            got = dict(search(index, query, 60))
            assert got == expected  # bit-exact

    def test_topk_is_prefix_of_larger_k(self):
        corpus = synthetic_corpus(50, seed=2)
        index = index_corpus(corpus)
        full = search(index, "w1 w2 w3 w4", 50)
        for k in range(1, len(full) + 1):
            assert search(index, "w1 w2 w3 w4", k) == full[:k]

    def test_irrelevant_document_does_not_reorder(self):
        corpus = synthetic_corpus(25, seed=4)
        index = index_corpus(corpus)
        before = [d for d, _ in search(index, "w7 w8", 25)]
        corpus_plus = corpus + [("zzz", "", "qqq rrr sss")]  # shares no terms
        after = [d for d, _ in search(index_corpus(corpus_plus), "w7 w8", 26)]
        assert [d for d in after if d != "zzz"] == before

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_brute_force_agreement_property(self, seed, k):
        corpus = synthetic_corpus(20, seed=seed)
        index = index_corpus(corpus)
        query = "w0 w3 w11 title"
        expected = brute_force_scores(corpus, query)
        ranked = sorted(expected.items(), key=lambda item: (-item[1], item[0]))[:k]
        assert search(index, query, k) == ranked


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus = synthetic_corpus(40, seed=5)
        index = index_corpus(corpus)
        path = tmp_path / "corpus.cfix"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.doc_ids == index.doc_ids
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.postings == index.postings
        assert search(loaded, "w2 w4", 10) == search(index, "w2 w4", 10)

    def test_round_trip_of_non_ascii_ids_and_terms(self, tmp_path):
        index = index_corpus([("é-1", "Ünïcode", "naïve café"), ("日本", "", "東京 café")])
        path = tmp_path / "unicode.cfix"
        save_index(index, path)
        assert load_index(path) == index

    def test_reindex_is_byte_identical(self, tmp_path):
        corpus = synthetic_corpus(15, seed=6)
        a, b = tmp_path / "a.cfix", tmp_path / "b.cfix"
        save_index(index_corpus(corpus), a)
        save_index(index_corpus(list(reversed(corpus))), b)
        assert a.read_bytes() == b.read_bytes()


class TestMalformedIndex:
    def framed(self, body: bytes) -> bytes:
        """A CFIX file around `body` with a valid checksum."""
        return b"CFIX" + struct.pack("<I", 2) + body + struct.pack("<I", zlib.crc32(body))

    def test_file_ending_inside_header(self, tmp_path):
        path = tmp_path / "short.cfix"
        path.write_bytes(b"CFIX\x02\x00")
        with pytest.raises(IndexFormatError, match="header"):
            load_index(path)

    @pytest.mark.parametrize("body", [
        b'{"doc_ids":["a","b","c"]}',                                  # no lengths
        b'{"doc_ids":["a","b","c"],"doc_lengths":[1],"postings":{}}',  # one length
        b'{"doc_ids":["a","b","c"',                                    # the ids cut short
    ], ids=["count", "table", "id"])
    def test_body_shorter_than_its_doc_count(self, tmp_path, body):
        path = tmp_path / "short-body.cfix"
        path.write_bytes(self.framed(body))
        with pytest.raises(IndexFormatError, match="malformed"):
            load_index(path)

    @pytest.mark.parametrize("body", [
        b'{"doc_ids":5,"doc_lengths":[],"postings":{}}',
        b'{"doc_ids":"ab","doc_lengths":[1,1],"postings":{}}',
        b'{"doc_ids":["a"],"doc_lengths":[true],"postings":{}}',
        b'{"doc_ids":["a"],"doc_lengths":[-1],"postings":{}}',
        b'{"doc_ids":["a"],"doc_lengths":[1],"postings":[]}',
        b'{"doc_ids":["a"],"doc_lengths":[1],"postings":{"x":[[0]]}}',
        b'{"doc_ids":["a"],"doc_lengths":[1],"postings":{"x":[[1,1]]}}',
        b'{"doc_ids":["a"],"doc_lengths":[1],"postings":{"x":[[0,1.0]]}}',
        b'[1, 2]',
        b'\xff',
    ], ids=["ids-int", "ids-str", "length-bool", "length-negative", "postings-list",
            "posting-short", "posting-past-the-docs", "tf-float", "not-an-object", "not-utf8"])
    def test_wrong_json_types_are_format_errors(self, tmp_path, body):
        path = tmp_path / "typed.cfix"
        path.write_bytes(self.framed(body))
        with pytest.raises(IndexFormatError, match=f"index file {path}: malformed"):
            load_index(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trailing.cfix"
        save_index(index_corpus([("d", "", "alpha beta")]), path)
        raw = path.read_bytes()
        path.write_bytes(self.framed(raw[8:-4] + b"\x00"))
        with pytest.raises(IndexFormatError, match="malformed index body \\(Extra data"):
            load_index(path)
