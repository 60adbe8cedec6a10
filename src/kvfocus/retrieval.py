"""Lexical BM25 retrieval over the passage corpus.

Tokenization is NFC-normalize, lowercase, split on non-alphanumerics; no
stemming or stopwords, so rankings are reproducible across platforms. Titles
are indexed together with the text. Scoring uses k1=0.9, b=0.4 and

    idf(t)   = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(d) = sum over unique query terms t of
               qtf(t) * idf(t) * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avgdl))

with unique terms visited in first-occurrence order. That order, and the
(-score, doc_id) ranking with ascending-id tie-break, pin the results down
to the bit.

Index files use the shared frame of `framing` with magic "CFIX", version 2
and an empty header, so the crc covers everything after the version. The
body is one compact JSON object (ASCII, non-ASCII characters escaped):
{"doc_ids": [id, ...], "doc_lengths": [tokens, ...], "postings": {term:
[[doc_index, tf], ...], ...}}. Documents are sorted by id and terms
alphabetically at build time, so postings are sorted by doc id too and a
rebuild writes the same bytes.
"""

from __future__ import annotations

import json
import math
import re
import struct
import unicodedata
from dataclasses import dataclass

from .framing import Framing, read_framed, write_framed

K1 = 0.9
B = 0.4

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


class IndexFormatError(RuntimeError):
    """An index file is malformed."""


INDEX_FRAME = Framing(b"CFIX", 2, struct.Struct("<"), IndexFormatError, "index file")


def tokenize_text(text: str) -> list[str]:
    return _WORD_RE.findall(unicodedata.normalize("NFC", text).lower())


@dataclass
class InvertedIndex:
    doc_ids: list[str]                      # sorted ascending
    doc_lengths: list[int]                  # tokens per document
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc_index, tf)], ascending index

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def avg_doc_length(self) -> float:
        if not self.doc_lengths:
            return 0.0
        return sum(self.doc_lengths) / len(self.doc_lengths)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        if df == 0:
            return 0.0
        n = self.doc_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def index_corpus(corpus) -> InvertedIndex:
    """Build the index from (doc_id, title, text) records.

    Duplicate ids are rejected. Documents are sorted by id before indexing
    so the structure, and its serialized form, do not depend on input order.
    """
    docs: dict[str, list[str]] = {}
    for doc_id, title, text in corpus:
        if doc_id in docs:
            raise ValueError(f"duplicate document id {doc_id!r}")
        docs[doc_id] = tokenize_text(f"{title} {text}" if title else text)

    doc_ids = sorted(docs)
    doc_lengths = [len(docs[d]) for d in doc_ids]
    postings: dict[str, list[tuple[int, int]]] = {}
    for index, doc_id in enumerate(doc_ids):
        counts: dict[str, int] = {}
        for token in docs[doc_id]:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((index, tf))
    return InvertedIndex(doc_ids=doc_ids, doc_lengths=doc_lengths,
                         postings={t: postings[t] for t in sorted(postings)})


def search(index: InvertedIndex, query_text: str, k: int) -> list[tuple[str, float]]:
    """Top-k documents by BM25, descending score, ties by ascending doc id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tokens = tokenize_text(query_text)
    query_terms: dict[str, int] = {}
    for token in tokens:
        query_terms[token] = query_terms.get(token, 0) + 1

    avgdl = index.avg_doc_length
    scores: dict[int, float] = {}
    for term, qtf in query_terms.items():
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = index.idf(term)
        for doc_index, tf in plist:
            dl = index.doc_lengths[doc_index]
            contribution = qtf * idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * dl / avgdl))
            scores[doc_index] = scores.get(doc_index, 0.0) + contribution
    ranked = sorted(scores.items(), key=lambda item: (-item[1], index.doc_ids[item[0]]))
    return [(index.doc_ids[i], s) for i, s in ranked[:k]]


def save_index(index: InvertedIndex, path) -> None:
    body = json.dumps({"doc_ids": index.doc_ids, "doc_lengths": index.doc_lengths,
                       "postings": index.postings}, separators=(",", ":"))
    write_framed(path, INDEX_FRAME, b"", [body.encode("utf-8")])


def load_index(path) -> InvertedIndex:
    """Read an index file; a malformed one raises IndexFormatError."""
    _, body = read_framed(path, INDEX_FRAME)
    try:
        data = json.loads(str(body, "utf-8"))
        doc_ids, doc_lengths, postings = data["doc_ids"], data["doc_lengths"], data["postings"]

        def is_posting(pair) -> bool:  # [doc_index, tf]
            return _is_list(pair, _is_count) and len(pair) == 2 and pair[0] < len(doc_ids)

        if not (_is_list(doc_ids, lambda doc_id: isinstance(doc_id, str))
                and _is_list(doc_lengths, _is_count) and len(doc_lengths) == len(doc_ids)
                and isinstance(postings, dict)
                and all(_is_list(plist, is_posting) for plist in postings.values())):
            raise ValueError("a field has the wrong type or length")
    except (ValueError, KeyError, TypeError) as exc:
        raise INDEX_FRAME.fail(path, f"malformed index body ({exc})") from exc
    return InvertedIndex(doc_ids=doc_ids, doc_lengths=doc_lengths,
                         postings={term: [(i, tf) for i, tf in plist]
                                   for term, plist in postings.items()})


def _is_list(value, item_ok) -> bool:
    return isinstance(value, list) and all(map(item_ok, value))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0
