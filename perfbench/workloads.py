"""Seeded inputs and the workload definitions.

Everything a run feeds the program -- corpus, query stream, ingest documents,
model weights -- is derived from the ``--seed`` argument here, so the same
seed always yields the same inputs. The program under test only ever sees
the generated records and strings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

PREFIX = "context:"
PASSAGE_LEN = 64
QUERY_RESERVE = 128
PRUNE_INTERVAL = 4   # pruning workloads prune every 4 layers ...
PRUNE_K_FINISH = 5   # ... down to 5 caches

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    k: int
    prune: bool            # prune on the PRUNE_INTERVAL / PRUNE_K_FINISH schedule
    strategy: str
    gen_tokens: int
    stream_len: int        # distinct queries, about twice what a 50 s run reaches
    count_window: int      # queries whose counters are reported in a traced run
    ingests: int = 256     # documents ingested in bursts during the run
    num_docs: int = 200


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="prune_k40",
            why="the paper's full path: load 40 caches, reposition, prune every 4 layers "
                "to 5, sort; load, reposition and scored prefill are half the query",
            k=40, prune=True, strategy="sort", gen_tokens=32, stream_len=256,
            count_window=8,
        ),
        Workload(
            name="cache_k40_decode",
            why="40 caches kept unpruned, so decode over ~2.6k context tokens is ~75% "
                "of the query; copy-free decode shows here, lazy repositioning should not",
            k=40, prune=False, strategy="none", gen_tokens=32, stream_len=96,
            count_window=4,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    corpus: list[tuple[str, str, str]]   # (doc_id, title, text)
    queries: list[str]
    ingest_docs: list[tuple[str, str, str]]
    model_seed: int


class Vocabulary:
    """Synthetic words with Zipfian frequencies (rank r drawn with weight r**-1.1)."""

    def __init__(self, rng: np.random.Generator, size: int = 1500, exponent: float = 1.1):
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            word = "".join(rng.choice(_LETTERS, size=int(rng.integers(3, 9))))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        weights = np.arange(1, size + 1, dtype=np.float64) ** -exponent
        self.probs = weights / weights.sum()

    def sample(self, rng: np.random.Generator, n: int) -> list[str]:
        return [self.words[i] for i in rng.choice(len(self.words), size=n, p=self.probs)]


def _document(rng, vocab: Vocabulary, doc_id: str):
    title = " ".join(vocab.sample(rng, 2))
    words = vocab.sample(rng, int(rng.integers(9, 16)))
    return doc_id, title, " ".join(words)


def _query_text(rng, vocab: Vocabulary, docs_words: list[set[str]], k: int):
    """3-6 Zipfian words, redrawn until at least k documents share a word,
    so BM25 always returns k results."""
    while True:
        words = vocab.sample(rng, int(rng.integers(3, 7)))
        terms = set(words)
        if sum(1 for dw in docs_words if dw & terms) >= k:
            return " ".join(words)


def tiny(workload: Workload) -> Workload:
    """The same workload at self-test scale."""
    return replace(workload, num_docs=48, stream_len=3, count_window=3, ingests=4)


def generate(workload: Workload, seed: int) -> Inputs:
    """Deterministic inputs for one (workload, seed)."""
    rng = np.random.default_rng([seed, 0x6B76])
    vocab = Vocabulary(rng)
    corpus = [_document(rng, vocab, f"d{i:04d}") for i in range(workload.num_docs)]
    docs_words = [set(f"{title} {text}".split()) for _, title, text in corpus]
    queries = [_query_text(rng, vocab, docs_words, workload.k)
               for _ in range(workload.stream_len)]
    model_seed = int(rng.integers(0, 2**31 - 1))
    # Ingest documents come from a stream of their own, so their number does
    # not change the corpus, queries or model the golden outputs belong to.
    ingest_rng = np.random.default_rng([seed, 0x6B76, 1])
    ingest_docs = [_document(ingest_rng, vocab, f"n{i:04d}") for i in range(workload.ingests)]
    return Inputs(corpus=corpus, queries=queries, ingest_docs=ingest_docs,
                  model_seed=model_seed)
