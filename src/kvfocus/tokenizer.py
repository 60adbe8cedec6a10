"""Byte-level tokenizer: the 256 byte values plus pad/bos/eos specials.

Any text is encodable without an external vocabulary, which keeps cache
files and fingerprints self-contained.
"""

from __future__ import annotations

PAD_ID = 256
BOS_ID = 257
EOS_ID = 258
VOCAB_SIZE = 259


class ByteTokenizer:
    def encode(self, text: str, add_bos: bool = False) -> list[int]:
        ids = list(text.encode("utf-8"))
        if add_bos:
            return [BOS_ID] + ids
        return ids

    def decode(self, ids) -> str:
        data = bytes(i for i in ids if 0 <= i < 256)
        return data.decode("utf-8", errors="replace")
