"""Reference pieces that only the tests use: the checked attention oracle the
model's unchecked core is compared against, and a plain float32 record of a
cache layer with the helpers that put such rows into a real cache."""

from typing import NamedTuple

import numpy as np

from kvfocus.model import KVCache, LayerCache, _attend


def attention(queries, keys, values, causal_mask, *, meter=None, collect_map=True):
    """Scaled dot-product attention over explicit key/value arrays, with
    every cast and check that the model's core (`_attend`) leaves out.

    queries: (heads, rows, head_dim), already rotated at their positions.
    keys/values: (heads, cols, head_dim). causal_mask: (rows, cols) bool,
    True where a row may attend. Masked weights are exactly zero. Returns
    (outputs, weights or None): outputs are float64, and weights, when
    collect_map is set, the (heads, rows, cols) softmax map in float32.
    """
    q = np.asarray(queries, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if k.shape != v.shape:
        raise ValueError(f"key shape {k.shape} != value shape {v.shape}")
    if q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise ValueError(f"query shape {q.shape} incompatible with key shape {k.shape}")
    mask = np.asarray(causal_mask, dtype=bool)
    if mask.shape != (q.shape[1], k.shape[1]):
        raise ValueError(f"mask shape {mask.shape} != (rows, cols) {(q.shape[1], k.shape[1])}")
    if not mask.any(axis=1).all():
        raise ValueError("every query row must attend to at least one key")
    return _attend(q, k, v, mask, np.count_nonzero(mask), meter, collect_map)


class Layer(NamedTuple):
    """One layer's rows as plain arrays: float32 (heads, tokens, head_dim)
    keys and values, int64 positions and bool visibility flags."""

    keys: np.ndarray
    values: np.ndarray
    position_ids: np.ndarray
    visible: np.ndarray


def layer_cache(layer, spare: int = 0) -> LayerCache:
    """A LayerCache holding the rows of `layer` (anything with the four
    fields), with room for `spare` more."""
    heads, tokens, dim = layer.keys.shape
    cache = LayerCache.with_capacity(heads, dim, tokens + spare)
    cache.append(layer.keys, layer.values, layer.position_ids, layer.visible)
    return cache


def copy_cache(layers, spare: int = 0) -> KVCache:
    """An independent KVCache with the rows of `layers`, with room for
    `spare` more in every layer."""
    return KVCache([layer_cache(layer, spare) for layer in layers])
