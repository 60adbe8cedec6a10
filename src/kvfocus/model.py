"""Minimal decoder-only transformer with explicit, repositionable KV caches.

Blocks are pre-norm with RMS normalization, rotary embeddings on queries and
keys, and a two-layer feed-forward (4x expansion, SiLU), no biases. Weights
are float32 on disk and in the fingerprint; a Model keeps one copy, widened
exactly to float64. All activations and matrix products run in float64, and
keys/values are rounded to float32 at the moment they enter a cache.
Rounding at the cache boundary makes monolithic, split, and store-loaded
forward paths agree bit-for-bit on cached tensors, so greedy decoding is
reproducible no matter how the context was assembled.

Caches carry explicit per-token position ids and a visibility flag so
padding keys can be masked out of attention. They do not record which
source each token came from: the code that lays out a context knows where
each part starts and ends (see `focus`). A cache has one form: the
float32-rounded values in float64 buffers (the widening is exact) that are
sized up front or grow geometrically, so each decoded token writes only its
own rows and attention reads the cache in place, with no concatenate and no
cast. Stored caches are not caches of this kind but float32 arrays (see
`cache_store`), appended into such buffers when a context is laid out.

Model.forward is the one way to run tokens through a KVCache, for pre-fill
and decoding alike. Work that is the same in every layer runs once per
forward chunk: the positions are checked, and the cos/sin of their rotation
computed (`rope.Rotation`), before the first layer, and every layer applies
that rotation. A single visible new token, the decode case, is appended
first and attends with the cache's own visibility flags as its mask, a view
of the buffer, so decoding a token builds no mask.

On one-row arrays a numpy call costs about as much as a small product, so a
layer makes few: one product with a block's fused [wq | wk | wv] matrix, one
rotation of q and k together, a direct write of the new rows into the cache
buffers, and the attention core (_attend), which casts and checks nothing:
its inputs are right by construction, since every new token sees itself.
The bits are those of separate products and rotations.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .framing import Framing, read_framed, write_framed
from .rope import PAIRING_INTERLEAVED, RopeConfig, Rotation
from .tokenizer import VOCAB_SIZE

FFN_MULT = 4
NORM_EPS = 1e-5
PREFILL_CHUNK = 256  # tokens per chunk of one Model.forward call
MAX_CACHE_TOKENS = 16384  # hard limit on the tokens Model.forward may leave cached


class CapacityError(RuntimeError):
    """The cache would exceed the hard token limit, MAX_CACHE_TOKENS."""


class WeightFormatError(RuntimeError):
    """A weight file is malformed or does not match this format version."""


# header: layers, heads, head_dim, vocab, max_position, base, pairing
WEIGHT_FRAME = Framing(b"CFWT", 1, struct.Struct("<IIIIIdB"), WeightFormatError, "weight file")


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    num_heads: int
    head_dim: int
    rope: RopeConfig
    vocab_size: int = VOCAB_SIZE

    def __post_init__(self):
        if self.num_layers < 1 or self.num_heads < 1:
            raise ValueError("num_layers and num_heads must be positive")
        if self.head_dim < 2 or self.head_dim % 2 != 0:
            raise ValueError("head_dim must be a positive even integer")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if self.rope.head_dim != self.head_dim:
            raise ValueError(
                f"rope.head_dim {self.rope.head_dim} does not match head_dim {self.head_dim}"
            )

    @property
    def hidden_dim(self) -> int:
        return self.num_heads * self.head_dim

    def packed(self) -> bytes:
        """Fixed binary encoding used in file headers and the fingerprint."""
        return WEIGHT_FRAME.header.pack(
            self.num_layers,
            self.num_heads,
            self.head_dim,
            self.vocab_size,
            self.rope.max_position,
            self.rope.base,
            PAIRING_INTERLEAVED,
        )


def make_config(
    num_layers: int = 8,
    num_heads: int = 4,
    head_dim: int = 32,
    max_position: int = 512,
    rope_base: float = 10000.0,
    vocab_size: int = VOCAB_SIZE,
) -> ModelConfig:
    rope = RopeConfig(head_dim=head_dim, base=rope_base, max_position=max_position)
    return ModelConfig(num_layers, num_heads, head_dim, rope, vocab_size)


class LayerCache:
    """Cached keys/values for one layer, with per-token bookkeeping.

    keys/values: (num_heads, tokens, head_dim), float32-rounded values in
    float64 buffers (the widening is exact); keys are rotated at
    position_ids. visible=False marks padding keys that attention must skip.
    The four fields are views of the buffers' first token_count rows.
    Appends write new rows in place, so a view taken earlier keeps its
    values; an append that does not fit moves the cache into buffers with
    room to grow. Replace a cache rather than its fields. Build one with
    with_capacity() or Model.new_cache().
    """

    def __init__(self, buffers: tuple):
        # (keys, values, position_ids, visible), with spare rows
        self._buffers = buffers
        self._expose(0)

    @classmethod
    def with_capacity(cls, num_heads: int, head_dim: int, capacity: int) -> "LayerCache":
        """An empty cache whose buffers hold `capacity` tokens; appends that
        fit allocate nothing."""
        return cls(_new_buffers(num_heads, capacity, head_dim))

    @property
    def token_count(self) -> int:
        return self.keys.shape[1]

    @property
    def capacity(self) -> int:
        """Tokens the buffers hold before the next append must reallocate."""
        return self._buffers[2].size

    def reserve(self, extra: int) -> None:
        """Make room for `extra` more tokens, so appending them allocates nothing."""
        end = self.token_count + extra
        if extra > 0 and end > self.capacity:
            self._reallocate(end)

    def append(self, keys, values, position_ids, visible) -> None:
        """Write new rows after the cached ones; keys/values are rounded to float32."""
        keys, values = np.asarray(keys, np.float32), np.asarray(values, np.float32)
        start = self.keys.shape[1]
        end = start + keys.shape[1]
        if end > self.capacity:
            self._reallocate(max(end, 2 * self.capacity))
        k, v, pos, vis = self._buffers
        k[:, start:end] = keys
        v[:, start:end] = values
        pos[start:end] = position_ids
        vis[start:end] = visible
        self._expose(end)

    def clear(self) -> None:
        """Drop every token, keeping the buffers to refill (so, unlike
        appends, refilling overwrites what earlier views show)."""
        self._expose(0)

    def _reallocate(self, capacity: int) -> None:
        n = self.token_count
        heads, _, dim = self.keys.shape
        k, v, pos, vis = self._buffers = _new_buffers(heads, capacity, dim)
        k[:, :n] = self.keys
        v[:, :n] = self.values
        pos[:n] = self.position_ids
        vis[:n] = self.visible
        self._expose(n)

    def _expose(self, n: int) -> None:
        k, v, pos, vis = self._buffers
        self.keys = k[:, :n]
        self.values = v[:, :n]
        self.position_ids = pos[:n]
        self.visible = vis[:n]


def _new_buffers(heads: int, capacity: int, dim: int) -> tuple:
    return (np.empty((heads, capacity, dim), dtype=np.float64),
            np.empty((heads, capacity, dim), dtype=np.float64),
            np.empty(capacity, dtype=np.int64),
            np.empty(capacity, dtype=bool))


@dataclass
class KVCache:
    """One LayerCache per model layer; all layers hold the same token count."""

    layers: list[LayerCache]

    @property
    def token_count(self) -> int:
        counts = {layer.token_count for layer in self.layers}
        if len(counts) > 1:
            raise ValueError(f"layers disagree on token count: {sorted(counts)}")
        return counts.pop() if counts else 0

    def next_position(self) -> int:
        if self.token_count == 0:
            return 0
        return int(self.layers[0].position_ids.max()) + 1

    def reserve(self, extra: int) -> None:
        """Make room in every layer for `extra` more tokens."""
        for layer in self.layers:
            layer.reserve(extra)


class CostMeter:
    """Deterministic multiply-accumulate counters for attention products.

    Counts the query-key and weight-value products behind unmasked attention
    entries, the terms whose growth tracks context length. Masked entries and
    dense projections are excluded: the former so chunked and monolithic
    prefills count identically, the latter because they are the same for
    every context layout. That keeps the counters a clean scaling signal.
    """

    __slots__ = ("prefill_mults", "decode_mults", "phase")

    def __init__(self) -> None:
        self.prefill_mults = 0
        self.decode_mults = 0
        self.phase = "prefill"

    def add(self, count: int) -> None:
        if self.phase == "decode":
            self.decode_mults += int(count)
        else:
            self.prefill_mults += int(count)


def _attend(q, k, v, mask, attended, meter, collect_map):
    """Scaled dot-product attention over float64 arrays, unchecked: callers
    build inputs that are right by construction.

    q: (heads, rows, head_dim), already rotated at their positions; k/v:
    (heads, cols, head_dim). mask: (rows, cols) bool, True where a row may
    attend, with at least one True per row; masked weights are exactly zero.
    `attended` is the count of True entries in mask; when it is every entry,
    no -inf fill runs. Returns (float64 outputs, the float32 (heads, rows,
    cols) softmax map when collect_map is set, else None)."""
    heads, _, dim = q.shape
    # one (heads, rows, cols) array, updated in place from scores to weights
    weights = np.matmul(q, k.transpose(0, 2, 1))
    weights /= math.sqrt(dim)
    if attended < mask.size:
        np.copyto(weights, -np.inf, where=~mask)
    # the reductions behind .max()/.sum(), without their Python wrappers
    weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    if meter is not None:
        meter.add(2 * heads * dim * attended)
    outputs = np.matmul(weights, v)
    return outputs, weights.astype(np.float32) if collect_map else None


def _rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # np.mean's own reduce-then-divide, without its Python wrappers
    scale = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    scale /= x.shape[-1]
    scale += NORM_EPS
    np.sqrt(scale, out=scale)
    return x / scale * gain


def _silu(x: np.ndarray) -> np.ndarray:
    return x * (0.5 * (1.0 + np.tanh(0.5 * x)))


def _layer_shapes(h: int) -> dict[str, tuple[int, ...]]:
    # a block's tensors in file order; a Model fuses wq, wk and wv (see _fuse_block)
    return {"attn_norm": (h,), "wq": (h, h), "wk": (h, h), "wv": (h, h), "wo": (h, h),
            "ffn_norm": (h,), "w1": (h, FFN_MULT * h), "w2": (FFN_MULT * h, h)}


def _weight_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape, in canonical order: the file layout and the
    fingerprint order."""
    h = config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {"embedding": (config.vocab_size, h)}
    for i in range(config.num_layers):
        shapes.update((f"layers.{i}.{name}", shape) for name, shape in _layer_shapes(h).items())
    shapes["final_norm"] = (h,)
    shapes["lm_head"] = (h, config.vocab_size)
    return shapes


def _weight_count(config: ModelConfig) -> int:
    """Float32 values in a model's weights, without building the shape table."""
    h = config.hidden_dim
    per_layer = sum(math.prod(shape) for shape in _layer_shapes(h).values())
    return 2 * config.vocab_size * h + h + config.num_layers * per_layer


def _fuse_block(attn_norm, wq, wk, wv, wo, ffn_norm, w1, w2) -> tuple:
    """A block's float32 tensors, widened to float64, as Model.forward_layer
    unpacks them: one (h, 3h) [wq | wk | wv] matrix in place of three. Each
    column of x @ wqkv is the same dot product, with the same BLAS kernel, as
    in the separate products, so the fused product equals them bit for bit
    (pinned by a test)."""
    # widened straight into the fused matrix: float64 copies of wq, wk and wv
    # freed at once moved glibc's malloc thresholds so that every query
    # page-faulted its ~17 MB of loaded entries again
    def wide(w):
        return w.astype(np.float64)

    return (wide(attn_norm), np.concatenate([wq, wk, wv], axis=1, dtype=np.float64),
            wide(wo), wide(ffn_norm), wide(w1), wide(w2))


def _split_block(block: tuple) -> tuple:
    """The inverse of _fuse_block: a block's tensors in file order."""
    attn_norm, wqkv, wo, ffn_norm, w1, w2 = block
    wq, wk, wv = np.split(wqkv, 3, axis=1)
    return attn_norm, wq, wk, wv, wo, ffn_norm, w1, w2


def _seed_weights(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Deterministic random float32 weights; norm gains are ones and not drawn.

    Draw order (embedding, per-layer projections, lm_head) is fixed so a
    seed is a complete, portable weight specification.
    """
    rng = np.random.default_rng(seed)
    h = config.hidden_dim

    def draw(shape):
        scale = np.float32(shape[0] ** -0.5)
        return rng.standard_normal(shape, dtype=np.float32) * scale

    w: dict[str, np.ndarray] = {}
    w["embedding"] = rng.standard_normal((config.vocab_size, h), dtype=np.float32)
    for i in range(config.num_layers):
        p = f"layers.{i}."
        w[p + "attn_norm"] = np.ones(h, dtype=np.float32)
        w[p + "wq"] = draw((h, h))
        w[p + "wk"] = draw((h, h))
        w[p + "wv"] = draw((h, h))
        w[p + "wo"] = draw((h, h))
        w[p + "ffn_norm"] = np.ones(h, dtype=np.float32)
        w[p + "w1"] = draw((h, FFN_MULT * h))
        w[p + "w2"] = draw((FFN_MULT * h, h))
    w["final_norm"] = np.ones(h, dtype=np.float32)
    w["lm_head"] = draw((h, config.vocab_size))
    return w


def fingerprint(config: ModelConfig, weights: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    digest.update(config.packed())
    for name in _weight_shapes(config):
        digest.update(np.ascontiguousarray(weights[name]).tobytes())
    return digest.hexdigest()[:16]


def _check_capacity(total: int) -> None:
    if total > MAX_CACHE_TOKENS:
        raise CapacityError(f"cache would hold {total} tokens, over the limit of {MAX_CACHE_TOKENS}")


class Model:
    """Decoder-only transformer; immutable and shareable after construction.

    Each inference session owns its KVCache exclusively; independent sessions
    may run concurrently against one model instance.
    """

    def __init__(self, config: ModelConfig, weights: dict[str, np.ndarray]):
        shapes = _weight_shapes(config)
        for name, shape in shapes.items():
            if name not in weights:
                raise ValueError(f"missing weight tensor {name}")
            arr = weights[name]
            if arr.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
            if arr.dtype != np.float32:
                raise ValueError(f"{name}: weights must be float32, got {arr.dtype}")
        self.config = config
        self._fingerprint = fingerprint(config, weights)
        # the only copy kept: float64, widened exactly from the float32 input
        self._embedding = weights["embedding"].astype(np.float64)
        names = _layer_shapes(config.hidden_dim)
        self._blocks = [_fuse_block(*(weights[f"layers.{i}.{name}"] for name in names))
                        for i in range(config.num_layers)]
        self._final_norm = weights["final_norm"].astype(np.float64)
        self._lm_head = weights["lm_head"].astype(np.float64)

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @classmethod
    def from_seed(cls, config: ModelConfig, seed: int) -> "Model":
        return cls(config, _seed_weights(config, seed))

    @classmethod
    def from_file(cls, path) -> "Model":
        return cls(*load_weights(path))

    def new_cache(self) -> KVCache:
        cfg = self.config
        return KVCache([LayerCache.with_capacity(cfg.num_heads, cfg.head_dim, 0)
                        for _ in range(cfg.num_layers)])

    def embed(self, tokens) -> np.ndarray:
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ValueError("token id out of vocabulary range")
        return self._embedding[ids]

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        # (t, n * head_dim) -> (n, t, head_dim), a view
        return x.reshape(x.shape[0], -1, self.config.head_dim).transpose(1, 0, 2)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        heads, t, dim = x.shape
        return x.transpose(1, 0, 2).reshape(t, heads * dim)

    def forward_layer(
        self,
        layer_index: int,
        hidden: np.ndarray,
        layer_cache: LayerCache,
        rotation: Rotation,
        *,
        visible: np.ndarray | None = None,
        meter: CostMeter | None = None,
        collect_map: bool = False,
    ):
        """One transformer block over `hidden` (tokens, hidden_dim) float64.

        The new tokens' keys/values (float32, rotated by `rotation`, which
        also gives their positions) are appended to layer_cache, and the new
        tokens attend, reading the grown cache in place, to every visible
        cached key plus themselves under a causal mask. `visible` holds a
        flag per new token, None for all visible. Returns (new_hidden,
        new_keys, new_values, weights or None); the float32 weights' columns
        follow the cache's token order.
        """
        t = hidden.shape[0]
        if visible is not None and np.shape(visible) != (t,):
            raise ValueError(f"visible shape {np.shape(visible)} does not match token count {t}")
        attn_norm, wqkv, wo, ffn_norm, w1, w2 = self._blocks[layer_index]
        heads = self.config.num_heads

        x = _rms_norm(hidden, attn_norm)
        qkv = self._split_heads(x @ wqkv)  # q, k and v heads stacked: (3 * heads, t, dim)
        qk = rotation.apply(qkv[:2 * heads])  # elementwise, so stacking keeps the bits
        q = qk[:heads]
        k32 = qk[heads:].astype(np.float32)
        v32 = qkv[2 * heads:].astype(np.float32)

        layer_cache.append(k32, v32, rotation.positions, True if visible is None else visible)
        seen = layer_cache.visible
        if t == 1 and seen[-1]:
            # one visible new token sees exactly the visible keys, itself included
            mask = seen[None, :]
            attended = np.count_nonzero(seen)
        else:
            ctx = seen.size - t
            mask = np.empty((t, ctx + t), dtype=bool)
            mask[:, :ctx] = seen[None, :ctx]
            # causal within the new block; invisible new keys stay self-visible
            mask[:, ctx:] = np.tril(np.ones((t, t), dtype=bool)) & (
                seen[None, ctx:] | np.eye(t, dtype=bool)
            )
            attended = np.count_nonzero(mask)

        # every row sees its own token, so no row of the mask is empty
        out, weights = _attend(q, layer_cache.keys, layer_cache.values, mask, attended, meter,
                               collect_map)
        hidden = hidden + self._merge_heads(out) @ wo
        x2 = _rms_norm(hidden, ffn_norm)
        hidden = hidden + _silu(x2 @ w1) @ w2
        return hidden, k32, v32, weights

    def forward(
        self,
        cache: KVCache,
        tokens,
        *,
        positions=None,
        visible=None,
        meter: CostMeter | None = None,
    ) -> np.ndarray:
        """Run tokens through every layer, extending the cache in place.

        positions default to the next sequential positions after the highest
        one already cached; visible holds a flag per token, None for all
        visible. A cache that would hold more than MAX_CACHE_TOKENS is refused
        (CapacityError). Inputs longer than PREFILL_CHUNK tokens run in chunks,
        with room for all of them reserved once; that is exactly equivalent to
        one pass because cached keys/values round to float32 either way.
        Returns the last chunk's final hidden states (tokens, hidden_dim).
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("tokens must be a non-empty 1-D sequence")
        _check_capacity(cache.token_count + ids.size)
        if positions is None:
            start = cache.next_position()
            positions = np.arange(start, start + ids.size, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        visible = None if visible is None else np.asarray(visible, dtype=bool)
        for name, array in (("positions", positions), ("visible", visible)):
            if array is not None and array.shape != ids.shape:
                raise ValueError(f"{name} shape {array.shape} does not match token "
                                 f"count {ids.size}")

        if ids.size > PREFILL_CHUNK:
            cache.reserve(ids.size)
        for lo in range(0, ids.size, PREFILL_CHUNK):
            chunk = slice(lo, lo + PREFILL_CHUNK)
            rotation = Rotation.at(self.config.rope, positions[chunk])
            flags = None if visible is None else visible[chunk]
            hidden = self.embed(ids[chunk])
            for layer_index in range(self.config.num_layers):
                hidden, _, _, _ = self.forward_layer(
                    layer_index, hidden, cache.layers[layer_index], rotation,
                    visible=flags, meter=meter)
        return hidden

    def logits(self, hidden: np.ndarray) -> np.ndarray:
        """Project hidden rows (n, hidden_dim) to vocabulary logits."""
        return _rms_norm(hidden, self._final_norm) @ self._lm_head

    def decode(
        self,
        cache: KVCache,
        prev_token: int,
        max_tokens: int,
        *,
        meter: CostMeter | None = None,
    ) -> list[int]:
        """Greedy decoding loop: feed the previous token, take the argmax.

        New tokens sit immediately after the highest occupied position.
        Returns max_tokens generated tokens (prev_token not included). Room
        for them is reserved up front, so the loop itself does not
        reallocate the cache; a cache that already has the room, as the
        pipeline's decode cache does, is not reallocated at all. A decode
        that would pass MAX_CACHE_TOKENS is refused before anything grows.
        """
        _check_capacity(cache.token_count + max_tokens)
        cache.reserve(max_tokens)
        out: list[int] = []
        token = int(prev_token)
        position = cache.next_position()
        for _ in range(max_tokens):
            hidden = self.forward(cache, [token], positions=[position], meter=meter)
            token = int(np.argmax(self.logits(hidden[-1:])[0]))
            out.append(token)
            position += 1
        return out


def save_weights(model: Model, path) -> None:
    """Write the weight file: the packed config as the frame header, then
    float32 tensors in canonical order (see `framing`). The model's float64
    tensors were widened from float32, so rounding them back is exact. Each
    tensor is narrowed as it is written, so the body (~6.5 MB for the
    default model) never exists whole: freeing a buffer that size would raise
    glibc's dynamic mmap and trim thresholds and change how every later query
    reuses the heap."""
    blocks = (_split_block(block) for block in model._blocks)
    tensors = chain([model._embedding], *blocks, [model._final_norm, model._lm_head])
    write_framed(path, WEIGHT_FRAME, model.config.packed(),
                 (np.ascontiguousarray(tensor, dtype=np.float32) for tensor in tensors))


def load_weights(path):
    """Read a weight file back into (ModelConfig, weights).

    The crc does not cover the config, so a config that make_config rejects
    or that does not match the body length is a WeightFormatError too.
    """
    (layers, heads, head_dim, vocab, max_position, base, pairing), body = read_framed(path, WEIGHT_FRAME)
    if pairing != PAIRING_INTERLEAVED:
        raise WEIGHT_FRAME.fail(path, f"unknown pairing convention {pairing}")
    try:
        config = make_config(
            num_layers=layers,
            num_heads=heads,
            head_dim=head_dim,
            max_position=max_position,
            rope_base=base,
            vocab_size=vocab,
        )
    except ValueError as exc:
        raise WEIGHT_FRAME.fail(path, f"bad config ({exc})") from exc
    if len(body) != 4 * _weight_count(config):
        raise WEIGHT_FRAME.fail(path, "body length does not match its config")
    weights: dict[str, np.ndarray] = {}
    cursor = 0
    for name, shape in _weight_shapes(config).items():
        n = int(np.prod(shape))
        weights[name] = np.frombuffer(body, dtype="<f4", count=n, offset=cursor).reshape(shape).copy()
        cursor += 4 * n
    return config, weights
