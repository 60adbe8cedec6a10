"""Rotary position embeddings: apply, invert, and re-apply key/query rotations.

Every head-dim vector is treated as head_dim/2 independent 2-D slices, pairing
dimension 2t with 2t+1 (the "interleaved" convention recorded in cache file
headers). Slice t at position i is rotated by i * base**(-2t/head_dim).
Because 2-D rotations about the same plane commute, moving a cached key from
position i to position j collapses to a single rotation by the position
difference, which is what makes stored caches cheap to re-position.

Trigonometry runs in float64; results are returned in the caller's dtype.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PAIRING_INTERLEAVED = 0  # convention id recorded in cache/weight file headers


class PositionOverflowWarning(UserWarning):
    """A position beyond the configured encoding range; angles extrapolate."""


_overflow_sink: ContextVar[list[str] | None] = ContextVar("overflow_sink", default=None)


@contextmanager
def collect_position_overflows(into: list[str]):
    """Also append to `into` the message of each PositionOverflowWarning this
    thread raises inside the block, once per message; the warnings are still
    issued as usual."""
    token = _overflow_sink.set(into)
    try:
        yield
    finally:
        _overflow_sink.reset(token)


@dataclass(frozen=True)
class RopeConfig:
    """Rotation schedule for one attention head.

    head_dim must be even. max_position is the model's available positional
    encoding range; larger positions are computed anyway (the schedule
    extrapolates) but raise PositionOverflowWarning so the planning layer can
    react. Policy for staying inside the range lives upstream, not here.
    """

    head_dim: int
    base: float = 10000.0
    max_position: int = 512

    def __post_init__(self):
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be a positive even integer, got {self.head_dim}")
        if not self.base > 1.0:
            raise ValueError(f"base must be > 1, got {self.base}")
        if self.max_position < 1:
            raise ValueError(f"max_position must be >= 1, got {self.max_position}")

    def pair_frequencies(self) -> np.ndarray:
        """Angular frequency of each 2-D slice: base**(-2t/head_dim), float64
        (computed once per schedule and read-only)."""
        return _pair_frequencies(self.head_dim, self.base)


@lru_cache(maxsize=None)
def _pair_frequencies(head_dim: int, base: float) -> np.ndarray:
    t = np.arange(head_dim // 2, dtype=np.float64)
    freqs = base ** (-2.0 * t / head_dim)
    freqs.flags.writeable = False
    return freqs


def _check_positions(config: RopeConfig, positions: np.ndarray) -> None:
    if positions.size == 0:
        return
    low = int(positions.min())
    if low < 0:
        raise ValueError(f"positions must be non-negative, got {low}")
    if int(positions.max()) >= config.max_position:
        # one static message per config so repeated warnings deduplicate
        message = (f"positions beyond the encoding range [0, {config.max_position}); "
                   "angles extrapolate")
        warnings.warn(message, PositionOverflowWarning, stacklevel=3)
        sink = _overflow_sink.get()
        if sink is not None and message not in sink:
            sink.append(message)


@dataclass(frozen=True)
class Rotation:
    """The rotation to one set of per-token positions, built once by `at`
    and applied to any number of (..., tokens, head_dim) arrays.

    `at` checks the positions (1-D, non-negative) and issues
    PositionOverflowWarning once, then computes the cos/sin of every angle,
    so a forward pass builds one Rotation and all its layers share it.
    """

    head_dim: int
    positions: np.ndarray  # (tokens,) int64
    cos: np.ndarray  # (tokens, head_dim // 2) float64
    sin: np.ndarray

    @classmethod
    def at(cls, config: RopeConfig, positions) -> "Rotation":
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1:
            raise ValueError(f"positions must be 1-D, got shape {pos.shape}")
        _check_positions(config, pos)
        angles = pos[:, None].astype(np.float64) * config.pair_frequencies()[None, :]
        return cls(config.head_dim, pos, np.cos(angles), np.sin(angles))

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate vectors (..., tokens, head_dim), one token per position.

        Zero-token inputs pass through unchanged. Output dtype matches input.
        """
        vec = np.asarray(vectors)
        if vec.ndim < 2 or vec.shape[-1] != self.head_dim:
            raise ValueError(f"expected trailing dimension {self.head_dim}, got shape {vec.shape}")
        if vec.shape[-2] != self.positions.size:
            raise ValueError(f"positions shape {self.positions.shape} does not match token "
                             f"count {vec.shape[-2]}")
        if not self.positions.size:
            return vec
        return _rotate_by(vec, self.cos, self.sin)


def reposition_array(config: RopeConfig, vectors: np.ndarray, old_positions, new_positions) -> np.ndarray:
    """Move rotated vectors from old to new positions in one rotation.

    Undo-then-redo (R_new applied after the inverse of R_old) commutes into a
    single rotation by (new - old) per slice. When all targets equal the
    sources the input array is returned untouched, bit for bit. A shift
    shared by every token, the common case of moving a stored cache, takes
    one row of angles that broadcasts over the tokens, with the same float64
    operations as the per-token path.
    """
    vec = np.asarray(vectors)
    if vec.ndim < 2 or vec.shape[-1] != config.head_dim:
        raise ValueError(f"expected trailing dimension {config.head_dim}, got shape {vec.shape}")
    old = np.asarray(old_positions, dtype=np.int64)
    new = np.asarray(new_positions, dtype=np.int64)
    if old.shape != new.shape or old.ndim != 1 or old.shape[0] != vec.shape[-2]:
        raise ValueError("old/new positions must be 1-D and match the token count")
    if old.size == 0:
        return vec
    if old.min() < 0:
        raise ValueError(f"positions must be non-negative, got {int(old.min())}")
    _check_positions(config, new)
    delta = new - old
    if (delta == delta[0]).all():
        if delta[0] == 0:
            return vec
        delta = delta[:1]
    angles = delta[:, None].astype(np.float64) * config.pair_frequencies()[None, :]
    return _rotate_by(vec, np.cos(angles), np.sin(angles))


def _rotate_by(vec: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """(even, odd) -> (even cos - odd sin, even sin + odd cos) in float64,
    each half written in place into the output."""
    x = vec.astype(np.float64, copy=False)
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty(x.shape, dtype=np.float64)
    out_even = out[..., 0::2]
    out_odd = out[..., 1::2]
    np.multiply(even, cos, out=out_even)
    out_even -= odd * sin
    np.multiply(even, sin, out=out_odd)
    out_odd += odd * cos
    return out.astype(vec.dtype, copy=False)

