"""Rotation math: closed-form examples plus the re-positioning identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvfocus.rope import (
    PositionOverflowWarning,
    RopeConfig,
    Rotation,
    reposition_array,
)


def _manual_rotate(config, vector, position):
    """Independent oracle: per-pair 2x2 rotation evaluated with math.cos/sin."""
    out = np.array(vector, dtype=np.float64)
    for pair in range(config.head_dim // 2):
        angle = position * config.base ** (-2.0 * pair / config.head_dim)
        c, s = math.cos(angle), math.sin(angle)
        x, y = out[2 * pair], out[2 * pair + 1]
        out[2 * pair] = x * c - y * s
        out[2 * pair + 1] = x * s + y * c
    return out


def rotate_one(config, vector, position, dtype=np.float32):
    """One head-dim vector rotated to a position."""
    return Rotation.at(config, [position]).apply(np.asarray(vector, dtype=dtype)[np.newaxis, :])[0]


def move_one(config, vector, old, new):
    """One rotated vector moved from position old to new."""
    return reposition_array(config, vector[np.newaxis, :], [old], [new])[0]


def pair_angle(config, position, pair):
    """Angle that slice `pair` turns by at `position`, read off a unit vector."""
    unit = np.zeros(config.head_dim)
    unit[2 * pair] = 1.0
    out = rotate_one(config, unit, position, dtype=np.float64)
    return math.atan2(out[2 * pair + 1], out[2 * pair])


class TestRotationAngle:
    def test_zero_position_is_zero_for_all_pairs(self):
        cfg = RopeConfig(head_dim=8)
        for pair in range(4):
            assert pair_angle(cfg, 0, pair) == 0.0

    def test_position_one_first_pair_is_one_radian(self):
        cfg = RopeConfig(head_dim=2, base=10000.0)
        assert pair_angle(cfg, 1, 0) == pytest.approx(1.0, abs=1e-12)

    def test_second_pair_frequency(self):
        # base^(-2/4) = 10^(-2)
        cfg = RopeConfig(head_dim=4, base=10000.0)
        assert pair_angle(cfg, 1, 1) == pytest.approx(0.01, abs=1e-12)

    def test_negative_position_rejected(self):
        cfg = RopeConfig(head_dim=2)
        with pytest.raises(ValueError):
            rotate_one(cfg, [1.0, 0.0], -1)
        with pytest.raises(ValueError):
            move_one(cfg, np.array([1.0, 0.0], np.float32), -1, 3)

    def test_position_beyond_range_warns_but_computes(self):
        cfg = RopeConfig(head_dim=2, max_position=4)
        with pytest.warns(PositionOverflowWarning):
            out = rotate_one(cfg, [1.0, 0.0], 10, dtype=np.float64)
        np.testing.assert_allclose(out, [math.cos(10.0), math.sin(10.0)], atol=1e-12)


class TestApplyRope:
    """A single vector rotated to a position."""

    def test_position_zero_is_identity(self):
        cfg = RopeConfig(head_dim=6)
        vec = np.array([1.0, -2.0, 3.0, 0.5, -0.25, 4.0], dtype=np.float32)
        np.testing.assert_array_equal(rotate_one(cfg, vec, 0), vec)

    def test_unit_vector_lands_on_cos_sin(self):
        cfg = RopeConfig(head_dim=2, base=10000.0)
        out = rotate_one(cfg, [1.0, 0.0], 1)
        assert out[0] == pytest.approx(math.cos(1.0), abs=1e-6)
        assert out[1] == pytest.approx(math.sin(1.0), abs=1e-6)

    def test_matches_manual_pairwise_rotation(self):
        cfg = RopeConfig(head_dim=8, max_position=128)
        rng = np.random.default_rng(7)
        for _ in range(50):
            vec = rng.standard_normal(8).astype(np.float32)
            pos = int(rng.integers(0, 128))
            expected = _manual_rotate(cfg, vec, pos)
            np.testing.assert_allclose(rotate_one(cfg, vec, pos), expected, atol=1e-5)

    def test_norm_preserved_per_slice(self):
        cfg = RopeConfig(head_dim=16, max_position=512)
        rng = np.random.default_rng(11)
        for _ in range(25):
            vec = rng.standard_normal(16).astype(np.float32)
            pos = int(rng.integers(0, 512))
            out = rotate_one(cfg, vec, pos)
            for pair in range(8):
                before = math.hypot(vec[2 * pair], vec[2 * pair + 1])
                after = math.hypot(out[2 * pair], out[2 * pair + 1])
                assert after == pytest.approx(before, abs=1e-5)

    def test_odd_length_vector_rejected(self):
        cfg = RopeConfig(head_dim=4)
        with pytest.raises(ValueError):
            rotate_one(cfg, [1.0, 2.0, 3.0], 1)


class TestReposition:
    """A single rotated vector moved to a new position."""

    def test_same_position_is_identity(self):
        cfg = RopeConfig(head_dim=4, max_position=64)
        rng = np.random.default_rng(3)
        vec = rotate_one(cfg, rng.standard_normal(4), 9)
        np.testing.assert_allclose(move_one(cfg, vec, 9, 9), vec, atol=1e-6)

    def test_matches_fresh_rotation(self):
        cfg = RopeConfig(head_dim=8, max_position=64)
        rng = np.random.default_rng(5)
        k0 = rng.standard_normal(8).astype(np.float32)
        moved = move_one(cfg, rotate_one(cfg, k0, 3), 3, 7)
        np.testing.assert_allclose(moved, rotate_one(cfg, k0, 7), atol=1e-5)

    def test_round_trip(self):
        cfg = RopeConfig(head_dim=8, max_position=64)
        rng = np.random.default_rng(9)
        vec = rotate_one(cfg, rng.standard_normal(8), 12)
        back = move_one(cfg, move_one(cfg, vec, 12, 40), 40, 12)
        np.testing.assert_allclose(back, vec, atol=1e-5)

    @given(
        seed=st.integers(0, 2**31 - 1),
        i=st.integers(0, 255),
        j=st.integers(0, 255),
        delta=st.integers(0, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_and_relative_offset(self, seed, i, j, delta):
        cfg = RopeConfig(head_dim=8, max_position=512)
        rng = np.random.default_rng(seed)
        k0 = rng.standard_normal(8).astype(np.float32)
        q0 = rng.standard_normal(8).astype(np.float32)
        # Eq-5-style equivalence: move a stored key instead of re-deriving it
        moved = move_one(cfg, rotate_one(cfg, k0, i), i, j)
        np.testing.assert_allclose(moved, rotate_one(cfg, k0, j), atol=1e-5)
        # the q.k dot product depends only on the offset (j - i)
        dot_a = float(rotate_one(cfg, q0, j) @ rotate_one(cfg, k0, i))
        dot_b = float(rotate_one(cfg, q0, j + delta) @ rotate_one(cfg, k0, i + delta))
        assert dot_a == pytest.approx(dot_b, abs=1e-4)


class TestArrayForms:
    def test_rotate_batches_match_single_vectors(self):
        cfg = RopeConfig(head_dim=6, max_position=100)
        rng = np.random.default_rng(21)
        vecs = rng.standard_normal((2, 5, 6)).astype(np.float32)
        positions = rng.integers(0, 100, size=5)
        out = Rotation.at(cfg, positions).apply(vecs)
        for h in range(2):
            for t in range(5):
                expected = _manual_rotate(cfg, vecs[h, t], int(positions[t]))
                np.testing.assert_allclose(out[h, t], expected, atol=1e-5)

    def test_reposition_array_noop_returns_same_object(self):
        cfg = RopeConfig(head_dim=4, max_position=32)
        vecs = np.ones((1, 3, 4), dtype=np.float32)
        pos = np.array([1, 2, 3])
        assert reposition_array(cfg, vecs, pos, pos) is vecs

    def test_reposition_array_moves_blocks(self):
        cfg = RopeConfig(head_dim=4, max_position=128)
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((2, 4, 4)).astype(np.float32)
        old = np.arange(10, 14)
        new = np.arange(50, 54)
        stored = Rotation.at(cfg, old).apply(raw)
        moved = reposition_array(cfg, stored, old, new)
        np.testing.assert_allclose(moved, Rotation.at(cfg, new).apply(raw), atol=1e-5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RopeConfig(head_dim=3)
        with pytest.raises(ValueError):
            RopeConfig(head_dim=4, base=1.0)
        with pytest.raises(ValueError):
            RopeConfig(head_dim=4, max_position=0)
