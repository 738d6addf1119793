"""Tests for util helpers (rng, validation)."""

import numpy as np
import pytest

from repro.util.rng import (
    as_seed_sequence,
    make_rng,
    sample_distinct,
    spawn_seed_sequences,
)
from repro.util.validation import OffMeshError, check_positive, check_shape_member


class TestRng:
    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_make_rng_seeded_reproducible(self):
        assert make_rng(7).integers(1000) == make_rng(7).integers(1000)

    def test_spawn_independent_streams(self):
        a, b = map(make_rng, spawn_seed_sequences(1, 2))
        assert a.integers(10**9) != b.integers(10**9)

    def test_spawn_reproducible(self):
        xs = [make_rng(s).integers(10**9) for s in spawn_seed_sequences(5, 3)]
        ys = [make_rng(s).integers(10**9) for s in spawn_seed_sequences(5, 3)]
        assert xs == ys

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, -1)

    def test_spawn_seed_sequences_is_replayable(self):
        # The sharded sweep runner's derivation is positional: the same
        # input sequence always spawns the same children.
        seq = np.random.SeedSequence(3)
        a = spawn_seed_sequences(seq, 3)
        b = spawn_seed_sequences(seq, 3)
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        assert seq.n_children_spawned == 0  # caller's sequence untouched

    def test_as_seed_sequence_copies_without_advancing(self):
        seq = np.random.SeedSequence(9)
        copy = as_seed_sequence(seq)
        assert copy is not seq
        assert copy.entropy == seq.entropy
        assert copy.spawn_key == seq.spawn_key

    def test_sample_distinct(self):
        rng = make_rng(0)
        draw = sample_distinct(rng, 10, 10)
        assert sorted(draw.tolist()) == list(range(10))
        with pytest.raises(ValueError):
            sample_distinct(rng, 3, 4)
        with pytest.raises(ValueError):
            sample_distinct(rng, 3, -1)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError):
            check_positive("x", 0)
        check_positive("x", 0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", -1, strict=False)

    def test_check_shape_member(self):
        check_shape_member("c", (1, 2), (3, 3))
        with pytest.raises(ValueError):
            check_shape_member("c", (1,), (3, 3))
        with pytest.raises(IndexError):
            check_shape_member("c", (3, 0), (3, 3))
        # An off-mesh coordinate is both a bad value and a bad index.
        with pytest.raises(OffMeshError) as info:
            check_shape_member("c", (0, -1), (3, 3))
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, IndexError)


class TestLRUCacheEviction:
    def test_pop_removes_without_counting_eviction(self):
        from repro.util.caching import LRUCache

        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.pop("a") == 1
        assert cache.pop("a") is None  # absent now
        assert cache.pop("never") is None
        assert len(cache) == 1 and "b" in cache

    def test_keys_snapshot_is_lru_ordered_and_safe_to_mutate_over(self):
        from repro.util.caching import LRUCache

        cache = LRUCache(8)
        for k in "abc":
            cache.put(k, k)
        cache.get("a")  # refresh: order becomes b, c, a
        assert cache.keys() == ["b", "c", "a"]
        for k in cache.keys():  # popping while iterating the snapshot
            cache.pop(k)
        assert len(cache) == 0


class TestMaskDigest:
    def test_content_addressing(self):
        import numpy as np

        from repro.util.caching import mask_digest

        a = np.zeros((4, 5), dtype=bool)
        b = np.zeros((4, 5), dtype=bool)
        assert mask_digest(a) == mask_digest(b)
        b[1, 2] = True
        assert mask_digest(a) != mask_digest(b)

    def test_shape_disambiguates_same_bits(self):
        import numpy as np

        from repro.util.caching import mask_digest

        a = np.zeros((2, 8), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        assert mask_digest(a) != mask_digest(b)

    def test_noncontiguous_views_hash_by_content(self):
        import numpy as np

        from repro.util.caching import mask_digest

        base = np.zeros((5, 5), dtype=bool)
        base[1, 3] = True
        flipped = np.flip(base, axis=(0, 1))
        direct = flipped.copy()
        assert mask_digest(flipped) == mask_digest(direct)
