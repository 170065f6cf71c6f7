"""The batched planner: key disjointness, batch chain API, composition.

Exactness of the batched front against the reference ops is covered by
``test_incremental.py`` (parametrized over planner and oracle) and the
property suites; this file pins the plan-specific machinery — the
versioned fixed-width key universe (disjoint from the oracle's legacy
digests by construction), the ``get_many``/``put_many`` chain semantics,
whole-call replay from tile hits, and the kernel composer's splice and its
certificate.
"""

import numpy as np
import pytest

from repro.engine import MapCache
from repro.mapping.hooks import TieredLookup, use_map_cache
from repro.mapping.kernel_map import kernel_map
from repro.mapping.knn import knn_indices
from repro.pointcloud.coords import quantize_unique, voxelize
from repro.stream import TileMapCache
from repro.stream.incremental import PerTileOracle
from repro.stream.tiles import TilePartition


def _pair(oracle=False, tier=None, **kwargs):
    kwargs.setdefault("min_points", 1)
    cls = PerTileOracle if oracle else TileMapCache
    front = cls(**kwargs)
    tier = tier if tier is not None else MapCache(max_entries=1 << 15)
    return front, tier, TieredLookup([tier], front=front)


class TestKeyDisjointness:
    """Planner and oracle keys can never collide: warming either front
    leaves the other stone cold in a shared store (the planner's keys
    carry a versioned fixed-width prefix and are all longer than the
    oracle's 16-byte ``content_digest`` sub-keys), while both still
    produce the exact reference arrays."""

    @pytest.mark.parametrize("warm_oracle", [True, False])
    def test_kernel_map_universes_disjoint(self, rng, warm_oracle):
        coords, _ = quantize_unique(rng.integers(0, 80, (900, 3)), 1)
        _, tier, chain = _pair(warm_oracle, voxel_tile=8)
        with use_map_cache(chain):
            kernel_map(coords, coords, kernel_size=3)
        replay, _, chain2 = _pair(not warm_oracle, tier=tier, voxel_tile=8)
        with use_map_cache(chain2):
            got = kernel_map(coords, coords, kernel_size=3)
        per_tile = replay.stats().by_op["kernel_map/mergesort"]
        assert per_tile["hits"] == 0 and per_tile["misses"] > 0
        expect = kernel_map(coords, coords, kernel_size=3)
        assert np.array_equal(expect.in_idx, got.in_idx)
        assert np.array_equal(expect.out_idx, got.out_idx)
        assert np.array_equal(expect.weight_idx, got.weight_idx)

    @pytest.mark.parametrize("warm_oracle", [True, False])
    def test_knn_universes_disjoint(self, rng, warm_oracle):
        cloud = rng.uniform(0, 20, (400, 3))
        _, tier, chain = _pair(warm_oracle, tile_size=4.0)
        with use_map_cache(chain):
            knn_indices(cloud, cloud, 5)
        replay, _, chain2 = _pair(not warm_oracle, tier=tier, tile_size=4.0)
        with use_map_cache(chain2):
            got = knn_indices(cloud, cloud, 5)
        per_tile = replay.stats().by_op["knn"]
        assert per_tile["hits"] == 0 and per_tile["misses"] > 0
        assert np.array_equal(knn_indices(cloud, cloud, 5)[0], got[0])

    @pytest.mark.parametrize("warm_oracle", [True, False])
    def test_voxelize_universes_disjoint(self, rng, warm_oracle):
        pts = rng.uniform(0, 30, (3000, 3))
        _, tier, chain = _pair(warm_oracle, voxel_tile=16)
        with use_map_cache(chain):
            voxelize(pts, 0.1)
        replay, _, chain2 = _pair(not warm_oracle, tier=tier, voxel_tile=16)
        with use_map_cache(chain2):
            got = voxelize(pts, 0.1)
        per_tile = replay.stats().by_op["voxelize"]
        assert per_tile["hits"] == 0 and per_tile["misses"] > 0
        expect = voxelize(pts, 0.1)
        assert np.array_equal(expect[0], got[0])
        assert np.array_equal(expect[1], got[1])


class TestKeyFormat:
    """The versioned fixed-width key encoding itself."""

    def test_prefix_is_versioned_and_fixed_width(self):
        from repro.stream.plan import _KEY_VERSION, _key_prefix

        pre = _key_prefix(b"tile/voxelize", 64)
        assert pre.startswith(_KEY_VERSION)
        assert len(pre) == len(_KEY_VERSION) + 16
        assert pre != _key_prefix(b"tile/voxelize", 128)
        assert pre == _key_prefix(b"tile/voxelize", 64)

    def test_serving_keys_cannot_collide_with_legacy_digests(self):
        """Every legacy sub-key is exactly 16 bytes (a bare blake2b
        digest); every versioned serving key is prefix + >= 1 component
        digest, i.e. >= 34 bytes — disjoint by length alone, for any
        content."""
        from repro.stream.plan import _key_prefix
        from repro.stream.tiles import content_digest

        legacy = content_digest(b"tile/voxelize", 64, b"anything")
        assert len(legacy) == 16
        serving = _key_prefix(b"tile/voxelize", 64) + content_digest(b"x")
        assert len(serving) >= 34

    def test_store_key_sets_disjoint_on_real_traffic(self, rng):
        """Run identical traffic through the planner and the oracle into
        separate stores: not a single key in common, across every op
        family."""
        cloud = rng.uniform(0, 20, (500, 3))
        coords, _ = quantize_unique(rng.integers(0, 64, (700, 3)), 1)
        pts = rng.uniform(0, 30, (2000, 3))
        key_sets = []
        for oracle in (False, True):
            _, tier, chain = _pair(oracle, voxel_tile=8)
            with use_map_cache(chain):
                knn_indices(cloud, cloud, 5)
                kernel_map(coords, coords, kernel_size=3)
                voxelize(pts, 0.1)
            key_sets.append(set(tier._entries.keys()))
        planner_keys, oracle_keys = key_sets
        assert planner_keys and oracle_keys
        assert not (planner_keys & oracle_keys)
        assert all(len(k) == 16 for k in oracle_keys)


class TestBatchChainApi:
    def test_get_many_promotes_and_counts(self):
        l1 = MapCache(max_entries=64)
        l2 = MapCache(max_entries=64)
        chain = TieredLookup([l1, l2])
        keys = [bytes([i]) * 16 for i in range(4)]
        l2.put(keys[1], np.arange(3), "op")
        l2.put(keys[3], np.arange(5), "op")
        values = chain.get_many(keys, "op")
        assert values[0] is None and values[2] is None
        assert np.array_equal(values[1], np.arange(3))
        assert np.array_equal(values[3], np.arange(5))
        # L2 hits were promoted into L1: a second batch hits L1 only.
        assert l1.get(keys[1], "op") is not None
        assert l1.stats().by_op["op"]["hits"] >= 1
        # per-op counting saw every probe
        assert l1.stats().by_op["op"]["misses"] >= 4

    def test_put_many_writes_through_every_tier(self):
        l1 = MapCache(max_entries=64)
        l2 = MapCache(max_entries=64)
        chain = TieredLookup([l1, l2])
        keys = [bytes([i]) * 16 for i in range(3)]
        values = [np.arange(i + 1) for i in range(3)]
        chain.put_many(keys, values, "op")
        for key, value in zip(keys, values):
            assert np.array_equal(l1.get(key, "op"), value)
            assert np.array_equal(l2.get(key, "op"), value)

    def test_get_many_matches_sequential_gets(self):
        l1 = MapCache(max_entries=64)
        chain = TieredLookup([l1])
        keys = [bytes([i]) * 16 for i in range(6)]
        for i in (0, 2, 4):
            l1.put(keys[i], np.array([i]), "op")
        batch = chain.get_many(keys, "op")
        single = [TieredLookup([l1]).get(k, "op") for k in keys]
        for b, s in zip(batch, single):
            assert (b is None) == (s is None)
            if b is not None:
                assert np.array_equal(b, s)


class TestWholeCallReuse:
    def test_identical_kernel_calls_share_one_table(self, rng):
        """The same kernel-map call made twice, the second on fresh
        equal-content arrays: it is served entirely from the cached tiles
        (no tile misses), equals the first and the reference bit for bit,
        and owns its arrays."""
        coords, _ = quantize_unique(rng.integers(0, 60, (600, 3)), 1)
        front, _, chain = _pair(voxel_tile=8)
        with use_map_cache(chain):
            first = kernel_map(coords, coords, kernel_size=3)
            expect_in = first.in_idx.copy()
            misses0 = front.stats().tile_misses
            hits0 = front.stats().tile_hits
            second = kernel_map(coords.copy(), coords.copy(), kernel_size=3)
            first.in_idx[:] = -1  # scribble on the first result...
            third = kernel_map(coords, coords, kernel_size=3)
        assert front.stats().tile_misses == misses0
        assert front.stats().tile_hits > hits0
        # ...and neither the replay nor the cached tiles see it.
        assert np.array_equal(second.in_idx, expect_in)
        assert np.array_equal(third.in_idx, expect_in)
        reference = kernel_map(coords, coords, kernel_size=3)
        for got in (second, third):
            assert np.array_equal(got.in_idx, reference.in_idx)
            assert np.array_equal(got.out_idx, reference.out_idx)
            assert np.array_equal(got.weight_idx, reference.weight_idx)

    def test_knn_whole_hits_are_owned(self, rng):
        """A repeated kNN call is served from tile hits and owns its
        result: scribbling on one answer leaves the next untouched."""
        cloud = rng.uniform(0, 16, (300, 3))
        front, _, chain = _pair(tile_size=4.0)
        with use_map_cache(chain):
            idx1, dist1 = knn_indices(cloud, cloud, 4)
            expect_idx, expect_dist = idx1.copy(), dist1.copy()
            misses0 = front.stats().tile_misses
            idx1[:] = -1  # scribble on the result...
            dist1[:] = -1.0
            idx2, dist2 = knn_indices(cloud, cloud, 4)
        # ...and the cached tiles must be unaffected.
        assert front.stats().tile_misses == misses0
        assert not np.array_equal(idx1, idx2)
        assert idx2.base is None
        assert np.array_equal(idx2, expect_idx)
        assert np.array_equal(dist2, expect_dist)
        assert np.array_equal(idx2, knn_indices(cloud, cloud, 4)[0])


class TestDeltaComposition:
    def _warm_and_replay(self, coords, nxt, algorithm, chain):
        with use_map_cache(chain):
            kernel_map(coords, coords, kernel_size=3, algorithm=algorithm)
        expect = kernel_map(nxt, nxt, kernel_size=3, algorithm=algorithm)
        with use_map_cache(chain):
            got = kernel_map(nxt, nxt, kernel_size=3, algorithm=algorithm)
        assert np.array_equal(expect.in_idx, got.in_idx)
        assert np.array_equal(expect.out_idx, got.out_idx)
        assert np.array_equal(expect.weight_idx, got.weight_idx)

    @pytest.mark.parametrize("algorithm", ["mergesort", "hash", "bruteforce"])
    def test_splice_on_local_churn_is_exact(self, rng, algorithm):
        coords, _ = quantize_unique(rng.integers(0, 80, (1200, 3)), 1)
        keep = ~np.all(coords < 24, axis=1)
        nxt = np.ascontiguousarray(coords[keep])
        assert len(nxt) < len(coords)  # the scenario is non-trivial
        front, _, chain = _pair(voxel_tile=8)
        self._warm_and_replay(coords, nxt, algorithm, chain)
        assert front._composer.splices >= 1
        assert front._composer.fallbacks == 0

    def test_certificate_catches_nonmonotone_renumbering(self, rng):
        """Reordering whole tiles keeps every sub-key equal but breaks the
        survivors' output-index order; the hash algorithm sorts on that
        index, so the splice must self-reject and full-sort — and still
        produce the exact reference table."""
        coords, _ = quantize_unique(rng.integers(0, 40, (600, 3)), 1)
        part = TilePartition(coords, 8)
        perm = np.concatenate(
            [part.indices(k) for k in reversed(list(part.keys()))]
        )
        shuf = np.ascontiguousarray(coords[perm])
        front, _, chain = _pair(voxel_tile=8)
        self._warm_and_replay(coords, shuf, "hash", chain)
        assert front._composer.fallbacks >= 1

    def test_mergesort_splices_through_renumbering(self, rng):
        """Same tile-block reorder, mergesort order: the minor key is the
        input point's world coordinate — unchanged — so the splice holds
        (and stays exact)."""
        coords, _ = quantize_unique(rng.integers(0, 40, (600, 3)), 1)
        part = TilePartition(coords, 8)
        perm = np.concatenate(
            [part.indices(k) for k in reversed(list(part.keys()))]
        )
        shuf = np.ascontiguousarray(coords[perm])
        front, _, chain = _pair(voxel_tile=8)
        self._warm_and_replay(coords, shuf, "mergesort", chain)
        assert front._composer.splices >= 1
        assert front._composer.fallbacks == 0

    def test_interleaved_callers_splice_with_enough_records(self, rng):
        """Round-robin interleaving (the fleet regime) must still find
        each caller's previous composition when the record capacity
        covers the interleave width."""
        n_callers = 6
        clouds = []
        for i in range(n_callers):
            coords, _ = quantize_unique(
                rng.integers(0, 48, (500, 3)) + 200 * i, 1
            )
            clouds.append(coords)
        front, _, chain = _pair(voxel_tile=8,
                                compose_records=n_callers + 2)
        with use_map_cache(chain):
            for rounds in range(2):
                for i, coords in enumerate(clouds):
                    # Perturb per round so the composer has a delta to
                    # splice (drop one corner tile per round, relative to
                    # each caller's own region).
                    keep = ~np.all(coords < 200 * i + 8 * rounds, axis=1)
                    frame = np.ascontiguousarray(coords[keep])
                    assert rounds == 0 or len(frame) < len(coords)
                    kernel_map(frame, frame, kernel_size=3)
        # Round 2: every caller splices against its own round-1 record.
        assert front._composer.splices >= n_callers

    def test_compose_records_validation(self):
        with pytest.raises(ValueError):
            TileMapCache(compose_records=0)

    def test_compose_counters_surface_in_snapshot(self, rng):
        coords, _ = quantize_unique(rng.integers(0, 40, (500, 3)), 1)
        front, _, chain = _pair(voxel_tile=8)
        with use_map_cache(chain):
            kernel_map(coords, coords, kernel_size=3)
        snap = front.stats().snapshot()
        assert snap["compose"]["full_sorts"] >= 1
