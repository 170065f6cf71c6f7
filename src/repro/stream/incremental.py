"""Tile-granular incremental map reuse: the content-aware cache front.

:class:`TileMapCache` plugs into :class:`repro.mapping.hooks.TieredLookup`
as its ``front``.  For supported mapping ops it decomposes the whole-cloud
call into per-tile sub-problems, addresses each sub-problem into the
chain's ordinary digest tiers (L1 / shared L2 / disk — so tile results
shard and persist exactly like whole-op results), and recomputes only the
tiles whose content changed, plus whatever the op's locality demands.

The bit-identity contract is non-negotiable: composition must reproduce
the reference op's output *exactly*, including neighbor ordering,
padding and tie-breaking.  Three op families qualify:

``knn``
    Rows are independent per query.  A query tile is answered against a
    *halo* of reference tiles within ``halo`` Chebyshev tiles; any point
    outside the halo is provably farther than ``halo * tile_size`` from
    every query in the tile, so a row whose k-th local neighbor is within
    that bound is certified global-exact.  Uncertified rows (sparse halos,
    boundary ties) are recomputed against the full reference cloud — rows
    are independent, so partial fallback stays exact.  Tie-breaks survive
    because the halo is materialized in ascending global order: local
    index order *is* global index order restricted to the halo.

``ball_query``
    Same row independence and halo geometry.  A row is certified when the
    halo covers the full query radius and at least one candidate is in
    radius (the reference pads with the nearest in-radius point), or —
    for under-covering halos — when all ``k`` local candidates are within
    the covered bound.  Everything else falls back per-row.

``kernel_map/{mergesort,hash,bruteforce}``
    A finite integer stencil: map entries for an output tile depend only
    on input points within ``reach = max|offset|`` of the tile's box — so
    the sub-problem's dependence region is the tile plus a *reach-shell*,
    not whole neighbor tiles.  Keys and candidate sets use
    :meth:`~repro.stream.tiles.TilePartition.shell`: the digest moves
    only when points within ``reach`` of the boundary move (interior
    churn in a neighbor no longer dirties this tile), and the candidate
    array is ~one tile instead of ``3^D`` tiles, which removes the
    ``3^D``-fold redundant key-sorting the full-halo decomposition paid
    per layer.  Composed rows are re-ordered to the exact global row
    order of the algorithm that was asked for; input-candidate order
    only needs to be deterministic (coordinates are unique, so the
    algorithms' row orders are total and candidate-order-free).  The
    tile side is floored at ``2 * reach`` so a shell always fits, which
    decouples tile granularity from tensor stride.

``voxelize``
    The incremental voxelizer.  Quantization ``floor(p / voxel_size)`` is
    a per-point map, so after the (cheap, recomputed-per-call) grid pass
    the problem tiles with *no halo at all*: every grid coordinate
    belongs to exactly one integer tile cell, per-tile voxel sets are
    disjoint by construction, and the global sorted-unique voxel array is
    the ordered merge of the per-tile sorted-unique arrays.  Each cached
    tile entry — ``(sorted unique packed voxel keys, local inverse)`` —
    carries a structural exactness certificate (keys strictly increasing,
    inverse in range) that is re-validated on every use; a tile that
    fails it (a corrupted disk spill, say) drops the whole call to the
    global reference computation.  Unchanged world regions therefore
    reuse their voxel coordinates frame over frame — the remaining
    per-frame cost of a warm geometry-only SparseConv stream.

Everything else — FPS is inherently global and sequential, DGCNN's
feature-space graphs have no spatial tiles — falls through to the chain's
whole-content digest path untouched.

Serving routes every decomposed call through the plan/probe/execute/
splice pipeline in :mod:`repro.stream.plan` (vectorized digesting, one
``get_many`` chain round trip, delta-composed kernel maps and voxel
merges) under *versioned fixed-width* sub-keys.  The original per-tile
loops survive as :class:`PerTileOracle` — no longer a serving mode but
the independent reference implementation the property suite
(``tests/properties/test_prop_plan.py``) proves the planner bit-identical
against.  The oracle keeps its legacy variable-width ``content_digest``
keys, which are 16 bytes and therefore provably disjoint from the
planner's longer versioned keys: the two implementations can share a
cache chain without ever serving each other's entries.

A note on floating point: tile-local distance matrices are computed by the
same :func:`~repro.pointcloud.coords.pairwise_squared_distance` formula on
the same operands as the monolithic call, but BLAS may tile a sub-matrix
GEMM differently, so a distance can differ from the monolithic value in
its last ulp.  Selections and orderings are unaffected for points in
general position (an inversion needs two candidates within one ulp of
each other — i.e. an exact geometric tie, which the index tie-break
resolves identically either way, computed within a single matrix);
returned kNN *distances* are therefore exact in value but only
reproducible to rounding.  Every map, index, trace and report — the
simulation results — stays bit-identical, which
``tests/properties/test_prop_stream.py`` enforces end to end.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..mapping.ball_query import _ball_query_details
from ..mapping.hooks import count_by_op
from ..mapping.knn import _knn_compute
from ..mapping.maps import MapTable
from ..obs.trace import span as _span
from ..pointcloud.coords import coords_to_keys, keys_to_coords
from . import plan as _plan
from .tiles import TilePartition, content_digest

__all__ = ["PerTileOracle", "TileFrontStats", "TileMapCache"]

_KERNEL_PREFIX = "kernel_map/"


class TileFrontStats:
    """Observable tile-front behaviour, per op and aggregate.

    ``tile_hits``/``tile_misses`` count per-tile sub-problem lookups
    against the chain, per op in ``by_op``; ``fallback_rows`` counts
    query rows that needed a global recompute (certificate failures),
    ``certified_rows`` the rows served from tile-local answers.
    ``decomposed_calls`` is how many whole-op calls the front handled at
    all.  The serving front's snapshot also carries the kernel-map
    composer's splice/full-sort/fallback counters under ``compose`` and
    the voxel merge composer's under ``vox_compose``.
    """

    def __init__(self) -> None:
        self.decomposed_calls = 0
        self.tile_hits = 0
        self.tile_misses = 0
        self.certified_rows = 0
        self.fallback_rows = 0
        self.by_op: dict = {}  # op -> {"hits": int, "misses": int}

    @property
    def tile_lookups(self) -> int:
        return self.tile_hits + self.tile_misses

    @property
    def tile_hit_rate(self) -> float:
        return self.tile_hits / self.tile_lookups if self.tile_lookups else 0.0

    def _count(self, op: str, hit: bool) -> None:
        count_by_op(self.by_op, op, hit)
        if hit:
            self.tile_hits += 1
        else:
            self.tile_misses += 1

    def _count_many(self, op: str, hits: int, misses: int) -> None:
        """Bulk counting for the plan path: one probe batch, one update."""
        count_by_op(self.by_op, op, hit=True, n=hits)
        count_by_op(self.by_op, op, hit=False, n=misses)
        self.tile_hits += hits
        self.tile_misses += misses

    def snapshot(self) -> dict:
        out = {
            "decomposed_calls": self.decomposed_calls,
            "tile_hits": self.tile_hits,
            "tile_misses": self.tile_misses,
            "tile_lookups": self.tile_lookups,
            "tile_hit_rate": self.tile_hit_rate,
            "certified_rows": self.certified_rows,
            "fallback_rows": self.fallback_rows,
            "by_op": {op: dict(c) for op, c in self.by_op.items()},
        }
        composer = getattr(self, "_composer", None)
        if composer is not None:
            out["compose"] = composer.snapshot()
        vox = getattr(self, "_vox_composer", None)
        if vox is not None:
            out["vox_compose"] = vox.snapshot()
        return out


class TileMapCache:
    """Content-aware front decomposing mapping ops into tile sub-lookups.

    Parameters
    ----------
    tile_size:
        Tile side for continuous (float) coordinates, in cloud units
        (meters for scene datasets).
    halo:
        Halo width in tiles for the continuous ops (kNN / ball query).
        Larger halos certify more rows per tile but dirty more sub-keys
        per changed tile; ``halo * tile_size`` is the certified coverage
        radius.  Any value is *correct* (uncertifiable rows fall back) —
        this knob trades recompute against reuse granularity.
    voxel_tile:
        Tile side for integer (voxel) coordinates, in voxels.  The
        effective side is ``max(voxel_tile, 2 * max|offset|)`` — floored
        so the kernel stencil's reach-shell always fits inside one
        neighbor tile — which keeps tiles the same *physical* size at
        every tensor stride.
    min_points:
        Ops on clouds smaller than this (either input) pass through to
        the digest tiers — tiny layers are cheaper to rehash whole than
        to decompose.
    compose_records:
        Remembered compositions per family in the delta composers (the
        kernel-map row-order composer and the voxel merge composer).  A
        shared front must hold at least one record per interleaved stream
        or splicing degrades to full sorts/merges — the fleet session
        sizes this to its stream count automatically.

    The retired ``batched=False`` serving mode lives on as
    :class:`PerTileOracle`: same decomposition walked one tile at a time
    under the legacy 16-byte keys, importable for property tests and
    ablation benchmarks only.
    """

    def __init__(
        self,
        tile_size: float = 4.0,
        halo: int = 1,
        voxel_tile: int = 48,
        min_points: int = 256,
        compose_records: int = 4,
    ) -> None:
        if tile_size <= 0:
            raise ValueError(f"tile_size must be positive, got {tile_size}")
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        if voxel_tile < 1:
            raise ValueError(f"voxel_tile must be >= 1, got {voxel_tile}")
        if compose_records < 1:
            raise ValueError(
                f"compose_records must be >= 1, got {compose_records}"
            )
        self.tile_size = float(tile_size)
        self.halo = int(halo)
        self.voxel_tile = int(voxel_tile)
        self.min_points = int(min_points)
        self._composer = _plan.KernelComposer(
            max_records_per_family=compose_records
        )
        self._vox_composer = _plan.VoxelComposer(
            max_records_per_family=compose_records
        )
        self._stats = TileFrontStats()
        self._stats._composer = self._composer
        self._stats._vox_composer = self._vox_composer
        # (id(points), size) -> (points, TilePartition): mapping inputs are
        # immutable by library convention (see repro.pointcloud.cloud), and
        # one frame presents the same coordinate array to many layers —
        # submanifold convs at a stride share their cloud — so partitions,
        # per-tile digests, and shells are reused across those calls.  The
        # held reference keeps the id stable; bounded, oldest out first.
        self._partitions: OrderedDict = OrderedDict()
        # Recompute-lineage diagnosis memory: per (op, params, tenant)
        # family, the last-seen (tile digest, halo digest) per spatial
        # tile key.  Written only by the ledger path (repro.obs.ledger
        # active) and never read by the compute path — purely
        # observability state.
        self._ledger_memory: dict = {}

    def stats(self) -> TileFrontStats:
        return self._stats

    # ------------------------------------------------------------------
    # Front protocol
    # ------------------------------------------------------------------

    def handles(self, op: str, arrays, params: dict) -> bool:
        """True when this op decomposes into spatial tiles exactly."""
        if op == "voxelize":
            points = arrays[0]
            return (
                points.ndim == 2
                and 1 <= points.shape[1] <= 3
                and len(points) >= self.min_points
            )
        if op in ("knn", "ball_query") or op.startswith(_KERNEL_PREFIX):
            if op.startswith(_KERNEL_PREFIX):
                queries, references = arrays[1], arrays[0]  # out drives tiling
            else:
                queries, references = arrays[0], arrays[1]
            return (
                queries.ndim == 2
                and references.ndim == 2
                and 1 <= queries.shape[1] <= 3
                and len(queries) >= self.min_points
                and len(references) >= self.min_points
            )
        return False

    def memoize(self, op: str, arrays, params: dict, compute, chain):
        try:
            self._stats.decomposed_calls += 1
            with _span("front", op=op):
                if op == "knn":
                    return _plan.run_knn(
                        self, chain, arrays[0], arrays[1], params["k"]
                    )
                if op == "ball_query":
                    return _plan.run_ball_query(
                        self, chain, arrays[0], arrays[1],
                        params["radius"], params["k"],
                    )
                if op == "voxelize":
                    return _plan.run_voxelize(
                        self, chain, arrays[0], params["voxel_size"]
                    )
                return _plan.run_kernel_map(
                    self, chain, op, arrays[0], arrays[1], arrays[2]
                )
        except ValueError:
            # Untileable geometry (e.g. coordinates beyond the packable
            # tile-key range).  Caching may never change a result — so
            # compute plainly rather than fail.
            return compute()

    # ------------------------------------------------------------------
    # Shared partition plumbing (planner and oracle)
    # ------------------------------------------------------------------

    def _partition(self, points, size) -> TilePartition:
        """Partition memo: by array identity first, content digest second.

        The id probe is free and catches the common case (submanifold
        layers share their coordinate array object); the content probe
        catches equal-content arrays rebuilt per layer (e.g. a downsampled
        cloud reconstructed by encoder and decoder), which would otherwise
        re-partition — and re-digest, re-slab, re-shell — identical
        geometry several times per frame.
        """
        id_key = (id(points), size)
        entry = self._partitions.get(id_key)
        if entry is not None and entry[0] is points:
            self._partitions.move_to_end(id_key)
            return entry[1]
        content_key = (content_digest(points), size)
        entry = self._partitions.get(content_key)
        if entry is None:
            entry = (points, TilePartition(points, size))
            self._partitions[content_key] = entry
        else:
            self._partitions.move_to_end(content_key)
        # The id slot pins *this* array object (the content slot may pin an
        # older equal-content one), so the identity probe stays valid.
        self._partitions[id_key] = (points, entry[1])
        while len(self._partitions) > 64:
            self._partitions.popitem(last=False)
        return entry[1]

    def _float_tiles(self, queries, references):
        qpart = self._partition(queries, self.tile_size)
        rpart = self._partition(references, self.tile_size)
        r_cov = self.halo * self.tile_size
        return qpart, rpart, r_cov


class PerTileOracle(TileMapCache):
    """The retired per-tile front, kept as the property-test oracle.

    One chain walk per tile under the legacy variable-width
    ``content_digest`` keys — the PR-4 serving path, byte-for-byte.  It
    no longer serves traffic: the batched planner (:mod:`repro.stream.
    plan`) produces identical arrays from the same decomposition, and
    the property suite proves it against *this* class.  Because the
    batched universe carries a versioned fixed-width prefix, oracle keys
    and planner keys can never collide even in a shared store.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The oracle never splices; composer-backed snapshot sections
        # would claim machinery these loops do not touch.
        self._stats._composer = None
        self._stats._vox_composer = None

    def memoize(self, op: str, arrays, params: dict, compute, chain):
        try:
            if op == "knn":
                return self._memo_knn(arrays[0], arrays[1], params["k"], chain)
            if op == "ball_query":
                return self._memo_ball(
                    arrays[0], arrays[1], params["radius"], params["k"], chain
                )
            if op == "voxelize":
                return self._memo_voxelize(arrays[0], params["voxel_size"], chain)
            return self._memo_kernel_map(op, arrays[0], arrays[1], arrays[2], chain)
        except ValueError:
            # Untileable geometry: compute plainly, as the planner does.
            return compute()

    def _halo_sorted(self, rpart, key):
        """``(halo_digest, interleave_perm, hal)`` for one query tile.

        ``hal`` is the halo in ascending global order (the tie-break order
        sub-results are computed under).  Rather than hashing the halo's
        point bytes per query tile (which would re-hash every reference
        ~(2*halo+1)^D times per call), the identity of ``hal`` is split
        into what the neighborhood digest already covers — per-tile
        contents, from digests computed once per call — plus the compact
        permutation that merges the canonical per-tile concatenation into
        global order.  That permutation depends only on the *relative*
        interleaving of the constituent tiles, so it is stable across
        frames exactly when the halo itself is.
        """
        digest, canonical = rpart.neighborhood(key, self.halo)
        if len(canonical) == 0:
            return digest, None, canonical
        perm = np.argsort(canonical, kind="stable").astype(np.int32)
        return digest, perm, canonical[perm]

    def _memo_knn(self, queries, references, k: int, chain):
        self._stats.decomposed_calls += 1
        qpart, rpart, r_cov = self._float_tiles(queries, references)
        r_cov2 = r_cov * r_cov
        idx_out = np.empty((len(queries), k), dtype=np.int64)
        dist_out = np.empty((len(queries), k), dtype=np.float64)
        fallback = []
        for key in qpart.keys():
            q_idx = qpart.indices(key)
            halo_digest, perm, hal = self._halo_sorted(rpart, key)
            if len(hal) == 0:
                fallback.append(q_idx)
                continue
            sub_key = content_digest(
                b"tile/knn", int(k), self.tile_size, self.halo,
                qpart.digest(key), halo_digest, perm,
            )
            entry = chain.get(sub_key, "knn/tile", copy=False)
            if entry is None:
                self._stats._count("knn", hit=False)
                loc, dist = _knn_compute(queries[q_idx], references[hal], k)
                if len(hal) >= k:
                    # Every true neighbor within halo coverage: exact.
                    cert = dist[:, k - 1] <= r_cov2
                else:
                    cert = np.zeros(len(q_idx), dtype=bool)
                chain.put(sub_key, (loc, dist, cert), "knn/tile", copy=False)
            else:
                self._stats._count("knn", hit=True)
                loc, dist, cert = entry
            hit_rows = q_idx[cert]
            idx_out[hit_rows] = hal[loc[cert]]
            dist_out[hit_rows] = dist[cert]
            self._stats.certified_rows += len(hit_rows)
            if not cert.all():
                fallback.append(q_idx[~cert])
        if fallback:
            rows = np.concatenate(fallback)
            self._stats.fallback_rows += len(rows)
            f_idx, f_dist = _knn_compute(queries[rows], references, k)
            idx_out[rows] = f_idx
            dist_out[rows] = f_dist
        return idx_out, dist_out

    def _memo_ball(self, queries, references, radius: float, k: int, chain):
        self._stats.decomposed_calls += 1
        qpart, rpart, r_cov = self._float_tiles(queries, references)
        r_cov2 = r_cov * r_cov
        full_cover = r_cov >= radius
        idx_out = np.empty((len(queries), k), dtype=np.int64)
        fallback = []
        for key in qpart.keys():
            q_idx = qpart.indices(key)
            halo_digest, perm, hal = self._halo_sorted(rpart, key)
            if len(hal) == 0:
                fallback.append(q_idx)
                continue
            sub_key = content_digest(
                b"tile/ball", float(radius), int(k), self.tile_size, self.halo,
                qpart.digest(key), halo_digest, perm,
            )
            entry = chain.get(sub_key, "ball_query/tile", copy=False)
            if entry is None:
                self._stats._count("ball_query", hit=False)
                loc, in_radius, kth_sq = _ball_query_details(
                    queries[q_idx], references[hal], radius, k
                )
                if full_cover:
                    # Halo covers the query sphere: the in-radius candidate
                    # set (and its order, and the nearest-point pad) is the
                    # global one whenever it is non-empty.
                    cert = in_radius >= 1
                elif len(hal) >= k:
                    # Under-covering halo: exact when all k candidates sit
                    # within the covered bound (then they are the global
                    # top-k and all in radius).
                    cert = kth_sq <= r_cov2
                else:
                    cert = np.zeros(len(q_idx), dtype=bool)
                chain.put(sub_key, (loc, cert), "ball_query/tile", copy=False)
            else:
                self._stats._count("ball_query", hit=True)
                loc, cert = entry
            hit_rows = q_idx[cert]
            idx_out[hit_rows] = hal[loc[cert]]
            self._stats.certified_rows += len(hit_rows)
            if not cert.all():
                fallback.append(q_idx[~cert])
        if fallback:
            rows = np.concatenate(fallback)
            self._stats.fallback_rows += len(rows)
            f_idx, _, _ = _ball_query_details(queries[rows], references, radius, k)
            idx_out[rows] = f_idx
        return idx_out

    # ------------------------------------------------------------------
    # Kernel maps: integer stencil, canonical per-tile composition
    # ------------------------------------------------------------------

    def _memo_kernel_map(self, op: str, in_coords, out_coords, offsets, chain):
        self._stats.decomposed_calls += 1
        algorithm = op[len(_KERNEL_PREFIX):]
        reach = int(np.abs(offsets).max()) if len(offsets) else 0
        # Reach-shells only need 2 * reach <= side, so the tile side stays
        # ~voxel_tile at every tensor stride.  (The old full-halo scheme
        # needed side >= reach and so scaled tiles with the stride; deep
        # layers degenerated into a handful of world-sized tiles that any
        # churn dirtied whole.)
        side = max(self.voxel_tile, 2 * reach)
        ipart = self._partition(in_coords, side)
        # Submanifold convs map a cloud onto itself: share the partition.
        opart = ipart if out_coords is in_coords else self._partition(out_coords, side)
        rows_in, rows_out, rows_w = [], [], []
        for key in opart.keys():
            o_idx = opart.indices(key)
            halo_digest, hal = ipart.shell(key, reach)
            sub_key = content_digest(
                b"tile/kmap", algorithm, np.asarray(offsets), int(side),
                int(reach),  # halo scheme marker
                out_coords[o_idx], halo_digest,
            )
            entry = chain.get(sub_key, op + "/tile", copy=False)
            if entry is None:
                self._stats._count(op, hit=False)
                entry = _tile_kernel_rows(
                    in_coords[hal], out_coords[o_idx], offsets
                )
                chain.put(sub_key, entry, op + "/tile", copy=False)
            else:
                self._stats._count(op, hit=True)
            loc_in, loc_out, loc_w = entry
            if len(loc_in):
                rows_in.append(hal[loc_in])
                rows_out.append(o_idx[loc_out])
                rows_w.append(loc_w)
        if not rows_in:
            empty = np.empty(0, dtype=np.int64)
            return MapTable(empty, empty, empty, kernel_volume=len(offsets))
        p_idx = np.concatenate(rows_in).astype(np.int64)
        q_idx = np.concatenate(rows_out).astype(np.int64)
        w_idx = np.concatenate(rows_w).astype(np.int64)
        # Map entries are a set — (q, delta) pairs match at most one p — so
        # composition only has to reproduce the requested algorithm's row
        # order: mergesort emits offset-major / input-key-minor, the hash
        # and bruteforce probes offset-major / output-index-minor.  The
        # major key is a weight index (< kernel volume), so sorting it in
        # a narrow dtype after the minor key costs one radix pass instead
        # of a second full 64-bit sort — this lexsort runs on every call,
        # hit or miss, so it is the compose path's hot spot.
        minor = coords_to_keys(in_coords)[p_idx] if algorithm == "mergesort" else q_idx
        by_minor = np.argsort(minor, kind="stable")
        w_dtype = np.int16 if len(offsets) <= np.iinfo(np.int16).max else np.int64
        order = by_minor[np.argsort(w_idx[by_minor].astype(w_dtype),
                                    kind="stable")]
        return MapTable(
            p_idx[order], q_idx[order], w_idx[order],
            kernel_volume=len(offsets),
        )

    # ------------------------------------------------------------------
    # Voxelize: integer grid cells, halo-free disjoint composition
    # ------------------------------------------------------------------

    def _memo_voxelize(self, points, voxel_size: float, chain):
        """Incremental voxelization: per-tile sorted-unique voxel merge.

        The grid pass (``floor(p / voxel_size)``) is recomputed every call
        — it is O(N) and is what makes unchanged world points produce
        byte-identical integer tiles.  Each occupied tile cell caches its
        ``(sorted unique packed voxel keys, local inverse)``; because grid
        cells partition voxel space, the sets are disjoint and the global
        answer is a rank-merge, never a re-sort of raw points.  Exactness
        certificate per tile: keys strictly increasing and the inverse in
        range — a violated certificate (only reachable through a
        corrupted cache entry) abandons the decomposition for the global
        reference computation.
        """
        self._stats.decomposed_calls += 1
        grid = np.floor(points / voxel_size).astype(np.int64)
        # Halo-free decomposition has no reach to cover, and its per-tile
        # work is a pure sort — coarser tiles amortize the per-tile digest
        # and lookup overhead without hurting exactness, so voxel tiles
        # run 4x the stencil tile side.
        side = 4 * self.voxel_tile
        part = TilePartition(grid, side)
        tile_entries = []  # (original indices, unique keys, local inverse)
        for key in part.keys():
            idx = part.indices(key)
            sub_key = content_digest(b"tile/voxelize", int(side), part.digest(key))
            entry = chain.get(sub_key, "voxelize/tile", copy=False)
            if entry is None:
                self._stats._count("voxelize", hit=False)
                uniq, inv = np.unique(coords_to_keys(grid[idx]),
                                      return_inverse=True)
                entry = (uniq, inv.astype(np.intp))
                chain.put(sub_key, entry, "voxelize/tile", copy=False)
            else:
                self._stats._count("voxelize", hit=True)
                uniq, inv = entry
            if (
                uniq.ndim != 1
                or inv.shape != (len(idx),)
                or (len(uniq) > 1 and not (np.diff(uniq) > 0).all())
                or (len(inv) and not (0 <= inv.min() <= inv.max() < len(uniq)))
            ):
                self._stats.fallback_rows += len(points)
                raise ValueError("voxelize tile certificate failed")
            tile_entries.append((idx, uniq, inv))
        all_keys = np.concatenate([u for _, u, _ in tile_entries])
        order = np.argsort(all_keys, kind="stable")  # disjoint: no ties
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        inverse = np.empty(len(points), dtype=np.intp)
        offset = 0
        for idx, uniq, inv in tile_entries:
            inverse[idx] = rank[offset + inv]
            offset += len(uniq)
        self._stats.certified_rows += len(points)
        return keys_to_coords(all_keys[order], grid.shape[1]), inverse


def _tile_kernel_rows(in_sub, out_sub, offsets):
    """Kernel-map rows of one output tile against its canonical input halo.

    Pure membership probing (``p == q + delta``) vectorized across *all*
    offsets at once with one sorted-key binary search; row order is
    irrelevant here — the composer re-orders globally per algorithm.
    Returns local ``(in, out, w)`` index triples.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if not (len(in_sub) and len(out_sub) and len(offsets)):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    in_keys = coords_to_keys(in_sub)
    order = np.argsort(in_keys, kind="stable")
    sorted_keys = in_keys[order]
    n_out = len(out_sub)
    probe_coords = (out_sub[None, :, :] + offsets[:, None, :]).reshape(-1, out_sub.shape[1])
    probe = coords_to_keys(probe_coords)
    pos = np.searchsorted(sorted_keys, probe)
    pos_c = np.minimum(pos, len(sorted_keys) - 1)
    hit = (sorted_keys[pos_c] == probe) & (pos < len(sorted_keys))
    flat = np.flatnonzero(hit)
    return (
        order[pos[flat]].astype(np.int64),
        (flat % n_out).astype(np.int64),
        (flat // n_out).astype(np.int64),
    )
