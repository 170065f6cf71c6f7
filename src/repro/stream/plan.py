"""Batched tile-front planner: plan / probe / execute / splice.

The PR-4 tile front (:mod:`repro.stream.incremental`) decomposes a mapping
call correctly but walks it one tile at a time: per tile it digests with
fresh array temporaries, builds a sub-key by re-hashing raw bytes, and
chains a ``get``/``put`` through every cache layer.  Below ~200 points per
tile that Python toll dominates the actual mapping work.  This module is
the vectorized rewrite — the same decomposition, the same sub-keys, the
same bit-identity contracts, restructured into four phases:

``plan``
    One pass builds every tile's probe: digests come from
    :meth:`~repro.stream.tiles.TilePartition.digest_all` (packed-buffer
    batch hashing), shells and neighborhoods from the whole-partition
    sweeps (:meth:`~repro.stream.tiles.TilePartition.fill_shells` /
    ``fill_neighborhoods`` — stacked fixed-width digest matrices, slab
    indices gathered via precomputed run tables), and sub-keys by raw
    concatenation of a *versioned* prefix with the per-tile component
    digests — fixed width per op, no per-tile key hashing at all.  The
    version tag (:data:`_KEY_VERSION`) keeps this cache universe provably
    disjoint from the legacy per-tile oracle's variable-width 16-byte
    ``content_digest`` keys: every serving key is longer than 16 bytes.

``probe``
    One ``get_many`` round trip through the chain
    (:meth:`repro.mapping.hooks.TieredLookup.get_many`) instead of one
    chain walk per tile.  There is no whole-call probe: within a frame
    the model already reuses each kernel map per downsampling step
    (``SparseConv._map_cache_key``), so a repeated call is served from
    tile hits and recomposed.

``execute``
    Only the missed tiles compute, grouped per operator, and flow back in
    one ``put_many``.

``splice``
    Kernel maps compose by *delta* against the previous frame: the
    composer keeps the last composed row order per (algorithm, offsets,
    tile side) family and, when a frame's plan shows K changed tiles,
    merges just those tiles' freshly sorted rows into the surviving rows'
    previous order — O(rows) instead of re-sorting everything.  A strict
    row-order certificate (the composed (weight, minor-key) sequence must
    strictly increase) guards the splice; any violation falls back to the
    full sort, so a splice can never change a result — the same
    exactness-contract shape as the kNN certificates and the voxelizer's
    structural checks.

    Voxelize composes by delta too (:class:`VoxelComposer`): per-tile
    sorted-unique voxel runs are disjoint, so the merged order of a frame
    sharing most tiles with a remembered one splices the changed tiles'
    runs into the survivors' previous order — a K-way run merge guarded
    by a strict key-increase certificate — instead of re-argsorting every
    unique key per call.

Every entry point here is called by :class:`~repro.stream.incremental.
TileMapCache`, the only serving front.  The retired per-tile loops
survive as :class:`~repro.stream.incremental.PerTileOracle` — the cold
reference the property suite compares against, not a serving mode.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np

from ..mapping.ball_query import _ball_query_details
from ..mapping.hooks import batch_get, batch_put, current_tenant
from ..obs.ledger import current_ledger
from ..obs.trace import span as _span
from ..mapping.knn import _knn_compute
from ..mapping.maps import MapTable
from ..pointcloud.coords import _KEY_OFFSET, keys_to_coords
from .tiles import (
    _DIGEST_SIZE,
    hash_part as _hash_part,
    offset_key_deltas,
)

__all__ = [
    "KernelComposer",
    "VoxelComposer",
    "run_ball_query",
    "run_kernel_map",
    "run_knn",
    "run_voxelize",
]

_KERNEL_PREFIX = "kernel_map/"

#: Tile cache-universe version tag.  Every serving sub-key starts with it,
#: so a format change only has to bump the tag to retire the old universe;
#: and because it makes every key longer than the 16-byte digests the
#: legacy per-tile oracle uses, new-format and legacy keys can never
#: collide.
_KEY_VERSION = b"T2"


# ----------------------------------------------------------------------
# Keys: versioned fixed-width tile keys
# ----------------------------------------------------------------------


def _key_prefix(*parts) -> bytes:
    """The call-constant prefix of one op's fixed-width tile sub-keys.

    ``_KEY_VERSION`` + one digest over the version tag, the op tag and
    the parameters.  A tile's sub-key is this prefix concatenated with
    its 16-byte component digests — assembling a key is pure byte
    concatenation, hashed parts are hashed exactly once per call.
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    _hash_part(h, _KEY_VERSION)
    for part in parts:
        _hash_part(h, part)
    return _KEY_VERSION + h.digest()


# ----------------------------------------------------------------------
# Chain access: the shared batch-or-per-key adapter, tile-entry regime
# (immutable sub-entries are composed from, never mutated: copy=False)
# ----------------------------------------------------------------------


def _get_many(chain, keys, op: str) -> list:
    return batch_get(chain, keys, op, copy=False)


def _put_many(chain, keys, values, op: str) -> None:
    batch_put(chain, keys, values, op, copy=False)


# ----------------------------------------------------------------------
# Recompute lineage: per-tile miss diagnosis for the ledger
# ----------------------------------------------------------------------

#: Spatial keys remembered per (op, params, tenant) family before the
#: diagnosis memory resets to cold (bounds a long drive's footprint).
_LEDGER_MEMORY_LIMIT = 65536


def _ledger_classify(ledger, front, op, family, tile_ids, miss) -> None:
    """Diagnose *why* each missed tile of one planned call recomputed.

    ``tile_ids`` carries ``(spatial_key, tile_digest, halo_digest)`` per
    planned tile, aligned with the probe's sub-keys; ``miss`` indexes the
    tiles whose chain probe came back empty.  Against the front's
    previous sighting of each spatial key (held per call family, so
    different params or tenants never cross-diagnose): an unseen key is
    ``cold``, a changed tile digest is ``digest_changed``, a changed halo
    digest on an unchanged tile is ``halo_moved``, and identical digests
    that still missed mean the entry was ``evicted`` from every tier.
    The memory refreshes from hits too — this function only *reads* cache
    state, so ledger-on runs stay bit-identical to ledger-off.
    """
    memory = front._ledger_memory.setdefault(family, {})
    causes: dict = {}
    for j in miss:
        skey, tile_digest, halo_digest = tile_ids[j]
        prev = memory.get(skey)
        if prev is None:
            cause = "recompute(cold)"
        elif prev[0] != tile_digest:
            cause = "recompute(digest_changed)"
        elif prev[1] != halo_digest:
            cause = "recompute(halo_moved)"
        else:
            cause = "recompute(evicted)"
        causes[cause] = causes.get(cause, 0) + 1
    if len(memory) + len(tile_ids) > _LEDGER_MEMORY_LIMIT:
        memory.clear()
    for skey, tile_digest, halo_digest in tile_ids:
        memory[skey] = (tile_digest, halo_digest)
    for cause, n in causes.items():
        ledger.tile(op, cause, n)


# ----------------------------------------------------------------------
# kNN / ball query
# ----------------------------------------------------------------------


def run_knn(front, chain, queries, references, k: int):
    """Plan/probe/execute kNN; bit-identical to the per-tile front."""
    stats = front.stats()
    ledger = current_ledger()
    with _span("plan", op="knn") as plan_sp:
        qpart, rpart, r_cov = front._float_tiles(queries, references)
        r_cov2 = r_cov * r_cov
        q_digests = qpart.digest_all()
        pre = _key_prefix(b"tile/knn", int(k), front.tile_size, front.halo)
        n_digests, n_flat, n_bounds = rpart.fill_neighborhoods(
            front.halo, qpart.unique_keys
        )
        tiles, sub_keys, fallback, tile_ids = [], [], [], []
        for i, key in enumerate(qpart.unique_keys.tolist()):
            q_idx = qpart.indices(key)
            canonical = n_flat[n_bounds[i]:n_bounds[i + 1]]
            if len(canonical) == 0:
                fallback.append(q_idx)
                continue
            perm_digest, hal = rpart.sorted_halo(key, front.halo, canonical)
            sub_keys.append(pre + q_digests[i] + n_digests[i] + perm_digest)
            tiles.append((q_idx, hal))
            if ledger is not None:
                tile_ids.append((key, q_digests[i], n_digests[i]))
        plan_sp.count("tiles", float(len(sub_keys)))
    if ledger is not None:
        ledger.call("knn", len(sub_keys) + len(fallback))
        ledger.tile("knn", "fallback(empty_halo)", len(fallback))
    with _span("probe", op="knn") as probe_sp:
        entries = _get_many(chain, sub_keys, "knn/tile")
        miss = [j for j, e in enumerate(entries) if e is None]
        probe_sp.count("probes", float(len(entries)))
        probe_sp.count("misses", float(len(miss)))
    if ledger is not None:
        _ledger_classify(
            ledger, front, "knn",
            ("knn", int(k), front.tile_size, front.halo, current_tenant()),
            tile_ids, miss,
        )
    with _span("execute", op="knn") as exec_sp:
        for j in miss:
            q_idx, hal = tiles[j]
            loc, dist = _knn_compute(queries[q_idx], references[hal], k)
            if len(hal) >= k:
                cert = dist[:, k - 1] <= r_cov2
            else:
                cert = np.zeros(len(q_idx), dtype=bool)
            entries[j] = (loc, dist, cert)
        _put_many(chain, [sub_keys[j] for j in miss],
                  [entries[j] for j in miss], "knn/tile")
        exec_sp.count("computed", float(len(miss)))
    stats._count_many("knn", hits=len(entries) - len(miss), misses=len(miss))
    idx_out = np.empty((len(queries), k), dtype=np.int64)
    dist_out = np.empty((len(queries), k), dtype=np.float64)
    rows_parts, idx_parts, dist_parts = [], [], []
    for (q_idx, hal), (loc, dist, cert) in zip(tiles, entries):
        hit_rows = q_idx[cert]
        if len(hit_rows):
            rows_parts.append(hit_rows)
            idx_parts.append(hal[loc[cert]])
            dist_parts.append(dist[cert])
        if not cert.all():
            fallback.append(q_idx[~cert])
    if rows_parts:
        rows = np.concatenate(rows_parts)
        idx_out[rows] = np.concatenate(idx_parts)
        dist_out[rows] = np.concatenate(dist_parts)
        stats.certified_rows += len(rows)
    if fallback:
        rows = np.concatenate(fallback)
        stats.fallback_rows += len(rows)
        f_idx, f_dist = _knn_compute(queries[rows], references, k)
        idx_out[rows] = f_idx
        dist_out[rows] = f_dist
    return idx_out, dist_out


def run_ball_query(front, chain, queries, references, radius: float, k: int):
    """Plan/probe/execute ball query; bit-identical to the per-tile front."""
    stats = front.stats()
    ledger = current_ledger()
    with _span("plan", op="ball_query") as plan_sp:
        qpart, rpart, r_cov = front._float_tiles(queries, references)
        r_cov2 = r_cov * r_cov
        full_cover = r_cov >= radius
        q_digests = qpart.digest_all()
        pre = _key_prefix(b"tile/ball", float(radius), int(k),
                          front.tile_size, front.halo)
        n_digests, n_flat, n_bounds = rpart.fill_neighborhoods(
            front.halo, qpart.unique_keys
        )
        tiles, sub_keys, fallback, tile_ids = [], [], [], []
        for i, key in enumerate(qpart.unique_keys.tolist()):
            q_idx = qpart.indices(key)
            canonical = n_flat[n_bounds[i]:n_bounds[i + 1]]
            if len(canonical) == 0:
                fallback.append(q_idx)
                continue
            perm_digest, hal = rpart.sorted_halo(key, front.halo, canonical)
            sub_keys.append(pre + q_digests[i] + n_digests[i] + perm_digest)
            tiles.append((q_idx, hal))
            if ledger is not None:
                tile_ids.append((key, q_digests[i], n_digests[i]))
        plan_sp.count("tiles", float(len(sub_keys)))
    if ledger is not None:
        ledger.call("ball_query", len(sub_keys) + len(fallback))
        ledger.tile("ball_query", "fallback(empty_halo)", len(fallback))
    with _span("probe", op="ball_query") as probe_sp:
        entries = _get_many(chain, sub_keys, "ball_query/tile")
        miss = [j for j, e in enumerate(entries) if e is None]
        probe_sp.count("probes", float(len(entries)))
        probe_sp.count("misses", float(len(miss)))
    if ledger is not None:
        _ledger_classify(
            ledger, front, "ball_query",
            ("ball_query", float(radius), int(k), front.tile_size,
             front.halo, current_tenant()),
            tile_ids, miss,
        )
    with _span("execute", op="ball_query") as exec_sp:
        for j in miss:
            q_idx, hal = tiles[j]
            loc, in_radius, kth_sq = _ball_query_details(
                queries[q_idx], references[hal], radius, k
            )
            if full_cover:
                cert = in_radius >= 1
            elif len(hal) >= k:
                cert = kth_sq <= r_cov2
            else:
                cert = np.zeros(len(q_idx), dtype=bool)
            entries[j] = (loc, cert)
        _put_many(chain, [sub_keys[j] for j in miss],
                  [entries[j] for j in miss], "ball_query/tile")
        exec_sp.count("computed", float(len(miss)))
    stats._count_many("ball_query",
                      hits=len(entries) - len(miss), misses=len(miss))
    idx_out = np.empty((len(queries), k), dtype=np.int64)
    rows_parts, idx_parts = [], []
    for (q_idx, hal), (loc, cert) in zip(tiles, entries):
        hit_rows = q_idx[cert]
        if len(hit_rows):
            rows_parts.append(hit_rows)
            idx_parts.append(hal[loc[cert]])
        if not cert.all():
            fallback.append(q_idx[~cert])
    if rows_parts:
        rows = np.concatenate(rows_parts)
        idx_out[rows] = np.concatenate(idx_parts)
        stats.certified_rows += len(rows)
    if fallback:
        rows = np.concatenate(fallback)
        stats.fallback_rows += len(rows)
        f_idx, _, _ = _ball_query_details(queries[rows], references, radius, k)
        idx_out[rows] = f_idx
    return idx_out


# ----------------------------------------------------------------------
# Kernel maps: plan/probe/execute + delta-composed row order
# ----------------------------------------------------------------------


class KernelComposer:
    """Delta-composition of kernel-map row orders across frames.

    The compose step is the one cost the per-tile cache cannot hide: even
    a fully warm frame re-sorts every map row into the requested
    algorithm's global order.  The composer remembers, per
    ``(algorithm, offsets, tile side)`` family, the most recent
    compositions — each as the per-tile sub-key sequence, per-tile row
    counts, and the final row-order permutation.  A new frame whose plan
    shares most sub-keys with a remembered one splices instead of
    sorting:

    * *survivor* rows (tiles whose sub-key recurs) keep their previous
      relative order, translated to the new concatenation layout;
    * *fresh* rows (changed/new tiles) are sorted among themselves — a
      K-tile-sized sort, not a frame-sized one;
    * the two sorted runs merge by (weight, minor-key) in linear time.

    Exactness: the requested algorithms' row orders are total on the
    (weight, minor) pair — mergesort is offset-major / input-key-minor,
    hash and bruteforce offset-major / output-index-minor — and the pairs
    are unique (a ``(q, delta)`` matches at most one ``p``), so the full
    sort's output is *the* strictly-increasing key sequence.  After every
    splice the composed sequence is checked for exactly that strict
    increase (O(rows)); survivors whose global renumbering was not
    order-preserving, duplicate keys, or any other violation drop the
    call to the full sort.  The certificate therefore makes splice output
    bit-identical to the full sort whenever it is accepted.
    """

    def __init__(self, max_records_per_family: int = 4,
                 min_match_fraction: float = 0.25) -> None:
        self.max_records_per_family = int(max_records_per_family)
        self.min_match_fraction = float(min_match_fraction)
        self._families: dict = {}  # family -> deque of records
        self.splices = 0
        self.full_sorts = 0
        self.fallbacks = 0  # certificate failures (subset of full_sorts)

    # -- record bookkeeping --------------------------------------------

    def _remember(self, family, sub_keys, counts, order) -> None:
        records = self._families.setdefault(
            family, deque(maxlen=self.max_records_per_family)
        )
        bounds = np.concatenate([[0], np.cumsum(counts)])
        slot_of_row = np.searchsorted(bounds, order, side="right") - 1
        # (slot, local) per composed row is all a later splice reads — the
        # permutation itself is re-derivable from them, and int32 halves
        # the footprint of a remembered frame.
        records.appendleft({
            "slot_of": {sk: i for i, sk in enumerate(sub_keys)},
            "counts": counts,
            "row_slot": slot_of_row.astype(np.int32),
            "row_local": (order - bounds[slot_of_row]).astype(np.int32),
        })

    def _best_candidate(self, family, sub_keys, counts):
        """The remembered record sharing the most rows with this plan.

        Records are scanned most-recent-first (the same layer's previous
        frame, in steady state) and the scan stops early on a
        near-complete match — comparing a frame against every remembered
        composition would itself become a per-tile toll.
        """
        best, best_rows, best_map = None, 0, None
        total = int(counts.sum())
        for record in self._families.get(family, ()):
            slot_of = record["slot_of"]
            prev_counts = record["counts"]
            matched_rows = 0
            mapping = []
            for s_new, sk in enumerate(sub_keys):
                s_prev = slot_of.get(sk)
                if s_prev is not None and prev_counts[s_prev] == counts[s_new]:
                    mapping.append((s_prev, s_new))
                    matched_rows += counts[s_new]
            if matched_rows > best_rows:
                best, best_rows, best_map = record, matched_rows, mapping
            if best_rows >= 0.9 * total:
                break
        return best, best_rows, best_map

    # -- sorting primitives --------------------------------------------

    @staticmethod
    def _full_sort(w, minor, kernel_volume: int) -> np.ndarray:
        """The reference compose order: minor-stable then weight-radix."""
        by_minor = np.argsort(minor, kind="stable")
        w_dtype = (np.int16 if kernel_volume <= np.iinfo(np.int16).max
                   else np.int64)
        return by_minor[np.argsort(w[by_minor].astype(w_dtype),
                                   kind="stable")]

    @staticmethod
    def _strictly_increasing(w, minor) -> bool:
        if len(w) < 2:
            return True
        dw = w[1:] - w[:-1]
        return bool(np.all((dw > 0) | ((dw == 0) & (minor[1:] > minor[:-1]))))

    # -- the compose entry point ---------------------------------------

    def compose(self, family, sub_keys, counts, w, minor,
                kernel_volume: int) -> np.ndarray:
        """Row-order permutation for one planned kernel-map call.

        ``w``/``minor`` are the concatenated per-tile rows in ascending
        tile-key order (``counts`` rows per tile); the result indexes
        into them.  Splices when a remembered composition matches,
        otherwise full-sorts; either way the produced order is remembered
        for the next frame.
        """
        counts = np.asarray(counts, dtype=np.int64)
        n = len(w)
        record, matched_rows, mapping = self._best_candidate(
            family, sub_keys, counts
        )
        order = None
        if record is not None and matched_rows >= self.min_match_fraction * n:
            order = self._splice(record, mapping, counts, w, minor,
                                 kernel_volume)
            if order is None:
                self.fallbacks += 1
            else:
                self.splices += 1
        if order is None:
            self.full_sorts += 1
            order = self._full_sort(w, minor, kernel_volume)
        self._remember(family, sub_keys, counts, order)
        return order

    def _splice(self, record, mapping, counts, w, minor, kernel_volume):
        new_bounds = np.concatenate([[0], np.cumsum(counts)])
        n = int(new_bounds[-1])
        # Translate surviving rows from the previous composed order into
        # the new concatenation layout: same tile slot content, same local
        # row ids, new segment offsets.
        new_slot_of_prev = np.full(len(record["counts"]), -1, dtype=np.int64)
        for s_prev, s_new in mapping:
            new_slot_of_prev[s_prev] = s_new
        mapped_slots = new_slot_of_prev[record["row_slot"]]
        keep = mapped_slots >= 0
        surv = new_bounds[mapped_slots[keep]] + record["row_local"][keep]
        covered = np.zeros(n, dtype=bool)
        covered[surv] = True
        fresh = np.flatnonzero(~covered)
        if len(surv) + len(fresh) != n:  # overlapping translation: bail
            return None
        if len(fresh):
            fresh = fresh[self._full_sort(w[fresh], minor[fresh],
                                          kernel_volume)]
        if not len(surv):
            return None  # nothing survived; the full sort is the fast path
        sw, sm = w[surv], minor[surv]
        if not self._strictly_increasing(sw, sm):
            return None  # renumbering broke the survivors' order
        if not len(fresh):
            return surv
        # Linear merge of the two strictly-sorted runs, per weight chunk
        # (weights are small integers, so the chunk loop is bounded by
        # the kernel volume, not the row count).
        fw, fm = w[fresh], minor[fresh]
        ins = np.empty(len(fresh), dtype=np.int64)
        uw, starts = np.unique(fw, return_index=True)
        ends = np.append(starts[1:], len(fw))
        seg_lo = np.searchsorted(sw, uw, side="left")
        seg_hi = np.searchsorted(sw, uw, side="right")
        for j in range(len(uw)):
            a, b = starts[j], ends[j]
            ins[a:b] = seg_lo[j] + np.searchsorted(
                sm[seg_lo[j]:seg_hi[j]], fm[a:b], side="left"
            )
        shift = np.cumsum(np.bincount(ins, minlength=len(surv) + 1))
        order = np.empty(n, dtype=np.int64)
        order[np.arange(len(surv)) + shift[:len(surv)]] = surv
        order[ins + np.arange(len(fresh))] = fresh
        mw, mm = w[order], minor[order]
        if not self._strictly_increasing(mw, mm):
            return None  # duplicate keys across runs (or a latent bug)
        return order

    def snapshot(self) -> dict:
        return {
            "splices": self.splices,
            "full_sorts": self.full_sorts,
            "fallbacks": self.fallbacks,
        }


class VoxelComposer(KernelComposer):
    """Delta-composition of the voxelize key merge across frames.

    ``run_voxelize``'s compose step sorts the concatenation of every
    tile's sorted-unique voxel keys — an O(n log n) argsort per call even
    when the frame is fully warm.  Per-tile runs interleave across tiles
    (tile order is not voxel-key order), but they are each strictly
    sorted and mutually *disjoint* (grid cells partition voxel space), so
    the :class:`KernelComposer` delta idea simplifies to a K-way run
    merge with no weight ordering at all:

    * *survivor* runs (tiles whose sub-key recurs with the same size)
      keep their previous merged relative order, translated to the new
      concatenation layout;
    * *fresh* runs (changed/new tiles) sort among themselves — K tiles'
      worth of keys, not a frame's — and merge into the survivors with
      one ``searchsorted`` (keys are globally unique: no tie-break);
    * the composed key sequence must strictly increase (the same
      structural certificate the voxelizer already carries); any
      violation falls back to the full argsort, so a splice can never
      change a result.

    Record bookkeeping (per ``(tile side, ndim)`` family) is inherited
    from :class:`KernelComposer`; only the merge differs.
    """

    def compose(self, family, sub_keys, sizes, all_keys) -> np.ndarray:
        """Merged-order permutation over the concatenated voxel keys."""
        sizes = np.asarray(sizes, dtype=np.int64)
        n = len(all_keys)
        record, matched_rows, mapping = self._best_candidate(
            family, sub_keys, sizes
        )
        order = None
        if record is not None and matched_rows >= self.min_match_fraction * n:
            order = self._splice_runs(record, mapping, sizes, all_keys)
            if order is None:
                self.fallbacks += 1
            else:
                self.splices += 1
        if order is None:
            self.full_sorts += 1
            order = np.argsort(all_keys, kind="stable")  # disjoint: no ties
        self._remember(family, sub_keys, sizes, order)
        return order

    def _splice_runs(self, record, mapping, sizes, all_keys):
        new_bounds = np.concatenate([[0], np.cumsum(sizes)])
        n = int(new_bounds[-1])
        new_slot_of_prev = np.full(len(record["counts"]), -1, dtype=np.int64)
        for s_prev, s_new in mapping:
            new_slot_of_prev[s_prev] = s_new
        mapped_slots = new_slot_of_prev[record["row_slot"]]
        keep = mapped_slots >= 0
        surv = new_bounds[mapped_slots[keep]] + record["row_local"][keep]
        covered = np.zeros(n, dtype=bool)
        covered[surv] = True
        fresh = np.flatnonzero(~covered)
        if len(surv) + len(fresh) != n:  # overlapping translation: bail
            return None
        if not len(surv):
            return None  # nothing survived; the full sort is the fast path
        sk = all_keys[surv]
        if len(sk) > 1 and not bool(np.all(sk[1:] > sk[:-1])):
            return None  # renumbering broke the survivors' order
        if not len(fresh):
            return surv
        fresh = fresh[np.argsort(all_keys[fresh], kind="stable")]
        fk = all_keys[fresh]
        ins = np.searchsorted(sk, fk)
        shift = np.cumsum(np.bincount(ins, minlength=len(surv) + 1))
        order = np.empty(n, dtype=np.int64)
        order[np.arange(len(surv)) + shift[:len(surv)]] = surv
        order[ins + np.arange(len(fresh))] = fresh
        mk = all_keys[order]
        if not bool(np.all(mk[1:] > mk[:-1])):
            return None  # duplicate keys across runs (or a latent bug)
        return order

    def snapshot(self) -> dict:
        return {
            "splices": self.splices,
            "full_merges": self.full_sorts,
            "fallbacks": self.fallbacks,
        }


def _tile_kernel_rows_keys(in_keys_sub, out_keys_sub, okey_deltas):
    """Kernel-map rows of one tile from pre-packed keys.

    Same probe as :func:`repro.stream.incremental._tile_kernel_rows` —
    identical local ``(in, out, w)`` triples — but both candidate and
    probe keys arrive packed: candidates from one
    :meth:`TilePartition.point_keys` pass per partition, probes by the
    additive :func:`~repro.stream.tiles.offset_key_deltas` identity
    (range-guarded by the caller), so no per-tile coordinate packing at
    all.
    """
    if not (len(in_keys_sub) and len(out_keys_sub) and len(okey_deltas)):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    order = np.argsort(in_keys_sub, kind="stable")
    sorted_keys = in_keys_sub[order]
    n_out = len(out_keys_sub)
    probe = (out_keys_sub[None, :] + okey_deltas[:, None]).ravel()
    pos = np.searchsorted(sorted_keys, probe)
    pos_c = np.minimum(pos, len(sorted_keys) - 1)
    hit = (sorted_keys[pos_c] == probe) & (pos < len(sorted_keys))
    flat = np.flatnonzero(hit)
    return (
        order[pos[flat]].astype(np.int64),
        (flat % n_out).astype(np.int64),
        (flat // n_out).astype(np.int64),
    )


def run_kernel_map(front, chain, op, in_coords, out_coords, offsets):
    """Plan/probe/execute/splice one kernel-map call."""
    stats = front.stats()
    algorithm = op[len(_KERNEL_PREFIX):]
    offsets_raw = np.asarray(offsets)  # hashed as passed (per-tile parity)
    offsets_arr = np.asarray(offsets, dtype=np.int64)
    ledger = current_ledger()
    with _span("plan", op=op) as plan_sp:
        reach = int(np.abs(offsets_arr).max()) if len(offsets_arr) else 0
        side = max(front.voxel_tile, 2 * reach)
        ipart = front._partition(in_coords, side)
        opart = ipart if out_coords is in_coords else front._partition(
            out_coords, side
        )
        o_digests = opart.digest_all()
        s_digests, s_flat, s_bounds = ipart.fill_shells(
            reach, None if opart is ipart else opart.unique_keys
        )
        pre = _key_prefix(b"tile/kmap", algorithm, offsets_raw, int(side),
                          int(reach))
        keys_list = opart.unique_keys.tolist()
        # Sub-keys assemble by concatenation: out-tile content digest plus
        # fixed-width shell digest, both from whole-partition passes.
        sub_keys = [pre + o_digests[i] + s_digests[i]
                    for i in range(len(keys_list))]
        halos = [s_flat[s_bounds[i]:s_bounds[i + 1]]
                 for i in range(len(keys_list))]
        tile_ids = (
            [(key, o_digests[i], s_digests[i])
             for i, key in enumerate(keys_list)]
            if ledger is not None else []
        )
        plan_sp.count("tiles", float(len(sub_keys)))
    if ledger is not None:
        ledger.call(op, len(sub_keys))
    with _span("probe", op=op) as probe_sp:
        entries = _get_many(chain, sub_keys, op + "/tile")
        miss = [j for j, e in enumerate(entries) if e is None]
        probe_sp.count("probes", float(len(entries)))
        probe_sp.count("misses", float(len(miss)))
    if ledger is not None:
        _ledger_classify(
            ledger, front, op,
            (op, offsets_arr.tobytes(), int(side), int(reach),
             in_coords.shape[1], current_tenant()),
            tile_ids, miss,
        )
    with _span("execute", op=op) as exec_sp:
        if miss:
            in_keys = ipart.point_keys()
            out_keys = opart.point_keys()
            ndim = out_coords.shape[1]
            okey_deltas = offset_key_deltas(offsets_arr, ndim)
            if reach and len(out_coords):
                # The additive probe identity needs every probed coordinate
                # inside the packable range; out-of-range geometry raises,
                # and memoize()'s fallback computes the call plainly —
                # exactly where the per-tile front's coords_to_keys would
                # have landed it.
                lo = out_coords.min(axis=0) - reach
                hi = out_coords.max(axis=0) + reach
                if (lo < -_KEY_OFFSET).any() or (hi > _KEY_OFFSET - 1).any():
                    raise ValueError("kernel-map probe beyond packable range")
            for j in miss:
                entries[j] = _tile_kernel_rows_keys(
                    in_keys[halos[j]],
                    out_keys[opart.indices(keys_list[j])],
                    okey_deltas,
                )
            _put_many(chain, [sub_keys[j] for j in miss],
                      [entries[j] for j in miss], op + "/tile")
        exec_sp.count("computed", float(len(miss)))
    stats._count_many(op, hits=len(entries) - len(miss), misses=len(miss))
    rows_in, rows_out, rows_w, counts = [], [], [], []
    live_sub_keys = []
    for j, (loc_in, loc_out, loc_w) in enumerate(entries):
        if not len(loc_in):
            continue
        key = keys_list[j]
        rows_in.append(halos[j][loc_in])
        rows_out.append(opart.indices(key)[loc_out])
        rows_w.append(loc_w)
        counts.append(len(loc_in))
        live_sub_keys.append(sub_keys[j])
    if not rows_in:
        empty = np.empty(0, dtype=np.int64)
        return MapTable(empty, empty, empty, kernel_volume=len(offsets_arr))
    p_idx = np.concatenate(rows_in).astype(np.int64)
    q_idx = np.concatenate(rows_out).astype(np.int64)
    w_idx = np.concatenate(rows_w).astype(np.int64)
    minor = ipart.point_keys()[p_idx] if algorithm == "mergesort" else q_idx
    family = (algorithm, offsets_arr.tobytes(), int(side),
              in_coords.shape[1])
    composer = front._composer
    with _span("splice", op=op) as splice_sp:
        splices0, sorts0, fb0 = (composer.splices, composer.full_sorts,
                                 composer.fallbacks)
        order = composer.compose(
            family, live_sub_keys, counts, w_idx, minor, len(offsets_arr)
        )
        splice_sp.count("splices", float(composer.splices - splices0))
        splice_sp.count("full_sorts", float(composer.full_sorts - sorts0))
        splice_sp.count("fallbacks", float(composer.fallbacks - fb0))
        if ledger is not None:
            # One compose -> one outcome; a certificate failure shows as
            # both a fallback and a full sort, so check it first.
            if composer.fallbacks > fb0:
                ledger.splice(op, "fallback(certificate)")
            elif composer.full_sorts > sorts0:
                ledger.splice(op, "full_sort")
            else:
                ledger.splice(op, "spliced")
    return MapTable(
        p_idx[order], q_idx[order], w_idx[order],
        kernel_volume=len(offsets_arr),
    )


# ----------------------------------------------------------------------
# Voxelize
# ----------------------------------------------------------------------


def run_voxelize(front, chain, points, voxel_size: float):
    """Plan/probe/execute one voxelize call (halo-free disjoint tiles)."""
    stats = front.stats()
    ledger = current_ledger()
    with _span("plan", op="voxelize") as plan_sp:
        grid = np.floor(points / voxel_size).astype(np.int64)
        side = 4 * front.voxel_tile
        # The partition memo is content-keyed, so a geometry-only replay
        # of the same grid shares this build.
        part = front._partition(grid, side)
        digests = part.digest_all()
        pre = _key_prefix(b"tile/voxelize", int(side))
        sub_keys = [pre + d for d in digests]
        tile_ids = (
            [(key, digests[i], b"")
             for i, key in enumerate(part.unique_keys.tolist())]
            if ledger is not None else []
        )
        plan_sp.count("tiles", float(len(sub_keys)))
    if ledger is not None:
        ledger.call("voxelize", len(sub_keys))
    with _span("probe", op="voxelize") as probe_sp:
        entries = _get_many(chain, sub_keys, "voxelize/tile")
        miss = [j for j, e in enumerate(entries) if e is None]
        probe_sp.count("probes", float(len(entries)))
        probe_sp.count("misses", float(len(miss)))
    if ledger is not None:
        _ledger_classify(
            ledger, front, "voxelize",
            ("voxelize", float(voxel_size), int(side), current_tenant()),
            tile_ids, miss,
        )
    with _span("execute", op="voxelize") as exec_sp:
        if miss:
            pkeys = part.point_keys()
            keys_list = part.unique_keys.tolist()
            for j in miss:
                idx = part.indices(keys_list[j])
                uniq, inv = np.unique(pkeys[idx], return_inverse=True)
                entries[j] = (uniq, inv.astype(np.intp))
            _put_many(chain, [sub_keys[j] for j in miss],
                      [entries[j] for j in miss], "voxelize/tile")
        exec_sp.count("computed", float(len(miss)))
    stats._count_many("voxelize",
                      hits=len(entries) - len(miss), misses=len(miss))
    # Batched structural certificate over every entry (hits included):
    # per tile, keys strictly increasing and the inverse in range —
    # checked in a handful of whole-call numpy passes instead of four
    # array ops per tile.
    counts = part.counts()
    tile_sizes = []
    for j, (uniq, inv) in enumerate(entries):
        if uniq.ndim != 1 or inv.shape != (int(counts[j]),):
            stats.fallback_rows += len(points)
            raise ValueError("voxelize tile certificate failed")
        tile_sizes.append(len(uniq))
    all_keys = np.concatenate([u for u, _ in entries])
    all_inv = np.concatenate([i for _, i in entries])
    sizes = np.asarray(tile_sizes, dtype=np.int64)
    key_bounds = np.concatenate([[0], np.cumsum(sizes)])
    ok = bool(np.all(sizes >= 1))  # every occupied tile has >= 1 voxel
    if ok and len(all_keys) > 1:
        increasing = np.diff(all_keys) > 0
        increasing[key_bounds[1:-1] - 1] = True  # tile boundaries may reset
        ok = bool(np.all(increasing))
    if ok and len(all_inv):
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
        lo = np.minimum.reduceat(all_inv, starts)
        hi = np.maximum.reduceat(all_inv, starts)
        ok = bool(np.all(lo >= 0) and np.all(hi < sizes))
    if not ok:
        stats.fallback_rows += len(points)
        raise ValueError("voxelize tile certificate failed")
    composer = front._vox_composer
    with _span("splice", op="voxelize") as splice_sp:
        splices0, merges0, fb0 = (composer.splices, composer.full_sorts,
                                  composer.fallbacks)
        order = composer.compose(
            (int(side), grid.shape[1]), sub_keys, sizes, all_keys
        )
        splice_sp.count("splices", float(composer.splices - splices0))
        splice_sp.count("full_merges", float(composer.full_sorts - merges0))
        splice_sp.count("fallbacks", float(composer.fallbacks - fb0))
        if ledger is not None:
            # One compose -> one outcome; a certificate failure shows as
            # both a fallback and a full merge, so check it first.
            if composer.fallbacks > fb0:
                ledger.splice("voxelize", "fallback(certificate)")
            elif composer.full_sorts > merges0:
                ledger.splice("voxelize", "full_merge")
            else:
                ledger.splice("voxelize", "spliced")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    inverse = np.empty(len(points), dtype=np.intp)
    # The tile-sorted point order is exactly the per-tile concatenation
    # order of the entries, so the whole inverse scatters in one shot.
    inverse[part._order] = rank[all_inv + np.repeat(key_bounds[:-1], counts)]
    stats.certified_rows += len(points)
    return keys_to_coords(all_keys[order], grid.shape[1]), inverse
