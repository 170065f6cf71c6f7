"""Per-layer timing from outside the program.

:class:`LayerClock` replaces public entry points of ``repro`` modules with
timing wrappers for the duration of a traced run (and puts the originals
back afterwards), so the program itself carries no benchmark code.  Every
wrapped call is a node in a call tree: a layer's *total* is its inclusive
time, its *self* time excludes the timed layers nested inside it, and a
call re-entering a layer already on the stack is charged to the outer
call only.

The phases ``plan`` / ``probe`` / ``execute`` / ``splice`` are not timed
here: they come from the program's own ``repro.obs`` spans, read from the
trace file the traced run writes.

:func:`layer_metrics` turns one traced run into the per-layer metric set;
every ratio is returned with its numerator and base.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict

#: Helper layers that are timed only to compute another layer's self time;
#: their own self time is not a named layer, so it counts as unattributed.
HELPERS = ("engine.run",)

MAPPING_OPS = ("fps", "knn", "ball_query", "kernel_map", "voxelize")

_INHERITED = object()


class LayerClock:
    """Wrapper-based layer timer (single-threaded serving only)."""

    def __init__(self) -> None:
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self._stack: list = []  # layers of the open timed calls
        self._patches: list = []

    # -- timing ------------------------------------------------------------

    def call(self, layer: str, fn, *args, **kwargs):
        if layer in self._stack:
            return fn(*args, **kwargs)
        self._stack.append(layer)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.total[layer] += dt
            if self._stack:
                self.child[self._stack[-1]] += dt

    def self_s(self, layer: str) -> float:
        return max(0.0, self.total[layer] - self.child[layer])

    def attributed_s(self) -> float:
        """Wall time inside some named layer: the self times of every
        layer except the helpers (the call tree makes them disjoint)."""
        return sum(self.self_s(layer) for layer in self.total
                   if layer not in HELPERS)

    def reset(self) -> None:
        self.total.clear()
        self.child.clear()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        # An inherited attribute is recorded as _INHERITED and deleted
        # again on uninstall, so the base class's version shows through.
        self._patches.append((owner, name, vars(owner).get(name, _INHERITED)))
        if isinstance(vars(owner).get(name), staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, name, replacement)

    def wrap(self, owner, name: str, layer: str) -> None:
        """Time every call of ``owner.name`` (a class or module attribute)."""
        original = getattr(owner, name)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return self.call(layer, original, *args, **kwargs)

        self._patch(owner, name, timed)

    def wrap_class(self, cls, layer: str) -> None:
        """Time every method defined on ``cls`` (dunders excluded)."""
        for name, value in list(vars(cls).items()):
            if callable(value) and not name.startswith("__"):
                self.wrap(cls, name, layer)

    def wrap_compute(self, cls) -> None:
        """Time the compute callable ``cls.memoize`` runs on a miss, as
        ``mapping.<op>``."""
        original = cls.memoize

        @functools.wraps(original)
        def memoize(obj, op, arrays, params, compute):
            layer = "mapping." + op.split("/", 1)[0]

            def timed_compute():
                return self.call(layer, compute)

            return original(obj, op, arrays, params, timed_compute)

        self._patch(cls, "memoize", memoize)

    def install(self) -> None:
        """Wrap every layer the per-layer metrics name."""
        from repro.cluster.cluster import EngineCluster
        from repro.cluster.store import SharedMapStore
        from repro.core.accelerator import PointAccModel
        from repro.core.mmu.unit import MemoryManagementUnit
        from repro.core.mpu.unit import MappingUnit
        from repro.core.mxu.systolic import MatrixUnit
        from repro.engine import engine as engine_mod
        from repro.engine.map_cache import MapCache
        from repro.fleet import world_store
        from repro.mapping.hooks import TieredLookup
        from repro.nn.models import registry
        from repro.stream import plan
        from repro.stream.incremental import TileMapCache

        self.wrap(EngineCluster, "run_batch", "cluster.run")
        self.wrap(engine_mod.SimulationEngine, "run_batch", "engine.run")
        self.wrap(engine_mod, "run_benchmark", "nn.trace_build")
        self.wrap(TileMapCache, "memoize", "stream.front")
        self.wrap(world_store.WorldTileStore, "memoize", "fleet.store")
        for name in ("get", "put", "get_many", "put_many"):
            self.wrap(world_store._AttributingChain, name, "fleet.chain")
            self.wrap(TieredLookup, name, "tiers")
            self.wrap(SharedMapStore, name, "cluster.l2")
        self.wrap(PointAccModel, "run", "core.backend")
        self.wrap(PointAccModel, "_mapping_stats", "core.mpu")
        self.wrap_class(MappingUnit, "core.mpu")
        self.wrap_class(MemoryManagementUnit, "core.mmu")
        self.wrap_class(MatrixUnit, "core.mxu")
        self.wrap_compute(TieredLookup)
        self.wrap_compute(MapCache)
        # The tile planner computes its tile misses with these directly.
        self.wrap(plan, "_knn_compute", "mapping.knn")
        self.wrap(plan, "_ball_query_details", "mapping.ball_query")
        self.wrap(plan, "_tile_kernel_rows_keys", "mapping.kernel_map")
        for notation, bench in list(registry.BENCHMARKS.items()):
            factory = bench.model_factory
            timed = functools.partial(self.call, "nn.model_init", factory)
            self._patches.append((registry.BENCHMARKS, notation, bench))
            registry.BENCHMARKS[notation] = dataclasses.replace(
                bench, model_factory=timed)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            elif original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


# ----------------------------------------------------------------------
# Counter snapshots
# ----------------------------------------------------------------------

def counters(workload) -> dict:
    """Flat snapshot of the counters the serving layers already expose."""
    out = defaultdict(float)
    front = workload.front()
    if front is not None:
        s = front.stats().snapshot()
        out["tile_hits"] = s["tile_hits"]
        out["tile_lookups"] = s["tile_lookups"]
        out["certified_rows"] = s["certified_rows"]
        out["fallback_rows"] = s["fallback_rows"]
        comp, vox = s.get("compose", {}), s.get("vox_compose", {})
        out["kmap_splices"] = comp.get("splices", 0)
        out["kmap_composes"] = comp.get("splices", 0) + comp.get("full_sorts", 0)
        out["vox_splices"] = vox.get("splices", 0)
        out["vox_composes"] = vox.get("splices", 0) + vox.get("full_merges", 0)
        for op, c in s["by_op"].items():
            if op.endswith("/whole"):
                out["whole_hits"] += c["hits"]
                out["whole_lookups"] += c["hits"] + c["misses"]
    store = workload.world_store()
    if store is not None:
        s = store.stats()
        out["cross_hits"] = s.cross_hits
        out["world_lookups"] = s.lookups
    l2 = workload.l2()
    if l2 is not None:
        s = l2.stats()
        out["l2_hits"] = s.hits
        out["l2_lookups"] = s.lookups
    for engine in workload.engines():
        digest = engine.stats().map_cache
        out["whole_hits"] += digest.get("hits", 0)
        out["whole_lookups"] += digest.get("lookups", 0)
        for backend in engine.backends.values():
            memo = getattr(backend, "record_memo_stats", None)
            if memo:
                out["memo_hits"] += memo["hits"]
                out["memo_lookups"] += sum(memo.values())
    return dict(out)


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def ratio(num: float, base: float) -> tuple:
    """``(value, numerator, base)``; a layer that did no work reads 0."""
    return (num / base if base else 0.0, num, base)


def layer_metrics(clock: LayerClock, phases: dict, c: dict, ops: int) -> dict:
    """Per-layer metrics of one traced measured phase.

    ``phases`` is ``repro.obs.report.phase_breakdown`` of the phase's
    trace, ``c`` the counter delta over the phase, ``ops`` its (non-zero)
    op count.
    Values are ``(value, numerator, base)`` triples; times are per op.
    """
    def per_op(seconds):
        return (seconds * 1e3 / ops, seconds * 1e3, ops)

    out = {
        "stream.front_ms": per_op(clock.total["stream.front"]),
        "stream.tile_hit_ratio": ratio(c.get("tile_hits", 0), c.get("tile_lookups", 0)),
        "stream.fallback_row_ratio": ratio(
            c.get("fallback_rows", 0),
            c.get("fallback_rows", 0) + c.get("certified_rows", 0)),
        "stream.kmap_splice_ratio": ratio(c.get("kmap_splices", 0), c.get("kmap_composes", 0)),
        "stream.voxel_splice_ratio": ratio(c.get("vox_splices", 0), c.get("vox_composes", 0)),
        "fleet.cross_hit_ratio": ratio(c.get("cross_hits", 0), c.get("world_lookups", 0)),
        "fleet.attribution_ms": per_op(
            clock.self_s("fleet.store") + clock.self_s("fleet.chain")),
        "cluster.dispatch_ms": per_op(clock.self_s("cluster.run")),
        "cluster.l2_ms": per_op(clock.total["cluster.l2"]),
        "cluster.l2_hit_ratio": ratio(c.get("l2_hits", 0), c.get("l2_lookups", 0)),
        "core.backend_ms": per_op(clock.total["core.backend"]),
        "core.mmu_ms": per_op(clock.total["core.mmu"]),
        "core.mpu_ms": per_op(clock.total["core.mpu"]),
        "core.mxu_ms": per_op(clock.total["core.mxu"]),
        "core.record_memo_hit_ratio": ratio(c.get("memo_hits", 0), c.get("memo_lookups", 0)),
        "nn.trace_build_ms": per_op(clock.total["nn.trace_build"]),
        "nn.model_init_ms": per_op(clock.total["nn.model_init"]),
        "mapping.whole_hit_ratio": ratio(c.get("whole_hits", 0), c.get("whole_lookups", 0)),
    }
    for phase in ("plan", "probe", "execute", "splice"):
        self_ms = phases.get(phase, {}).get("self_ms", 0.0)
        out[f"stream.{phase}_ms"] = per_op(self_ms / 1e3)
    kernel = 0.0
    for op in MAPPING_OPS:
        seconds = clock.total[f"mapping.{op}"]
        kernel += seconds
        out[f"mapping.{op}_ms"] = per_op(seconds)
    out["mapping.kernel_ms"] = per_op(kernel)
    return out
