"""The three closed-loop workloads, their inputs, and the cold oracle.

Each workload drives one public serving surface of ``repro`` from a single
client: the next op is issued only after the previous result returns.

* ``drive``  — one vehicle: :class:`repro.stream.StreamSession` over a
  :class:`repro.stream.FrameSequence`, MinkNet(o) at scale 0.4, the
  session's own tile-front engine.  One op is one frame.
* ``convoy`` — three vehicles on one road through
  :class:`repro.fleet.FleetSession` on an in-process 2-shard
  :class:`repro.cluster.EngineCluster` with the in-memory L2.  One op is
  one round; its latency is what every vehicle waits.
* ``sweep``  — the paper-figure sweep: every registry benchmark at scale
  0.25, full-functional, through ``SimulationEngine.run_batch`` on
  ``pointacc`` + ``pointacc-edge``, a fresh seed per request.  One op is
  one simulation.

Everything here is a pure function of ``--seed`` and the :class:`Plan`;
the program under test only ever sees the generated requests.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from dataclasses import dataclass

from servebench import hostspeed

WORKLOADS = ("drive", "convoy", "sweep")


@dataclass(frozen=True)
class Plan:
    """Sizes of one run.  :data:`FULL` is the benchmark; :data:`SMOKE`
    shrinks every input so the benchmark's own tests stay quick."""

    stream_scale: float = 0.4    #: MinkNet(o) scale on drive / convoy
    sweep_scale: float = 0.25    #: registry scale on sweep
    #: Registry scale of the sweep's set-up pass: first use of every model
    #: family costs the same at any scale, so a smaller pass suffices.
    sweep_setup_scale: float = 0.1
    #: Drive frames / convoy rounds served in set-up, after first use.
    warmup: dict = dataclasses.field(
        default_factory=lambda: {"drive": 4, "convoy": 2})
    #: Ops cap per workload, sized so a run on a 2-core host ends on it
    #: just before ``--seconds``: then a seed always serves the same ops.
    #: On drive and convoy it is also the road length in measured frames
    #: (README.md, "World sizing"); on sweep it counts registry passes.
    capacity: dict = dataclasses.field(
        default_factory=lambda: {"drive": 60, "convoy": 18, "sweep": 3})
    check_every: dict = dataclasses.field(
        default_factory=lambda: {"drive": 6, "convoy": 4, "sweep": 3})
    sim_ops: int = 8             #: leading ops the simulated-cost metrics cover


FULL = Plan()
SMOKE = Plan(stream_scale=0.1, sweep_scale=0.05, sweep_setup_scale=0.05,
             warmup={"drive": 1, "convoy": 1},
             capacity={"drive": 6, "convoy": 6, "sweep": 1},
             check_every={"drive": 2, "convoy": 2, "sweep": 3})

STREAM_BACKENDS = ("pointacc",)
SWEEP_BACKENDS = ("pointacc", "pointacc-edge")
CONVOY_VEHICLES = 3
#: Sweep request seeds: op ``i`` of seed ``s`` uses ``s * SEED_STRIDE + i``;
#: the set-up pass uses the top of the same block, so no key repeats.
SEED_STRIDE = 100_000


# ----------------------------------------------------------------------
# World sizing
# ----------------------------------------------------------------------

def road_length(cfg) -> float:
    """Length of the static strip a :class:`SequenceConfig` builds, in
    metres: the FOV box at both ends plus the trajectory."""
    return 2 * cfg.fov + cfg.speed * (cfg.n_frames + 2)


def road_config(seed: int, frames: int):
    """A :class:`SequenceConfig` whose road is ``frames`` frames long and
    keeps the default sequence's buildings and moving objects per metre.

    ``SequenceConfig`` already scales static points with road length but
    holds the building and moving-object *counts* fixed, so a long drive
    on the default config would be a sparser world than a short one.
    """
    from repro.stream import SequenceConfig

    default = SequenceConfig()
    cfg = SequenceConfig(seed=seed, n_frames=frames)
    stretch = road_length(cfg) / road_length(default)
    return dataclasses.replace(
        cfg,
        n_buildings=max(1, round(default.n_buildings * stretch)),
        n_dynamic=max(1, round(default.n_dynamic * stretch)),
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """One workload: ``setup()`` once, then ``op()`` per served op.

    ``op()`` returns the op's :class:`~repro.engine.SimResult` list (one
    for drive and sweep, one per vehicle for convoy) and raises on a
    failed op.  ``granule`` is the op count a measured phase must end on
    (the sweep measures whole passes so every run holds the same mix).
    """

    name = ""
    granule = 1

    def __init__(self, seed: int, plan: Plan = FULL) -> None:
        self.seed = int(seed)
        self.plan = plan
        self.backends: tuple = ()
        self.capacity = plan.capacity[self.name]

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> list:
        raise NotImplementedError

    def engines(self) -> list:
        """The :class:`~repro.engine.SimulationEngine` instances serving."""
        raise NotImplementedError

    def front(self):
        """The tile front (``TileMapCache``), or ``None``."""
        return None

    def world_store(self):
        """The fleet's ``WorldTileStore``, or ``None``."""
        return None

    def l2(self):
        """The cluster's shared L2 store, or ``None``."""
        return None


class Drive(Workload):
    name = "drive"

    def setup(self) -> None:
        from repro.stream import FrameSequence, StreamSession

        self.backends = STREAM_BACKENDS
        warmup = self.plan.warmup[self.name]
        cfg = road_config(self.seed, warmup + self.capacity)
        self.session = StreamSession(
            FrameSequence(cfg), "MinkNet(o)",
            scale=self.plan.stream_scale, backends=self.backends,
        )
        for _ in range(warmup):
            self.op()

    def op(self) -> list:
        (frame,) = self.session.run(1)
        if not frame.completed:
            raise RuntimeError(f"frame {frame.index} not completed")
        return [frame.result]

    def engines(self) -> list:
        return [self.session.executor]

    def front(self):
        return self.session.tile_cache


class Convoy(Workload):
    name = "convoy"

    def setup(self) -> None:
        from repro.fleet import FleetSession, StreamSpec
        from repro.stream import FrameSequence

        self.backends = STREAM_BACKENDS
        warmup = self.plan.warmup[self.name]
        frames = warmup + self.capacity
        # The leading vehicle drives CONVOY_VEHICLES - 1 frame-steps
        # ahead, so the road is that much longer than the run.
        base = road_config(self.seed, frames + CONVOY_VEHICLES - 1)
        specs = [
            StreamSpec(
                name=f"v{v}",
                sequence=FrameSequence(dataclasses.replace(
                    base, start_x=base.speed * v, sensor_seed=v + 1)),
                benchmark="MinkNet(o)",
                scale=self.plan.stream_scale,
                n_frames=frames,
            )
            for v in range(CONVOY_VEHICLES)
        ]
        self.fleet = FleetSession(specs, backends=self.backends, n_shards=2)
        self._rounds = self.fleet.play()
        for _ in range(warmup):
            self.op()

    def op(self) -> list:
        try:
            round_ = next(self._rounds)
        except StopIteration:
            raise RuntimeError("convoy ran off the end of its road") from None
        for name, frame in round_:
            if not frame.completed:
                raise RuntimeError(f"{name} frame {frame.index} not completed")
        return [frame.result for _, frame in round_]

    def engines(self) -> list:
        return list(self.fleet.executor.shards)

    def front(self):
        return self.fleet.world_store.inner

    def world_store(self):
        return self.fleet.world_store

    def l2(self):
        return self.fleet.executor.l2


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed: int, plan: Plan = FULL) -> None:
        super().__init__(seed, plan)
        from repro.nn.models.registry import BENCHMARKS

        self.benchmarks = list(BENCHMARKS)
        self.granule = len(self.benchmarks)
        self.capacity *= self.granule
        self._next = 0

    def request(self, i: int, seed: int, scale: float):
        from repro.engine import SimRequest

        bench = self.benchmarks[i % len(self.benchmarks)]
        return SimRequest(bench, scale=scale, seed=seed)

    def setup(self) -> None:
        from repro.engine import SimulationEngine

        self.backends = SWEEP_BACKENDS
        self.engine = SimulationEngine(backends=self.backends)
        # One cold pass over every benchmark, so each model family's lazy
        # first-use cost falls inside set-up, not inside the first ops.
        top = (self.seed + 1) * SEED_STRIDE - 1
        for j in range(len(self.benchmarks)):
            self.engine.run_batch(
                [self.request(j, top - j, self.plan.sweep_setup_scale)])

    def op(self) -> list:
        i = self._next
        self._next += 1
        return self.engine.run_batch([self.request(
            i, self.seed * SEED_STRIDE + i, self.plan.sweep_scale)])

    def engines(self) -> list:
        return [self.engine]


def make(name: str, seed: int, plan: Plan = FULL) -> Workload:
    classes = {"drive": Drive, "convoy": Convoy, "sweep": Sweep}
    if name not in classes:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    return classes[name](seed, plan)


# ----------------------------------------------------------------------
# Serving and checking
# ----------------------------------------------------------------------

@dataclass
class Served:
    """What a measured phase produced."""

    latencies_s: list
    wall_s: float
    failed: int
    #: op index -> SimResult list the oracle re-runs, traces dropped so
    #: the harness holds no per-op memory of its own
    checked: dict
    sim_ms: float      #: simulated PointAcc ms over the first ``sim_n`` ops
    sim_uj: float      #: simulated PointAcc uJ over the same ops
    sim_n: int
    host_s: list       #: :func:`hostspeed.sample` timings, one after each op

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


def simulated_cost(results) -> tuple[float, float]:
    """Simulated PointAcc latency (ms) and energy (uJ) of one op: the
    ``pointacc`` backend's report, summed over the op's results."""
    ms = uj = 0.0
    for result in results:
        report = result.reports["pointacc"]
        ms += report.total_seconds * 1e3
        uj += report.energy_joules * 1e6
    return ms, uj


def serve(workload: Workload, seconds: float, ops: int | None = None) -> Served:
    """Closed loop: issue ops back to back until ``seconds`` have passed
    (at a whole, non-zero multiple of ``workload.granule`` ops), or
    exactly ``ops`` ops when given.  Never beyond the workload's
    capacity, so a faster program does not run off the end of the road.
    The host-speed kernel runs after each op; ``wall_s`` leaves it out.
    """
    every = workload.plan.check_every[workload.name]
    limit = workload.capacity if ops is None else min(ops, workload.capacity)
    latencies, checked, host_s = [], {}, []
    failed, sim_ms, sim_uj, sim_n = 0, 0.0, 0.0, 0
    clock = time.perf_counter
    start = clock()
    while len(latencies) < limit:
        n = len(latencies)
        if (ops is None and n >= workload.granule
                and n % workload.granule == 0 and clock() - start >= seconds):
            break
        t0 = clock()
        try:
            results = workload.op()
        except Exception:  # a failed op is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            results = None
            failed += 1
        latencies.append(clock() - t0)
        host_s.append(hostspeed.sample())
        if results is None:
            continue
        if n % every == 0:
            checked[n] = [dataclasses.replace(r, trace=None, spans=[])
                          for r in results]
        if n < workload.plan.sim_ops:
            ms, uj = simulated_cost(results)
            sim_ms, sim_uj, sim_n = sim_ms + ms, sim_uj + uj, sim_n + 1
    return Served(latencies, clock() - start - sum(host_s), failed, checked,
                  sim_ms, sim_uj, sim_n, host_s)


def same_result(served, cold) -> bool:
    """Bit-for-bit oracle comparison: every backend's report (dataclass
    equality over every field of every layer record) and every backend
    error string."""
    return served.reports == cold.reports and served.errors == cold.errors


def verify(served: Served, backends) -> tuple[int, float]:
    """Re-run every checked op through :func:`repro.engine.run_cold` on the
    identical request (same geometry-only flag, same backends).

    Returns ``(mismatched ops, cold wall seconds)``.  An op mismatches when
    any of its results differs from the oracle's.
    """
    from repro.engine import run_cold

    bad, cold_s = 0, 0.0
    for results in served.checked.values():
        ok = True
        for result in results:
            t0 = time.perf_counter()
            cold = run_cold(result.request, backends=backends)
            cold_s += time.perf_counter() - t0
            ok = ok and same_result(result, cold)
        bad += not ok
    return bad, cold_s

