"""Serving benchmark: ``drive``, ``convoy`` and ``sweep`` (see README.md).

Run from the root of a checkout::

    python3 servebench/run.py --workload drive --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, every time at reference
host speed (``hostspeed.py``); ``--trace 1`` additionally re-serves the
same ops traced in a fresh process and prints the per-layer metrics
instead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Every phase
runs in a child process (``servebench/child.py``); this process only
starts, times and waits for them.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from servebench import hostspeed  # noqa: E402
from servebench.workloads import WORKLOADS  # noqa: E402

#: Set-up samples per run (the main measuring process is one of them).
SETUP_SAMPLES = 3
#: Every child must have ended by then, so the run ends within 180 s.
BUDGET_S = 170.0
#: BLAS / OpenMP threads per process: one client, one thread (<= nproc).
THREADS = 1
OUT_DIR = ROOT / "servebench" / "_out"
#: Metric names and units come from the benchmark's declaration.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_child(mode: str, args, deadline: float, *extra) -> tuple[dict, float]:
    """Run one child to completion; returns its JSON and its start instant."""
    cmd = [sys.executable, "-m", "servebench.child", mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.smoke:
        cmd.append("--smoke")
    started = time.time()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child ran past the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def fingerprint(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_omp_threads": THREADS,
    }


def end_to_end(args, deadline: float, measured: dict, started: float) -> dict:
    """End-to-end metrics, every time at reference host speed: divided by
    the slowdown the measuring process saw between its ops.  The set-up
    samples run right after it, well within the minutes the host's speed
    holds; the kernel timed back to back in a fresh process reads faster
    than between ops, so set-up is not given a slowdown of its own."""
    slow = hostspeed.slowdown(measured["host_s"])
    setups = [measured["setup_end"] - started]
    while len(setups) < SETUP_SAMPLES:
        out, t0 = run_child("setup", args, deadline)
        setups.append(out["setup_end"] - t0)
    lat = measured["latencies_ms"]
    raw = {
        "served_per_s": measured["attempted"] / measured["wall_s"],
        "served_ms_p50": statistics.median(lat),
    }
    print(f"host slowdown: {slow:.4f}")
    print(f"raw host time: served_per_s {raw['served_per_s']:.4f}, "
          f"served_ms_p50 {raw['served_ms_p50']:.4f}, setup_s samples "
          f"{[round(t, 4) for t in setups]}")
    if len(lat) >= 100:
        print(f"served_ms_p90 = {nearest_rank(lat, 90) / slow:.4f} over "
              f"{len(lat)} ops (reference speed)")
    else:
        print(f"served_ms_p90 not reported: {len(lat)} ops < 100")
    return {
        "served_per_s": raw["served_per_s"] * slow,
        "served_ms_p50": raw["served_ms_p50"] / slow,
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(setups) / slow,
    }


def per_layer(args, deadline: float, measured: dict) -> tuple[dict, int]:
    traced, _ = run_child("traced", args, deadline,
                          "--ops", str(measured["attempted"]),
                          "--out", str(OUT_DIR))
    layers = dict(traced["layers"])
    layers["stream.speedup_vs_cold"] = [
        measured["cold_s"] / measured["checked_s"] if measured["checked_s"] else 0.0,
        measured["cold_s"] * 1e3, measured["checked_s"] * 1e3]
    layers["core.sim_ms_per_op"] = measured["sim_ms_per_op"]
    layers["core.sim_uj_per_op"] = measured["sim_uj_per_op"]
    n = measured["attempted"]
    layers["engine.rss_growth_mb_per_op"] = [
        measured["rss_growth_mb"] / n, measured["rss_growth_mb"], n]
    # Both medians at reference host speed: the two processes ran at
    # different times, so possibly on a differently loaded host.
    slow = hostspeed.slowdown(measured["host_s"])
    untraced_p50 = statistics.median(measured["latencies_ms"]) / slow
    traced_p50 = (statistics.median(traced["latencies_ms"])
                  / hostspeed.slowdown(traced["host_s"]))
    layers["obs.trace_overhead"] = [traced_p50 / untraced_p50, traced_p50,
                                    untraced_p50]
    layers["obs.host_slowdown"] = [slow, statistics.median(measured["host_s"]),
                                   hostspeed.REFERENCE_S]
    for name, (value, num, base) in sorted(layers.items()):
        print(f"{name} = {value:.6g}  ({num:.6g} / {base:.6g})")
    print(f"trace file: {traced['trace_file']}")
    print(f"ledger file: {traced['ledger_file']}")
    meta = pathlib.Path(traced["trace_file"]).with_suffix(".meta.json")
    meta.write_text(json.dumps({"layers": layers, "fingerprint":
                                fingerprint(measured["numpy"])}, indent=1))
    return {name: triple[0] for name, triple in layers.items()}, traced["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # Terminated, exit through subprocess.run, which kills and reaps the
    # running child before the exception leaves it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(ROOT / "servebench"), quiet=1)
    try:
        measured, started = run_child("measure", args, deadline,
                                      "--seconds", str(args.seconds))
        print("fingerprint " + json.dumps(fingerprint(measured["numpy"])))
        print(f"{args.workload}: {measured['attempted']} ops in "
              f"{measured['wall_s']:.3f} s, {len(measured['checked'])} checked "
              f"against run_cold, {measured['mismatched']} mismatched")
        failed = measured["failed"]
        if args.trace:
            metrics, traced_failed = per_layer(args, deadline, measured)
            failed += traced_failed
        else:
            metrics = end_to_end(args, deadline, measured, started)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": measured["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
