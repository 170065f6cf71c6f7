"""One benchmark process: set up a workload, serve it, report JSON.

Started by ``servebench/run.py``, never by hand.  Modes:

``setup``
    set up and stop: the set-up time sample.
``measure``
    set up, serve for ``--seconds`` with tracing off, then re-run every
    checked op through the cold oracle.
``traced``
    set up again in this fresh process and serve exactly ``--ops`` ops
    with the ``repro.obs`` tracer and recompute ledger installed and
    every layer timed from outside; writes the span and ledger files.

The last line of standard output is one JSON object; ``setup_end`` is
the wall-clock (``time.time``) instant set-up finished, which the parent
turns into time since it started this interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy

from servebench.workloads import FULL, SMOKE, make, serve, verify


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, args) -> dict:
    workload.setup()
    setup_end = time.time()
    rss0 = rss_mb()
    served = serve(workload, args.seconds)
    rss1 = rss_mb()
    peak = peak_rss_mb()
    mismatched, cold_s = verify(served, workload.backends)
    n = served.attempted
    checked_s = sum(served.latencies_s[i] for i in served.checked)
    n_sim = max(1, served.sim_n)
    return {
        "setup_end": setup_end,
        "latencies_ms": [t * 1e3 for t in served.latencies_s],
        "wall_s": served.wall_s,
        "attempted": n,
        "failed": served.failed + mismatched,
        "mismatched": mismatched,
        "checked": sorted(served.checked),
        "cold_s": cold_s,
        "checked_s": checked_s,
        "peak_rss_mb": peak,
        "rss_growth_mb": rss1 - rss0,
        "numpy": numpy.__version__,
        "sim_ms_per_op": [served.sim_ms / n_sim, served.sim_ms, served.sim_n],
        "sim_uj_per_op": [served.sim_uj / n_sim, served.sim_uj, served.sim_n],
        "host_s": served.host_s,
    }


def traced(workload, args) -> dict:
    from repro.obs import RecomputeLedger, Tracer, use_ledger, use_tracer
    from repro.obs.report import load_trace, phase_breakdown

    from servebench.layers import LayerClock, counters, delta, layer_metrics

    clock = LayerClock()
    clock.install()
    try:
        workload.setup()
        model_init_setup_s = clock.total["nn.model_init"]
        clock.reset()
        before = counters(workload)
        tracer, ledger = Tracer(), RecomputeLedger()
        with use_tracer(tracer), use_ledger(ledger):
            served = serve(workload, args.seconds, ops=args.ops)
        c = delta(counters(workload), before)
    finally:
        clock.uninstall()
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{workload.name}-seed{workload.seed}")
    trace_path, ledger_path = stem + ".trace.jsonl", stem + ".ledger.jsonl"
    tracer.dump_jsonl(trace_path)
    ledger.dump_jsonl(ledger_path)
    phases = phase_breakdown(load_trace(trace_path))
    n = served.attempted
    metrics = layer_metrics(clock, phases, c, n)
    metrics["nn.model_init_setup_ms"] = [
        model_init_setup_s * 1e3, model_init_setup_s * 1e3, 1]
    served_s = sum(served.latencies_s)
    metrics["obs.unattributed_share"] = [
        max(0.0, served_s - clock.attributed_s()) / served_s if served_s else 0.0,
        max(0.0, served_s - clock.attributed_s()), served_s]
    return {
        "latencies_ms": [t * 1e3 for t in served.latencies_s],
        "host_s": served.host_s,
        "attempted": n,
        "failed": served.failed,
        "layers": metrics,
        "trace_file": trace_path,
        "ledger_file": ledger_path,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = make(args.workload, args.seed, SMOKE if args.smoke else FULL)
    if args.mode == "setup":
        workload.setup()
        out = {"setup_end": time.time()}
    elif args.mode == "measure":
        out = measure(workload, args)
    else:
        out = traced(workload, args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
