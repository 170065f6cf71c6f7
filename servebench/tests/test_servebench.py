"""The serving benchmark's own tests: inputs, oracle, output contract.

Every test runs the benchmark at its ``--smoke`` sizes, so the whole file
takes well under a minute.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from servebench import hostspeed  # noqa: E402
from servebench.workloads import (  # noqa: E402
    SMOKE, WORKLOADS, make, road_config, road_length, serve, verify,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "servebench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("frames", [8, 100, 600])
def test_road_keeps_default_density(frames):
    from repro.stream import FrameSequence, SequenceConfig

    default = SequenceConfig()
    cfg = road_config(5, frames)
    for field in ("n_buildings", "n_dynamic"):
        per_m = getattr(cfg, field) / road_length(cfg)
        default_per_m = getattr(default, field) / road_length(default)
        # Counts are whole numbers: within half an object over the road.
        assert abs(per_m - default_per_m) <= 0.5 / road_length(cfg)
    # The road really is as long as the run: the last frame still sees
    # the static world, not just sensor clutter.
    seq = FrameSequence(cfg)
    clutter = max(1, int(cfg.clutter_points * 0.05))
    assert seq.frame(frames - 1, scale=0.05).n > 10 * clutter


def test_altered_result_is_counted_as_failed():
    workload = make("drive", 3, SMOKE)
    workload.setup()
    served = serve(workload, seconds=0.0, ops=3)
    assert sorted(served.checked) == [0, 2]
    assert verify(served, workload.backends)[0] == 0
    # One ulp on one layer of one op's report must be caught ...
    report = served.checked[0][0].reports["pointacc"]
    report.records[0].seconds = np.nextafter(report.records[0].seconds, np.inf)
    assert verify(served, workload.backends)[0] == 1
    # ... and so must a backend error the oracle did not raise.
    served.checked[2][0].errors["pointacc"] = "altered"
    assert verify(served, workload.backends)[0] == 2


def test_host_kernel_runs_between_ops_outside_the_measured_time():
    workload = make("drive", 3, SMOKE)
    workload.setup()
    served = serve(workload, seconds=0.0, ops=3)
    assert len(served.host_s) == served.attempted == 3
    # The wall time is the ops plus loop bookkeeping, not the kernel.
    busy = sum(served.latencies_s)
    assert busy <= served.wall_s < busy + sum(served.host_s)
    assert hostspeed.slowdown([hostspeed.REFERENCE_S] * 3) == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float), metric["name"]
    assert any(line.startswith("fingerprint ") for line in lines)
    if not trace:
        # Normalized figures come with the raw ones and the slowdown.
        assert any(line.startswith("host slowdown: ") for line in lines)
        assert any(line.startswith("raw host time: ") for line in lines)
        return
    files = {line.split(": ", 1)[0]: line.split(": ", 1)[1]
             for line in lines if line.startswith(("trace file", "ledger file"))}
    for argv in (["trace-report", files["trace file"],
                  "--ledger-file", files["ledger file"]],
                 ["trace-diff", files["trace file"], files["trace file"]]):
        cli = subprocess.run([sys.executable, "-m", "repro", *argv],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, env={"PYTHONPATH": str(ROOT / "src")})
        assert cli.returncode == 0, cli.stderr
        assert cli.stdout.strip()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_bench("--workload", "drive", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
