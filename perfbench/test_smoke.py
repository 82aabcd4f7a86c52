"""Quick check of the benchmark itself: one short run of each workload.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced at the shortest length (one
pass).  The test asserts that every invocation passed its pinned checks,
that each run emits exactly the metrics BENCHMARK.json names for its mode,
and that the traced run records calls in the layers each workload mainly
loads.  It takes about a minute and a half on two cores.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer counts that must be non-zero on each workload's traced run.
NONZERO = {
    "cli-small": ("poly.parse_calls", "cli.render_bytes", "linalg.rank_calls",
                  "apolarity.catalecticant_calls", "secant.calls"),
    "secant-exact": ("secant.calls", "secant.trials_run", "linalg.rank_calls",
                     "linalg.rank_ops", "fixtures.calls", "secant.cert_table"),
    "hilbert-exact": ("apolarity.catalecticant_calls", "apolarity.catalecticant_entries",
                      "linalg.rank_calls"),
    "secant-modular": ("secant.calls", "modular.rank_calls", "modular.reduce_entries",
                       "modular.eliminate_ops", "fixtures.calls"),
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(report):
    return {name: m["unit"] for name, m in report["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report = _run(workload, 0)
    assert report["correct"] and report["failed"] == 0
    assert _units(report) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in report["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    report = _run(workload, 1)
    assert report["correct"] and report["failed"] == 0
    metrics = report["metrics"]
    assert _units(report) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in NONZERO[workload] + ("startup.import_s", "cli.main_s"):
        assert metrics[name]["value"] > 0, name


def test_refuses_without_source():
    """Where only the benchmark's own files exist, it exits non-zero and prints no result."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout
