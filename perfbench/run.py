"""apolar benchmark: cold-start CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/apolar`).  A workload
is a fixed list of `apolar` invocations (see workloads.py); each invocation
is a fresh `python -m apolar.cli ... --output json` process, so interpreter
start and imports are paid every time.  The loop is closed: one client, one
invocation at a time.  The list is repeated in whole passes: --seconds
divided by the pass time measured when the benchmark was defined, rounded
up, so a run does the same work on every commit.

Every invocation is checked against its pinned result, its exit code, and
byte-identity with its own earlier output in the run; a timeout also counts
as a failure.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (tracing off):
  wall_s          median wall time of one pass of the list
  cpu_s           median user+sys CPU of the child processes of one pass
  latency_p50_s   median wall time of one invocation
  latency_tail_s  the highest percentile with 10 invocations beyond it
  setup_s         median wall time of a fresh interpreter importing apolar.cli
  peak_rss_mb     largest resident set of any child process
failed_ratio (failed / attempted) is printed beside them; it is 0 on a
correct run, so the JSON line carries it as `failed` and `attempted`.

--trace 1 runs half the passes plainly and half through tracer.py, which
wraps each layer's public functions in a fresh process, and reports the
per-layer metrics of one traced pass (medians over traced passes) plus
trace.overhead_ratio, traced over untraced pass wall time.  `*_ops` metrics
are computed as the sum of rows * cols * rank, not measured.  The run fails
when a layer records no calls on the workload that is its main load.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tomllib
from importlib import metadata, util
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

PER_LAYER = {
    "startup.interpreter_s": "s", "startup.import_s": "s", "startup.import_numpy_s": "s",
    "cli.main_s": "s", "cli.render_s": "s", "cli.render_bytes": "bytes",
    "poly.parse_calls": "count", "poly.parse_s": "s",
    "apolarity.catalecticant_calls": "count", "apolarity.catalecticant_s": "s",
    "apolarity.catalecticant_entries": "count",
    "secant.calls": "count", "secant.self_s": "s", "secant.tangent_entries": "count",
    "secant.trials_run": "count", "secant.trials_after_bound": "count",
    "secant.useful_trial_ratio": "ratio",
    "secant.cert_bound_met": "count", "secant.cert_table": "count",
    "linalg.rank_calls": "count", "linalg.rank_s": "s", "linalg.rank_bound_met_s": "s",
    "linalg.rank_below_bound_s": "s", "linalg.rank_max_dim": "count",
    "linalg.rank_max_entry_bits": "bits", "linalg.rank_ops": "ops",
    "linalg.det_s": "s", "linalg.kernel_s": "s",
    "modular.rank_calls": "count", "modular.reduce_s": "s",
    "modular.reduce_entries": "count", "modular.eliminate_s": "s",
    "modular.eliminate_ops": "ops",
    "tensor.flatten_s": "s", "tensor.pencil_s": "s", "tensor.symbolic_det_s": "s",
    "fixtures.calls": "count", "fixtures.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Layers that must record calls in a traced run of the workload that is their
# main load; zero means a binding site was missed, not that the layer is fast.
MAIN_LOAD = {
    "cli-small": ("cli", "poly", "tensor"),
    "secant-exact": ("secant", "linalg", "fixtures"),
    "hilbert-exact": ("apolarity", "linalg"),
    "secant-modular": ("secant", "modular", "fixtures"),
}

MAXIMA = ("linalg.rank_max_dim", "linalg.rank_max_entry_bits")

SETUP_SAMPLES = 9
INVOCATION_TIMEOUT_S = 60.0
RUN_BUDGET_S = 165.0
TRACER = Path(__file__).resolve().parent / "tracer.py"


class BenchError(Exception):
    pass


class Runner:
    """Runs invocations as child processes, closed loop, and keeps the tallies."""

    def __init__(self, root, seed, work):
        self.root = root
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failures = []
        self.first_stdout = {}

    def spawn(self, cmd):
        """(returncode, stdout, stderr, wall, cpu) of one child, or None on timeout.

        Past the run's deadline nothing is started and every call times out,
        so the run still ends within its budget.
        """
        timeout = min(INVOCATION_TIMEOUT_S, self.deadline - perf_counter())
        if timeout <= 0:
            return None
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        wall = perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc.returncode, proc.stdout, proc.stderr, wall, cpu

    def invoke(self, inv, traced):
        """Run and check one invocation; returns (wall, cpu, layer stats or None)."""
        argv = inv.argv(self.seed)
        stats_path = self.work / "stats.json"
        if traced:
            cmd = [sys.executable, str(TRACER), str(stats_path)] + argv
        else:
            cmd = [sys.executable, "-m", "apolar.cli"] + argv
        self.attempted += 1
        outcome = self.spawn(cmd)
        if outcome is None:
            self.failures.append("%s: timed out" % inv.label)
            return None
        code, out, err, wall, cpu = outcome
        reason = inv.check(code, out.decode("utf-8", "replace"),
                           err.decode("utf-8", "replace"))
        first = self.first_stdout.setdefault(inv.label, out)
        if reason is None and out != first:
            reason = "stdout differs from its earlier run"
        if reason is not None:
            self.failures.append("%s: %s" % (inv.label, reason))
        if inv.save_stdout is not None:
            inv.save_stdout.write_bytes(out)
        stats = None
        if traced and stats_path.exists():
            stats = json.loads(stats_path.read_text())
            stats_path.unlink()
        return wall, cpu, stats

    def run_pass(self, invocations, traced=False):
        """One pass over the list: (wall, cpu, layer stats) per invocation, None if it hung."""
        return [self.invoke(inv, traced) for inv in invocations]

    def setup_times(self, code, extra=()):
        """Wall times of fresh interpreters running `code`, after one discarded warm-up."""
        cmd = [sys.executable, *extra, "-c", code]
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            outcome = self.spawn(cmd)
            if outcome is None or outcome[0] != 0:
                raise BenchError("interpreter failed to run %r" % code)
            if i:
                samples.append(outcome)
        return samples


def _import_times(stderr):
    """(apolar.cli, numpy) cumulative seconds from `-X importtime` output."""
    found = {}
    for line in stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("apolar.cli", "numpy"):
            found[parts[2].strip()] = int(parts[1]) / 1e6
    if "apolar.cli" not in found:
        raise BenchError("-X importtime did not report apolar.cli")
    return found["apolar.cli"], found.get("numpy", 0.0)


def _tail(latencies):
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _context(root, seed):
    """Run facts reported beside, never inside, the scored metrics."""
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True).stdout.strip() or commit
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "numba": util.find_spec("numba") is not None,
            "commit": commit, "seed": seed, "src_lines": src_lines,
            "dependencies": len(project.get("dependencies", []))}


def _metric(name, value, unit, note=""):
    print("  %-34s %14.6f %-6s %s" % (name, value, unit, note))
    return {"value": value, "unit": unit}


def _list_time(passes, field):
    """Time to answer the whole list: per invocation, the median over passes, summed.

    Taking each invocation's median first keeps a burst of machine noise in
    one pass from moving the figure.
    """
    total = 0.0
    for samples in zip(*passes):
        done = [s[field] for s in samples if s is not None]
        if done:
            total += statistics.median(done)
    return total


def end_to_end(runner, invocations, passes):
    setup = [s[3] for s in runner.setup_times("import apolar.cli")]
    results = [runner.run_pass(invocations) for _ in range(passes)]
    latencies = [s[0] for r in results for s in r if s is not None]
    if not latencies:
        raise BenchError("no invocation completed")
    tail, pct = _tail(latencies)
    n = len(invocations)
    return {
        "wall_s": _metric("wall_s", _list_time(results, 0), "s",
                          "%d invocations, median of %d passes each" % (n, passes)),
        "cpu_s": _metric("cpu_s", _list_time(results, 1), "s",
                         "%d invocations, median of %d passes each" % (n, passes)),
        "latency_p50_s": _metric("latency_p50_s", statistics.median(latencies), "s",
                                 "%d invocations" % len(latencies)),
        "latency_tail_s": _metric("latency_tail_s", tail, "s",
                                  "p%.1f of %d invocations" % (pct, len(latencies))),
        "setup_s": _metric("setup_s", statistics.median(setup), "s",
                           "median of %d imports" % len(setup)),
        "peak_rss_mb": _metric(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "MiB", "largest child"),
    }


def per_layer(runner, workload, invocations, passes):
    interp = [s[3] for s in runner.setup_times("pass")]
    imports = [_import_times(s[2])
               for s in runner.setup_times("import apolar.cli", ("-X", "importtime"))]
    half = max(1, passes // 2)
    plain = [runner.run_pass(invocations) for _ in range(half)]
    traced = [runner.run_pass(invocations, traced=True) for _ in range(half)]
    totals = []
    for results in traced:
        total, calls = {}, {}
        for inv_stats in (r[2] for r in results if r is not None):
            for name, value in inv_stats["metrics"].items():
                if name in MAXIMA:
                    total[name] = max(total.get(name, 0), value)
                else:
                    total[name] = total.get(name, 0) + value
            for layer, n in inv_stats["layer_calls"].items():
                calls[layer] = calls.get(layer, 0) + n
        missing = [layer for layer in MAIN_LOAD[workload] if not calls.get(layer)]
        if missing:
            raise BenchError("traced run recorded no calls in layer(s) %s on %s, "
                             "their main workload; a binding site was not wrapped"
                             % (", ".join(missing), workload))
        totals.append(total)
    values = {name: statistics.median(t.get(name, 0) for t in totals) for name in totals[0]}
    trials = values.get("secant.trials_run", 0)
    useful = values.pop("secant.useful_trials", 0)
    values["secant.useful_trial_ratio"] = useful / trials if trials else 0.0
    values["startup.interpreter_s"] = statistics.median(interp)
    values["startup.import_s"] = statistics.median(i[0] for i in imports)
    values["startup.import_numpy_s"] = statistics.median(i[1] for i in imports)
    values["trace.overhead_ratio"] = _list_time(traced, 0) / _list_time(plain, 0)
    print("  traced %d passes and ran %d plainly, %d invocations each"
          % (half, half, len(invocations)))
    return {name: _metric(name, values.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "apolar" / "cli.py").is_file():
        print("perfbench: run from the root of an apolar checkout (no src/apolar here)",
              file=sys.stderr)
        return 2
    build, pass_seconds = WORKLOADS[args.workload]
    passes = max(1, math.ceil(args.seconds / pass_seconds))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        runner = Runner(root, args.seed, work)
        invocations = build(args.seed, work)
        context = _context(root, args.seed)
        print("perfbench %s: %d passes of %d invocations, trace %d"
              % (args.workload, passes, len(invocations), args.trace))
        print("context: %s" % json.dumps(context, sort_keys=True))
        if args.trace:
            metrics = per_layer(runner, args.workload, invocations, passes)
        else:
            metrics = end_to_end(runner, invocations, passes)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print("FAILED %s" % line, file=sys.stderr)
    print("  %-34s %14.6f %-6s %d of %d invocations"
          % ("failed_ratio", failed / runner.attempted, "ratio", failed, runner.attempted))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
