"""Traced entry point: one apolar CLI invocation with its layers timed from outside.

    PYTHONPATH=src python3 perfbench/tracer.py STATS.json ARGS...

runs `apolar.cli.main(ARGS)` in this fresh process after wrapping the public
functions of every layer, writes the layer counters of the invocation to
STATS.json and exits with main's exit code; stdout is the program's own.

apolar binds most of these functions by name in several modules (`mat_rank`
in cli, apolarity, tensor and fixtures; `rank_int_rows` in secant;
`catalecticant` in cli and fixtures), so each wrapper replaces the function
at every `apolar.*` module attribute that holds it, not only where it is
defined.  `rank_mod` and `reduce_matrix` are reached through `apolar.modular`'s
globals, which the same replacement covers.

Each wrapped call is a span.  A span's self time is its duration minus the
spans it encloses.  Bookkeeping done after a call returns (entry bit sizes,
trial classification) is charged to no layer and is left out of `cli.main_s`.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter

from apolar import apolarity, cli, fixtures, linalg, modular, poly, secant, tensor


class _Span:
    __slots__ = ("covered", "trials")

    def __init__(self, collects_trials):
        self.covered = 0.0    # seconds inside enclosed spans and their bookkeeping
        # (rank, rows, cols, seconds, exact) of each rank call made directly inside
        self.trials = [] if collects_trials else None


class _JsonProxy:
    """Stands in for the `json` module inside apolar.cli, with `dumps` traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = {"linalg.rank_max_dim": 0, "linalg.rank_max_entry_bits": 0}
        self.bookkeeping = 0.0

    def wrap(self, key, func, observe=None, collects_trials=False):
        stack = self.stack

        def traced(*args, **kwargs):
            span = _Span(collects_trials)
            stack.append(span)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.calls[key] += 1
                self.busy[key] += end - start
                self.self_time[key] += end - start - span.covered
                if stack:
                    stack[-1].covered += end - start
            if observe is not None:
                observe(span, result, end - start, *args)
                spent = perf_counter() - end
                self.bookkeeping += spent
                if stack:
                    stack[-1].covered += spent
            return result

        return traced

    # --- observers: counters read from arguments and results ---------------

    def _rank_call(self, rank, rows, cols, bits, seconds, exact):
        if exact:
            self.maxima["linalg.rank_max_dim"] = max(
                self.maxima["linalg.rank_max_dim"], rows, cols)
            self.maxima["linalg.rank_max_entry_bits"] = max(
                self.maxima["linalg.rank_max_entry_bits"], bits)
            self.counts["linalg.rank_ops"] += rows * cols * rank
        else:
            self.counts["modular.eliminate_ops"] += rows * cols * rank
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent.trials is not None:
            # Terracini trial: its bound depends on expected_dim, known at return.
            parent.trials.append((rank, rows, cols, seconds, exact))
        elif exact:
            self._rank_time(rank == min(rows, cols), seconds)

    def _rank_time(self, met, seconds):
        self.busy["linalg.rank_bound_met" if met else "linalg.rank_below_bound"] += seconds

    def observe_mat_rank(self, span, rank, seconds, matrix, *rest):
        bits = max((max(abs(e.numerator).bit_length(), e.denominator.bit_length())
                    for e in matrix.entries), default=0)
        self._rank_call(rank, matrix.rows, matrix.cols, bits, seconds, exact=True)

    def observe_rank_int_rows(self, span, rank, seconds, rows, *rest):
        cols = len(rows[0]) if rows else 0
        bits = max((abs(e).bit_length() for row in rows for e in row), default=0)
        self._rank_call(rank, len(rows), cols, bits, seconds, exact=True)

    def observe_rank_mod(self, span, rank, seconds, rows, *rest):
        cols = len(rows[0]) if rows else 0
        self._rank_call(rank, len(rows), cols, 0, seconds, exact=False)

    def observe_reduce(self, span, array, seconds, *args):
        self.counts["modular.reduce_entries"] += int(array.size)

    def observe_catalecticant(self, span, cat, seconds, *args):
        self.counts["apolarity.catalecticant_entries"] += cat.matrix.rows * cat.matrix.cols

    def observe_terracini(self, span, report, seconds, *args):
        """Count the call's trials and classify them by the rank bound.

        A trial meets its bound when its rank is min(rows, cols) or
        expected_dim + 1.  `trials_after_bound` counts trials run after an
        earlier trial of the same call met it; a trial is useful when it
        raises the call's best rank so far.
        """
        best = -1
        bound_seen = False
        for rank, rows, cols, trial_s, exact in span.trials:
            met = rank in (min(rows, cols), report.expected_dim + 1)
            self.counts["secant.trials_run"] += 1
            self.counts["secant.tangent_entries"] += rows * cols
            self.counts["secant.trials_after_bound"] += bound_seen
            if rank > best:
                self.counts["secant.useful_trials"] += 1
                best = rank
            if exact:
                self._rank_time(met, trial_s)
            bound_seen = bound_seen or met
        if report.certified:
            kind = "bound_met" if report.computed_dim == report.expected_dim else "table"
            self.counts["secant.cert_" + kind] += 1

    def observe_render(self, span, text, seconds, *args):
        self.counts["cli.render_bytes"] += len(text.encode("utf-8"))

    # --- installation and report -------------------------------------------

    def install(self):
        """Wrap every target at each `apolar.*` module attribute bound to it."""
        targets = [
            ("poly.parse", poly, "parse_poly", None),
            ("apolarity.catalecticant", apolarity, "catalecticant",
             self.observe_catalecticant),
            ("secant.terracini", secant, "terracini_dim_veronese", self.observe_terracini),
            ("secant.terracini", secant, "terracini_dim_segre", self.observe_terracini),
            ("linalg.rank", linalg, "mat_rank", self.observe_mat_rank),
            ("linalg.rank", linalg, "rank_int_rows", self.observe_rank_int_rows),
            ("linalg.det", linalg, "mat_det", None),
            ("linalg.kernel", linalg, "mat_kernel", None),
            ("linalg.kernel", linalg, "solve_linear", None),
            ("modular.rank", modular, "rank_mod", self.observe_rank_mod),
            ("modular.reduce", modular, "reduce_matrix", self.observe_reduce),
            ("tensor.flatten", tensor, "flatten", None),
            ("tensor.pencil", tensor, "strassen_matrix", None),
            ("tensor.symbolic_det", tensor, "strassen_det_symbolic", None),
            ("fixtures.run", fixtures, "run_fixtures", None),
        ]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "apolar" or name.startswith("apolar."))]
        for key, home, name, observe in targets:
            original = getattr(home, name)
            wrapper = self.wrap(key, original, observe,
                                collects_trials=key == "secant.terracini")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        cli.json = _JsonProxy(self.wrap("cli.render", json.dumps, self.observe_render))

    def metrics(self, main_s):
        """Per-invocation layer metrics, named as in BENCHMARK.json."""
        busy, calls, counts = self.busy, self.calls, self.counts
        out = {
            "cli.main_s": main_s - self.bookkeeping,
            "cli.render_s": busy["cli.render"],
            "poly.parse_calls": calls["poly.parse"],
            "poly.parse_s": busy["poly.parse"],
            "apolarity.catalecticant_calls": calls["apolarity.catalecticant"],
            "apolarity.catalecticant_s": busy["apolarity.catalecticant"],
            "secant.calls": calls["secant.terracini"],
            "secant.self_s": self.self_time["secant.terracini"],
            "linalg.rank_calls": calls["linalg.rank"],
            "linalg.rank_s": busy["linalg.rank"],
            "linalg.rank_bound_met_s": busy["linalg.rank_bound_met"],
            "linalg.rank_below_bound_s": busy["linalg.rank_below_bound"],
            "linalg.det_s": busy["linalg.det"],
            "linalg.kernel_s": busy["linalg.kernel"],
            "modular.rank_calls": calls["modular.rank"],
            "modular.reduce_s": busy["modular.reduce"],
            "modular.eliminate_s": self.self_time["modular.rank"],
            "tensor.flatten_s": busy["tensor.flatten"],
            "tensor.pencil_s": busy["tensor.pencil"],
            "tensor.symbolic_det_s": busy["tensor.symbolic_det"],
            "fixtures.calls": calls["fixtures.run"],
            "fixtures.self_s": self.self_time["fixtures.run"],
        }
        for name in ("cli.render_bytes", "apolarity.catalecticant_entries",
                     "secant.tangent_entries", "secant.trials_run",
                     "secant.trials_after_bound", "secant.useful_trials",
                     "secant.cert_bound_met", "secant.cert_table", "linalg.rank_ops",
                     "modular.reduce_entries", "modular.eliminate_ops"):
            out[name] = counts[name]
        out.update(self.maxima)
        layer_calls = defaultdict(int)
        for key, n in calls.items():
            layer_calls[key.split(".")[0]] += n
        return out, dict(layer_calls)


def main(argv):
    stats_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    start = perf_counter()
    try:
        code = cli.main(args)
    except SystemExit as exc:     # argparse rejects a command line this way
        code = exc.code
    main_s = perf_counter() - start
    sys.stdout.flush()
    metrics, layer_calls = tracer.metrics(main_s)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "layer_calls": layer_calls}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
