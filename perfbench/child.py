"""Run one hfactor CLI command in this (fresh) interpreter and report on it.

    python3 perfbench/child.py REPORT TRACE -- COMMAND [FLAGS...]

The command runs through ``hfactor.cli.main`` exactly as the ``hfactor``
console script would run it, and its output goes to this process's stdout
untouched.  Afterwards a JSON report is written to REPORT:

- ``setup_end``: ``time.monotonic()`` when the first ``parse_pattern`` call
  returned, i.e. interpreter started, hfactor imported, config and pattern
  parsed; the experiment call follows immediately.
- ``end``: ``time.monotonic()`` after the last output byte was flushed.
- ``maxrss_kb``: peak resident set of this process or of any worker it reaped.
- with TRACE=1, ``spans`` and ``counts`` (see ``Tracer``).

``time.monotonic`` is the system-wide monotonic clock on Linux, so the parent
can subtract its own spawn time from ``setup_end``.  The exit code is the
CLI's.
"""

import functools
import json
import os
import resource
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus event counts.

    Spans come from wrappers around the public functions of each layer; a
    wrapper records nothing in another process (pool workers forked from this
    one), so worker-side work never lands in the parent's trace.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._pid = os.getpid()

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def wrap_outermost(self, name, fn):
        """One span per outermost entry of a recursive function."""
        traced = self.wrap(name, fn)
        depth = 0

        @functools.wraps(fn)
        def outer(*args, **kwargs):
            nonlocal depth
            if depth:
                return fn(*args, **kwargs)
            depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                depth -= 1

        return outer

    def caller(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._open[-1]][0] if self._open else None


def _count_edges(tracer, args, kwargs, host):
    tracer.counts["host.edges_sampled"] += host.m


def _count_blocks(tracer, args, kwargs, result):
    tracer.counts["factor.blocks"] += len(args[0].block_items())


def _count_true(tracer, args, kwargs, found):
    tracer.counts["factor.has_factor.true"] += bool(found)


def _count_steps(tracer, args, kwargs, trace):
    tracer.counts["process.steps"] += len(trace.steps)


def _count_payloads(tracer, args, kwargs, results):
    # run_trials returns one result per payload, in order
    tracer.counts["parallel.payloads"] += len(results)
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    if workers > 1 and len(results) >= 2:
        tracer.counts["parallel.pool_expected"] += 1
    if tracer.caller() == "thresholds.threshold_scan":
        tracer.counts["thresholds.hosts"] += len(results)


def install_tracing(tracer):
    """Wrap each layer's public functions wherever hfactor modules bind them.

    A function imported by value (``from .host import sample_gnp``) is
    replaced in the importing module too.  ``FactorCounter`` and
    ``HostGraph`` methods are wrapped on the class, which every importer
    shares.
    """
    from hfactor import cli, embed, entropy, factor, host, parallel, pattern
    from hfactor import polynomial, process, thresholds

    functions = [
        (host, "sample_gnp", "host.sample_gnp", _count_edges),
        (host, "sample_gnm", "host.sample_gnm", _count_edges),
        (host, "random_ordering", "host.random_ordering", None),
        (factor, "has_factor", "factor.has_factor", _count_true),
        (embed, "role_images", "embed.role_images", None),
        (thresholds, "threshold_scan", "thresholds.threshold_scan", None),
        (thresholds, "coverage_check", "thresholds.coverage_check", None),
        (thresholds, "role_coverage_check", "thresholds.role_coverage_check", None),
        (process, "run_process", "process.run_process", _count_steps),
        (process, "verify_martingale_step", "process.verify_martingale_step", None),
        (entropy, "shearer_check", "entropy.shearer_check", None),
        (polynomial, "derivative_profile", "polynomial.derivative_profile", None),
        (parallel, "run_trials", "parallel.run_trials", _count_payloads),
        (pattern, "parse_pattern", "pattern.parse_pattern", None),
        (cli, "config_from_args", "cli.config", None),
        (cli, "run", "cli.run", None),
    ]
    modules = [m for name, m in sys.modules.items()
               if name == "hfactor" or name.startswith("hfactor.")]
    for module, attr, name, after in functions:
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    counter = factor.FactorCounter
    methods = [
        (host.HostGraph, "without_edge", "host.without_edge", None),
        (counter, "__init__", "factor.counter_build", _count_blocks),
        (counter, "count", "factor.count", None),
        (counter, "copies_per_edge_max", "factor.copies_per_edge_max", None),
        (counter, "copy_vertex_degrees", "factor.copy_vertex_degrees", None),
        (counter, "count_using_edge", "factor.count_using_edge", None),
    ]
    for cls, attr, name, after in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))
    counter.exists = tracer.wrap_outermost("factor.exists", counter.exists)

    class CountedPool(parallel.ProcessPoolExecutor):
        def __exit__(self, exc_type, exc, tb):
            suppressed = super().__exit__(exc_type, exc, tb)
            if exc_type is None:
                tracer.counts["parallel.pool_runs"] += 1
            return suppressed

    parallel.ProcessPoolExecutor = CountedPool


def main(argv):
    report_path, trace, sep, cli_argv = argv[0], argv[1] == "1", argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE -- COMMAND [FLAGS...]")
    sys.path.insert(0, SRC)
    from hfactor import cli, pattern

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hfactor was imported from {cli.__file__}, not {SRC}")
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracing(tracer)

    marks = {}
    parse = pattern.parse_pattern

    def parse_and_mark(text):
        parsed = parse(text)
        marks.setdefault("setup_end", time.monotonic())
        return parsed

    pattern.parse_pattern = parse_and_mark
    code = cli.main(cli_argv)
    sys.stdout.flush()
    marks["end"] = time.monotonic()
    marks["maxrss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        marks["spans"] = tracer.spans
        marks["counts"] = dict(tracer.counts)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
