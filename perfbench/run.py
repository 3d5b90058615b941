"""Benchmark of the hfactor CLI: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload scan-k2 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``, nothing
is installed or built.  A workload is a fixed list of ``hfactor`` commands,
every one with ``--workers`` pinned.  One repetition runs each command in a
fresh interpreter (``child.py``) and checks its output.  Repetitions run back
to back, one at a time (a closed loop with one client), until ``--seconds``
would be exceeded (at least three).

The first repetitions run the recorded reference seeds and compare the
SHA-256 of every output with ``digests.json`` (``models-k2`` runs with 2
workers against the 1-worker digest).  Later repetitions draw their CLI
seeds from ``--seed`` and are checked semantically.  A repetition fails on a
nonzero exit code, a digest mismatch or a failed check.

``--trace 0`` reports, as medians over repetitions, the end-to-end metrics:
``wall_s`` (first experiment call to last output byte), ``cpu_s`` (process
plus reaped workers), ``peak_rss_mb`` and ``setup_s`` (spawn to the first
experiment call), each summed over the commands of a repetition, except
``peak_rss_mb``, their maximum.

``--trace 1`` alternates an untraced and a traced repetition of one
seed-derived input and reports the per-layer metrics, derived from the spans
the traced children write out (see ``child.py``), plus the tracing overhead
(median traced minus median untraced ``wall_s``).  Trials in pool workers
are not traced, so for ``models-k2`` (2 workers) the ``host.*`` and
``factor.*`` figures come from an extra traced pass at ``--workers 1``.

Metric names and units are those of ``BENCHMARK.json``.  Stdout ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the machine and the sample counts.

``--record-digests`` rewrites ``digests.json`` from the current code; do that
only when the outputs are meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = BENCH / ".out"
DIGESTS = BENCH / "digests.json"
K2 = "perfbench/patterns/k2.txt"
K3 = "perfbench/patterns/k3.txt"

MIN_REPS = {False: 3, True: 2}
HARD_LIMIT_S = 150.0  # no repetition starts that could end past this
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

TIME_UNITS = {"s", "ms", "s/step"}  # per-layer metrics that are medians, not exact counts
TRACE_HEADER = ("i,edge,xi_num,xi_den,gamma_num,gamma_den,z,x_partial,"
                "log_factor_count,margin,guard_state")


def _scan_k2(s: int, workers: int = 1) -> list[list[str]]:
    return [["scan", "--pattern", K2, "--n-list", "12,16,20", "--property", "factor",
             "--trials", "50", "--seed", str(s), "--workers", str(workers)]]


def _trace_k3(s: int, workers: int = 1) -> list[list[str]]:
    return [["trace", "--pattern", K3, "--n", "15", "--seed", str(s),
             "--format", "csv", "--workers", str(workers)]]


def _models_k2(s: int, workers: int = 2) -> list[list[str]]:
    return [["models", "--pattern", K2, "--n", "12", "--p", "0.35", "--trials", "5000",
             "--seed", str(s), "--workers", str(workers)]]


def _exact_battery(s: int, workers: int = 1) -> list[list[str]]:
    w = ["--workers", str(workers)]
    hosts = ["--n", "15", "--p", "0.9", "--trials", "20", "--seed", str(s)]
    return [
        ["count", "--pattern", K2, "--n", "24", "--p", "0.9", "--seed", str(s), *w],
        ["count", "--pattern", K3, "--n", "15", "--p", "0.9", "--seed", str(s), *w],
        ["martingale-check", "--pattern", K3, *hosts, *w],
        ["shearer", "--pattern", K3, *hosts, *w],
        ["poly", "--pattern", K3, "--n", "60", "--p", "0.1", "--mode", "profile", *w],
    ]


WORKLOADS = {
    "scan-k2": _scan_k2,
    "trace-k3": _trace_k3,
    "models-k2": _models_k2,
    "exact-battery": _exact_battery,
}
# CLI seeds of the first repetitions, whose output digests are recorded; a
# trace is one repetition, so trace-k3 records three
REFERENCE_SEEDS = {"scan-k2": (1,), "trace-k3": (1, 2, 3), "models-k2": (1,),
                   "exact-battery": (1,)}


def _check_scan(d):
    return len(d) == 3 and all(e["chain_violations"] == 0 for e in d)


def _check_models(d):
    return d["trials"] == 5000 and 0 <= d["pr_gnp"] <= 1 and 0 <= d["pr_gnm"] <= 1


# semantic checks on the parsed JSON output, by command
CHECKS = {
    "scan": _check_scan,
    "models": _check_models,
    "count": lambda d: d["labeled"] >= d["unlabeled"] >= 0,
    "martingale-check": lambda d: d["all_equal"] is True and d["trials"] == 20
    and all(c["equal"] for c in d["cases"]),
    "shearer": lambda d: d["trials"] == 20 and d["min_slack"] >= -1e-9,
    "poly": lambda d: d["degree"] == 3,
}


def check_output(argv: list[str], out: bytes) -> str | None:
    """None if the command's output passes its semantic check, else why not."""
    text = out.decode("utf-8")
    if argv[0] == "trace":
        lines = text.splitlines()
        steps = [int(line.split(",", 1)[0]) for line in lines[1:]]
        if not lines or lines[0] != TRACE_HEADER or steps != list(range(1, len(steps) + 1)):
            return "trace CSV is malformed"
        return None
    try:
        ok = CHECKS[argv[0]](json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return f"{argv[0]} output unreadable: {exc!r}"
    return None if ok else f"{argv[0]} output failed its check"


def digest_key(argv: list[str]) -> str:
    """The command without its worker count, which must not change the bytes."""
    i = argv.index("--workers")
    return " ".join(argv[:i] + argv[i + 2:])


def worker_count(argv: list[str]) -> int:
    return int(argv[argv.index("--workers") + 1])


@dataclass
class CommandRun:
    argv: list[str]
    code: int
    out: bytes
    err: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


@dataclass
class Rep:
    runs: list[CommandRun]
    error: str | None

    def total(self, attr: str) -> float:
        return sum(getattr(r, attr) for r in self.runs)

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": self.total("wall_s"),
            "cpu_s": self.total("cpu_s"),
            "peak_rss_mb": max(r.rss_mb for r in self.runs),
            "setup_s": self.total("setup_s"),
        }


def run_command(argv: list[str], trace: bool, report: Path, deadline: float) -> CommandRun:
    """Run one CLI command in a fresh interpreter; time it from this side."""
    report.unlink(missing_ok=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(report), "1" if trace else "0", "--", *argv],
            cwd=ROOT, env=CHILD_ENV, capture_output=True,
            timeout=max(1.0, deadline - spawn),
        )
    except subprocess.TimeoutExpired:
        return CommandRun(argv, -1, b"", "timed out")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = CommandRun(argv, proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace"))
    if proc.returncode != 0 or not report.exists():
        return run
    marks = json.loads(report.read_text(encoding="utf-8"))
    if "setup_end" not in marks:
        run.code = -1
        run.err += "no pattern was parsed"
        return run
    run.setup_s = marks["setup_end"] - spawn
    run.wall_s = marks["end"] - marks["setup_end"]
    run.cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    run.rss_mb = marks["maxrss_kb"] / 1024.0
    run.spans = marks.get("spans", [])
    run.counts = marks.get("counts", {})
    return run


def run_rep(name: str, commands: list[list[str]], trace: bool, deadline: float,
            digests: dict[str, str] | None = None) -> Rep:
    """Run one repetition and check it; with digests, also compare bytes."""
    runs = []
    for i, argv in enumerate(commands):
        run = run_command(argv, trace, OUT / f"{name}-{i}{'-traced' if trace else ''}.json",
                          deadline)
        runs.append(run)
        if run.code != 0:
            return Rep(runs, f"exit {run.code} from {' '.join(argv)}: {run.err.strip()[-300:]}")
        error = check_output(argv, run.out)
        if error is None and digests is not None:
            expected = digests.get(digest_key(argv))
            if hashlib.sha256(run.out).hexdigest() != expected:
                error = f"output digest differs from the recorded one: {digest_key(argv)}"
        if error is not None:
            return Rep(runs, error)
    return Rep(runs, None)


def warm_up() -> None:
    """Byte-compile and load the package once, so no repetition pays for it.

    A failure here shows up again, and is counted, in the first repetition.
    """
    subprocess.run([sys.executable, "-c", "import hfactor.cli"], cwd=ROOT,
                   env=dict(CHILD_ENV, PYTHONPATH=str(ROOT / "src")),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)


def _keep_going(started: float, durations: list[float], seconds: float, minimum: int) -> bool:
    elapsed = time.monotonic() - started
    longest = max(durations)
    if elapsed + longest > HARD_LIMIT_S:
        return False
    return len(durations) < minimum or elapsed + longest <= seconds


# ---------------------------------------------------------------- end to end

def measure(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Untraced repetitions: per-metric samples, attempted, failed, errors."""
    commands = WORKLOADS[name]
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, {})
    reference = REFERENCE_SEEDS[name]
    rng = random.Random(seed)
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    samples: dict[str, list[float]] = {}
    errors, durations = [], []
    while not durations or _keep_going(started, durations, seconds, MIN_REPS[False]):
        t = time.monotonic()
        if len(durations) < len(reference):
            rep = run_rep(name, commands(reference[len(durations)]), False, deadline, digests)
        else:
            rep = run_rep(name, commands(rng.randrange(1, 2**31)), False, deadline)
        durations.append(time.monotonic() - t)
        if rep.error is not None:
            errors.append(rep.error)
            continue
        for key, value in rep.end_to_end().items():
            samples.setdefault(key, []).append(value)
    return samples, len(durations), len(errors), errors


# ----------------------------------------------------------------- per layer

def span_stats(spans: list) -> dict[str, dict]:
    """calls, inclusive and self seconds and per-call durations, by span name.

    Self time is a span's duration minus the durations of its direct
    children; spans nest because the traced program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durs": []})
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += end - start - child_time[i]
        s["durs"].append(end - start)
    return stats


def _merge(runs: list[CommandRun]) -> tuple[dict[str, dict], Counter]:
    stats: dict[str, dict] = {}
    counts: Counter = Counter()
    for run in runs:
        counts.update(run.counts)
        for name, s in span_stats(run.spans).items():
            acc = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durs": []})
            for key in ("calls", "total", "self", "durs"):
                acc[key] += s[key]
    return stats, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(runs: list[CommandRun]) -> dict[str, float]:
    """Every per-layer metric (except the tracing overhead) of one traced pass."""
    stats, counts = _merge(runs)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "durs": []}

    def get(span: str, key: str):
        return stats.get(span, empty)[key]

    def p90_ms(span: str) -> float:
        durs = get(span, "durs")
        if len(durs) < 2:
            return 1000.0 * sum(durs)
        return 1000.0 * statistics.quantiles(durs, n=10)[-1]

    metrics: dict[str, float] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = get(name, "self")
    for name in P90_SPANS:
        metrics[f"{name}.p90_ms"] = p90_ms(name)
    hosts = counts["thresholds.hosts"]
    metrics.update({
        "host.edges_sampled": counts["host.edges_sampled"],
        "factor.blocks": counts["factor.blocks"],
        "factor.has_factor.true_ratio": _ratio(counts["factor.has_factor.true"],
                                               get("factor.has_factor", "calls")),
        "thresholds.hosts": hosts,
        "thresholds.has_factor_per_host": _ratio(get("factor.has_factor", "calls"), hosts),
        "thresholds.role_images_per_host": _ratio(get("embed.role_images", "calls"), hosts),
        "process.steps": counts["process.steps"],
        "process.s_per_step": _ratio(get("process.run_process", "total"),
                                     counts["process.steps"]),
        "parallel.payloads": counts["parallel.payloads"],
        "parallel.pool_runs": counts["parallel.pool_runs"],
        "parallel.fallbacks": counts["parallel.pool_expected"] - counts["parallel.pool_runs"],
        "cli.config_s": get("cli.config", "total"),
        "cli.emit_s": get("cli.run", "self"),
        "cli.output_bytes": sum(len(r.out) for r in runs),
    })
    return metrics


# spans measured with .calls and .self_s; BENCHMARK.json picks which to report
LAYER_SPANS = (
    "host.sample_gnp", "host.sample_gnm", "host.without_edge", "host.random_ordering",
    "factor.counter_build", "factor.count", "factor.exists", "factor.has_factor",
    "factor.copies_per_edge_max", "factor.copy_vertex_degrees", "factor.count_using_edge",
    "embed.role_images", "thresholds.threshold_scan", "thresholds.coverage_check",
    "thresholds.role_coverage_check", "process.run_process",
    "process.verify_martingale_step", "entropy.shearer_check",
    "polynomial.derivative_profile", "parallel.run_trials", "pattern.parse_pattern",
)
P90_SPANS = ("host.sample_gnp", "embed.role_images")
# with more than one worker the trials run in untraced pool workers, so these
# layers come from a second traced pass at one worker
ONE_WORKER_LAYERS = ("host.", "factor.")


def reconcile(name: str, runs: list[CommandRun]) -> list[str]:
    """Exact checks that the wrappers saw every call, against the outputs."""
    stats, counts = _merge(runs)
    calls = {span: s["calls"] for span, s in stats.items()}
    errors = []

    def expect(label: str, got: int, want: int) -> None:
        if got != want:
            errors.append(f"{name}: {label} is {got}, expected {want}")

    if name == "scan-k2":
        estimates = json.loads(runs[0].out)
        hosts = sum(len(e["probes"]) * e["trials_per_probe"] for e in estimates)
        expect("host.sample_gnp.calls", calls.get("host.sample_gnp", 0), hosts)
        expect("thresholds.hosts", counts["thresholds.hosts"], hosts)
    elif name == "trace-k3":
        for run in runs:
            steps = len(run.out.decode("utf-8").splitlines()) - 1
            builds = sum(1 for span in run.spans if span[0] == "factor.counter_build")
            expect("process.steps", run.counts.get("process.steps", 0), steps)
            expect("factor.counter_build.calls", builds, steps + 1)
    elif name == "exact-battery":
        cases = json.loads(next(r.out for r in runs if r.argv[0] == "martingale-check"))
        edges = sum(case["edges"] for case in cases["cases"])
        expect("factor.count_using_edge.calls", calls.get("factor.count_using_edge", 0), edges)
    elif name == "models-k2":
        trials = json.loads(runs[0].out)["trials"]
        expect("parallel.payloads", counts["parallel.payloads"], 2 * trials)
        if worker_count(runs[0].argv) == 1:
            for span in ("host.sample_gnp", "host.sample_gnm"):
                expect(f"{span}.calls", calls.get(span, 0), trials)
            expect("factor.has_factor.calls", calls.get("factor.has_factor", 0), 2 * trials)
    return errors


def measure_layers(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Alternate untraced and traced repetitions of one seed-derived input."""
    s = random.Random(seed).randrange(1, 2**31)
    commands = WORKLOADS[name]
    pooled = any(worker_count(argv) > 1 for argv in commands(s))
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    passes, plain_wall, traced_wall, errors, durations = [], [], [], [], []
    while not durations or _keep_going(started, durations, seconds, MIN_REPS[True]):
        t = time.monotonic()
        plain = run_rep(name, commands(s), False, deadline)
        traced = run_rep(name, commands(s), True, deadline)
        reps = [plain, traced]
        if pooled:
            reps.append(run_rep(name, commands(s, workers=1), True, deadline))
        durations.append(time.monotonic() - t)
        error = next((r.error for r in reps if r.error is not None), None)
        if error is None and any([r.out for r in rep.runs] != [r.out for r in plain.runs]
                                 for rep in reps):
            error = "tracing or the worker count changed the output bytes"
        if error is None:
            found = [e for rep in reps[1:] for e in reconcile(name, rep.runs)]
            error = "; ".join(found) or None
        if error is not None:
            errors.append(error)
            continue
        metrics = layer_metrics(traced.runs)
        if pooled:
            one_worker = layer_metrics(reps[2].runs)
            metrics.update({k: v for k, v in one_worker.items()
                            if k.startswith(ONE_WORKER_LAYERS)})
        passes.append(metrics)
        plain_wall.append(plain.total("wall_s"))
        traced_wall.append(traced.total("wall_s"))
    failed = len(errors)
    if not passes:
        return {}, len(durations), failed, errors
    samples = {}
    for key, unit in declared_metrics()["per_layer"].items():
        if key == "trace.overhead_s":
            samples[key] = [statistics.median(traced_wall) - statistics.median(plain_wall)]
            print(f"{name}: wall_s per pass untraced {_fmt(plain_wall)}, "
                  f"traced {_fmt(traced_wall)}", file=sys.stderr)
            continue
        values = [p[key] for p in passes]
        if unit in TIME_UNITS:
            samples[key] = values
        elif len(set(values)) == 1:
            samples[key] = values[:1]
        else:
            errors.append(f"{key} differs between traced passes of one input: {values}")
            samples[key] = values
    return samples, len(durations), failed, errors


# ------------------------------------------------------------------- report

def _fmt(values: list[float]) -> str:
    return " ".join(format(v, ".4g") for v in values)


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine() -> dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "git_commit": git_commit()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    units = declared_metrics()[kind]
    measure_fn = measure_layers if trace else measure
    samples, attempted, failed, errors = measure_fn(name, seed, seconds)
    metrics = {key: {"value": statistics.median(samples[key]) if samples else 0.0,
                     "unit": unit} for key, unit in units.items()}
    for error in errors:
        print(f"{name}: FAILED: {error}", file=sys.stderr)
    if trace and any(worker_count(argv) > 1 for argv in WORKLOADS[name](1)):
        print(f"{name}: {', '.join(p + '*' for p in ONE_WORKER_LAYERS)} are from the "
              "traced pass at --workers 1; the rest from the pass at --workers 2",
              file=sys.stderr)
    for key in units if samples else ():
        values = samples[key]
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{name}: {key} median {statistics.median(values):.6g} {units[key]} "
              f"(q1 {quartiles[0]:.6g}, q3 {quartiles[2]:.6g}, n={len(values)}: "
              f"{_fmt(values)})", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record_digests() -> None:
    """Write the reference outputs' SHA-256, all at one worker."""
    OUT.mkdir(exist_ok=True)
    table = {}
    for name, commands in WORKLOADS.items():
        table[name] = {}
        for seed in REFERENCE_SEEDS[name]:
            rep = run_rep(name, commands(seed, workers=1), False,
                          time.monotonic() + HARD_LIMIT_S)
            if rep.error is not None:
                raise SystemExit(f"{name}: {rep.error}")
            table[name].update({digest_key(r.argv): hashlib.sha256(r.out).hexdigest()
                                for r in rep.runs})
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hfactor" / "cli.py").is_file():
        print(f"error: no hfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    warm_up()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        info = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "fail_ratio": result["failed"] / result["attempted"],
                "machine": machine()}
        print(json.dumps(info))
        if args.workload == "all":
            print(json.dumps({"workload": name, **result}))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
