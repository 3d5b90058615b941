"""Command-line harness: one subcommand per experiment, seeded and file-backed.

Reports are written as JSON (default) or CSV.  Identical configs, seed
included, produce byte-identical output bodies.  Exit codes: 0 success, 1
invalid input, 2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, is_dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

from . import pattern
from .errors import InputError, InvariantError

# The other layers (embed, entropy, factor, host, polynomial, process, rng,
# thresholds) become globals of this module when run() imports the ones a
# command names in _COMMANDS, so a command loads only the layers it runs.


def _fmt_float(x: float) -> str:
    if x != x:
        return "nan"
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return format(x, ".17g")


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, float):
        if obj in (math.inf, -math.inf) or obj != obj:
            return _fmt_float(obj)
        return obj
    return obj


def _emit(report, cfg: argparse.Namespace, csv_rows=None, csv_header=None) -> None:
    """JSON dump, or module CSV when a schema is given, else flat key CSV."""
    if cfg.format == "json":
        text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        if csv_rows is None:
            csv_header, csv_rows = ["key", "value"], _flatten(_jsonable(report))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    if cfg.out is not None:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        key = prefix[:-1] if prefix.endswith(".") else prefix
        if isinstance(obj, float):
            obj = _fmt_float(obj)
        yield key, obj


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def _load_pattern(cfg: argparse.Namespace) -> pattern.PatternGraph:
    return pattern.parse_pattern(_read_text(_need(cfg, "pattern")))


def _load_host(cfg: argparse.Namespace) -> host.HostGraph:
    g = host.parse_host(_read_text(_need(cfg, "host")))
    if cfg.n is not None and cfg.n != g.n:
        raise InputError(f"--n {cfg.n} does not match the {g.n} vertices of --host")
    return g


def _need(cfg: argparse.Namespace, name: str):
    value = getattr(cfg, name)
    if value is None:
        raise InputError(f"this command needs --{name.replace('_', '-')}")
    return value


def _cmd_analyze(cfg: argparse.Namespace) -> None:
    p = _load_pattern(cfg)
    prof = pattern.density_profile(p)
    report = {
        "k": p.k,
        "v": p.v,
        "m": p.m,
        "density": prof.density,
        "max_density": prof.max_density,
        "per_vertex": {
            str(x): {"local_max_density": loc, "fewest_edges": few}
            for x, (loc, few) in prof.per_vertex.items()
        },
        "critical_edge_count": prof.critical_edge_count,
        "balance": prof.balance,
        "automorphism_count": embed.automorphism_count(p),
    }
    _emit(report, cfg)


def _cmd_count(cfg: argparse.Namespace) -> None:
    if sum(x is not None for x in (cfg.host, cfg.p, cfg.M)) > 1:
        raise InputError("count takes only one of --host, --p and --M")
    p = _load_pattern(cfg)
    if cfg.host is not None:
        g = _load_host(cfg)
        source = {"host": cfg.host}
    elif cfg.n is not None and cfg.p is not None:
        g = host.sample_gnp(p.k, cfg.n, cfg.p, cfg.seed)
        source = {"model": "gnp", "n": cfg.n, "p": cfg.p, "seed": cfg.seed}
    elif cfg.n is not None and cfg.M is not None:
        g = host.sample_gnm(p.k, cfg.n, cfg.M, cfg.seed)
        source = {"model": "gnm", "n": cfg.n, "M": cfg.M, "seed": cfg.seed}
    elif cfg.n is not None:
        counts = factor.complete_graph_count(p, cfg.n)
        _emit({"source": {"model": "complete", "n": cfg.n},
               "labeled": counts.labeled, "unlabeled": counts.unlabeled}, cfg)
        return
    else:
        raise InputError("count needs --host, or --n with optional --p/--M")
    counts = factor.count_factors(p, g)
    _emit({"source": source, "labeled": counts.labeled, "unlabeled": counts.unlabeled}, cfg)


def _cmd_scan(cfg: argparse.Namespace) -> None:
    if cfg.n is not None and cfg.n_list is not None:
        raise InputError("scan takes only one of --n and --n-list")
    p = _load_pattern(cfg)
    n_list = cfg.n_list if cfg.n is None else (cfg.n,)
    if not n_list:
        raise InputError("scan needs --n-list or --n")
    estimates = thresholds.threshold_scan(
        p, list(n_list), cfg.trials, target=cfg.target, seed=cfg.seed,
        property_name=cfg.property, workers=cfg.workers,
    )
    header = ["n", "p_half", "ci_low", "ci_high", "formula_value", "ratio",
              "trials", "seed", "property"]
    rows = [
        [e.n, _fmt_float(e.p_half), _fmt_float(e.ci_low), _fmt_float(e.ci_high),
         _fmt_float(e.formula_value), _fmt_float(e.ratio), e.trials_per_probe,
         e.seed, e.property_name]
        for e in estimates
    ]
    _emit(estimates, cfg, csv_rows=rows, csv_header=header)


def _cmd_trace(cfg: argparse.Namespace) -> None:
    p = _load_pattern(cfg)
    trace = process.run_process(
        p, _need(cfg, "n"), cfg.seed, t_max=cfg.t_max,
        b_level=cfg.b_level, reg_eps=cfg.eps,
    )
    header = ["i", "edge", "xi_num", "xi_den", "gamma_num", "gamma_den", "z",
              "x_partial", "log_factor_count", "margin", "guard_state"]
    rows = [
        [s.i, "-".join(map(str, s.edge)), s.xi.numerator, s.xi.denominator,
         s.gamma.numerator, s.gamma.denominator,
         f"{s.z.numerator}/{s.z.denominator}",
         f"{s.x_partial.numerator}/{s.x_partial.denominator}",
         _fmt_float(s.log_factor_count), _fmt_float(s.margin),
         "ok" if s.guard_ok else "tripped"]
        for s in trace.steps
    ]
    _emit(trace, cfg, csv_rows=rows, csv_header=header)


def _battery_hosts(p, cfg: argparse.Namespace):
    """Random hosts with at least one factor, resampled up to a fixed budget."""
    n = _need(cfg, "n")
    if cfg.trials < 1:
        raise InputError("need at least one trial")
    prob = cfg.p if cfg.p is not None else 0.7
    hosts = []
    attempt = 0
    while len(hosts) < cfg.trials and attempt < 200 * cfg.trials:
        g = host.sample_gnp(p.k, n, prob, rng.derive_seed(cfg.seed, attempt))
        attempt += 1
        if factor.has_factor(p, g):
            hosts.append(g)
    if len(hosts) < cfg.trials:
        raise InputError(
            f"could not find {cfg.trials} hosts with factors at n={n}, p={prob}"
        )
    return hosts


def _cmd_martingale_check(cfg: argparse.Namespace) -> None:
    p = _load_pattern(cfg)
    rows = []
    for g in _battery_hosts(p, cfg):
        left, right = process.verify_martingale_step(p, g)
        if left != right:
            raise InvariantError(f"conditional-mean identity failed: {left} != {right}")
        rows.append({"edges": g.m, "average": left, "expected": right, "equal": True})
    _emit({"n": cfg.n, "trials": len(rows), "all_equal": True, "cases": rows}, cfg)


def _cmd_shearer(cfg: argparse.Namespace) -> None:
    p = _load_pattern(cfg)
    rows = []
    for g in _battery_hosts(p, cfg):
        rep = entropy.shearer_check(p, g)
        rows.append({k: rep[k] for k in ("log_factor_count", "entropy_bound", "slack")})
    _emit({"n": cfg.n, "trials": len(rows),
           "min_slack": min(r["slack"] for r in rows), "cases": rows}, cfg)


def _read_weight_csv(path: str) -> list[tuple[tuple[str, ...], float]]:
    rows = []
    for rec in csv.reader(io.StringIO(_read_text(path), newline="")):
        if not rec or rec[0].startswith("#"):
            continue
        try:
            rows.append((tuple(rec[:-1]), float(rec[-1])))
        except ValueError:
            raise InputError(f"weight {rec[-1]!r} in {path} is not a number") from None
    if not rows:
        raise InputError(f"no weight rows in {path}")
    return rows


def _cmd_window(cfg: argparse.Namespace) -> None:
    rows = _read_weight_csv(_need(cfg, "weights"))
    family = entropy.WeightedFamily(
        ids=tuple("-".join(key) for key, _ in rows),
        weights=tuple(w for _, w in rows),
    )
    _emit(entropy.entropy_window(family), cfg)


def _cmd_weight_lemma(cfg: argparse.Namespace) -> None:
    n, v, path = _need(cfg, "n"), _need(cfg, "v"), _need(cfg, "weights")
    rows = _read_weight_csv(path)
    try:
        weights = {tuple(int(t) for t in key): w for key, w in rows}
    except ValueError:
        raise InputError(f"vertex ids in {path} must be integers") from None
    _emit(entropy.weight_lemma_check(n, v, weights, cfg.B), cfg)


def _poly_from_config(cfg: argparse.Namespace, p) -> polynomial.CopyPolynomial:
    anchor = None
    if cfg.anchor_role is not None or cfg.anchor_vertex is not None:
        if cfg.anchor_role is None or cfg.anchor_vertex is None:
            raise InputError("anchoring needs both --anchor-role and --anchor-vertex")
        anchor = embed.ConstraintSpec(
            ((cfg.anchor_role, cfg.anchor_vertex),), p.edges
        )
    return polynomial.CopyPolynomial(
        pattern=p, n=_need(cfg, "n"), anchor=anchor, collapse=cfg.collapse
    )


def _cmd_poly(cfg: argparse.Namespace) -> None:
    p = _load_pattern(cfg)
    f = _poly_from_config(cfg, p)
    prob = _need(cfg, "p")
    if cfg.mode == "profile":
        _emit(polynomial.derivative_profile(f, prob), cfg)
    elif cfg.mode == "check":
        _emit(polynomial.hypothesis_check(f, prob, cfg.eps, cfg.theorem), cfg)
    else:  # trial
        _emit(
            polynomial.concentration_trial(
                f, prob, cfg.trials, cfg.eps, cfg.seed, workers=cfg.workers
            ),
            cfg,
        )


def _cmd_models(cfg: argparse.Namespace) -> None:
    p = _load_pattern(cfg)
    _emit(
        thresholds.compare_models(
            p, _need(cfg, "n"), _need(cfg, "p"), cfg.trials, cfg.seed,
            sweep=cfg.sweep, workers=cfg.workers,
        ),
        cfg,
    )


def _cmd_regularity(cfg: argparse.Namespace) -> None:
    p = _load_pattern(cfg)
    if cfg.host is not None:
        g = _load_host(cfg)
    else:
        g = host.sample_gnp(p.k, _need(cfg, "n"), _need(cfg, "p"), cfg.seed)
    _emit(
        polynomial.regularity_report(p, g, _need(cfg, "p"), cfg.eps, cfg.beta, seed=cfg.seed),
        cfg,
    )


# each command's handler and the layers it calls, which run() imports before
# the handler reads its pattern
_COMMANDS = {
    "analyze": (_cmd_analyze, ("embed",)),
    "count": (_cmd_count, ("host", "factor")),
    "scan": (_cmd_scan, ("thresholds",)),
    "trace": (_cmd_trace, ("process",)),
    "martingale-check": (_cmd_martingale_check, ("host", "factor", "process", "rng")),
    "shearer": (_cmd_shearer, ("host", "factor", "entropy", "rng")),
    "window": (_cmd_window, ("entropy",)),
    "weight-lemma": (_cmd_weight_lemma, ("entropy",)),
    "poly": (_cmd_poly, ("embed", "polynomial")),
    "models": (_cmd_models, ("thresholds",)),
    "regularity": (_cmd_regularity, ("host", "polynomial")),
}


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        raise InputError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _path(text: str) -> str:
    # an empty path would name the current directory
    if not text:
        raise argparse.ArgumentTypeError("needs a path, got an empty string")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hfactor",
        description="Pattern-factor counting, deletion traces, and threshold experiments.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", type=_path, help="JSON file whose keys are flag names; flags win")
    parser.add_argument("--pattern", type=_path)
    parser.add_argument("--host", type=_path)
    parser.add_argument("--weights", type=_path)
    parser.add_argument("--n", type=int)
    parser.add_argument("--n-list", type=_int_list, help="comma-separated host sizes")
    parser.add_argument("--p", type=float)
    parser.add_argument("--M", type=int)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t-max", type=int)
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument("--beta", type=float, default=10.0)
    parser.add_argument("--B", type=float, default=1.0)
    parser.add_argument("--v", type=int)
    parser.add_argument("--target", type=float, default=0.5)
    # the scan and the hypothesis check reject an unknown property or theorem
    parser.add_argument("--property", default="factor")
    parser.add_argument("--mode", choices=["profile", "check", "trial"], default="profile")
    parser.add_argument("--theorem", default="relative-low-order")
    parser.add_argument("--collapse", action="store_true")
    parser.add_argument("--anchor-role", type=int)
    parser.add_argument("--anchor-vertex", type=int)
    parser.add_argument("--b-level", type=float, default=10.0)
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--workers", type=int, default=max(1, os.cpu_count() or 1))
    parser.add_argument("--out", type=_path)
    parser.add_argument("--format", choices=["csv", "json"], default="json")
    return parser


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The config file's keys as flags: ``--key=value``, lists comma-joined, true bare."""
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError("config file must hold a JSON object")
    known = set(parser._option_string_actions) - {"--config", "-h", "--help"}
    flags = []
    for key, value in raw.items():
        flag = "--" + key.replace("_", "-")
        # the command is positional only, so a file cannot replace it
        if flag not in known:
            raise InputError(f"unknown config key {key!r}")
        if value is True:
            flags.append(flag)
        elif isinstance(value, list):
            flags.append(f"{flag}={','.join(map(str, value))}")
        else:
            flags.append(f"{flag}={value}")
    return flags


def config_from_args(argv) -> argparse.Namespace:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.config is not None:
        # file values come first, so the command line's flags win
        cfg = parser.parse_args(_config_flags(parser, cfg.config) + list(argv))
    if cfg.workers < 1:
        raise InputError("workers must be at least 1")
    return cfg


def run(cfg: argparse.Namespace) -> int:
    handler, layers = _COMMANDS[cfg.command]
    for name in layers:
        globals()[name] = importlib.import_module(f".{name}", __package__)
    handler(cfg)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = config_from_args(argv)
        return run(cfg)
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
