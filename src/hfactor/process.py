"""The edge-deletion process: delete a random ordering of edges from the
complete host and track how the factor count decays.

Per step i the trace records the fraction xi of surviving factors destroyed
by the i-th deletion, its exact conditional mean gamma_i, the centered
increment z (zeroed once a guard trips), the partial sum x_partial, the log
factor count and the margin against the pure-gamma prediction.  Everything
except the logs is exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .embed import expected_copy_degree
from .errors import InputError, InvariantError
from .factor import FactorCounter, check_cap, edge_fraction
from .host import HostGraph, complete_host, random_ordering, total_edges
from .parallel import run_trials
from .pattern import PatternGraph, check_divisible
from .rng import derive_seed


@dataclass(frozen=True)
class ProcessStep:
    i: int
    edge: tuple[int, ...]
    xi: Fraction
    gamma: Fraction
    z: Fraction
    x_partial: Fraction
    log_factor_count: float
    margin: float
    guard_ok: bool
    # statistics of the pre-deletion graph, for the per-step copy bound:
    # xi <= prev_maxr * max_copies_per_edge / min_copy_degree holds exactly
    max_copies_per_edge: int
    min_copy_degree: int
    prev_maxr: Fraction | None


@dataclass
class ProcessTrace:
    pattern: PatternGraph
    n: int
    seed: int
    t_max: int | None
    b_level: float
    reg_eps: float
    log_initial: float
    steps: list[ProcessStep] = field(default_factory=list)
    stop_step: int = 0
    stop_reason: str = ""
    guard_trip_step: int | None = None

    def max_abs_partial(self) -> float:
        return max((abs(float(s.x_partial)) for s in self.steps), default=0.0)


def gamma(pattern: PatternGraph, n: int, i: int) -> Fraction:
    """Exact conditional mean of xi_i: (m*n/v) / (#edges - i + 1)."""
    check_divisible(pattern, n)
    total = total_edges(pattern.k, n)
    if not 1 <= i <= total:
        raise InputError(f"step {i} out of range 1..{total}")
    return Fraction(pattern.m * n // pattern.v, total - i + 1)


def _guard_state(
    pattern: PatternGraph, counter: FactorCounter, degs: list[int], p_now: float,
    b_level: float, reg_eps: float,
) -> tuple[bool, Fraction | None]:
    """Finite-threshold stand-ins for the flatness and regularity events.

    Flatness: no copy sits in more than b_level times the average number of
    factors.  Regularity: every per-vertex copy count is within reg_eps
    relative deviation of its independent-edge expectation at the current
    effective density.  Both are evaluated exactly from the shared counter
    and its copy degrees degs.  Returns (both hold, the flatness ratio maxr).
    """
    # flatness of per-copy weights
    weight_sum = 0
    copy_total = 0
    max_weight = 0
    full = counter.full_mask
    for bmask, emb in counter.block_items():
        w = counter.count(full & ~bmask)
        weight_sum += emb * w
        copy_total += emb
        if w > max_weight:
            max_weight = w
    if copy_total == 0 or weight_sum == 0:
        return False, None
    maxr = Fraction(max_weight * copy_total, weight_sum)
    if maxr > b_level:
        return False, maxr
    # degree regularity against the expected copy degree
    expected = expected_copy_degree(pattern, counter.host.n, p_now)
    if expected <= 0:
        return False, maxr
    worst = max(abs(d - expected) for d in degs)
    return worst <= reg_eps * expected, maxr


def run_process(
    pattern: PatternGraph,
    n: int,
    seed: int,
    t_max: int | None = None,
    b_level: float = 10.0,
    reg_eps: float = 0.5,
) -> ProcessTrace:
    """Run one deletion trace from the complete host.

    Stops at t_max when given, at extinction of the factor count, or when
    every edge is gone.  The guard zeroes z from the first step whose
    preceding graphs ever failed the flatness or regularity thresholds.
    """
    check_divisible(pattern, n)
    check_cap(pattern, n)
    if t_max is not None and t_max < 0:
        raise InputError(f"t_max must be nonnegative, got {t_max}")
    ordering = random_ordering(pattern.k, n, seed)
    total = total_edges(pattern.k, n)
    counter = FactorCounter(pattern, complete_host(pattern.k, n))
    phi_prev = counter.count()
    log_initial = math.log(phi_prev)
    trace = ProcessTrace(
        pattern=pattern, n=n, seed=seed, t_max=t_max,
        b_level=b_level, reg_eps=reg_eps, log_initial=log_initial,
    )
    degs = counter.copy_vertex_degrees()
    guard_ok, prev_maxr = _guard_state(pattern, counter, degs, 1.0, b_level, reg_eps)
    if not guard_ok:
        trace.guard_trip_step = 0
    x_partial = Fraction(0)
    gamma_sum = Fraction(0)
    mnv = pattern.m * n // pattern.v

    for i, edge in enumerate(ordering.sequence, start=1):
        if t_max is not None and i > t_max:
            trace.stop_reason = "t_max"
            break
        max_beta = counter.copies_per_edge_max()
        min_degree = min(degs, default=0)
        using = counter.count_using_edge(edge)
        counter = counter.without_edge(edge)
        phi_now = counter.count()
        if phi_now != phi_prev - using:
            raise InvariantError(
                f"step {i}: {phi_now} factors left, expected {phi_prev} - {using} using {edge}"
            )
        xi = Fraction(phi_prev - phi_now, phi_prev)
        gam = Fraction(mnv, total - i + 1)
        gamma_sum += gam
        z = xi - gam if guard_ok else Fraction(0)
        x_partial += z
        log_phi = math.log(phi_now) if phi_now > 0 else -math.inf
        margin = log_phi - (log_initial - float(gamma_sum))
        trace.steps.append(
            ProcessStep(
                i=i, edge=edge, xi=xi, gamma=gam, z=z, x_partial=x_partial,
                log_factor_count=log_phi, margin=margin, guard_ok=guard_ok,
                max_copies_per_edge=max_beta, min_copy_degree=min_degree,
                prev_maxr=prev_maxr,
            )
        )
        trace.stop_step = i
        if phi_now == 0:
            trace.stop_reason = "extinct"
            break
        phi_prev = phi_now
        p_now = 1.0 - i / total
        degs = counter.copy_vertex_degrees()
        still_ok, prev_maxr = _guard_state(pattern, counter, degs, p_now, b_level, reg_eps)
        if guard_ok and not still_ok:
            trace.guard_trip_step = i
        guard_ok = guard_ok and still_ok
    else:
        trace.stop_reason = trace.stop_reason or "exhausted"
    return trace


def verify_martingale_step(pattern: PatternGraph, g: HostGraph) -> tuple[Fraction, Fraction]:
    """(average edge fraction over all edges, (m*n/v)/|E|); exactly equal.

    This is the one-step conditional-mean identity with the conditioning
    realized as the current graph.
    """
    counter = FactorCounter(pattern, g)
    total = counter.count()
    if total == 0:
        raise InputError("host has no factor")
    if not g.edges:
        raise InputError("host has no edges")
    acc = Fraction(0)
    for e in g.edges:
        acc += edge_fraction(pattern, g, e, counter=counter)
    return acc / len(g.edges), Fraction(pattern.m * g.n // pattern.v, len(g.edges))


def _tail_worker(payload) -> tuple[float, int]:
    pattern, n, seed, t_max, b_level, reg_eps = payload
    trace = run_process(pattern, n, seed, t_max=t_max, b_level=b_level, reg_eps=reg_eps)
    return trace.max_abs_partial(), trace.stop_step


def tail_experiment(
    pattern: PatternGraph,
    n: int,
    trials: int,
    seed: int,
    lam: float,
    t_max: int | None = None,
    b_level: float = 10.0,
    reg_eps: float = 0.5,
    workers: int = 1,
) -> dict:
    """Empirical tail of max_t |x_partial| over independent traces."""
    if trials < 1:
        raise InputError("need at least one trial")
    payloads = [
        (pattern, n, derive_seed(seed, t), t_max, b_level, reg_eps)
        for t in range(trials)
    ]
    results = run_trials(_tail_worker, payloads, workers)
    maxima = [mx for mx, _ in results]
    stop_steps = [st for _, st in results]
    maxima.sort()
    return {
        "n": n,
        "trials": trials,
        "lambda": lam,
        "max_abs_x": maxima,
        "exceed_fraction": sum(1 for mx in maxima if mx > lam) / trials,
        "mean_stop_step": sum(stop_steps) / trials,
    }
