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

from .embed import degree_deviation, expected_copy_degree
from .errors import InputError, InvariantError, NoFactorError
from .factor import FactorCounter, check_cap, flatness
from .host import HostGraph, complete_host, random_ordering, total_edges
from .pattern import PatternGraph, check_divisible


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
    prev_maxr: Fraction


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


def gamma(pattern: PatternGraph, n: int, i: int) -> Fraction:
    """Exact conditional mean of xi_i: (m*n/v) / (#edges - i + 1)."""
    check_divisible(pattern, n)
    total = total_edges(pattern.k, n)
    if not 1 <= i <= total:
        raise InputError(f"step {i} out of range 1..{total}")
    return Fraction(pattern.m * n // pattern.v, total - i + 1)


def _guard_state(
    counter: FactorCounter, degs: list[int], p_now: float, b_level: float, reg_eps: float,
) -> tuple[bool, Fraction]:
    """Finite-threshold stand-ins for the flatness and regularity events.

    Flatness: no copy sits in more than b_level times the average number of
    factors.  Regularity: every per-vertex copy count is within reg_eps
    relative deviation of its independent-edge expectation at the current
    effective density.  Both are evaluated exactly from the shared counter,
    whose host has a factor (so some copy degree is positive), and its copy
    degrees degs.  Returns (both hold, the flatness ratio maxr).
    """
    maxr = flatness(counter)
    if maxr > b_level:
        return False, maxr
    expected = expected_copy_degree(counter.pattern, counter.host.n, p_now)
    return degree_deviation(degs, expected, reg_eps)[1], maxr


def run_process(
    pattern: PatternGraph,
    n: int,
    seed: int,
    t_max: int | None = None,
    b_level: float = 10.0,
    reg_eps: float = 0.5,
) -> ProcessTrace:
    """Run one deletion trace from the complete host.

    Stops at t_max when given, else at extinction: the complete host loses
    its last factor no later than its last edge.  The guard is evaluated
    once per state (state i: i edges deleted, density 1 - i/#edges) and
    zeroes z from the first step after a state that failed it.
    """
    check_divisible(pattern, n)
    check_cap(pattern, n)
    if t_max is not None and t_max < 0:
        raise InputError(f"t_max must be nonnegative, got {t_max}")
    if not reg_eps >= 0:
        raise InputError(f"reg_eps must be nonnegative, got {reg_eps}")
    if not b_level > 0:
        raise InputError(f"b_level must be positive, got {b_level}")
    ordering = random_ordering(pattern.k, n, seed)
    total = total_edges(pattern.k, n)
    counter = FactorCounter(pattern, complete_host(pattern.k, n))
    phi_prev = counter.count()
    log_initial = math.log(phi_prev)
    trace = ProcessTrace(
        pattern=pattern, n=n, seed=seed, t_max=t_max,
        b_level=b_level, reg_eps=reg_eps, log_initial=log_initial,
    )
    guard_ok = True
    x_partial = Fraction(0)
    gamma_sum = Fraction(0)

    for i, edge in enumerate(ordering, start=1):
        # state i - 1: the host before the i-th deletion, with phi_prev > 0
        degs = counter.copy_vertex_degrees()
        state_ok, prev_maxr = _guard_state(counter, degs, 1.0 - (i - 1) / total, b_level, reg_eps)
        if guard_ok and not state_ok:
            trace.guard_trip_step, guard_ok = i - 1, False
        if t_max is not None and i > t_max:
            trace.stop_reason = "t_max"
            break
        max_beta = counter.copies_per_edge_max()
        using = counter.count_using_edge(edge)
        counter = counter.without_edge(edge)
        phi_now = counter.count()
        if phi_now != phi_prev - using:
            raise InvariantError(
                f"step {i}: {phi_now} factors left, expected {phi_prev} - {using} using {edge}"
            )
        xi = Fraction(phi_prev - phi_now, phi_prev)
        gam = gamma(pattern, n, i)
        gamma_sum += gam
        z = xi - gam if guard_ok else Fraction(0)
        x_partial += z
        log_phi = math.log(phi_now) if phi_now > 0 else -math.inf
        margin = log_phi - (log_initial - float(gamma_sum))
        trace.steps.append(
            ProcessStep(
                i=i, edge=edge, xi=xi, gamma=gam, z=z, x_partial=x_partial,
                log_factor_count=log_phi, margin=margin, guard_ok=guard_ok,
                max_copies_per_edge=max_beta, min_copy_degree=min(degs),
                prev_maxr=prev_maxr,
            )
        )
        trace.stop_step = i
        if phi_now == 0:
            trace.stop_reason = "extinct"
            break
        phi_prev = phi_now
    return trace


def verify_martingale_step(pattern: PatternGraph, g: HostGraph) -> tuple[Fraction, Fraction]:
    """(average edge fraction over all edges, (m*n/v)/|E|); exactly equal.

    This is the one-step conditional-mean identity with the conditioning
    realized as the current graph.  Every edge fraction has denominator the
    factor count, so the factors using each edge are summed first.
    """
    counter = FactorCounter(pattern, g)
    total = counter.count()
    if total == 0:
        raise NoFactorError("host has no factor")
    if not g.edges:
        raise InputError("host has no edges")
    acc = Fraction(sum(counter.count_using_edge(e) for e in g.edges), total)
    return acc / len(g.edges), Fraction(pattern.m * g.n // pattern.v, len(g.edges))
