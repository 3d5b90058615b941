"""Threshold formula evaluation and Monte Carlo estimates of Pr(factor).

The scan estimates the density at which an increasing property (factor
existence, vertex coverage, or role coverage) crosses a target probability,
by bisection with a fixed sample budget per probe, and compares it against
the closed-form prediction for the pattern.  The model comparison estimates
Pr(factor) under both random host models at one density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .embed import role_images
from .errors import InputError
from .factor import check_cap, counting_cap, has_factor
from .host import HostGraph, check_sampling_size, sample_gnm, sample_gnp, total_edges
from .parallel import pool_scope, run_trials
from .pattern import DensityReport, PatternGraph, check_divisible, density_profile
from .rng import derive_seed

PROPERTIES = ("factor", "coverage", "role")
ROUNDS = 12  # bisection rounds per n: the bracket ends 2^-12 wide
WILSON_Z = 1.96  # the two-sided 95% normal quantile


@dataclass(frozen=True)
class ThresholdEstimate:
    n: int
    p_half: float
    ci_low: float
    ci_high: float
    trials_per_probe: int
    formula_value: float
    ratio: float
    property_name: str
    seed: int
    probes: tuple[dict, ...]
    chain_violations: int


def formula_threshold(pattern: PatternGraph, n: int, profile: DensityReport | None = None) -> dict:
    """Closed-form threshold scales at a concrete n.

    predicted: n^(-1/max_density) * (log n)^(1/critical_edge_count) when every
    vertex attains the global max local density, else n^(-1/max_density).
    general_lower_bound: n^(-1/max_density) always.  strictly_balanced_value:
    n^(-1/density) * (log n)^(1/m) for strictly balanced patterns, else None.
    A caller evaluating several n passes ``profile``, the pattern's
    ``density_profile``, to compute it once.
    """
    if n < pattern.v:
        raise InputError(f"need n >= {pattern.v}")
    prof = profile if profile is not None else density_profile(pattern)
    d_star = prof.max_density
    uniform = all(local == d_star for local, _ in prof.per_vertex.values())
    base = n ** (-1.0 / float(d_star))
    if uniform:
        predicted = base * math.log(n) ** (1.0 / prof.critical_edge_count)
    else:
        predicted = base
    strict = None
    if prof.balance.value == "strictly_balanced":
        strict = n ** (-1.0 / float(prof.density)) * math.log(n) ** (1.0 / pattern.m)
    return {
        "n": n,
        "uniform_local_density": uniform,
        "predicted": predicted,
        "general_lower_bound": base,
        "strictly_balanced_value": strict,
        "max_density": prof.max_density,
        "critical_edge_count": prof.critical_edge_count,
    }


def coverage_check(pattern: PatternGraph, g: HostGraph) -> bool:
    """True iff every host vertex lies in at least one labeled copy."""
    return _covers(role_images(pattern, g), g.n)


def role_coverage_check(pattern: PatternGraph, g: HostGraph) -> bool:
    """Coverage plus every pattern role realized by at least n/v host vertices."""
    check_divisible(pattern, g.n)
    return _roles_cover(role_images(pattern, g), g.n)


def _covers(realized: list[set[int]], n: int) -> bool:
    return len(set().union(*realized)) == n


def _roles_cover(realized: list[set[int]], n: int) -> bool:
    quota = n // len(realized)
    return _covers(realized, n) and all(len(s) >= quota for s in realized)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials <= 0:
        raise InputError("trials must be positive")
    z = WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@pool_scope()  # one process pool for all of this call's batches
def threshold_scan(
    pattern: PatternGraph,
    n_list,
    trials: int,
    target: float = 0.5,
    seed: int = 0,
    property_name: str = "factor",
    workers: int = 1,
) -> list[ThresholdEstimate]:
    """Bisection estimate of the density where Pr(property) crosses target.

    The bracket starts at [0, 1] (probability 0 and 1 by monotonicity of an
    increasing property); each round probes the midpoint with a fixed number
    of fresh samples.  Every sampled host is also tested for the implication
    chain factor => role coverage => coverage, and violations are counted
    (they indicate a bug, as the chain is a theorem).
    """
    if trials < 1:
        raise InputError("need at least one trial per probe")
    if not 0.0 < target < 1.0:
        raise InputError("target must be strictly between 0 and 1")
    if property_name not in PROPERTIES:
        raise InputError(f"unknown property {property_name!r}; choose from {PROPERTIES}")
    n_list = list(n_list)
    profile = density_profile(pattern)
    formulas = []
    for n in n_list:  # every n is checked before any host is sampled
        if property_name in ("factor", "role"):
            check_divisible(pattern, n)
        if property_name == "factor":
            check_cap(pattern, n)
        check_sampling_size(n, pattern.k)
        formulas.append(formula_threshold(pattern, n, profile)["predicted"])
    estimates = []
    for n_index, (n, formula) in enumerate(zip(n_list, formulas)):
        lo, hi = 0.0, 1.0
        probes = []
        violations = 0
        for rnd in range(ROUNDS):
            mid = (lo + hi) / 2.0
            payloads = [
                (pattern, n, mid, property_name, derive_seed(seed, n_index, rnd, t))
                for t in range(trials)
            ]
            results = run_trials(_probe_worker, payloads, workers)
            hits = sum(ok for ok, _ in results)
            violations += sum(not chain_ok for _, chain_ok in results)
            w_lo, w_hi = wilson_interval(hits, trials)
            phat = hits / trials
            probes.append(
                {"p": mid, "estimate": phat, "wilson_low": w_lo, "wilson_high": w_hi}
            )
            if phat >= target:
                hi = mid
            else:
                lo = mid
        p_half = (lo + hi) / 2.0
        estimates.append(
            ThresholdEstimate(
                n=n,
                p_half=p_half,
                ci_low=lo,
                ci_high=hi,
                trials_per_probe=trials,
                formula_value=formula,
                ratio=p_half / formula,
                property_name=property_name,
                seed=seed,
                probes=tuple(probes),
                chain_violations=violations,
            )
        )
    return estimates


def _probe_worker(payload) -> tuple[bool, bool]:
    """(property holds, chain factor => role coverage => coverage holds) on one host.

    has_factor and role_images run at most once each.  Role coverage implies
    coverage by construction, so only a host with a factor can break the
    chain.  Hosts beyond the exact-counting caps skip the chain (factor
    existence is not computable there).
    """
    pattern, n, p, property_name, seed = payload
    g = sample_gnp(pattern.k, n, p, seed)
    chain = n % pattern.v == 0 and n <= counting_cap(pattern.v)
    factor = (property_name == "factor" or chain) and has_factor(pattern, g)
    realized = role_images(pattern, g) if property_name != "factor" or (chain and factor) else None
    if property_name == "factor":
        ok = factor
    elif property_name == "coverage":
        ok = _covers(realized, n)
    else:
        ok = _roles_cover(realized, n)
    return ok, not (chain and factor) or _roles_cover(realized, n)


def _factor_sample_worker(payload) -> bool:
    pattern, n, mode, param, seed = payload
    sample = sample_gnp if mode == "p" else sample_gnm
    return has_factor(pattern, sample(pattern.k, n, param, seed))


@pool_scope()  # one process pool for all of this call's batches
def compare_models(
    pattern: PatternGraph,
    n: int,
    p: float,
    trials: int,
    seed: int,
    sweep: bool = False,
    workers: int = 1,
) -> dict:
    """Estimate Pr(host has a factor) under both random models.

    The fixed-size model uses M = round(total * p) (Python rounding, half to
    even).  The two estimates are not expected to agree at finite n: the
    models differ by a real gap (about 0.06 for K2 at n=12, p=0.35), because
    Pr_gnp(factor) is the binomial mixture
    sum_M Bin(total, p)(M) * Pr_gnm(factor | M) of the fixed-size
    probabilities, not their value at one M.  With ``sweep`` the fixed-size
    estimate is repeated at half and double M.
    """
    check_divisible(pattern, n)
    check_sampling_size(n, pattern.k)
    if not 0.0 <= p <= 1.0:
        raise InputError(f"p must lie in [0, 1], got {p}")
    if trials < 1:
        raise InputError("need at least one trial")
    total = total_edges(pattern.k, n)
    m_edges = round(total * p)

    def estimate(mode: str, param, stream: int) -> tuple[float, float]:
        payloads = [
            (pattern, n, mode, param, derive_seed(seed, stream, t))
            for t in range(trials)
        ]
        hits = sum(run_trials(_factor_sample_worker, payloads, workers))
        est = hits / trials
        return est, math.sqrt(est * (1.0 - est) / trials)

    est_p, se_p = estimate("p", p, 0)
    est_m, se_m = estimate("m", m_edges, 1)
    report = {
        "n": n,
        "p": p,
        "m_edges": m_edges,
        "trials": trials,
        "seed": seed,
        "pr_gnp": est_p,
        "se_gnp": se_p,
        "pr_gnm": est_m,
        "se_gnm": se_m,
        "difference": est_p - est_m,
        "combined_se": math.sqrt(se_p**2 + se_m**2),
    }
    if sweep:
        rows = []
        for j, m_alt in enumerate(sorted({max(0, m_edges // 2), m_edges, min(total, 2 * m_edges)})):
            est, se = estimate("m", m_alt, 2 + j)
            rows.append({"m_edges": m_alt, "pr_gnm": est, "se_gnm": se})
        report["sweep"] = rows
    return report
