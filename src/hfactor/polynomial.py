"""Multilinear copy-counting polynomials over independent edge indicators.

A copy polynomial is determined implicitly by (pattern, host size, anchor):
its terms are the edge images of the anchored injections, never an explicit
coefficient map.  Derivative expectations come from per-edge-set counts.  The
complete host is symmetric apart from the pin images, so the coefficient sum
over the terms containing a fixed edge set F depends only on how F sits
against the pins: it is (n-u)_(v-u) times the copies of F, pins fixed, inside
the pattern's own constrained edges, u counting the vertices of F and the
pins.  Those copies are counted on a v-vertex host, and each derivative
order's maximum is taken over the constrained edge subsets of that size, so
the work depends on the pattern alone, not on n.

Two bases are supported.  The injection basis keeps one term per injection
(coefficients can exceed 1 where injections share an edge image, so the
polynomial is bounded-coefficient rather than max-coefficient-1); with
``collapse`` each distinct edge image counts once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InputError
from .embed import ConstraintSpec, constrained_count, degree_regularity, full_constraint
from .host import HostGraph, host_from_edges, sample_gnp
from .parallel import run_trials
from .pattern import PatternGraph
from .rng import derive_seed, rng_for

THEOREMS = ("all-order", "absolute-low-order", "relative-low-order", "upper-tail", "nonconstant-relative", "nonconstant-upper-tail", "small-ceiling")
# regularity_report samples pin images once there are more than PSI_CAP of
# them, and skips the cases whose work estimate (n-|A|)_(v-|A|) * 2^|E'|
# exceeds WORK_CAP: the X counts on the host grow with it
PSI_CAP = 24
WORK_CAP = 200_000


@dataclass(frozen=True)
class CopyPolynomial:
    pattern: PatternGraph
    n: int
    anchor: ConstraintSpec | None = None
    collapse: bool = False

    def __post_init__(self):
        if self.n < self.pattern.v:
            raise InputError(f"need n >= {self.pattern.v}, got {self.n}")
        for _, x in self.spec.pins:
            if not 0 <= x < self.n:
                raise InputError(f"pin image {x} out of range")

    @property
    def spec(self) -> ConstraintSpec:
        return self.anchor if self.anchor is not None else full_constraint(self.pattern)

    @property
    def degree(self) -> int:
        return len(self.spec.constrained_edges)


def _injection_count(f: CopyPolynomial, sub) -> int:
    """Injection-basis coefficient sum over the terms containing the edges ``sub``.

    ``sub`` is an edge set on pattern labels; each pin stands for its own
    image and every other vertex for a distinct non-pin host vertex (the
    complete host is symmetric apart from the pin images, so which does not
    matter).  An injection whose edge image contains ``sub`` restricts to a
    copy of ``sub`` inside the constrained edges that fixes the pins, and
    extends to the other pattern vertices in (n-u)_(v-u) ways, u counting
    the vertices of ``sub`` and the pins.
    """
    pinned = f.spec.pinned_vertices
    k, v = f.pattern.k, f.pattern.v
    if not sub:
        return math.perm(f.n - len(pinned), v - len(pinned))
    u = len(set(pinned).union(*sub))
    inner = constrained_count(
        PatternGraph(k, v, sub),
        host_from_edges(k, v, f.spec.constrained_edges),
        ConstraintSpec(tuple((a, a) for a in pinned), sub),
    )
    # the v-u vertices outside sub and the pins are free in the inner count
    # and contribute (v-u)!, which turns comb into the falling factorial
    return math.comb(f.n - u, v - u) * inner


def _basis_unit(f: CopyPolynomial) -> int:
    """The injection-basis coefficient that makes one term of f's basis.

    That is 1, or with ``collapse`` the number of injections sharing one edge
    image: the count of the whole constrained edge set, which is the
    free-vertex falling factorial times |Aut_P|, Aut_P being the
    permutations of the constrained vertices that fix the pins and map the
    constrained edges onto themselves.
    """
    if not f.collapse:
        return 1
    return _injection_count(f, f.spec.constrained_edges)


def expectation(f: CopyPolynomial, p: float) -> float:
    """Sum over terms of coefficient times p^degree."""
    if not 0.0 <= p <= 1.0:
        raise InputError(f"p must lie in [0, 1], got {p}")
    return _injection_count(f, ()) // _basis_unit(f) * p**f.degree


def derivative_profile(f: CopyPolynomial, p: float) -> dict:
    """Max derivative expectations by order, plus the below-degree ceiling.

    e_star is the max over all fixed edge sets of size < degree (the empty
    set included); eprime_max restricts to nonempty sets below the degree,
    which for a homogeneous polynomial is the nonconstant-part maximum.
    min_exponent reports min over nonempty fixed sets of size < degree of
    log(E/E_L) / log(n), the decay exponent of the derivative ratios; these
    sets span proper subpatterns, where the ratio is what balance controls.
    """
    if not 0.0 <= p <= 1.0:
        raise InputError(f"p must lie in [0, 1], got {p}")
    d = f.degree
    edges = f.spec.constrained_edges
    unit = _basis_unit(f)
    best = [
        max(_injection_count(f, sub) for sub in itertools.combinations(edges, j)) // unit
        for j in range(d + 1)
    ]
    e0 = best[0] * p**d
    e_by_order = {j: best[j] * p ** (d - j) for j in range(1, d + 1)}
    e_star = max([e0] + [e_by_order[j] for j in range(1, d)], default=e0)
    eprime_max = max((e_by_order[j] for j in range(1, d)), default=0.0)
    min_exponent = None
    if e0 > 0 and f.n > 1 and d > 1:
        # the smallest ratio of each order is the one over its largest count
        min_exponent = math.log(min(e0 / e_by_order[j] for j in range(1, d))) / math.log(f.n)
    return {
        "degree": d,
        "expectation": e0,
        "e_by_order": e_by_order,
        "e_star": e_star,
        "eprime_max": eprime_max,
        "normalization": best[d],
        "min_exponent": min_exponent,
    }


def regularity_report(
    pattern: PatternGraph, g: HostGraph, p: float, eps: float, beta: float, seed: int = 0
) -> dict:
    """Two-part regularity check of a host against the independent-edge model.

    Part (b) is ``embed.degree_regularity``.  Part (a): for a family of
    pinned, edge-constrained embedding counts X, compare X against beta when
    the derivative-expectation ceiling E* is below n^-eps, and against
    n^eps * E* otherwise.  The family enumerates every pin set A and every
    nonempty constrained edge subset E'; pin images are sampled (seeded) once
    their number exceeds PSI_CAP, and cases whose enumeration work exceeds
    WORK_CAP are skipped, each skipped pin image counted.  The report states
    which regime ran.
    """
    if not (eps > 0 and beta > 0):
        raise InputError("eps and beta must be positive")
    part_b = degree_regularity(pattern, g, p, eps)
    n = g.n
    rng = rng_for(seed)
    low_threshold = n ** (-eps)
    cases = []
    skipped = 0
    exhaustive_psi = True
    for a_size in range(pattern.v + 1):
        n_psi = math.perm(n, a_size)
        for a_set in itertools.combinations(range(pattern.v), a_size):
            allowed = [e for e in pattern.edges if not set(a_set).issuperset(e)]
            for r in range(1, len(allowed) + 1):
                for eprime in itertools.combinations(allowed, r):
                    if n_psi <= PSI_CAP:
                        psis = list(itertools.permutations(range(n), a_size))
                    else:
                        exhaustive_psi = False
                        psis = [tuple(rng.sample(range(n), a_size)) for _ in range(PSI_CAP)]
                    if math.perm(n - a_size, pattern.v - a_size) * 2**r > WORK_CAP:
                        skipped += len(psis)
                        continue
                    # E* depends on (A, E') alone, so the pins sit at 0..|A|-1
                    anchor = ConstraintSpec(tuple(zip(a_set, range(a_size))), eprime)
                    e_star = derivative_profile(CopyPolynomial(pattern, n, anchor), p)["e_star"]
                    large_bound = n**eps * e_star
                    if e_star <= low_threshold:
                        bound, branch = beta, "small_expectation"
                    else:
                        bound, branch = large_bound, "large_expectation"
                    for psi in psis:
                        spec = ConstraintSpec(tuple(zip(a_set, psi)), eprime)
                        x_val = constrained_count(pattern, g, spec)
                        # raw numbers plus the flags of BOTH branches: at a
                        # fixed n the branch boundary is a judgment call, so
                        # callers get everything
                        cases.append(
                            {
                                "pins": spec.pins,
                                "constrained_edges": spec.constrained_edges,
                                "x": x_val,
                                "e_star": e_star,
                                "low_threshold": low_threshold,
                                "branch": branch,
                                "bound": bound,
                                "holds_small_branch": x_val < beta,
                                "holds_large_branch": x_val < large_bound,
                                "holds": x_val < bound,
                            }
                        )
    part_a = {
        "regime": "exhaustive_pins" if exhaustive_psi else "sampled_pins",
        "family_size": len(cases),
        "skipped_over_work_cap": skipped,
        "psi_cap": PSI_CAP,
        "work_cap": WORK_CAP,
        "all_hold": all(c["holds"] for c in cases),
        "cases": cases,
    }
    return {"n": n, "p": p, "eps": eps, "beta": beta, "part_a": part_a, "part_b": part_b}


def hypothesis_check(
    f: CopyPolynomial,
    p: float,
    eps: float,
    theorem: str,
    omega_threshold: float | None = None,
) -> dict:
    """Evaluate the quantitative hypothesis of one concentration statement.

    The named checks, on the normalized polynomial (max coefficient 1):
    all-order needs E >= n^eps * max of every derivative order; the
    low-order pair bound orders 1..d-1, absolutely or relative to E, plus a
    growth floor on E; the upper-tail pair asks a ceiling A to dominate the
    growth floor plus n^eps times those maxima, with A the expectation E
    itself (reported as ``a_bound``); the nonconstant variants of the
    relative and upper-tail checks use the nonconstant-part maximum, which
    below the degree is the low-order maximum, so they report what their
    twins do under another name; small-ceiling needs every
    quantity, E included, at most n^-eps.  Growth conditions of the
    omega(log n) kind are parameterized by omega_threshold (default
    10 * log n) since they are not decidable at a fixed n; reports carry the
    raw numbers either way.
    """
    if theorem not in THEOREMS:
        raise InputError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    if not eps > 0:
        raise InputError("eps must be positive")
    prof = derivative_profile(f, p)
    n, d = f.n, prof["degree"]
    if omega_threshold is None:
        omega_threshold = 10.0 * math.log(n)
    norm = prof["normalization"] or 1
    e0 = prof["expectation"] / norm
    e_by = {j: prof["e_by_order"][j] / norm for j in prof["e_by_order"]}
    report = {
        "theorem": theorem,
        "eps": eps,
        "omega_threshold": omega_threshold,
        "normalization": norm,
        "expectation_normalized": e0,
        "e_by_order_normalized": e_by,
    }

    def ratio(num, den):
        return num / den if den > 0 else math.inf

    # orders 1..d-1; the same float as eprime_max / norm
    low = max((e_by[j] for j in range(1, d)), default=0.0)
    if theorem == "all-order":
        top = max((e_by[j] for j in range(1, d + 1)), default=0.0)
        report["binding_ratio"] = ratio(n**eps * top, e0)
        report["passes"] = e0 >= n**eps * top
    elif theorem == "absolute-low-order":
        report["binding_ratio"] = low * n**eps
        report["passes"] = e0 > omega_threshold and low <= n ** (-eps)
    elif theorem in ("relative-low-order", "nonconstant-relative"):
        report["binding_ratio"] = ratio(low, n ** (-eps) * e0)
        report["passes"] = e0 > omega_threshold and low <= n ** (-eps) * e0
    elif theorem in ("upper-tail", "nonconstant-upper-tail"):
        needed = omega_threshold + n**eps * low
        report["a_bound"] = e0
        report["binding_ratio"] = ratio(needed, e0)
        report["passes"] = e0 >= needed
    else:  # small-ceiling: the ceiling includes the plain expectation
        top = max(e0, low)
        report["binding_ratio"] = top * n**eps
        report["passes"] = top <= n ** (-eps)
    return report


def evaluate(f: CopyPolynomial, g: HostGraph) -> int:
    """Exact value of the polynomial on a concrete host."""
    if g.n != f.n or g.k != f.pattern.k:
        raise InputError("host does not match the polynomial's shape")
    return constrained_count(f.pattern, g, f.spec) // _basis_unit(f)


def _trial_worker(payload) -> int:
    f, p, seed = payload
    return evaluate(f, sample_gnp(f.pattern.k, f.n, p, seed))


def concentration_trial(
    f: CopyPolynomial,
    p: float,
    trials: int,
    eps: float,
    seed: int,
    workers: int = 1,
) -> dict:
    """Sample hosts, evaluate the polynomial exactly, and report the tail."""
    if trials < 1:
        raise InputError("need at least one trial")
    if not eps > 0:
        raise InputError("eps must be positive")
    mean_expected = expectation(f, p)
    payloads = [(f, p, derive_seed(seed, t)) for t in range(trials)]
    values = run_trials(_trial_worker, payloads, workers)
    emp_mean = sum(values) / trials
    if mean_expected > 0:
        exceed = sum(1 for x in values if abs(x - mean_expected) > eps * mean_expected)
    else:
        exceed = sum(1 for x in values if x != 0)
    var = sum((x - emp_mean) ** 2 for x in values) / trials
    return {
        "trials": trials,
        "p": p,
        "eps": eps,
        "expectation": mean_expected,
        "empirical_mean": emp_mean,
        "empirical_sd": math.sqrt(var),
        "exceed_fraction": exceed / trials,
    }
