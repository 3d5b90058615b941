"""Entropy bounds on factor counts and two weight-spreading lemmas.

The copy-at-a-vertex distribution: draw a uniform random factor and look at
the copy covering a fixed vertex y.  Its entropy, summed over vertices and
divided by v, upper-bounds the log factor count (a covering-entropy bound).
Entropies are in nats throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantError, NoFactorError
from .factor import FactorCounter
from .host import HostGraph, mask_bits
from .pattern import PatternGraph

LOG_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WeightedFamily:
    """A finite set of opaque ids with nonnegative weights."""

    ids: tuple
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.weights):
            raise InputError("ids and weights must have equal length")
        if not all(0 <= w < math.inf for w in self.weights):
            raise InputError("weights must be finite and nonnegative")


def _entropy_from_weights(weights, total) -> float:
    h = 0.0
    for w in weights:
        if w > 0:
            q = w / total
            h -= q * math.log(q)
    return h


def _vertex_entropies(counter: FactorCounter) -> list[float]:
    """h(y) for every vertex from block-level weights; weights repeat per embedding."""
    total = counter.count()
    out = [0.0] * counter.host.n
    for (bmask, emb), w in zip(counter.block_items(), counter.block_weights()):
        if w > 0:
            q = w / total
            term = emb * q * math.log(q)
            for x in mask_bits(bmask):
                out[x] -= term
    return out


def shearer_check(pattern: PatternGraph, g: HostGraph) -> dict:
    """log(count) against the covering-entropy bound (1/v) * sum_y h(y).

    The bound is a theorem, so a violation beyond float tolerance raises.
    """
    counter = FactorCounter(pattern, g)
    total = counter.count()
    if total == 0:
        raise NoFactorError("host has no factor")
    entropies = _vertex_entropies(counter)
    log_count = math.log(total)
    bound = sum(entropies) / pattern.v
    slack = bound - log_count
    if slack < -LOG_TOLERANCE:
        raise InvariantError(
            f"entropy bound violated: log count {log_count} > bound {bound}"
        )
    return {
        "log_factor_count": log_count,
        "entropy_bound": bound,
        "slack": slack,
        "per_vertex_entropy": entropies,
    }


def entropy_window(family: WeightedFamily) -> dict:
    """Constructive near-uniform weight window.

    With K the entropy deficit log|S| - H and log C = 4(K + log 3), the
    window [mean/C, C*mean] captures more than 0.7 of the total weight on at
    least exp(-(K + log 3)/0.7) of the elements.  Zero-weight elements are
    removed first and reported.
    """
    kept = [(i, w) for i, w in zip(family.ids, family.weights) if w > 0]
    removed = len(family.weights) - len(kept)
    if not kept:
        raise InputError("family has no positive weights")
    size = len(kept)
    total = sum(w for _, w in kept)
    entropy = _entropy_from_weights((w for _, w in kept), total)
    deficit = math.log(size) - entropy
    deficit = max(deficit, 0.0)  # clip float negatives of order 1e-16
    log_c = 4.0 * (deficit + math.log(3.0))
    c = math.exp(log_c)
    mean = total / size
    a, b = mean / c, c * mean
    window = [(i, w) for i, w in kept if a <= w <= b]
    w_in = sum(w for _, w in window)
    return {
        "size": size,
        "zero_weight_removed": removed,
        "entropy": entropy,
        "deficit": deficit,
        "c": c,
        "a": a,
        "b": b,
        "window_ids": tuple(i for i, _ in window),
        "weight_ratio": w_in / total,
        "size_ratio": len(window) / size,
        "size_ratio_floor": math.exp(-(deficit + math.log(3.0)) / 0.7),
    }


def weight_lemma_check(n: int, v: int, weights: dict, bound: float) -> dict:
    """Deterministic weight-spreading check over v-subsets of range(n).

    psi(X) is the max weight over v-supersets of X.  Hypothesis: every
    (v-1)-set Y with psi(Y) >= bound has at least (n-v)/2 completions of
    weight >= psi(Y)/2.  Conclusion, verified exhaustively when the
    hypothesis holds: every X with |X| = v-i and psi(X) >= 2^(i-1)*bound has
    at least ((n-v)/2)^i / (i-1)! completions of weight >= psi(X)/2^i.
    """
    if not n > v >= 2:
        raise InputError(f"need n > v >= 2, got n={n}, v={v}")
    if not 0 < bound < math.inf:
        raise InputError(f"bound must be finite and positive, got {bound}")
    table: dict[frozenset, float] = {}
    for key, w in weights.items():
        fkey = frozenset(key)
        if len(fkey) != v or not all(0 <= x < n for x in fkey):
            raise InputError(f"weight key {key} is not a v-subset of range(n)")
        if fkey in table:
            raise InputError(f"duplicate weight key {key}")
        if not 0 <= w < math.inf:
            raise InputError("weights must be finite and nonnegative")
        table[fkey] = w
    for z in itertools.combinations(range(n), v):
        table.setdefault(frozenset(z), 0.0)

    psi: dict[frozenset, float] = {}
    for z, w in table.items():
        for r in range(v + 1):
            for x in itertools.combinations(sorted(z), r):
                key = frozenset(x)
                if w > psi.get(key, -1.0):
                    psi[key] = w

    half_floor = Fraction(n - v, 2)

    def first_short(i: int):
        # the first (v-i)-set X in lexicographic order with psi(X) >= 2^(i-1)*bound
        # and too few completions of weight >= psi(X)/2^i, or None
        need = half_floor**i / math.factorial(i - 1)
        threshold_scale = 2.0 ** (i - 1) * bound
        # one pass over all v-sets, crediting each contained (v-i)-set
        qualifying: dict[frozenset, int] = {}
        for z, w in table.items():
            for x in itertools.combinations(sorted(z), v - i):
                xkey = frozenset(x)
                if psi[xkey] >= threshold_scale and w >= psi[xkey] / 2**i:
                    qualifying[xkey] = qualifying.get(xkey, 0) + 1
        for x in itertools.combinations(range(n), v - i):
            xkey = frozenset(x)
            good = qualifying.get(xkey, 0)
            if psi[xkey] >= threshold_scale and good < need:
                return {"x": x, "i": i, "found": good, "needed": float(need)}
        return None

    # the hypothesis is the conclusion's statement at i = 1
    short = first_short(1)
    counterexample = None if short else next(filter(None, map(first_short, range(2, v + 1))), None)
    return {
        "n": n,
        "v": v,
        "bound": bound,
        "hypothesis_holds": short is None,
        "hypothesis_witness": None if short is None else short["x"],
        "conclusion_holds": None if short else counterexample is None,
        "counterexample": counterexample,
    }
