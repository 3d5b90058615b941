"""Exact factor counting and the weight statistics built on it.

A factor of a host on n vertices is a set of n/v labeled copies of the
pattern whose vertex sets partition the host.  Counts are labeled throughout
(each way of writing a copy as an injection counts separately); unlabeled
counts are derived by exact division with the automorphism count.

The counter recurses on the uncovered vertex set, always covering its
minimum vertex, with the subset memoized as a bitmask.  The memo is shared
across queries on the same host, which makes per-copy weights, per-edge
fractions and induced-subgraph counts cheap once one graph is loaded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantError, NoFactorError
from .host import HostGraph, complete_host, mask_bits
from .pattern import PatternGraph, automorphism_count

# bitmask DP state space grows as 2^n; caps keep worst cases to a few seconds
DEFAULT_CAPS = {2: 24, 3: 15}
DEFAULT_CAP_LARGE = 12


def counting_cap(v: int) -> int:
    return DEFAULT_CAPS.get(v, DEFAULT_CAP_LARGE)


@dataclass(frozen=True)
class FactorCount:
    labeled: int
    unlabeled: int


@dataclass(frozen=True)
class WeightStats:
    """Per-copy factor counts of the leave-one-copy-out subgraphs.

    weights[i] is the number of factors of the host minus the vertex set of
    the i-th labeled copy; maxr is max/mean, the headline flatness statistic.
    """

    copies: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    mean: Fraction
    max: int
    maxr: Fraction


class FactorCounter:
    """Memoized exact factor counts for one (pattern, host) pair.

    Blocks (v-subsets that host at least one copy) are precomputed with their
    embedding multiplicities; count(mask) then counts partitions of the
    vertices selected by mask into blocks, weighted by multiplicity.
    """

    def __init__(self, pattern: PatternGraph, g: HostGraph, cap: int | None = None):
        if pattern.k != g.k:
            raise InputError(
                f"pattern arity {pattern.k} does not match host arity {g.k}"
            )
        limit = cap if cap is not None else counting_cap(pattern.v)
        if g.n > limit:
            raise InputError(
                f"n={g.n} exceeds the exact-counting cap {limit} for v={pattern.v}"
            )
        self.pattern = pattern
        self.host = g
        self.full_mask = (1 << g.n) - 1
        self._memo: dict[int, int] = {0: 1}
        self._dead: set[int] = set()
        self._blocks_by_min: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        self._block_emb: dict[int, int] = {}
        self._precompute_blocks()

    def _precompute_blocks(self) -> None:
        p, g = self.pattern, self.host
        if p.is_single_edge():
            fac = math.factorial(p.k)
            for e in g.edges:
                mask = 0
                for x in e:
                    mask |= 1 << x
                self._add_block(e[0], mask, fac)
            return
        if p.is_complete_graph():
            fac = math.factorial(p.v)
            edge_set = g.edge_set
            for block in itertools.combinations(range(g.n), p.v):
                if all(frozenset(pair) in edge_set for pair in itertools.combinations(block, 2)):
                    mask = 0
                    for x in block:
                        mask |= 1 << x
                    self._add_block(block[0], mask, fac)
            return
        for block in itertools.combinations(range(g.n), p.v):
            emb = self._embeddings_into(block)
            if emb:
                mask = 0
                for x in block:
                    mask |= 1 << x
                self._add_block(block[0], mask, emb)

    def _add_block(self, min_vertex: int, mask: int, emb: int) -> None:
        self._blocks_by_min[min_vertex].append((mask, emb))
        self._block_emb[mask] = emb

    def _embeddings_into(self, block: tuple[int, ...]) -> int:
        edge_set = self.host.edge_set
        edges = self.pattern.edges
        count = 0
        for perm in itertools.permutations(block):
            if all(frozenset(perm[x] for x in e) in edge_set for e in edges):
                count += 1
        return count

    def block_items(self):
        """(mask, embedding count) over every block hosting a copy."""
        return self._block_emb.items()

    def count(self, mask: int | None = None) -> int:
        """Number of factors of the host induced on the masked vertex set."""
        if mask is None:
            mask = self.full_mask
        memo = self._memo
        blocks = self._blocks_by_min
        stack = [mask]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            lo = (m & -m).bit_length() - 1
            total = 0
            ready = True
            for bmask, emb in blocks[lo]:
                if bmask & m == bmask:
                    rest = m & ~bmask
                    sub = memo.get(rest)
                    if sub is None:
                        if ready:
                            ready = False
                        stack.append(rest)
                    elif ready:
                        total += emb * sub
            if ready:
                memo[m] = total
                stack.pop()
        return memo[mask]

    def count_excluding(self, vertices) -> int:
        mask = self.full_mask
        for x in vertices:
            if not 0 <= x < self.host.n:
                raise InputError(f"vertex {x} out of range")
            mask &= ~(1 << x)
        return self.count(mask)

    def count_using_edge(self, e) -> int:
        """Factors whose copies use host edge e.

        Exactly the factors whose block at e's endpoints covers them jointly
        and embeds across e, so the complementary blocks factor independently.
        """
        key = tuple(sorted(e))
        if not self.host.has_edge(key):
            raise InputError(f"edge {key} not present")
        ekey = frozenset(key)
        emask = 0
        for x in key:
            emask |= 1 << x
        edge_set = self.host.edge_set
        pedges = self.pattern.edges
        total = 0
        for bmask, emb in self._block_emb.items():
            if bmask & emask != emask:
                continue
            block = _mask_vertices(bmask)
            using = 0
            for perm in itertools.permutations(block):
                images = [frozenset(perm[x] for x in pe) for pe in pedges]
                if all(img in edge_set for img in images):
                    if ekey in images:
                        using += 1
            if using:
                total += using * self.count(self.full_mask & ~bmask)
        return total

    def exists(self, mask: int | None = None) -> bool:
        """Factor existence with failure memoization and early exit."""
        if mask is None:
            mask = self.full_mask
        if mask == 0:
            return True
        if mask in self._dead:
            return False
        pos = self._memo.get(mask)
        if pos is not None:
            return pos > 0
        lo = (mask & -mask).bit_length() - 1
        for bmask, _ in self._blocks_by_min[lo]:
            if bmask & mask == bmask and self.exists(mask & ~bmask):
                return True
        self._dead.add(mask)
        return False

    def copy_vertex_degrees(self) -> list[int]:
        """Labeled copies through each vertex, summed from block multiplicities."""
        degs = [0] * self.host.n
        for bmask, emb in self._block_emb.items():
            for x in mask_bits(bmask):
                degs[x] += emb
        return degs

    def copies_per_edge_max(self) -> int:
        """max over host edges of the number of labeled copies using that edge."""
        best = 0
        edge_set = self.host.edge_set
        pedges = self.pattern.edges
        for e in self.host.edges:
            ekey = frozenset(e)
            emask = 0
            for x in e:
                emask |= 1 << x
            through = 0
            for bmask, _ in self._block_emb.items():
                if bmask & emask != emask:
                    continue
                block = _mask_vertices(bmask)
                for perm in itertools.permutations(block):
                    images = [frozenset(perm[x] for x in pe) for pe in pedges]
                    if all(img in edge_set for img in images) and ekey in images:
                        through += 1
            best = max(best, through)
        return best


def _mask_vertices(mask: int) -> tuple[int, ...]:
    return tuple(mask_bits(mask))


def _check_countable(pattern: PatternGraph, n: int, cap: int | None) -> None:
    if n % pattern.v:
        raise InputError(f"n={n} is not divisible by pattern size {pattern.v}")
    limit = cap if cap is not None else counting_cap(pattern.v)
    if n > limit:
        raise InputError(f"n={n} exceeds the exact-counting cap {limit} for v={pattern.v}")


def count_factors(pattern: PatternGraph, g: HostGraph, cap: int | None = None) -> FactorCount:
    """Exact labeled and unlabeled factor counts."""
    _check_countable(pattern, g.n, cap)
    labeled = FactorCounter(pattern, g, cap=cap).count()
    return _with_unlabeled(pattern, g.n, labeled)


def _with_unlabeled(pattern: PatternGraph, n: int, labeled: int) -> FactorCount:
    aut = automorphism_count(pattern)
    denom = aut ** (n // pattern.v)
    unlabeled, rem = divmod(labeled, denom)
    if rem:
        raise InvariantError(
            f"labeled count {labeled} is not divisible by {aut}^{n // pattern.v}"
        )
    return FactorCount(labeled=labeled, unlabeled=unlabeled)


def has_factor(pattern: PatternGraph, g: HostGraph) -> bool:
    """Factor existence; much cheaper than counting on sparse hosts."""
    if g.n % pattern.v:
        raise InputError(f"n={g.n} is not divisible by pattern size {pattern.v}")
    counter = FactorCounter(pattern, g)
    covered = 0
    for bmask, _ in counter.block_items():
        covered |= bmask
    if covered != counter.full_mask:
        return False
    return counter.exists()


def complete_graph_count(pattern: PatternGraph, n: int) -> FactorCount:
    """Closed form on the complete host: labeled count n!/(n/v)!."""
    if n % pattern.v:
        raise InputError(f"n={n} is not divisible by pattern size {pattern.v}")
    labeled = math.factorial(n) // math.factorial(n // pattern.v)
    return _with_unlabeled(pattern, n, labeled)


def expected_factor_count(pattern: PatternGraph, n: int, p: float) -> float:
    """Expectation of the labeled count under the independent-edge model.

    Every factor uses exactly m*n/v distinct edges (its copies are
    vertex-disjoint), so the expectation is n!/(n/v)! times p to that power.
    """
    if n % pattern.v:
        raise InputError(f"n={n} is not divisible by pattern size {pattern.v}")
    exponent = pattern.m * n // pattern.v
    return float(math.factorial(n) // math.factorial(n // pattern.v)) * p**exponent


def edge_fraction(pattern: PatternGraph, g: HostGraph, e, counter: FactorCounter | None = None) -> Fraction:
    """Fraction of factors using host edge e, equal to 1 - count(G-e)/count(G).

    Computed from a single shared-memo counter on G: the factors using e are
    counted directly, which is equivalent to the two-count form but lets a
    battery over all edges reuse one memo table.
    """
    if counter is None:
        counter = FactorCounter(pattern, g)
    total = counter.count()
    if total == 0:
        raise NoFactorError("host has no factor; edge fraction undefined")
    return Fraction(counter.count_using_edge(e), total)


def weight_w(pattern: PatternGraph, g: HostGraph, zapped, counter: FactorCounter | None = None) -> int:
    """Factors avoiding a vertex set.

    For |Z| = v this is the factor count of the host minus Z; for smaller Z
    it sums that count over all v-supersets of Z inside the vertex set.
    """
    z = tuple(sorted(set(zapped)))
    if len(z) != len(tuple(zapped)):
        raise InputError("vertex set has repeats")
    if len(z) > pattern.v:
        raise InputError(f"need |Z| <= {pattern.v}, got {len(z)}")
    for x in z:
        if not 0 <= x < g.n:
            raise InputError(f"vertex {x} out of range")
    if counter is None:
        counter = FactorCounter(pattern, g)
    if len(z) == pattern.v:
        return counter.count_excluding(z)
    rest = [x for x in range(g.n) if x not in z]
    return sum(
        counter.count_excluding(z + extra)
        for extra in itertools.combinations(rest, pattern.v - len(z))
    )


def b_statistic(pattern: PatternGraph, g: HostGraph) -> WeightStats:
    """Per-copy weights w(K) = #factors of G minus V(K), with their spread."""
    from .embed import enumerate_copies

    counter = FactorCounter(pattern, g)
    total = counter.count()
    if total == 0:
        raise NoFactorError("host has no factor")
    copies = enumerate_copies(pattern, g)
    if not copies:
        raise NoFactorError("host has no copies")
    weight_by_mask: dict[int, int] = {}
    weights = []
    for c in copies:
        mask = 0
        for x in c:
            mask |= 1 << x
        w = weight_by_mask.get(mask)
        if w is None:
            w = counter.count(counter.full_mask & ~mask)
            weight_by_mask[mask] = w
        weights.append(w)
    mean = Fraction(sum(weights), len(weights))
    mx = max(weights)
    return WeightStats(
        copies=tuple(copies),
        weights=tuple(weights),
        mean=mean,
        max=mx,
        maxr=Fraction(mx) / mean,
    )


def c_statistic(pattern: PatternGraph, g: HostGraph) -> dict:
    """Spread check of completion weights over every (v-1)-subset.

    For each (v-1)-set Y the completions are w(Y + {x}); the inequality
    requires the max to be at most max(n^(-2(v-1)) * count, twice the median).
    The lower median is used for even sizes; this convention is recorded in
    the report rather than guessed away.
    """
    counter = FactorCounter(pattern, g)
    total = counter.count()
    if total == 0:
        raise NoFactorError("host has no factor")
    n, v = g.n, pattern.v
    floor_term = Fraction(total, n ** (2 * (v - 1)))
    worst = None
    violations = []
    for y in itertools.combinations(range(n), v - 1):
        vals = sorted(
            counter.count_excluding(y + (x,)) for x in range(n) if x not in y
        )
        mx = vals[-1]
        med = vals[(len(vals) - 1) // 2]
        bound = max(floor_term, Fraction(2 * med))
        ratio = Fraction(mx) / bound if bound > 0 else Fraction(0) if mx == 0 else None
        if ratio is None:
            ratio = Fraction(mx + 1)  # positive max against zero bound
        holds = Fraction(mx) <= bound
        if not holds:
            violations.append(y)
        if worst is None or ratio > worst[1]:
            worst = (y, ratio, mx, med)
    return {
        "holds": not violations,
        "violations": violations,
        "worst_set": worst[0],
        "worst_ratio": worst[1],
        "worst_max": worst[2],
        "worst_median": worst[3],
        "median_convention": "lower",
        "floor_term": floor_term,
    }
