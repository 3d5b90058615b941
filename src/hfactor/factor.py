"""Exact factor counting, and the block weights and flatness built on it.

A factor of a host on n vertices is a set of n/v labeled copies of the
pattern whose vertex sets partition the host.  Counts are labeled throughout
(each way of writing a copy as an injection counts separately); unlabeled
counts are derived by exact division with the automorphism count.

The counter recurses on the uncovered vertex set, always covering its
minimum vertex, with the subset memoized as a bitmask.  The memo is shared
across queries on the same host, which makes block weights, per-edge
counts and induced-subgraph counts cheap once one graph is loaded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .embed import automorphism_count, block_degrees, enumerate_copies, host_blocks
from .errors import InputError, InvariantError
from .host import HostGraph, mask_bits
from .pattern import PatternGraph, check_divisible

# bitmask DP state space grows as 2^n; caps keep worst cases to a few seconds
DEFAULT_CAPS = {2: 24, 3: 15}
DEFAULT_CAP_LARGE = 12


def counting_cap(v: int) -> int:
    return DEFAULT_CAPS.get(v, DEFAULT_CAP_LARGE)


def check_cap(pattern: PatternGraph, n: int) -> None:
    limit = counting_cap(pattern.v)
    if n > limit:
        raise InputError(f"n={n} exceeds the exact-counting cap {limit} for v={pattern.v}")


@dataclass(frozen=True)
class FactorCount:
    labeled: int
    unlabeled: int


class FactorCounter:
    """Memoized exact factor counts for one (pattern, host) pair.

    Blocks (v-subsets that host at least one copy) are precomputed with their
    embedding multiplicities; count(mask) then counts partitions of the
    vertices selected by mask into blocks, weighted by multiplicity.  Every
    pattern kind keeps one table of copy groups per block (block mask -> {host
    edges a copy uses: copies}), built on first use with the per-edge index;
    without_edge carries both, the copy degrees and a copy of the weight bounds
    (block mask -> upper bound on its weight): a deletion only removes copies.
    """

    def __init__(self, pattern: PatternGraph, g: HostGraph, *, _carried=None):
        if pattern.k != g.k:
            raise InputError(
                f"pattern arity {pattern.k} does not match host arity {g.k}"
            )
        check_cap(pattern, g.n)
        self.pattern = pattern
        self.host = g
        self.full_mask = (1 << g.n) - 1
        if _carried is None:
            by_min = [[] for _ in range(g.n)]
            for block, emb in host_blocks(pattern, g):
                m = 0
                for x in block:
                    m |= 1 << x
                by_min[block[0]].append((m, emb))
            # exact counts, and 0 for every mask exists() found no factor on
            _carried = (by_min, None, None, None, {0: 1}, {})
        self._blocks_by_min, self._copies, self._index, self._degrees, self._memo, self._bounds = _carried
        # host_blocks order is lexicographic, so by lowest vertex first
        self._blocks = list(itertools.chain.from_iterable(self._blocks_by_min))

    def _edge_index(self) -> dict[tuple[int, ...], dict[int, int]]:
        """Host edge -> {block mask: its labeled copies using the edge}, built with _copies on first use."""
        if self._index is None:
            p = self.pattern
            if p.is_complete():
                # every embedding of a complete pattern uses every k-subset of its block
                self._copies = {m: {frozenset(itertools.combinations(mask_bits(m), p.k)): emb}
                                for m, emb in self._blocks}
            else:
                self._copies = {}
                for c in enumerate_copies(p, self.host):
                    edges = frozenset(tuple(sorted(c[x] for x in pe)) for pe in p.edges)
                    groups = self._copies.setdefault(sum(1 << x for x in c), {})
                    groups[edges] = groups.get(edges, 0) + 1
            self._index = {}
            for bmask, groups in self._copies.items():
                for edges, c in groups.items():
                    for f in edges:
                        uses = self._index.setdefault(f, {})
                        uses[bmask] = uses.get(bmask, 0) + c
        return self._index

    def _vertex_degrees(self) -> list[int]:
        if self._degrees is None:
            self._degrees = block_degrees(self.host.n, ((mask_bits(m), emb) for m, emb in self._blocks))
        return self._degrees

    def without_edge(self, e) -> FactorCounter:
        """Counter on the host minus edge e, carried over from this one, which is left unchanged.

        Only the copies using e are lost: their blocks' copy groups lose them (a block left
        with none goes), and so do the per-edge index and the copy degrees.
        A count on a mask missing a vertex of e involves no block through e; one on a mask m
        through e loses lost_B * count(m - B) per block B through e inside m (lost_B: its copies
        using e), read from this memo; m is dropped if a term is missing, and so is the full count.
        """
        key = tuple(sorted(e))
        parent = self._edge_index()
        index, degrees, copies = dict(parent), list(self._vertex_degrees()), dict(self._copies)
        lost = parent.get(key, {})  # block mask -> its copies using e
        for bmask, gone in lost.items():
            for x in mask_bits(bmask):
                degrees[x] -= gone
            groups = copies.pop(bmask)
            for edges, c in groups.items():
                if key in edges:
                    for f in edges:
                        uses = index[f]
                        if uses is parent[f]:
                            uses = index[f] = dict(uses)
                        uses[bmask] -= c
                        if not uses[bmask]:
                            del uses[bmask]
                            if not uses:  # no copy left uses f
                                del index[f]
            if kept := {edges: c for edges, c in groups.items() if key not in edges}:
                copies[bmask] = kept
        by_min = list(self._blocks_by_min)
        for lo in {(bmask & -bmask).bit_length() - 1 for bmask in lost}:
            by_min[lo] = [(m, emb - lost[m]) if m in lost else (m, emb)
                          for m, emb in by_min[lo] if emb != lost.get(m)]
        emask = sum(1 << x for x in key)
        memo, known, terms, values = {}, self._memo, tuple(lost.items()), {}
        for m, c in known.items():
            if c and m & emask == emask:  # a count of 0 stays 0: no factor appears
                for bmask, gone in terms:
                    if bmask & m == bmask:
                        if (sub := known.get(m ^ bmask)) is None:
                            break
                        c -= gone * sub
                else:
                    memo[m] = values.setdefault(c, c)
            else:
                memo[m] = c
        memo.pop(self.full_mask, None)  # recounted from the carried blocks: run_process checks it
        carried = (by_min, copies, index, degrees, memo, dict(self._bounds))
        return FactorCounter(self.pattern, self.host.without_edge(key), _carried=carried)

    def block_items(self):
        """(mask, embedding count) of every block hosting a copy, in host_blocks order."""
        return self._blocks

    def block_weights(self) -> list[int]:
        """Factors of the host minus each block, in block_items order."""
        full = self.full_mask
        return [self.count(full & ~bmask) for bmask, _ in self._blocks]

    def max_block_weight(self) -> int:
        """max(block_weights()): memo weights, then the rest by bound until none beats the max."""
        rest = max(self.host.n - self.pattern.v, 0)  # unbounded: the complete count on n - v vertices
        default = math.factorial(rest) // math.factorial(rest // self.pattern.v)
        full, bounds, best = self.full_mask, self._bounds, 0
        for bmask, _ in self._blocks:  # exact and <= best: the search below stops before these
            if (w := self._memo.get(full & ~bmask)) is not None:
                bounds[bmask] = w
                best = max(best, w)
        for bound, bmask in sorted(((bounds.get(b, default), b) for b, _ in self._blocks), reverse=True):
            if bound <= best:
                break
            bounds[bmask] = w = self.count(full & ~bmask)
            best = max(best, w)
        return best

    def count(self, mask: int | None = None) -> int:
        """Number of factors of the host induced on the masked vertex set."""
        mask = self.full_mask if mask is None else mask
        found = self._memo.get(mask)
        return _fill(self._checked(mask), self._memo, self._blocks_by_min, {}) if found is None else found

    def _checked(self, mask: int) -> int:
        if not 0 <= mask <= self.full_mask:
            raise InputError(f"mask {mask} is outside 0..{self.full_mask}")
        return mask

    def count_using_edge(self, e) -> int:
        """Factors whose copies use host edge e.

        Exactly the factors whose block at e's endpoints covers them jointly
        and embeds across e, so the complementary blocks factor independently.
        """
        key = tuple(sorted(e))
        if not self.host.has_edge(key):
            raise InputError(f"edge {key} not present")
        full = self.full_mask
        uses = self._edge_index().get(key, {})
        return sum(using * self.count(full & ~bmask) for bmask, using in uses.items())

    def exists(self, mask: int | None = None) -> bool:
        """Factor existence with early exit; a failed mask is memoized as count 0."""
        mask = self.full_mask if mask is None else mask
        found = self._memo.get(mask)
        return _exists(self._checked(mask), self._memo, self._blocks_by_min) if found is None else found > 0

    def copy_vertex_degrees(self) -> list[int]:
        """Labeled copies through each vertex, summed from block multiplicities."""
        return list(self._vertex_degrees())

    def copies_per_edge_max(self) -> int:
        """max over host edges of the number of labeled copies using that edge."""
        return max((sum(uses.values()) for uses in self._edge_index().values()), default=0)


def _fill(m: int, memo: dict[int, int], blocks: list[list[tuple[int, int]]], values: dict[int, int]) -> int:
    """Count a mask missing from the memo, scanning each new state's blocks once.

    values maps each count stored so far in this call to its one int object, so
    equal counts share it.  A module function, not a closure: the recursion
    (depth <= n/v) never re-enters count, and no reference cycle keeps a dropped
    counter's memo.
    """
    total = 0
    for bmask, emb in blocks[(m & -m).bit_length() - 1]:
        if bmask & m == bmask:
            rest = m ^ bmask
            sub = memo.get(rest)
            if sub is None:
                sub = _fill(rest, memo, blocks, values)
            total += emb * sub
    memo[m] = total = values.setdefault(total, total)
    return total


def _exists(m: int, memo: dict[int, int], blocks: list[list[tuple[int, int]]]) -> bool:
    """Existence on a mask missing from the memo, with early exit; a failed mask is memoized as 0."""
    for bmask, _ in blocks[(m & -m).bit_length() - 1]:
        if bmask & m == bmask:
            if _exists(m ^ bmask, memo, blocks) if (sub := memo.get(m ^ bmask)) is None else sub:
                return True
    memo[m] = 0
    return False


def flatness(counter: FactorCounter) -> Fraction:
    """maxr = max w(K) / mean w(K) over the labeled copies K of a host with a factor.

    Every factor has n/v copies, so the weights of all copies sum to (n/v) * count.
    """
    copies = sum(emb for _, emb in counter.block_items())
    factors = counter.host.n // counter.pattern.v * counter.count()
    return Fraction(counter.max_block_weight() * copies, factors)


def count_factors(pattern: PatternGraph, g: HostGraph) -> FactorCount:
    """Exact labeled and unlabeled factor counts."""
    check_divisible(pattern, g.n)
    labeled = FactorCounter(pattern, g).count()
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
    check_divisible(pattern, g.n)
    counter = FactorCounter(pattern, g)
    covered = 0
    for bmask, _ in counter.block_items():
        covered |= bmask
    if covered != counter.full_mask:
        return False
    return counter.exists()


def complete_graph_count(pattern: PatternGraph, n: int) -> FactorCount:
    """Closed form on the complete host: labeled count n!/(n/v)!."""
    if n < 0:
        raise InputError(f"n must be nonnegative, got {n}")
    check_divisible(pattern, n)
    return _with_unlabeled(pattern, n, math.factorial(n) // math.factorial(n // pattern.v))

