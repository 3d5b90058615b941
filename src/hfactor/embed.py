"""Labeled copies of a pattern inside a host: enumeration and constrained counts.

A labeled copy is an injection from pattern vertices to host vertices taking
every pattern edge to a host edge.  Copies are represented as tuples whose
i-th entry is the image of pattern vertex i.  The automorphisms of a pattern
are its labeled copies in itself.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import InputError
from .host import HostGraph
from .pattern import PatternGraph

Copy = tuple[int, ...]


@dataclass(frozen=True)
class ConstraintSpec:
    """Pin some pattern vertices and constrain only a subset of pattern edges.

    ``pins`` maps pattern vertices to host vertices (injectively); edges in
    ``constrained_edges`` must land on host edges, all other pattern edges are
    ignored.  No constrained edge may lie entirely inside the pinned set.
    """

    pins: tuple[tuple[int, int], ...]
    constrained_edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pinned = [a for a, _ in self.pins]
        images = [x for _, x in self.pins]
        if len(set(pinned)) != len(pinned):
            raise InputError("a pattern vertex is pinned twice")
        if len(set(images)) != len(images):
            raise InputError("pin images must be distinct")
        object.__setattr__(self, "pins", tuple(sorted(self.pins)))
        edges = tuple(sorted(tuple(sorted(e)) for e in self.constrained_edges))
        pinned_set = set(pinned)
        for e in edges:
            if pinned_set.issuperset(e):
                raise InputError(f"constrained edge {e} lies inside the pinned set")
        if len(set(edges)) != len(edges):
            raise InputError("duplicate constrained edge")
        object.__setattr__(self, "constrained_edges", edges)

    @property
    def pinned_vertices(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.pins)


def full_constraint(pattern: PatternGraph) -> ConstraintSpec:
    """All pattern edges constrained, no pins."""
    return ConstraintSpec(pins=(), constrained_edges=pattern.edges)


def _check_arity(pattern: PatternGraph, g: HostGraph) -> None:
    if pattern.k != g.k:
        raise InputError(f"pattern arity {pattern.k} does not match host arity {g.k}")


def _search_order(v: int, edges, pins) -> list[int]:
    """Pattern vertices ordered so each next one has the most edges into placed ones."""
    placed = set(pins)
    order = []
    remaining = [x for x in range(v) if x not in placed]
    while remaining:
        def score(x):
            return sum(1 for e in edges if x in e and all(y in placed or y == x for y in e))

        best = max(remaining, key=lambda x: (score(x), -x))
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


def _count_or_collect(pattern: PatternGraph, g: HostGraph, spec: ConstraintSpec, collect: bool):
    """Backtracking core shared by the counting and enumeration entry points.

    Only vertices touched by constrained edges (or pinned) are embedded
    explicitly; the remaining free vertices contribute a falling factorial.
    Collected partial copies are tuples indexed by pattern vertex, with None
    at the free vertices.
    """
    _check_arity(pattern, g)
    if g.n < pattern.v:
        return 0, 0, ([] if collect else None)
    pins = dict(spec.pins)
    for a, x in pins.items():
        if not 0 <= a < pattern.v:
            raise InputError(f"pinned pattern vertex {a} out of range")
        if not 0 <= x < g.n:
            raise InputError(f"pin image {x} out of range")
    constrained_vertices = set(pins)
    for e in spec.constrained_edges:
        if tuple(sorted(e)) not in pattern.edges:
            raise InputError(f"constrained edge {e} is not a pattern edge")
        constrained_vertices.update(e)
    free = pattern.v - len(constrained_vertices)
    order = [x for x in _search_order(pattern.v, spec.constrained_edges, pins) if x in constrained_vertices]

    edge_ready = [[] for _ in range(len(order) + 1)]
    pos = {a: -1 for a in pins}
    for i, x in enumerate(order):
        pos[x] = i
    for e in spec.constrained_edges:
        edge_ready[max(pos[x] for x in e) + 1].append(e)
    # the placed pattern vertices of the first ready edge at each depth: the
    # links of their images are the candidates, which complete that edge, so
    # only the other ready edges are tested (None: no ready edge, try every vertex)
    anchors = [[y for y in ready[0] if y != x] if ready else None for x, ready in zip(order, edge_ready[1:])]

    edge_set = g.edge_set
    links = g.links
    image = [None] * pattern.v
    for a, x in pins.items():
        image[a] = x
    used = set(pins.values())
    count = 0
    results = [] if collect else None

    def extend(i: int) -> None:
        nonlocal count
        if i == len(order):
            count += 1
            if collect:
                results.append(tuple(image))
            return
        x, anchor, others = order[i], anchors[i], edge_ready[i + 1][1:]
        for c in range(g.n) if anchor is None else links.get(tuple(sorted(image[y] for y in anchor)), ()):
            if c in used:
                continue
            image[x] = c
            if all(frozenset(image[y] for y in e) in edge_set for e in others):
                used.add(c)
                extend(i + 1)
                used.discard(c)
        image[x] = None

    # fully pinned edges are rejected by ConstraintSpec, so edge_ready[0] is empty
    extend(0)
    multiplier = math.perm(g.n - len(constrained_vertices), free)
    return count, multiplier, results


def constrained_count(pattern: PatternGraph, g: HostGraph, spec: ConstraintSpec) -> int:
    """Number of injections respecting the pins and the constrained edges."""
    count, multiplier, _ = _count_or_collect(pattern, g, spec, collect=False)
    return count * multiplier


def automorphism_count(p: PatternGraph) -> int:
    """Number of vertex permutations mapping the edge set onto itself.

    These are the labeled copies of p in itself: an injection of the vertex
    set into itself is a bijection, and it maps the edge set into itself iff
    onto.
    """
    return constrained_count(p, HostGraph(p.k, p.v, p.edges), full_constraint(p))


def enumerate_copies(pattern: PatternGraph, g: HostGraph) -> list[Copy]:
    """All labeled copies, sorted lexicographically by image tuple."""
    _, _, partials = _count_or_collect(pattern, g, full_constraint(pattern), collect=True)
    # patterns with isolated vertices: extend over unused host vertices
    missing = [x for x in range(pattern.v) if not any(x in e for e in pattern.edges)]
    if not missing:
        return sorted(partials)
    copies = []
    for img in partials:
        for extra in itertools.permutations([c for c in range(g.n) if c not in img], len(missing)):
            whole = list(img)
            for x, c in zip(missing, extra):
                whole[x] = c
            copies.append(tuple(whole))
    copies.sort()
    return copies


def role_images(pattern: PatternGraph, g: HostGraph) -> list[set[int]]:
    """For each pattern vertex, the host vertices it maps to across all copies."""
    if pattern.is_complete():
        # every vertex of a block takes every role
        covered = {x for block, _ in host_blocks(pattern, g) for x in block}
        return [set(covered) for _ in range(pattern.v)]
    count, mult, partials = _count_or_collect(pattern, g, full_constraint(pattern), collect=True)
    realized: list[set[int]] = [set() for _ in range(pattern.v)]
    if count == 0 or mult == 0:
        return realized
    free_roles = []
    for r, column in enumerate(zip(*partials)):
        if column[0] is None:
            free_roles.append(r)
        else:
            realized[r] = set(column)
    if free_roles:
        # an isolated pattern vertex can take any host vertex avoided by some
        # partial embedding (room for the rest is guaranteed by mult > 0)
        contained = [0] * g.n
        for img in partials:
            for x in img:
                if x is not None:
                    contained[x] += 1
        avoided = {x for x in range(g.n) if contained[x] < len(partials)}
        for r in free_roles:
            realized[r] = set(avoided)
    return realized


def copy_degrees(pattern: PatternGraph, g: HostGraph) -> list[int]:
    """For every host vertex x, the number of labeled copies whose image contains x."""
    return block_degrees(g.n, host_blocks(pattern, g))


def degree_regularity(pattern: PatternGraph, g: HostGraph, p: float, eps: float) -> dict:
    """Largest relative deviation of the copy degrees from their expectation, flagged against eps.

    This is part (b) of the regularity check; part (a) is
    ``polynomial.regularity_report``.
    """
    if not eps > 0:
        raise InputError("eps must be positive")
    expected = expected_copy_degree(pattern, g.n, p)
    max_dev, holds = degree_deviation(copy_degrees(pattern, g), expected, eps)
    return {"expected_degree": expected, "max_relative_deviation": max_dev, "holds": holds}


def degree_deviation(degs, expected: float, eps: float) -> tuple[float, bool]:
    """(max |d - E| / E over the copy degrees d, whether max |d - E| <= eps * E).

    With E <= 0 the deviation is inf when some degree is positive, else 0.
    The deletion guard and part (b) of the regularity check both test this.
    """
    if expected <= 0:
        return (math.inf, False) if any(degs) else (0.0, True)
    worst = max(abs(d - expected) for d in degs)
    return worst / expected, worst <= eps * expected


def block_degrees(n: int, blocks) -> list[int]:
    """Per-vertex sums of block multiplicities over (vertices, copies) pairs."""
    degs = [0] * n
    for block, emb in blocks:
        for x in block:
            degs[x] += emb
    return degs


def host_blocks(pattern: PatternGraph, g: HostGraph) -> list[tuple[tuple[int, ...], int]]:
    """Every v-set hosting a copy as (sorted vertex tuple, labeled copies on it).

    Blocks come in lexicographic order.  A single edge hosts k! copies and a
    clique of a complete graph v! copies; any other pattern groups its
    enumerated copies by vertex set.
    """
    _check_arity(pattern, g)
    if pattern.v == pattern.k:
        fac = math.factorial(pattern.k)
        return [(e, fac) for e in g.edges]
    if pattern.k == 2 and pattern.is_complete():
        fac = math.factorial(pattern.v)
        return [(c, fac) for c in _cliques(g.adjacency, pattern.v, (1 << g.n) - 1, ())]
    return sorted(Counter(tuple(sorted(c)) for c in enumerate_copies(pattern, g)).items())


def _cliques(adj, size: int, cand: int, prefix: tuple[int, ...]):
    """Cliques extending prefix by size vertices of cand, in lexicographic order."""
    while cand:
        # take the lowest vertex out of cand, so a clique grows only by later
        # vertices and comes out once, sorted
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        if size == 1:
            yield prefix + (x,)
        else:
            yield from _cliques(adj, size - 1, cand & adj[x], prefix + (x,))


def expected_copy_degree(pattern: PatternGraph, n: int, p: float) -> float:
    """v * (n-1)(n-2)...(n-v+1) * p^m, the independent-edge expectation of a copy degree."""
    if n < pattern.v:
        raise InputError(f"need n >= {pattern.v}")
    return pattern.v * math.perm(n - 1, pattern.v - 1) * p**pattern.m
