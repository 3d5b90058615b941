"""Fixed patterns (graphs or k-uniform hypergraphs) and their density analytics.

A pattern lives on vertices 0..v-1 with edges that are k-subsets.  Densities
are exact rationals so balance classification never hinges on float ties.
Everything here is exhaustive enumeration; patterns are capped at 12 vertices.
The edge-list file format and the edge rules, which hosts share, live here too.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InputError

MAX_PATTERN_VERTICES = 12


class Balance(Enum):
    STRICTLY_BALANCED = "strictly_balanced"
    BALANCED_NOT_STRICT = "balanced_not_strict"
    UNBALANCED = "unbalanced"


@dataclass(frozen=True)
class PatternGraph:
    """Pattern with edge arity ``k``, vertex count ``v`` and a nonempty edge set.

    ``edges`` is normalized to a sorted tuple of sorted vertex tuples.
    """

    k: int
    v: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.v < self.k:
            raise InputError(f"need at least k={self.k} vertices, got {self.v}")
        if self.v > MAX_PATTERN_VERTICES:
            raise InputError(
                f"pattern has {self.v} vertices; exhaustive analytics are capped "
                f"at {MAX_PATTERN_VERTICES}"
            )
        edges = normalized_edges(self.k, self.v, self.edges)
        if not edges:
            raise InputError("pattern must have at least one edge")
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_complete(self) -> bool:
        """Every k-subset is an edge (a single edge is the case v = k)."""
        return self.m == math.comb(self.v, self.k)


@dataclass(frozen=True)
class DensityReport:
    """Density summary of one pattern.

    per_vertex maps each vertex to (local max density, fewest edges among
    subpatterns attaining that density at the vertex).
    """

    density: Fraction
    max_density: Fraction
    per_vertex: dict[int, tuple[Fraction, int]]
    critical_edge_count: int
    balance: Balance


def check_divisible(p: PatternGraph, n: int) -> None:
    """A factor on n vertices needs v to divide n."""
    if n % p.v:
        raise InputError(f"n={n} is not divisible by pattern size {p.v}")


def normalized_edges(k: int, size: int, edges) -> tuple[tuple[int, ...], ...]:
    """The edges as a sorted tuple of sorted vertex tuples, validated.

    Every edge must be a k-subset of the int vertices 0..size-1 (k at least 2),
    no edge may repeat, and edges already in that form are returned as given.
    """
    if k < 2:
        raise InputError(f"edge arity must be at least 2, got {k}")
    if ({*map(type, edges := tuple(edges))} <= {tuple} and {*map(len, edges)} <= {k}
            and {*map(type, itertools.chain.from_iterable(edges))} <= {int}
            and (all([0 <= e[0] < e[1] < size for e in edges]) if k == 2 else not edges or
                 0 <= min(flat := [*itertools.chain.from_iterable(edges)]) and max(flat) < size
                 and all([all(map(operator.lt, flat[j::k], flat[j + 1::k])) for j in range(k - 1)]))
            and all(map(operator.lt, edges, edges[1:]))):
        return edges
    normalized = []
    for e in edges:
        if not hasattr(e, "__iter__") or {*map(type, e := tuple(e))} - {int}:
            raise InputError(f"edge {e!r} is not a collection of int vertices")
        e = tuple(sorted(e))
        if len(e) != k or len(set(e)) != k:
            raise InputError(f"edge {e} is not a {k}-subset")
        if e[0] < 0 or e[-1] >= size:
            raise InputError(f"edge {e} has a vertex outside 0..{size - 1}")
        normalized.append(e)
    normalized.sort()
    for a, b in zip(normalized, normalized[1:]):
        if a == b:
            raise InputError(f"duplicate edge {a}")
    return tuple(normalized)


def pattern_from_edges(k: int, v: int, edges) -> PatternGraph:
    return PatternGraph(k=k, v=v, edges=edges)


def complete_pattern(v: int) -> PatternGraph:
    return pattern_from_edges(2, v, itertools.combinations(range(v), 2))


def single_edge_pattern(k: int) -> PatternGraph:
    return pattern_from_edges(k, k, [tuple(range(k))])


def path_pattern(v: int) -> PatternGraph:
    return pattern_from_edges(2, v, [(i, i + 1) for i in range(v - 1)])


def cycle_pattern(v: int) -> PatternGraph:
    return pattern_from_edges(2, v, [(i, (i + 1) % v) for i in range(v)])


def read_edge_file(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """Read the edge-list file format of patterns and hosts into ``(k, size, edges)``.

    Line 1 is ``graph <size>`` or ``hypergraph <k> <size>``; every following
    nonblank line is one edge given as k vertex indices (0-based).  Lines
    starting with ``#`` are comments.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InputError("empty file")
    header = lines[0].split()
    if header[0] == "graph" and len(header) == 2:
        k, size = 2, _parse_int(header[1])
    elif header[0] == "hypergraph" and len(header) == 3:
        k, size = _parse_int(header[1]), _parse_int(header[2])
    else:
        raise InputError("header must be 'graph <size>' or 'hypergraph <k> <size>'")
    return k, size, [_parse_edge(line, k) for line in lines[1:]]


def parse_pattern(text: str) -> PatternGraph:
    """A pattern from the edge-list file format (see ``read_edge_file``)."""
    return PatternGraph(*read_edge_file(text))


def _parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InputError(f"expected an integer, got {tok!r}") from None


def _parse_edge(line: str, k: int) -> tuple[int, ...]:
    toks = line.split()
    if len(toks) != k:
        raise InputError(f"edge line {line!r} does not have {k} vertices")
    return tuple(_parse_int(t) for t in toks)


def density(p: PatternGraph) -> Fraction:
    """Edge count over vertex count minus one, as an exact rational (v >= k >= 2)."""
    return Fraction(p.m, p.v - 1)


def density_profile(p: PatternGraph) -> DensityReport:
    """Exhaustive local/global density maxima over induced subpatterns.

    Enumerating induced subpatterns suffices: dropping edges at a fixed
    vertex set only lowers the density, so every density maximizer is the
    induced subpattern on its vertex set.  The test suite double-checks this
    reduction against an all-subgraph oracle.
    """
    d = density(p)
    best: list[Fraction | None] = [None] * p.v
    fewest: list[int | None] = [None] * p.v
    max_density = Fraction(0)
    proper_max = Fraction(0)
    for size in range(2, p.v + 1):
        for subset in itertools.combinations(range(p.v), size):
            sset = set(subset)
            e_in = sum(1 for e in p.edges if sset.issuperset(e))
            d_sub = Fraction(e_in, size - 1)
            max_density = max(max_density, d_sub)
            if size < p.v:
                proper_max = max(proper_max, d_sub)
            # sizes ascend, so a later subset of equal density has no fewer edges
            for x in subset:
                if best[x] is None or d_sub > best[x]:
                    best[x] = d_sub
                    fewest[x] = e_in
    per_vertex = {x: (best[x], fewest[x]) for x in range(p.v)}
    if proper_max < d:
        balance = Balance.STRICTLY_BALANCED
    elif max_density == d:
        balance = Balance.BALANCED_NOT_STRICT
    else:
        balance = Balance.UNBALANCED
    return DensityReport(
        density=d,
        max_density=max_density,
        per_vertex=per_vertex,
        critical_edge_count=max(fewest[x] for x in range(p.v)),
        balance=balance,
    )
