"""Host (hyper)graphs on [n] and their random models.

Random hosts come from the independent-edge model (each k-set kept with
probability p) or the fixed-size model (a uniform M-subset of all k-sets).
All sampling is deterministic in the seed.  The comparison of the two
models, which needs factor existence, is in ``thresholds``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .pattern import normalized_edges, read_edge_file
from .rng import rng_for

MAX_HOST_VERTICES_SAMPLING = 10_000


@dataclass(frozen=True)
class HostGraph:
    """A k-uniform host on vertices 0..n-1; edges are sorted vertex tuples."""

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise InputError("vertex count must be nonnegative")
        object.__setattr__(self, "edges", normalized_edges(self.k, self.n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(e) for e in self.edges)

    @cached_property
    def links(self) -> dict[tuple[int, ...], list[int]]:
        """Sorted (k-1)-tuple -> the vertices completing it to an edge, increasing (k=2: neighbours)."""
        links: dict[tuple[int, ...], list[int]] = {}
        for e in self.edges:  # sorted edges give each list in increasing order
            for i, x in enumerate(e):
                links.setdefault(e[:i] + e[i + 1:], []).append(x)
        return links

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmasks; only meaningful for k=2."""
        adj = [0] * self.n
        if self.k == 2:
            for a, b in self.edges:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        return tuple(adj)

    def has_edge(self, e) -> bool:
        """Whether e, its vertices in any order, is an edge: a binary search of the sorted edges."""
        try:
            key = tuple(sorted(e))
            i = bisect.bisect_left(self.edges, key)
        except TypeError:  # vertices that do not compare with ints are in no edge
            return False
        return self.edges[i:i + 1] == (key,)

    def without_edge(self, e) -> "HostGraph":
        key = tuple(sorted(e))
        if not self.has_edge(key):
            raise InputError(f"edge {key} not present")
        i = bisect.bisect_left(self.edges, key)
        return HostGraph(self.k, self.n, self.edges[:i] + self.edges[i + 1:])


def host_from_edges(k: int, n: int, edges) -> HostGraph:
    return HostGraph(k=k, n=n, edges=edges)


def complete_host(k: int, n: int) -> HostGraph:
    return host_from_edges(k, n, itertools.combinations(range(n), k))


def parse_host(text: str) -> HostGraph:
    """A host from the edge-list file format of patterns, with n in the header."""
    return HostGraph(*read_edge_file(text))


def total_edges(k: int, n: int) -> int:
    return math.comb(n, k)


def mask_bits(mask: int):
    """The set bits of a vertex bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edges_at_ranks(ranks, n: int, k: int):
    """The k-subsets of range(n) at increasing lexicographic ranks, in one forward walk.

    Cursor x[j] spans the ranks [lo[j], hi[j]) of the k-subsets starting with
    x[:j+1]; x[-1] is read off (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005).
    """
    x, lo, hi = [-1] * k, [0] * k, [0] * k
    for r in ranks:
        if r >= hi[-2]:
            # re-seat the positions from the first whose range r has left
            j = 0
            while r < hi[j]:
                j += 1
            for i in range(j, k - 1):
                if i > j:
                    x[i], hi[i] = x[i - 1], lo[i - 1]
                while r >= hi[i]:
                    x[i] += 1
                    lo[i], hi[i] = hi[i], hi[i] + math.comb(n - 1 - x[i], k - 1 - i)
        x[-1] = x[-2] + 1 + r - lo[-2]
        yield tuple(x)


def check_sampling_size(n: int, k: int) -> None:
    if n > MAX_HOST_VERTICES_SAMPLING:
        raise InputError(f"sampling is capped at n={MAX_HOST_VERTICES_SAMPLING}")
    if n < k:
        raise InputError(f"need n >= k, got n={n}, k={k}")


def sample_gnp(k: int, n: int, p: float, seed: int) -> HostGraph:
    """Independent-edge random host; identical (k, n, p, seed) gives an identical graph."""
    check_sampling_size(n, k)
    if not 0.0 <= p <= 1.0:
        raise InputError(f"p must lie in [0, 1], got {p}")
    total = total_edges(k, n)
    rng = rng_for(seed)
    if p >= 1.0:
        return complete_host(k, n)
    if p <= 0.0:
        return host_from_edges(k, n, [])
    # geometric skipping: gaps between kept indices are iid Geometric(p)
    log_q = math.log1p(-p)
    kept = []
    i = -1
    # compare the float gap with the ranks left first: for tiny p int() overflows
    while (gap := math.log(1.0 - rng.random()) / log_q) < total - i - 1:
        i += 1 + int(gap)
        kept.append(i)
    return host_from_edges(k, n, _edges_at_ranks(kept, n, k))


def sample_gnm(k: int, n: int, m_edges: int, seed: int) -> HostGraph:
    """Uniform host with exactly m_edges edges."""
    check_sampling_size(n, k)
    total = total_edges(k, n)
    if not 0 <= m_edges <= total:
        raise InputError(f"edge count {m_edges} out of range 0..{total}")
    rng = rng_for(seed)
    chosen = sorted(rng.sample(range(total), m_edges))
    return host_from_edges(k, n, _edges_at_ranks(chosen, n, k))


def random_ordering(k: int, n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Uniform random permutation of the complete edge list."""
    if n < k:
        raise InputError(f"need n >= k, got n={n}, k={k}")
    rng = rng_for(seed)
    seq = list(itertools.combinations(range(n), k))
    rng.shuffle(seq)
    return tuple(seq)
