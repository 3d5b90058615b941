"""Host (hyper)graphs on [n], random models, and the two-model comparison.

Random hosts come from the independent-edge model (each k-set kept with
probability p) or the fixed-size model (a uniform M-subset of all k-sets).
All sampling is deterministic in the seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .parallel import pool_scope, run_trials
from .pattern import PatternGraph, check_divisible, normalized_edges, read_edge_file
from .rng import derive_seed, rng_for

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
        return frozenset(e) in self.edge_set

    def without_edge(self, e) -> "HostGraph":
        key = tuple(sorted(e))
        if not self.has_edge(key):
            raise InputError(f"edge {key} not present")
        return HostGraph(self.k, self.n, tuple(x for x in self.edges if x != key))


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


def _factor_sample_worker(payload) -> bool:
    pattern, n, mode, param, seed = payload
    from .factor import has_factor

    if mode == "p":
        g = sample_gnp(pattern.k, n, param, seed)
    else:
        g = sample_gnm(pattern.k, n, param, seed)
    return has_factor(pattern, g)


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
