"""Independent brute-force oracles the tests check the library against.

Everything here enumerates without memoization or pruning shortcuts, so it
stays independent of the code paths it validates.  The copy-polynomial
oracles enumerate every anchored injection into the complete host and
histogram the subsets of their edge images.  The one Monte Carlo
reference, ``binomial_mixture_estimate``, is built from the fixed-size model
alone, so it checks the independent-edge model through the identity that
couples the two.  ``unrank_edge`` and the two ``*_unranked`` samplers are
the samplers as first written, unranking each kept index on its own; the
library's rank walk must give the same hosts.  ``copy_degree`` counts
through ``constrained_count`` with one role pinned, a path apart from the
blocks that ``copy_degrees`` sums.  ``sort_then_check_edges`` is the edge
validator as first written, sorting and checking every edge; the library
returns edges already in that form after one scan, with the same result.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from hfactor.embed import ConstraintSpec, constrained_count
from hfactor.errors import InputError
from hfactor.factor import has_factor
from hfactor.host import HostGraph, complete_host, host_from_edges, sample_gnm, total_edges
from hfactor.pattern import PatternGraph
from hfactor.rng import derive_seed, rng_for


def sort_then_check_edges(k: int, size: int, edges) -> tuple[tuple[int, ...], ...]:
    """``normalized_edges`` as first written: sort each edge, check it, sort, find repeats.

    It has no vertex type check; int vertices are all it is compared on.
    """
    if k < 2:
        raise InputError(f"edge arity must be at least 2, got {k}")
    normalized = []
    for e in edges:
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


def unrank_edge(index: int, n: int, k: int) -> tuple[int, ...]:
    """The index-th k-subset of range(n) in lexicographic order."""
    combo = []
    x = 0
    for j in range(k, 0, -1):
        while math.comb(n - x - 1, j - 1) <= index:
            index -= math.comb(n - x - 1, j - 1)
            x += 1
        combo.append(x)
        x += 1
    return tuple(combo)


def sample_gnp_unranked(k: int, n: int, p: float, seed: int) -> HostGraph:
    """``sample_gnp`` with one ``unrank_edge`` per kept index (same draws)."""
    total = total_edges(k, n)
    rng = rng_for(seed)
    if p >= 1.0:
        return complete_host(k, n)
    if p <= 0.0:
        return host_from_edges(k, n, [])
    log_q = math.log1p(-p)
    edges = []
    i = -1
    while True:
        i += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if i >= total:
            break
        edges.append(unrank_edge(i, n, k))
    return host_from_edges(k, n, edges)


def sample_gnm_unranked(k: int, n: int, m_edges: int, seed: int) -> HostGraph:
    """``sample_gnm`` with one ``unrank_edge`` per drawn index, in draw order."""
    chosen = rng_for(seed).sample(range(total_edges(k, n)), m_edges)
    return host_from_edges(k, n, [unrank_edge(i, n, k) for i in chosen])


def all_subgraph_profile(p: PatternGraph):
    """(max density, per-vertex (max density, fewest edges)) over ALL subgraphs.

    A subgraph is any vertex subset of size >= 2 with any subset of the
    induced edges; isolated vertices inside the subset are allowed.
    """
    best_global = Fraction(0)
    best = {x: Fraction(0) for x in range(p.v)}
    fewest = {x: None for x in range(p.v)}
    for size in range(2, p.v + 1):
        for subset in itertools.combinations(range(p.v), size):
            sset = set(subset)
            inside = [e for e in p.edges if sset.issuperset(e)]
            for r in range(len(inside) + 1):
                for chosen in itertools.combinations(inside, r):
                    d = Fraction(len(chosen), size - 1)
                    best_global = max(best_global, d)
                    for x in subset:
                        if d > best[x]:
                            best[x] = d
                            fewest[x] = len(chosen)
                        elif d == best[x] and (fewest[x] is None or len(chosen) < fewest[x]):
                            fewest[x] = len(chosen)
    return best_global, {x: (best[x], fewest[x]) for x in range(p.v)}


def edge_set(edges) -> frozenset[frozenset[int]]:
    """The edges as vertex sets, for membership tests."""
    return frozenset(frozenset(e) for e in edges)


def automorphisms_bruteforce(p: PatternGraph) -> int:
    count = 0
    edges = edge_set(p.edges)
    for perm in itertools.permutations(range(p.v)):
        if all(frozenset(perm[x] for x in e) in edges for e in p.edges):
            count += 1
    return count


def injection_copies(p: PatternGraph, g: HostGraph):
    """Every labeled copy, by filtering all injections."""
    out = []
    edges = edge_set(g.edges)
    for perm in itertools.permutations(range(g.n), p.v):
        if all(frozenset(perm[x] for x in e) in edges for e in p.edges):
            out.append(perm)
    return out


def copy_degree(p: PatternGraph, g: HostGraph, x: int) -> int:
    """Labeled copies whose image contains x, as one pinned count per role.

    The oracle for ``copy_degrees``, which sums over ``host_blocks`` instead.
    """
    # x is the image of exactly one pattern vertex per copy, so roles add up
    return sum(
        constrained_count(p, g, ConstraintSpec(((r, x),), p.edges)) for r in range(p.v)
    )


def block_embeddings(p: PatternGraph, g: HostGraph, block) -> int:
    return _block_embeddings(p, edge_set(g.edges), block)


def _block_embeddings(p: PatternGraph, edges, block) -> int:
    count = 0
    for perm in itertools.permutations(block):
        if all(frozenset(perm[x] for x in e) in edges for e in p.edges):
            count += 1
    return count


def iter_block_partitions(universe, v):
    """All partitions of a sorted vertex list into blocks of size v."""
    if not universe:
        yield []
        return
    head, rest = universe[0], universe[1:]
    for others in itertools.combinations(rest, v - 1):
        block = (head,) + others
        remaining = [x for x in rest if x not in others]
        for tail in iter_block_partitions(remaining, v):
            yield [block] + tail


def partition_factor_count(p: PatternGraph, g: HostGraph) -> int:
    """Labeled factor count by direct enumeration of vertex partitions."""
    if g.n % p.v:
        raise ValueError("vertex count not divisible")
    total = 0
    edges = edge_set(g.edges)
    for part in iter_block_partitions(list(range(g.n)), p.v):
        prod = 1
        for block in part:
            prod *= _block_embeddings(p, edges, block)
            if prod == 0:
                break
        total += prod
    return total


def factor_list(p: PatternGraph, g: HostGraph):
    """Every labeled factor as a frozenset of copies; exponential, tiny n only."""
    factors = []
    edges = edge_set(g.edges)
    for part in iter_block_partitions(list(range(g.n)), p.v):
        per_block = []
        for block in part:
            embs = [
                perm
                for perm in itertools.permutations(block)
                if all(frozenset(perm[x] for x in e) in edges for e in p.edges)
            ]
            if not embs:
                per_block = None
                break
            per_block.append(embs)
        if per_block is None:
            continue
        for combo in itertools.product(*per_block):
            factors.append(frozenset(combo))
    return factors


def binomial_mixture_estimate(p: PatternGraph, n: int, prob: float, trials: int, seed: int):
    """(estimate, SE) of sum_M Bin(N, prob)(M) * Pr_gnm(factor | M).

    Each trial draws M from Bin(N, prob) by N Bernoulli trials, then one
    fixed-size host with M edges.  This equals Pr_gnp(factor) exactly, while
    the fixed-size estimate at the single M of ``compare_models`` does not.
    Uses streams 5 and 6 of ``seed``; ``compare_models`` uses 0-4.
    """
    total = total_edges(p.k, n)
    hits = 0
    for t in range(trials):
        rng = rng_for(seed, 5, t)
        m_edges = sum(rng.random() < prob for _ in range(total))
        hits += has_factor(p, sample_gnm(p.k, n, m_edges, derive_seed(seed, 6, t)))
    est = hits / trials
    return est, math.sqrt(est * (1.0 - est) / trials)


def anchored_edge_images(f):
    """The edge image of every anchored injection of a CopyPolynomial f, one per injection."""
    spec = f.spec
    pins = dict(spec.pins)
    constrained = set(pins)
    for e in spec.constrained_edges:
        constrained.update(e)
    free_slots = sorted(constrained - set(pins))
    hosts = [x for x in range(f.n) if x not in set(pins.values())]
    for choice in itertools.permutations(hosts, len(free_slots)):
        img = dict(pins)
        img.update(zip(free_slots, choice))
        yield frozenset(tuple(sorted(img[x] for x in e)) for e in spec.constrained_edges)


@lru_cache(maxsize=64)
def edge_image_terms(f) -> dict:
    """Coefficient of each full edge image (term of the polynomial) in f's basis."""
    terms = Counter(anchored_edge_images(f))
    constrained = set(f.spec.pinned_vertices)
    for e in f.spec.constrained_edges:
        constrained.update(e)
    mult = math.perm(f.n - len(constrained), f.pattern.v - len(constrained))
    if f.collapse:
        return {u: 1 for u in terms} if mult > 0 else {}
    return {u: c * mult for u, c in terms.items()}


@lru_cache(maxsize=64)
def _subset_histogram(f) -> list:
    """Per order j, the coefficient sum over the terms containing each j-set of host edges."""
    sub_counts = [Counter() for _ in range(f.degree + 1)]
    for u, c in edge_image_terms(f).items():
        edges = sorted(u)
        for j in range(1, f.degree + 1):
            for sub in itertools.combinations(edges, j):
                sub_counts[j][frozenset(sub)] += c
    return sub_counts


def derivative_profile_bruteforce(f, p: float) -> dict:
    """The derivative profile from the explicit term histogram."""
    terms = edge_image_terms(f)
    sub_counts = _subset_histogram(f)
    d = f.degree
    e0 = sum(terms.values()) * p**d
    e_by_order = {}
    for j in range(1, d + 1):
        e_by_order[j] = max(sub_counts[j].values(), default=0) * p ** (d - j)
    e_star = max([e0] + [e_by_order[j] for j in range(1, d)], default=e0)
    eprime_max = max((e_by_order[j] for j in range(1, d)), default=0.0)
    min_exponent = None
    if e0 > 0 and f.n > 1:
        ratios = [e0 / (c * p ** (d - j)) for j in range(1, d) for c in sub_counts[j].values()]
        if ratios:
            min_exponent = math.log(min(ratios)) / math.log(f.n)
    return {
        "degree": d,
        "expectation": e0,
        "e_by_order": e_by_order,
        "e_star": e_star,
        "eprime_max": eprime_max,
        "normalization": max(terms.values(), default=0),
        "min_exponent": min_exponent,
    }


def evaluate_bruteforce(f, g: HostGraph) -> int:
    """Coefficient sum of the terms whose edges are all present in g."""
    edges = edge_set(g.edges)
    return sum(c for u, c in edge_image_terms(f).items() if all(frozenset(e) in edges for e in u))


def weight_lemma_hypothesis_bruteforce(n: int, v: int, weights: dict, bound: float):
    """The first (v-1)-set of range(n), lexicographically, that breaks the weight
    lemma's hypothesis, or None when it holds.

    Straight from the definition: psi(Y) is the largest weight of a v-superset
    of Y (absent keys weigh 0), and Y breaks the hypothesis when
    psi(Y) >= bound but fewer than (n-v)/2 vertices x complete Y to a v-set
    of weight >= psi(Y)/2.
    """
    w = {frozenset(key): value for key, value in weights.items()}
    for y in itertools.combinations(range(n), v - 1):
        completions = [w.get(frozenset(y) | {x}, 0.0) for x in range(n) if x not in y]
        psi = max(completions)
        if psi >= bound and 2 * sum(c >= psi / 2 for c in completions) < n - v:
            return y
    return None
