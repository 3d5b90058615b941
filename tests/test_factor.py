import gc
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import graph_hosts, graph_patterns, hypergraph_patterns
from oracles import injection_copies, partition_factor_count

from hfactor.errors import InputError
from hfactor.factor import FactorCounter, complete_graph_count, count_factors, flatness, has_factor
from hfactor.host import complete_host, host_from_edges, random_ordering, sample_gnp
from hfactor.pattern import (
    complete_pattern,
    cycle_pattern,
    path_pattern,
    pattern_from_edges,
    single_edge_pattern,
)
from hfactor.rng import derive_seed

K2 = complete_pattern(2)
K3 = complete_pattern(3)
E3 = single_edge_pattern(3)
P3 = path_pattern(3)
C4 = cycle_pattern(4)


def test_exact_counts():
    assert count_factors(K2, complete_host(2, 4)) == complete_graph_count(K2, 4)
    assert count_factors(K2, complete_host(2, 4)).labeled == 12
    assert count_factors(K3, complete_host(2, 6)).labeled == 360
    assert count_factors(K3, complete_host(2, 6)).unlabeled == 10
    assert count_factors(K3, complete_host(2, 9)) == complete_graph_count(K3, 9)
    assert complete_graph_count(K3, 9).labeled == 60480
    assert complete_graph_count(K3, 9).unlabeled == 280


def test_zero_when_vertex_uncoverable():
    g = host_from_edges(2, 6, [(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
    # vertex 0 is isolated
    assert count_factors(K3, g).labeled == 0
    assert not has_factor(K3, g)


def test_count_validation():
    with pytest.raises(InputError):
        count_factors(K3, complete_host(2, 7))
    with pytest.raises(InputError):
        count_factors(K2, complete_host(2, 26))
    with pytest.raises(InputError):
        count_factors(K2, complete_host(3, 6))


def test_count_rejects_mask_outside_host():
    counter = FactorCounter(K2, complete_host(2, 6))
    for mask in (1 << 6, -1, 0b1000000011):
        with pytest.raises(InputError, match="outside"):
            counter.count(mask)
        with pytest.raises(InputError, match="outside"):
            counter.exists(mask)
    assert counter.count(0b111111) == counter.count() == 120  # 15 matchings, 2^3 labelings


def test_single_vertex_block_case():
    # n equal to the pattern size: the whole host is the single block
    assert count_factors(K3, complete_host(2, 3)).labeled == 6
    assert complete_graph_count(K3, 3).labeled == 6


# twice the default examples, so the graph cases keep their share
@settings(max_examples=80)
@given(st.one_of(st.tuples(graph_patterns(max_v=3), graph_hosts(min_n=2, max_n=8)), hypergraph_patterns()))
def test_counts_match_partition_oracle(case):
    p, g = case
    if g.n % p.v:
        return
    assert count_factors(p, g).labeled == partition_factor_count(p, g)


def test_counts_match_oracle_hypergraph():
    for seed in range(5):
        g = sample_gnp(3, 6, 0.6, seed)
        assert count_factors(E3, g).labeled == partition_factor_count(E3, g)


def test_labeled_unlabeled_consistency():
    for n in (4, 6, 8):
        for seed in range(5):
            g = sample_gnp(2, n, 0.7, seed)
            fc = count_factors(K2, g)
            assert fc.labeled == fc.unlabeled * 2 ** (n // 2)
            assert (fc.labeled == 0) == (fc.unlabeled == 0)


def test_expectation_matches_monte_carlo():
    n, p, trials = 8, 0.5, 4000
    vals = [
        count_factors(K2, sample_gnp(2, n, p, derive_seed(5, t))).labeled
        for t in range(trials)
    ]
    mean = sum(vals) / trials
    se = math.sqrt(sum((x - mean) ** 2 for x in vals) / trials) / math.sqrt(trials)
    assert abs(mean - 105.0) <= 4 * se


def test_edge_fraction_examples():
    # the share of the factors whose copies use the edge
    for pat, n, e, share in [(K2, 4, (0, 1), Fraction(1, 3)), (K3, 3, (0, 1), 1), (K3, 6, (2, 5), Fraction(2, 5))]:
        counter = FactorCounter(pat, complete_host(2, n))
        assert Fraction(counter.count_using_edge(e), counter.count()) == share


def test_edge_fraction_matches_two_counts():
    for seed in range(30):
        g = sample_gnp(2, 8, 0.8, seed)
        counter = FactorCounter(K2, g)
        total = counter.count()
        if total == 0:
            continue
        for e in g.edges[:4]:
            removed = count_factors(K2, g.without_edge(e)).labeled
            assert counter.count_using_edge(e) == total - removed
            assert removed <= total  # deletion monotonicity


def test_edge_sum_identity():
    # every factor uses m*n/v edges, so the edge fractions sum to m*n/v
    for pat, n, p in [(K2, 8, 0.7), (K3, 6, 0.85), (E3, 6, 0.7)]:
        found = 0
        for seed in range(60):
            g = sample_gnp(pat.k, n, p, derive_seed(77, seed))
            counter = FactorCounter(pat, g)
            if counter.count() == 0:
                continue
            found += 1
            acc = Fraction(sum(counter.count_using_edge(e) for e in g.edges), counter.count())
            assert acc == Fraction(pat.m * n, pat.v)
            if found >= 10:
                break
        assert found >= 5


def test_weight_w_examples():
    # w(Z) for a v-set Z: the factors of the host minus Z
    assert FactorCounter(K2, complete_host(2, 4)).count(0b1100) == 2
    assert FactorCounter(K3, complete_host(2, 6)).count(0b111000) == 6
    assert FactorCounter(K3, complete_host(2, 3)).count(0) == 1  # empty remainder


def test_b_statistic_symmetric():
    # B is the flatness max/mean of the copy weights
    assert flatness(FactorCounter(K3, complete_host(2, 6))) == 1
    assert flatness(FactorCounter(K2, complete_host(2, 4))) == 1


def test_b_statistic_path():
    # the path 0-1-2-3: copies on 01 and 23 weigh 2 each, the two on 12 weigh 0
    counter = FactorCounter(K2, host_from_edges(2, 4, [(0, 1), (1, 2), (2, 3)]))
    assert flatness(counter) == Fraction(3, 2)
    assert counter.max_block_weight() == 2
    assert counter.block_weights() == [2, 0, 2]


@given(st.sampled_from([K2, K3, P3, C4, E3]), st.data())
def test_weight_sum_identity(pat, data):
    # every factor has n/v copies, so the copy weights sum to (n/v) * count,
    # and flatness reads max / mean off the block weights alone
    n = pat.v * data.draw(st.integers(min_value=1, max_value=9 // pat.v), label="n/v")
    p = data.draw(st.floats(min_value=0.0, max_value=1.0), label="p")
    g = sample_gnp(pat.k, n, p, data.draw(st.integers(min_value=0, max_value=2**32), label="seed"))
    counter = FactorCounter(pat, g)
    total = counter.count()
    if total == 0:
        return
    full = counter.full_mask
    weights = [counter.count(full & ~sum(1 << x for x in c)) for c in injection_copies(pat, g)]
    assert sum(weights) == (n // pat.v) * total
    assert flatness(counter) == Fraction(max(weights) * len(weights), sum(weights))
    assert flatness(counter) >= 1


def test_hypergraph_counts():
    assert count_factors(E3, complete_host(3, 6)).labeled == 360
    assert count_factors(E3, complete_host(3, 6)).unlabeled == 10
    n, k = 6, 3
    formula = math.factorial(n) // (math.factorial(n // k) * math.factorial(k) ** (n // k))
    assert count_factors(E3, complete_host(3, 6)).unlabeled == formula


def test_counter_memo_reuse():
    g = complete_host(2, 8)
    counter = FactorCounter(K2, g)
    full = counter.count()
    assert full == complete_graph_count(K2, 8).labeled
    # induced-subgraph counts through the same memo
    assert counter.count(counter.full_mask & ~0b11) == complete_graph_count(K2, 6).labeled


def test_block_weights_are_complement_counts():
    for p, n, prob in [(K2, 8, 0.6), (K3, 9, 0.8), (P3, 9, 0.6)]:
        g = sample_gnp(p.k, n, prob, derive_seed(77, p.v, p.m))
        counter = FactorCounter(p, g)
        blocks = counter.block_items()
        assert blocks
        assert counter.block_weights() == [
            counter.count(sum(1 << x for x in range(n) if not bmask >> x & 1)) for bmask, _ in blocks
        ]


def test_exists_memoizes_failure_as_zero_count():
    # a star at 1 plus the edge 45: the leaves 0, 2 and 3 cannot all be matched
    g = host_from_edges(2, 6, [(0, 1), (1, 2), (1, 3), (4, 5)])
    counter = FactorCounter(K2, g)
    assert not counter.exists()
    assert counter.exists(0b110011)
    assert counter.count() == 0 and counter.count(0b110011) == 4  # labeled: 2 * 2
    assert not counter.without_edge((1, 2)).exists()


# The per-edge index against brute force: uniform patterns (K2, K3, one
# 3-edge) take their entries from the block multiplicity, the others from the
# embedding walk; the path's blocks lose copies without dying.
PENDANT_HUB = pattern_from_edges(2, 4, [(0, 1), (1, 2), (0, 2), (0, 3)])
TWO_TRIPLES = pattern_from_edges(3, 4, [(0, 1, 2), (1, 2, 3)])
EDGE_USE_CASES = [
    (K2, 8, 0.5), (K3, 9, 0.7), (P3, 9, 0.5), (PENDANT_HUB, 8, 0.7),
    (E3, 9, 0.3), (TWO_TRIPLES, 8, 0.5),
]


@pytest.mark.parametrize(
    "p, n, prob", EDGE_USE_CASES,
    ids=["K2", "K3", "P3", "pendant-hub", "E3", "two-triples"],
)
def test_edge_use_table_matches_oracles(p, n, prob):
    nonzero = 0
    for t in range(3):
        g = sample_gnp(p.k, n, prob, derive_seed(5150, p.k, p.v, p.m, t))
        images = [{frozenset(c[x] for x in pe) for pe in p.edges} for c in injection_copies(p, g)]
        counter = FactorCounter(p, g)
        assert counter.copies_per_edge_max() == max(
            (sum(frozenset(e) in imgs for imgs in images) for e in g.edges), default=0
        )
        total = partition_factor_count(p, g)
        for e in g.edges:
            using = total - partition_factor_count(p, g.without_edge(e))
            assert counter.count_using_edge(e) == using
            nonzero += using > 0
    assert nonzero > 0


# A counter carried through deletions with without_edge against one built
# from scratch on the same host, at every step of seeded orderings: uniform
# patterns (K2, K3, K4, one 3-edge) lose whole blocks, the others lose some
# copies of a block, and the isolated-vertex pattern's copies extend over
# every vertex outside their edge.
K4 = complete_pattern(4)
EDGE_AND_VERTEX = pattern_from_edges(2, 3, [(0, 1)])
K4_3 = pattern_from_edges(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
CARRIED_CASES = [
    (K2, 8), (K3, 9), (K4, 8), (E3, 9), (P3, 9), (C4, 8), (TWO_TRIPLES, 8), (EDGE_AND_VERTEX, 9),
    (K4_3, 8),
]


@pytest.mark.parametrize(
    "p, n", CARRIED_CASES,
    ids=["K2-8", "K3-9", "K4-8", "E3-9", "P3-9", "C4-8", "two-triples-8", "edge-and-vertex-9",
         "K4_3-8"],
)
def test_without_edge_matches_fresh_counter(p, n):
    for seed in (3, 4):
        g = complete_host(p.k, n)
        carried = FactorCounter(p, g)
        for e in random_ordering(p.k, n, seed):
            g = g.without_edge(e)
            carried = carried.without_edge(e)
            fresh = FactorCounter(p, g)
            # every memo entry carried over, corrected through e or kept as it was, is exact
            assert carried._memo == {m: fresh.count(m) for m in carried._memo}
            assert carried.block_items() == fresh.block_items()
            # the carried copy groups and per-edge index are exactly the fresh ones
            assert carried._edge_index() == fresh._edge_index()
            assert carried._copies == fresh._copies
            masks = [fresh.full_mask] + [fresh.full_mask & ~b for b, _ in fresh.block_items()]
            # existence first, so failed masks are memoized before the counts
            for counter in (carried, fresh):
                counter.exists(masks[0])
            assert [carried.exists(m) for m in masks] == [fresh.exists(m) for m in masks]
            assert [carried.count(m) for m in masks] == [fresh.count(m) for m in masks]
            assert carried.block_weights() == fresh.block_weights()
            assert carried.copies_per_edge_max() == fresh.copies_per_edge_max()
            assert carried.copy_vertex_degrees() == fresh.copy_vertex_degrees()
            assert [carried.count_using_edge(x) for x in g.edges] == [
                fresh.count_using_edge(x) for x in g.edges
            ]


def test_without_edge_recounts_full_count_from_corrected_memo():
    # block_weights memoizes count(full - B) for every block B; those through e are corrected
    # across the deletion, while the full count is dropped and recounted in one new DP state
    g = complete_host(2, 9)
    counter = FactorCounter(K3, g)
    e = g.edges[-1]  # (7, 8): the blocks at vertex 0 that avoid it leave masks through it
    total, using = counter.count(), counter.count_using_edge(e)
    counter.block_weights()
    child = counter.without_edge(e)
    assert child.full_mask not in child._memo
    emask = sum(1 << x for x in e)
    subs = [child.full_mask & ~b for b, _ in child.block_items() if b & 1]
    assert all(m in child._memo for m in subs)
    assert any(m & emask == emask and child._memo[m] != counter._memo[m] for m in subs)
    states = len(child._memo)
    assert child.count() == total - using == FactorCounter(K3, g.without_edge(e)).count() > 0
    assert len(child._memo) == states + 1


def _one_object_per_value(counts):
    # some counts repeat, above the small ints CPython keeps one object of anyway
    assert len(counts) > len(set(counts)) and max(counts) > 256
    return len({id(c) for c in counts}) == len(set(counts))


def test_memo_keeps_each_distinct_count_once():
    # on the complete host every mask of one size has the same count
    g = complete_host(2, 12)
    counter = FactorCounter(K2, g)
    counter.count()
    assert _one_object_per_value(list(counter._memo.values()))
    e = (10, 11)  # the masks of one size through e are corrected to one value
    emask = sum(1 << x for x in e)
    child = counter.without_edge(e)
    assert _one_object_per_value([c for m, c in child._memo.items() if m & emask == emask])


def _carried_state(counter):
    """Deep copies of what without_edge reads from a counter."""
    index = counter._edge_index()  # also builds the copy groups of each block
    return (
        list(counter.block_items()),
        [list(items) for items in counter._blocks_by_min],
        {m: dict(groups) for m, groups in counter._copies.items()},
        {e: dict(uses) for e, uses in index.items()},
        counter.copy_vertex_degrees(),
        dict(counter._memo),
        dict(counter._bounds),
    )


@pytest.mark.parametrize(
    "p, n", [(K3, 9), (C4, 8), (TWO_TRIPLES, 8)], ids=["K3-9", "C4-8", "two-triples-8"]
)
def test_without_edge_leaves_parent_unchanged(p, n):
    g = complete_host(p.k, n)
    for e in random_ordering(p.k, n, 5)[: len(g.edges) // 3]:
        g = g.without_edge(e)
    counter = FactorCounter(p, g)
    counter.count()
    counter.block_weights()
    counter.max_block_weight()  # records every weight as its block's bound
    before = _carried_state(counter)
    children = [counter.without_edge(e) for e in g.edges]
    assert _carried_state(counter) == before
    # every child carries its own copies of the state it was handed
    for child in children:
        child.count()
        child.copy_vertex_degrees()
        child.max_block_weight()
    assert _carried_state(counter) == before


# The deletion guard's bounded search for max_B count(full - B), carried with the
# weight bounds along random deletion orders, against every block counted afresh.
FLATNESS_CASES = [(K2, (6, 8)), (K3, (9,)), (C4, (8,)), (E3, (9,)), (TWO_TRIPLES, (8,))]


@st.composite
def deletion_walks(draw):
    """A pattern, a complete or G(n, p) host with a factor-sized n, and a deletion order."""
    p, sizes = draw(st.sampled_from(FLATNESS_CASES))
    n, prob = draw(st.sampled_from(sizes)), draw(st.sampled_from([0.5, 0.8, 1.0]))
    g = complete_host(p.k, n) if prob == 1.0 else sample_gnp(p.k, n, prob, draw(st.integers(0, 2**32)))
    order = draw(st.permutations(g.edges))
    return p, g, order[:8]


def _check_flatness(counter):
    """The counter's search against every block weight of a fresh counter on its host."""
    fresh = FactorCounter(counter.pattern, counter.host)
    top = max(fresh.block_weights(), default=0)
    if factors := fresh.count():
        copies = sum(emb for _, emb in fresh.block_items())
        assert flatness(counter) == Fraction(top * copies, counter.host.n // counter.pattern.v * factors)
    assert counter.max_block_weight() == top


@given(deletion_walks(), st.data())
def test_carried_flatness_matches_fresh_counter(walk, data):
    p, g, order = walk
    # the search on a counter that has counted nothing yet
    assert FactorCounter(p, g).max_block_weight() == max(FactorCounter(p, g).block_weights(), default=0)
    counter = FactorCounter(p, g)
    _check_flatness(counter)
    for e in order:
        # two children of one counter, each with its own copy of the bounds: the one
        # deleting other edges (and its children) reads and tightens its copy first
        branch = counter
        for f in data.draw(st.permutations([f for f in g.edges if f != e]), label="sibling")[:3]:
            branch = branch.without_edge(f)
            _check_flatness(branch)
        child = counter.without_edge(e)
        _check_flatness(child)
        # the parent's search again, after its children ran
        _check_flatness(counter)
        counter, g = child, g.without_edge(e)


@pytest.mark.parametrize(
    "p, n", [(K2, 8), (K3, 9), (C4, 8), (E3, 9), (TWO_TRIPLES, 8), (EDGE_AND_VERTEX, 9)],
    ids=["K2-8", "K3-9", "C4-8", "E3-9", "two-triples-8", "edge-and-vertex-9"],
)
def test_first_guard_on_complete_host_counts_no_block(p, n):
    # every weight is the complete count on n - v vertices, the default bound, and
    # count() already read the weights of the blocks at vertex 0
    counter = FactorCounter(p, complete_host(p.k, n))
    counter.count()
    states = len(counter._memo)
    assert flatness(counter) == 1
    assert len(counter._memo) == states


@pytest.mark.parametrize(
    "p, g", [(K3, complete_host(2, 7)), (K3, sample_gnp(2, 10, 0.8, 3)), (K3, complete_host(2, 2)),
             (C4, complete_host(2, 6)), (E3, complete_host(3, 5))],
    ids=["K3-7", "K3-gnp-10", "K3-2", "C4-6", "E3-5"],
)
def test_max_block_weight_when_n_is_not_a_multiple_of_v(p, g):
    counter = FactorCounter(p, g)
    assert counter.max_block_weight() == max(counter.block_weights(), default=0) == 0
    for e in g.edges[:3]:
        counter = counter.without_edge(e)
        assert counter.max_block_weight() == 0


def _induced(g, mask):
    """The host induced on the masked vertices, relabeled 0..|mask|-1."""
    index = {x: i for i, x in enumerate(x for x in range(g.n) if mask >> x & 1)}
    edges = [tuple(index[x] for x in e) for e in g.edges if all(x in index for x in e)]
    return host_from_edges(g.k, len(index), edges)


COUNT_PATTERNS = {"K2": K2, "K3": K3, "P3": P3, "E3": E3}


@st.composite
def count_queries(draw):
    """A pattern, a seeded host and a sequence of count queries."""
    p = COUNT_PATTERNS[draw(st.sampled_from(sorted(COUNT_PATTERNS)))]
    n = draw(st.integers(min_value=p.v, max_value=9))
    prob = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    g = sample_gnp(p.k, n, prob, draw(st.integers(0, 2**32)))
    full = (1 << n) - 1
    queries = draw(st.lists(st.integers(0, full), max_size=6))
    # the whole-host count() goes in at a drawn place, often after the sub-masks
    queries.insert(draw(st.integers(0, len(queries))), full)
    return p, g, queries


# count(mask) against brute-force partitions of the induced host, with the
# memo filled by earlier queries in the order drawn.
@given(count_queries())
def test_count_on_submasks_matches_partition_oracle(case):
    p, g, queries = case
    counter = FactorCounter(p, g)
    for mask in queries:
        got = counter.count(mask)
        size = bin(mask).count("1")
        assert got == (partition_factor_count(p, _induced(g, mask)) if size % p.v == 0 else 0)


def test_count_entered_once_per_query(monkeypatch):
    entered = []
    original = FactorCounter.count

    def wrapped(self, mask=None):
        entered.append(mask)
        return original(self, mask)

    monkeypatch.setattr(FactorCounter, "count", wrapped)
    counter = FactorCounter(K3, complete_host(2, 12))
    assert counter.count(counter.full_mask & ~0b111) == complete_graph_count(K3, 9).labeled
    assert counter.count() == complete_graph_count(K3, 12).labeled
    assert entered == [counter.full_mask & ~0b111, None]


def test_count_leaves_no_reference_cycle():
    # a dropped counter's memo is freed by reference counting, not left for
    # the cycle collector (a carried trace drops one counter per step)
    counter = FactorCounter(K3, complete_host(2, 12))
    gc.collect()
    gc.disable()
    try:
        counter.count()
        del counter
        assert gc.collect() == 0
    finally:
        gc.enable()
