import itertools
import math

import pytest
from hypothesis import given, strategies as st

from oracles import (
    sample_gnm_unranked,
    sample_gnp_unranked,
    sort_then_check_edges,
    unrank_edge,
)

from hfactor.errors import InputError
from hfactor.host import (
    _edges_at_ranks,
    complete_host,
    host_from_edges,
    parse_host,
    random_ordering,
    sample_gnm,
    sample_gnp,
    total_edges,
)
from hfactor.pattern import normalized_edges
from hfactor.rng import derive_seed


def test_gnp_extremes():
    assert sample_gnp(2, 3, 1.0, 1) == complete_host(2, 3)
    assert sample_gnp(2, 5, 0.0, 1).m == 0
    assert sample_gnp(3, 4, 1.0, 7).m == 4


def test_gnp_deterministic():
    a = sample_gnp(2, 12, 0.37, 123456)
    b = sample_gnp(2, 12, 0.37, 123456)
    assert a == b
    c = sample_gnp(2, 12, 0.37, 123457)
    assert a != c  # overwhelmingly likely for distinct seeds


def test_gnp_rejects():
    with pytest.raises(InputError):
        sample_gnp(2, 5, 1.5, 0)
    with pytest.raises(InputError):
        sample_gnp(3, 2, 0.5, 0)
    with pytest.raises(InputError):
        sample_gnp(2, 20_000, 0.5, 0)


def test_gnm_counts():
    assert sample_gnm(2, 4, 6, 3) == complete_host(2, 4)
    assert sample_gnm(2, 10, 0, 3).m == 0
    assert sample_gnm(2, 6, 7, 99).m == 7
    assert sample_gnm(2, 6, 7, 99) == sample_gnm(2, 6, 7, 99)
    with pytest.raises(InputError):
        sample_gnm(2, 4, 7, 0)


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=4, max_value=30))
def test_gnm_always_exact(seed, m_edges):
    g = sample_gnm(2, 10, m_edges, seed)
    assert g.m == m_edges


def test_unrank_is_lexicographic():
    # the oracle the samplers are checked against
    n, k = 7, 3
    combos = list(itertools.combinations(range(n), k))
    for i, c in enumerate(combos):
        assert unrank_edge(i, n, k) == c


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_rank_walk_on_every_rank_is_combinations_order(k):
    for n in range(k, 13):
        combos = list(itertools.combinations(range(n), k))
        assert list(_edges_at_ranks(range(len(combos)), n, k)) == combos
        # the last rank alone, reached from the start in one walk
        assert list(_edges_at_ranks([len(combos) - 1], n, k)) == combos[-1:]


# seeds per (k, n, p or M) cell: the walk is exercised most where hosts are cheap
SAMPLER_SEEDS = {2: 100, 3: 30, 4: 8}


@pytest.mark.parametrize("k", sorted(SAMPLER_SEEDS))
def test_samplers_match_unranking_oracle(k):
    for n in range(k, 21):
        total = total_edges(k, n)
        for t in range(SAMPLER_SEEDS[k]):
            seed = derive_seed(8080, k, n, t)
            for p in (0.05, 0.35, 0.9):
                assert sample_gnp(k, n, p, seed) == sample_gnp_unranked(k, n, p, seed)
            for m_edges in (0, 1, total // 3, total):
                assert sample_gnm(k, n, m_edges, seed) == sample_gnm_unranked(k, n, m_edges, seed)


# below about 1e-307 the oracle's gap overflows int(); see the next test
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10),
    st.floats(min_value=1e-300, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_samplers_match_oracle_property(k, extra, p, m_frac, seed):
    n = k + extra
    m_edges = round(total_edges(k, n) * m_frac)
    assert sample_gnp(k, n, p, seed) == sample_gnp_unranked(k, n, p, seed)
    assert sample_gnm(k, n, m_edges, seed) == sample_gnm_unranked(k, n, m_edges, seed)


def test_gnp_smallest_positive_p():
    # the geometric gap overflows int() here; it must end the walk instead
    for seed in range(20):
        assert sample_gnp(2, 10, 5e-324, seed).m == 0
    assert sample_gnp(3, 30, 5e-324, 1).m == 0


def test_gnp_at_documented_vertex_cap():
    n, p = 10_000, 1e-3
    g = sample_gnp(2, n, p, 31)
    assert all(0 <= a < b < n for a, b in g.edges)
    assert list(g.edges) == sorted(set(g.edges))
    mean = total_edges(2, n) * p
    assert abs(g.m - mean) <= 6 * math.sqrt(mean)
    assert sample_gnp(3, 300, p, 32) == sample_gnp_unranked(3, 300, p, 32)


def test_ordering_is_permutation():
    ordering = random_ordering(2, 6, 11)
    assert sorted(ordering) == list(itertools.combinations(range(6), 2))
    assert ordering == random_ordering(2, 6, 11)


def test_ordering_hypergraph():
    assert sorted(random_ordering(3, 5, 2)) == list(itertools.combinations(range(5), 3))


def test_gnp_mean_edge_count():
    n, p, trials = 12, 0.4, 400
    total = total_edges(2, n)
    counts = [sample_gnp(2, n, p, 1000 + t).m for t in range(trials)]
    mean = sum(counts) / trials
    se = math.sqrt(total * p * (1 - p) / trials)
    assert abs(mean - total * p) <= 4 * se


def test_links_consistent():
    for (k, n, p), seed in itertools.product([(2, 10, 0.5), (3, 9, 0.4)], range(5)):
        g = sample_gnp(k, n, p, seed)
        rebuilt = {}
        for e in g.edges:
            for x in e:
                rebuilt.setdefault(tuple(sorted(set(e) - {x})), set()).add(x)
        assert {key: sorted(xs) for key, xs in rebuilt.items()} == g.links
        for key, xs in g.links.items():
            assert len(key) == k - 1 and list(key) == sorted(key)
            assert all(a < b for a, b in zip(xs, xs[1:]))


def test_host_parse_roundtrip():
    g = host_from_edges(2, 4, [(0, 1), (2, 3)])
    text = "graph 4\n0 1\n2 3\n"
    assert parse_host(text) == g
    h = parse_host("hypergraph 3 4\n0 1 2\n")
    assert h.k == 3 and h.m == 1


def test_without_edge():
    g = complete_host(2, 4)
    h = g.without_edge((1, 0))
    assert h.m == 5 and not h.has_edge((0, 1))
    with pytest.raises(InputError):
        h.without_edge((0, 1))


@pytest.mark.parametrize("key", [
    (0,), (0, 1, 2), (0, 1, 1), (), (0, 0), (1, 1), ("a", "b"), (0, "b"), ("0", "1"), ((0, 1), (2, 3)),
    (None, 1), (0.5, 1), "01",
])
def test_has_edge_answers_false_for_keys_that_are_no_edge(key):
    # wrong length, a repeated vertex, entries that are no vertex: False, not an error;
    # (0, 1, 1) once matched the edge (0, 1) as a vertex set, and deleting it removed nothing
    for g in (complete_host(2, 4), host_from_edges(2, 4, []), host_from_edges(2, 4, [(2, 3)])):
        assert not g.has_edge(key)
    assert not complete_host(3, 5).has_edge((1, 1, 2))
    with pytest.raises((InputError, TypeError)):
        complete_host(2, 4).without_edge(key)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_has_edge_and_without_edge_match_the_edge_set(k, extra, p, seed):
    n = k + extra
    g = sample_gnp(k, n, p, seed)
    for key in itertools.combinations(range(n), k):
        assert g.has_edge(key) == g.has_edge(key[::-1]) == (frozenset(key) in g.edge_set)
    for e in g.edges:
        assert g.without_edge(e[::-1]).edges == tuple(x for x in g.edges if x != e)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_built_hosts_are_already_normal(k, extra, p, seed):
    # what the samplers, complete_host and without_edge build, the oracle leaves
    # as it is, and the validator keeps as given
    n = k + extra
    g = complete_host(k, n)
    hosts = [sample_gnp(k, n, p, seed), sample_gnm(k, n, round(total_edges(k, n) * p), seed), g]
    for e in random_ordering(k, n, seed)[:5]:
        g = g.without_edge(e)
        hosts.append(g)
    for h in hosts:
        assert h.edges == sort_then_check_edges(k, n, h.edges)
        assert normalized_edges(k, n, h.edges) is h.edges
