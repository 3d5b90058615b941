import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import graph_hosts, graph_patterns, hypergraph_patterns
from oracles import block_embeddings, copy_degree, injection_copies

from hfactor.embed import (
    ConstraintSpec,
    constrained_count,
    copy_degrees,
    degree_regularity,
    enumerate_copies,
    expected_copy_degree,
    full_constraint,
    host_blocks,
    role_images,
)
from hfactor.errors import InputError
from hfactor.host import complete_host, host_from_edges, sample_gnp
from hfactor.pattern import complete_pattern, pattern_from_edges, single_edge_pattern
from hfactor.polynomial import regularity_report
from hfactor.rng import derive_seed, rng_for

K2 = complete_pattern(2)
K3 = complete_pattern(3)


def test_enumerate_examples():
    assert len(enumerate_copies(K2, complete_host(2, 3))) == 6
    assert len(enumerate_copies(K3, complete_host(2, 4))) == 24
    assert enumerate_copies(K3, host_from_edges(2, 4, [(0, 1)])) == []


def test_enumerate_is_sorted_and_valid():
    copies = enumerate_copies(K3, complete_host(2, 5))
    assert copies == sorted(copies)
    assert len(set(copies)) == len(copies)


# twice the default examples, so the graph cases keep their share
@settings(max_examples=80)
@given(st.one_of(st.tuples(graph_patterns(max_v=4), graph_hosts(max_n=6)), hypergraph_patterns()))
def test_enumerate_matches_bruteforce(case):
    p, g = case
    copies = sorted(injection_copies(p, g))
    assert enumerate_copies(p, g) == copies
    assert role_images(p, g) == [{c[r] for c in copies} for r in range(p.v)]


def test_copy_degree_examples():
    assert copy_degree(K2, complete_host(2, 3), 0) == 4
    assert copy_degree(K3, complete_host(2, 4), 2) == 18
    g = complete_host(2, 4).without_edge((0, 1))
    # an endpoint of the missing edge lies in one surviving triangle,
    # the other two vertices in two each
    assert copy_degree(K3, g, 0) == 6
    assert copy_degree(K3, g, 2) == 12


@given(graph_patterns(max_v=4), graph_hosts(max_n=7))
def test_copy_degree_sum_identity(p, g):
    if p.k != g.k:
        return
    copies = enumerate_copies(p, g)
    degs = copy_degrees(p, g)
    assert sum(degs) == p.v * len(copies)
    for x in range(g.n):
        assert degs[x] == sum(1 for c in copies if x in c)
        assert degs[x] == copy_degree(p, g, x)


def test_copy_degrees_fast_paths():
    g = sample_gnp(2, 12, 0.5, 3)
    assert copy_degrees(K3, g) == [copy_degree(K3, g, x) for x in range(12)]
    k4 = complete_pattern(4)
    g4 = sample_gnp(2, 12, 0.7, 4)
    assert copy_degrees(k4, g4) == [copy_degree(k4, g4, x) for x in range(12)]
    h3 = sample_gnp(3, 8, 0.4, 5)
    e3 = single_edge_pattern(3)
    assert copy_degrees(e3, h3) == [copy_degree(e3, h3, x) for x in range(8)]


def test_expected_copy_degree():
    assert expected_copy_degree(K2, 5, 1.0) == 8
    assert expected_copy_degree(K3, 4, 1.0) == 18
    assert copy_degree(K3, complete_host(2, 4), 0) == 18
    assert expected_copy_degree(K3, 9, 0.0) == 0


def test_constrained_count_examples():
    n = 7
    g = complete_host(2, n)
    spec = ConstraintSpec(((0, 0),), K2.edges)
    assert constrained_count(K2, g, spec) == n - 1
    assert constrained_count(K2, g, full_constraint(K2)) == len(enumerate_copies(K2, g))
    pinned_all = ConstraintSpec(((0, 3), (1, 5)), ())
    assert constrained_count(K2, g, pinned_all) == 1


def test_constrained_count_free_vertices():
    # pattern with an isolated vertex: its image is unconstrained
    p = pattern_from_edges(2, 3, [(0, 1)])
    g = complete_host(2, 5)
    spec = ConstraintSpec((), ((0, 1),))
    assert constrained_count(p, g, spec) == 5 * 4 * 3


@given(graph_patterns(max_v=4), graph_hosts(max_n=6))
def test_constrained_full_equals_enumeration(p, g):
    if p.k != g.k:
        return
    assert constrained_count(p, g, full_constraint(p)) == len(enumerate_copies(p, g))


def test_constraint_spec_validation():
    with pytest.raises(InputError):
        ConstraintSpec(((0, 1), (0, 2)), ())  # vertex pinned twice
    with pytest.raises(InputError):
        ConstraintSpec(((0, 1), (1, 1)), ())  # images collide
    with pytest.raises(InputError):
        ConstraintSpec(((0, 0), (1, 1)), ((0, 1),))  # edge inside pinned set


def test_role_images_pendant_pattern():
    # triangle with a pendant vertex on a host with a single triangle: the
    # hub role is stuck at vertex 0 and the pendant role at the leaves
    p = pattern_from_edges(2, 4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    g = host_from_edges(2, 8, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)])
    realized = role_images(p, g)
    assert realized[0] == {0}
    assert realized[1] == {1, 2}
    assert realized[3] == {3, 4, 5, 6, 7}


def test_copy_degree_mean_matches_expectation():
    n, p, trials = 10, 0.5, 600
    vals = []
    for t in range(trials):
        g = sample_gnp(2, n, p, derive_seed(606, t))
        vals.append(copy_degree(K3, g, 0))
    mean = sum(vals) / trials
    sd = math.sqrt(sum((x - mean) ** 2 for x in vals) / trials)
    assert abs(mean - expected_copy_degree(K3, n, p)) <= 4 * sd / math.sqrt(trials)


def test_regularity_part_b_complete():
    rep = degree_regularity(K3, complete_host(2, 8), 1.0, eps=0.5)
    assert rep["max_relative_deviation"] == 0.0
    assert rep["holds"]
    # at p = 0 no copy is expected, so any copy is an unbounded deviation
    rep = degree_regularity(K3, complete_host(2, 8), 0.0, eps=0.5)
    assert rep["max_relative_deviation"] == math.inf
    assert not rep["holds"]


def test_regularity_part_b_empty():
    rep = degree_regularity(K3, host_from_edges(2, 6, []), 0.5, eps=0.5)
    assert rep["max_relative_deviation"] == 1.0
    assert not rep["holds"]
    rep = degree_regularity(K3, host_from_edges(2, 6, []), 0.0, eps=0.5)
    assert rep["max_relative_deviation"] == 0.0
    assert rep["holds"]


def test_regularity_part_a_complete_small():
    rep = regularity_report(K3, complete_host(2, 6), 0.9, eps=0.5, beta=30.0, seed=1)
    assert rep["part_a"]["family_size"] > 0
    # on the complete host every X equals its p=1 count; sanity: flags recorded
    assert all("holds" in c for c in rep["part_a"]["cases"])


def test_regularity_part_b_sampled_battery():
    # calibration over these 50 seeded hosts: max deviation has median 0.22
    # and 49 of 50 runs stay at or below 0.3, so that is the frozen bound
    n, p = 60, 0.9
    hits = 0
    for t in range(50):
        g = sample_gnp(2, n, p, derive_seed(2024, t))
        rep = degree_regularity(K3, g, p, eps=0.3)
        hits += rep["max_relative_deviation"] <= 0.3
    assert hits >= 48


# Differential check of the neighbour-driven copy search against plain
# filtering of all injections, exact equality on seeded hosts.
DIFF_PATTERNS = [
    K2,
    K3,
    pattern_from_edges(2, 4, [(0, 1), (1, 2), (0, 2), (0, 3)]),  # pendant hub
    pattern_from_edges(2, 4, [(0, 1), (1, 2)]),  # vertex 3 isolated
    pattern_from_edges(3, 4, [(0, 1, 2), (1, 2, 3)]),
    pattern_from_edges(3, 5, [(0, 1, 2), (2, 3, 4)]),
    # the complete 3-graph on 4 vertices: its last vertex closes three triples
    pattern_from_edges(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
]


def _diff_hosts(p):
    return [sample_gnp(p.k, 7, 0.55, derive_seed(4242, p.k, p.v, t)) for t in range(4)]


def _edge_case_hosts(p):
    # hosts where some or all patterns have no copy: the empty host, too few
    # vertices, and (for graphs) the triangle-free K_{3,4}
    hosts = [host_from_edges(p.k, 7, []), complete_host(p.k, p.v - 1)]
    if p.k == 2:
        hosts.append(host_from_edges(2, 7, [(a, b) for a in range(3) for b in range(3, 7)]))
    return hosts


# every complete pattern takes role_images' block path: K2, K3, the complete
# 3-graph on 4 vertices, K4 and the 3-uniform edge
@pytest.mark.parametrize(
    "p", DIFF_PATTERNS + [complete_pattern(4), single_edge_pattern(3)],
    ids=lambda p: f"k{p.k}v{p.v}m{p.m}",
)
def test_copy_search_matches_injection_oracle(p):
    for g in _diff_hosts(p) + _edge_case_hosts(p):
        copies = sorted(injection_copies(p, g))
        assert enumerate_copies(p, g) == copies
        assert role_images(p, g) == [{c[r] for c in copies} for r in range(p.v)]


@pytest.mark.parametrize("p", DIFF_PATTERNS, ids=lambda p: f"k{p.k}v{p.v}m{p.m}")
def test_constrained_count_matches_injection_oracle(p):
    rng = rng_for(derive_seed(4243, p.k, p.v))
    subsets = [
        sub for r in range(1, p.m + 1) for sub in itertools.combinations(p.edges, r)
    ]
    for g in _diff_hosts(p):
        pin_sets = [()] + [((a, x),) for a in range(p.v) for x in range(g.n)]
        for _ in range(6):
            a, b = rng.sample(range(p.v), 2)
            x, y = rng.sample(range(g.n), 2)
            pin_sets.append(((a, x), (b, y)))
        for sub in subsets:
            injections = injection_copies(pattern_from_edges(p.k, p.v, sub), g)
            for pins in pin_sets:
                if any({a for a, _ in pins}.issuperset(e) for e in sub):
                    continue
                want = sum(1 for c in injections if all(c[a] == x for a, x in pins))
                assert constrained_count(p, g, ConstraintSpec(pins, sub)) == want


@pytest.mark.parametrize(
    "p", DIFF_PATTERNS + [complete_pattern(4)], ids=lambda p: f"k{p.k}v{p.v}m{p.m}"
)
def test_host_blocks_match_block_oracle(p):
    # blocks and multiplicities from permutations of every v-subset, in
    # lexicographic order; K2 takes the single-edge path, K3 and K4 the clique
    # search, the other patterns grouped copies
    for g in _diff_hosts(p) + [complete_host(p.k, 7)]:
        assert host_blocks(p, g) == _oracle_blocks(p, g)


@given(st.one_of(st.tuples(graph_patterns(max_v=4), graph_hosts(max_n=7)), hypergraph_patterns()))
def test_random_host_blocks_match_block_oracle(case):
    p, g = case
    assert host_blocks(p, g) == _oracle_blocks(p, g)


def _oracle_blocks(p, g):
    return [
        (b, emb) for b in itertools.combinations(range(g.n), p.v) if (emb := block_embeddings(p, g, b))
    ]
