import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import graph_patterns
from oracles import all_subgraph_profile, automorphisms_bruteforce, sort_then_check_edges

from hfactor.embed import automorphism_count
from hfactor.errors import InputError
from hfactor.host import host_from_edges, parse_host
from hfactor.pattern import (
    Balance,
    complete_pattern,
    cycle_pattern,
    density,
    density_profile,
    normalized_edges,
    parse_pattern,
    path_pattern,
    pattern_from_edges,
    single_edge_pattern,
)

K3 = complete_pattern(3)


def test_parse_triangle():
    p = parse_pattern("graph 3\n0 1\n1 2\n0 2")
    assert (p.k, p.v, p.m) == (2, 3, 3)
    assert p == K3


def test_parse_hypergraph_single_edge():
    p = parse_pattern("hypergraph 3 3\n0 1 2")
    assert (p.k, p.v, p.m) == (3, 3, 1)


def test_parse_comments_and_blanks():
    p = parse_pattern("# triangle\ngraph 3\n\n0 1\n# middle\n1 2\n0 2\n")
    assert p == K3


# texts both readers reject; a host may have no edges, so "graph 3\n" fails only as a pattern
REJECTED_BY_BOTH = [
    "graph 2\n0 1\n0 1",      # duplicate edge
    "graph 3\n0 1 2",         # arity mismatch
    "graph 3\n0 3",           # vertex out of range
    "graph 2\n0 0",           # repeated vertex inside an edge
    "mesh 3\n0 1",            # unknown header
    "graph\n0 1",             # malformed header
    "graph -2\n",             # negative vertex count
    "hypergraph 3 5\n0 2 5",  # vertex out of range, in a hypergraph
    "",                       # empty file
    "# comment only\n\n",     # nothing but comments and blanks
]


@pytest.mark.parametrize(
    "parse, text",
    [pytest.param(parse_pattern, text, id=text) for text in [*REJECTED_BY_BOTH, "graph 3\n"]]
    + [pytest.param(parse_host, text, id=f"host-{text}") for text in REJECTED_BY_BOTH],
)
def test_parse_rejects(parse, text):
    with pytest.raises(InputError):
        parse(text)


@pytest.mark.parametrize(
    "text", ["graph 4\n# a path\n2 1\n0 1\n3 2\n", "hypergraph 3 5\n3 2 1\n\n2 1 0\n"]
)
def test_pattern_and_host_read_the_same_edges(text):
    p, g = parse_pattern(text), parse_host(text)
    assert (p.k, p.v) == (g.k, g.n)
    assert p.edges == g.edges
    assert p.edges == tuple(sorted(p.edges)) and all(list(e) == sorted(e) for e in p.edges)


EDGE_EDITS = ["shuffle", "reverse", "list", "duplicate", "repeat", "low", "high", "arity"]


@st.composite
def edge_lists(draw):
    """(k, size, edges): a canonical edge list, then a few edits that may break it.

    "low" and "high" put -1 or size into the first or last edge without breaking
    the order, so only a range test can reject them.
    """
    k = draw(st.sampled_from([2, 3, 4]))
    size = draw(st.integers(min_value=k, max_value=7))
    pool = list(itertools.combinations(range(size), k))
    edges = sorted(draw(st.lists(st.sampled_from(pool), max_size=12, unique=True)))
    for edit in draw(st.lists(st.sampled_from(EDGE_EDITS), max_size=3)) if edges else []:
        i = draw(st.integers(min_value=0, max_value=len(edges) - 1))
        e = edges[i]
        if edit == "shuffle":
            edges = list(draw(st.permutations(edges)))
        elif edit == "reverse":
            edges[i] = tuple(reversed(e))
        elif edit == "list":
            edges[i] = list(e)
        elif edit == "duplicate":
            edges.insert(i, e)
        elif edit == "repeat":
            edges[i] = e[:1] + e[:-1]
        elif edit == "low":
            edges[0] = (-1, *edges[0][1:])
        elif edit == "high":
            edges[-1] = (*edges[-1][:-1], size)
        else:
            edges[i] = e[:-1]
    wrap = draw(st.sampled_from([list, tuple, iter]))
    return k, size, wrap(edges), list(edges)


def _outcome(fn, k, size, edges):
    try:
        return fn(k, size, edges)
    except InputError as exc:
        return f"InputError: {exc}"


@settings(max_examples=400)
@given(edge_lists())
def test_normalized_edges_matches_sort_then_check(case):
    k, size, edges, copy = case
    assert _outcome(normalized_edges, k, size, edges) == _outcome(sort_then_check_edges, k, size, copy)


@pytest.mark.parametrize(
    "edges, bad",
    [
        ([(0, 1.5)], (0, 1.5)),  # in canonical order, so the one-scan test sees it first
        ([(0, True)], (0, True)),
        ([(1, 2), (1.0, 0)], (1.0, 0)),
        ([(2, 1), (False, 1)], (False, 1)),
        ([(0, "a")], (0, "a")),
        ([(0, 1), 5], 5),
        ([None], None),
    ],
)
def test_edges_need_int_vertices(edges, bad):
    for build in (normalized_edges, pattern_from_edges, host_from_edges):
        with pytest.raises(InputError) as err:
            build(2, 3, edges)
        assert str(err.value) == f"edge {bad!r} is not a collection of int vertices"


def test_pattern_cap():
    with pytest.raises(InputError):
        complete_pattern(13)


def test_density_values():
    assert density(K3) == Fraction(3, 2)
    assert density(complete_pattern(2)) == 1
    assert density(single_edge_pattern(3)) == Fraction(1, 2)


def test_profile_triangle():
    prof = density_profile(K3)
    assert prof.max_density == Fraction(3, 2)
    assert all(loc == Fraction(3, 2) and few == 3 for loc, few in prof.per_vertex.values())
    assert prof.critical_edge_count == 3
    assert prof.balance is Balance.STRICTLY_BALANCED


def test_profile_triangle_with_pendant():
    p = pattern_from_edges(2, 4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    prof = density_profile(p)
    assert prof.density == Fraction(4, 3)
    assert prof.max_density == Fraction(3, 2)
    assert prof.balance is Balance.UNBALANCED
    # the pendant vertex only reaches the whole-pattern density
    assert prof.per_vertex[3] == (Fraction(4, 3), 4)
    assert prof.per_vertex[0] == (Fraction(3, 2), 3)


def test_profile_two_triangles_sharing_vertex():
    p = pattern_from_edges(2, 5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    prof = density_profile(p)
    assert prof.density == Fraction(3, 2)
    assert prof.max_density == Fraction(3, 2)
    assert prof.balance is Balance.BALANCED_NOT_STRICT


def test_balance_classes():
    assert density_profile(cycle_pattern(4)).balance is Balance.STRICTLY_BALANCED
    two_edges = pattern_from_edges(2, 4, [(0, 1), (2, 3)])
    prof = density_profile(two_edges)
    assert prof.density == Fraction(2, 3)
    assert prof.max_density == 1
    assert prof.balance is Balance.UNBALANCED


def test_automorphism_counts():
    assert automorphism_count(K3) == 6
    assert automorphism_count(path_pattern(3)) == 2
    assert automorphism_count(single_edge_pattern(3)) == 6
    assert automorphism_count(complete_pattern(4)) == 24
    assert automorphism_count(cycle_pattern(5)) == 10
    for p in (
        pattern_from_edges(3, 4, [(0, 1, 2), (1, 2, 3)]),
        pattern_from_edges(3, 5, [(0, 1, 2), (2, 3, 4)]),
        pattern_from_edges(2, 4, [(0, 1), (1, 2)]),  # vertex 3 isolated
    ):
        assert automorphism_count(p) == automorphisms_bruteforce(p)


@given(graph_patterns(max_v=6))
def test_automorphisms_match_bruteforce(p):
    assert automorphism_count(p) == automorphisms_bruteforce(p)


@given(graph_patterns(max_v=6))
def test_automorphisms_divide_factorial(p):
    assert math.factorial(p.v) % automorphism_count(p) == 0


@given(graph_patterns(max_v=5))
def test_profile_matches_all_subgraph_oracle(p):
    prof = density_profile(p)
    oracle_max, oracle_per_vertex = all_subgraph_profile(p)
    assert prof.max_density == oracle_max
    for x in range(p.v):
        assert prof.per_vertex[x] == oracle_per_vertex[x]


@given(graph_patterns(max_v=6))
def test_profile_invariants(p):
    prof = density_profile(p)
    assert prof.max_density >= prof.density
    assert (prof.max_density == prof.density) == (prof.balance is not Balance.UNBALANCED)
    assert all(few >= 1 for _, few in prof.per_vertex.values())
    assert prof.critical_edge_count == max(few for _, few in prof.per_vertex.values())
    if prof.balance is Balance.STRICTLY_BALANCED:
        # only the whole pattern attains the max density
        for loc, few in prof.per_vertex.values():
            assert loc == prof.density
            assert few == p.m
