import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import factor_list, weight_lemma_hypothesis_bruteforce

from hfactor.entropy import WeightedFamily, entropy_window, shearer_check, weight_lemma_check
from hfactor.errors import InputError, NoFactorError
from hfactor.host import complete_host, host_from_edges, sample_gnp
from hfactor.pattern import complete_pattern, cycle_pattern, path_pattern, single_edge_pattern
from hfactor.rng import derive_seed

K2 = complete_pattern(2)
K3 = complete_pattern(3)


def oracle_entropies(factors, n):
    # h(y) is the entropy of the copy covering y in a uniform random factor:
    # tally that copy per vertex over every labeled factor
    hits = [Counter() for _ in range(n)]
    for factor in factors:
        for copy in factor:
            for y in copy:
                hits[y][copy] += 1
    return [-sum(c / len(factors) * math.log(c / len(factors)) for c in hits[y].values())
            for y in range(n)]


def test_copy_distribution_matches_factor_enumeration():
    # the entropy of the copy covering y, read off an independent
    # enumeration of every labeled factor, is shearer_check's h(y)
    checked = 0
    for seed in range(8):
        g = sample_gnp(2, 6, 0.8, derive_seed(21, seed))
        factors = factor_list(K2, g)
        if not factors:
            continue
        rep = shearer_check(K2, g)
        for h, oracle_h in zip(rep["per_vertex_entropy"], oracle_entropies(factors, g.n), strict=True):
            assert h == pytest.approx(oracle_h)
        checked += 1
    assert checked > 0


def test_shearer_examples():
    rep = shearer_check(K2, complete_host(2, 4))
    assert rep["log_factor_count"] == pytest.approx(math.log(12))
    assert rep["entropy_bound"] == pytest.approx(2 * math.log(6))
    assert rep["slack"] >= 0
    # single-block host: equality
    rep = shearer_check(K3, complete_host(2, 3))
    assert rep["slack"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NoFactorError, match="no factor"):
        shearer_check(K2, host_from_edges(2, 4, [(1, 2), (1, 3), (2, 3)]))  # vertex 0 isolated


def test_shearer_random_battery():
    checked = 0
    for pat, n, p in [(K2, 8, 0.6), (K2, 10, 0.5), (K3, 6, 0.8), (K3, 9, 0.75),
                      (path_pattern(3), 9, 0.6), (cycle_pattern(4), 8, 0.7),
                      (single_edge_pattern(3), 9, 0.4)]:
        for seed in range(30):
            g = sample_gnp(pat.k, n, p, derive_seed(55, seed))
            factors = factor_list(pat, g)
            if not factors:
                continue
            rep = shearer_check(pat, g)
            assert rep["slack"] >= -1e-9
            for h, oracle_h in zip(rep["per_vertex_entropy"], oracle_entropies(factors, n), strict=True):
                assert oracle_h == pytest.approx(h, rel=0, abs=1e-12)
            checked += 1
            if checked % 5 == 0:
                break
    assert checked == 35  # five hosts with a factor per pattern


def test_window_uniform():
    rep = entropy_window(WeightedFamily(ids=tuple(range(7)), weights=(2.0,) * 7))
    assert rep["deficit"] == pytest.approx(0.0, abs=1e-12)
    assert rep["weight_ratio"] == 1.0
    assert rep["size_ratio"] == 1.0
    assert len(rep["window_ids"]) == 7


def test_window_two_blocks():
    rep = entropy_window(
        WeightedFamily(ids=tuple(range(40)), weights=(1.0,) * 20 + (2.0,) * 20)
    )
    assert rep["weight_ratio"] == 1.0  # window constant exceeds 2 always


def test_window_zero_weights_removed():
    rep = entropy_window(WeightedFamily(ids=("a", "b", "c"), weights=(0.0, 1.0, 1.0)))
    assert rep["zero_weight_removed"] == 1
    assert rep["size"] == 2


def test_window_empty_rejected():
    with pytest.raises(InputError):
        entropy_window(WeightedFamily(ids=("a",), weights=(0.0,)))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(InputError, match="finite"):
        WeightedFamily(ids=("a", "b"), weights=(1.0, bad))
    with pytest.raises(InputError, match="finite"):
        weight_lemma_check(6, 2, {(0, 1): bad}, 1.0)


@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=1e3),
        min_size=2,
        max_size=300,
    )
)
@settings(max_examples=300)
def test_window_guarantees(weights):
    rep = entropy_window(
        WeightedFamily(ids=tuple(range(len(weights))), weights=tuple(weights))
    )
    assert rep["weight_ratio"] > 0.7
    assert rep["size_ratio"] >= rep["size_ratio_floor"] - 1e-12
    assert rep["b"] / rep["a"] == pytest.approx(rep["c"] ** 2, rel=1e-9)


@pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0, math.inf])
def test_weight_lemma_bound_must_be_finite_and_positive(bad):
    with pytest.raises(InputError, match="bound"):
        weight_lemma_check(6, 2, {(0, 1): 1.0, (0, 2): 2.0}, bad)


def test_weight_lemma_constant():
    weights = {z: 3.0 for z in itertools.combinations(range(9), 3)}
    rep = weight_lemma_check(9, 3, weights, 1.0)
    assert rep["hypothesis_holds"] and rep["conclusion_holds"]


def test_weight_lemma_vacuous():
    weights = {z: 0.25 for z in itertools.combinations(range(8), 3)}
    rep = weight_lemma_check(8, 3, weights, 1.0)
    assert rep["hypothesis_holds"]
    assert rep["conclusion_holds"]


def test_weight_lemma_hypothesis_can_fail():
    # one dominant completion only: fewer than (n-v)/2 heavy completions
    weights = {z: 0.0 for z in itertools.combinations(range(8), 2)}
    weights[(0, 1)] = 10.0
    rep = weight_lemma_check(8, 2, weights, 1.0)
    assert not rep["hypothesis_holds"]
    assert rep["conclusion_holds"] is None


def test_weight_lemma_random_instances():
    rng = random.Random(404)
    for case in range(50):
        n = rng.randint(5, 10)
        v = rng.randint(2, min(4, n - 1))
        bound = 1.0
        weights = {
            z: rng.uniform(bound, 2 * bound)
            for z in itertools.combinations(range(n), v)
        }
        rep = weight_lemma_check(n, v, weights, bound)
        assert rep["hypothesis_holds"]
        assert rep["conclusion_holds"], rep["counterexample"]


def test_weight_lemma_hypothesis_matches_bruteforce():
    rng = random.Random(907)
    outcomes = Counter()
    for case in range(300):
        n = rng.randint(3, 9)
        v = rng.randint(2, min(4, n - 1))
        weights = {
            z: rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 4.0)])
            for z in itertools.combinations(range(n), v) if rng.random() < 0.3
        }
        bound = rng.choice([0.25, 1.0, 2.0])
        rep = weight_lemma_check(n, v, weights, bound)
        witness = weight_lemma_hypothesis_bruteforce(n, v, weights, bound)
        assert rep["hypothesis_holds"] == (witness is None), (n, v, weights, bound)
        assert rep["hypothesis_witness"] == witness, (n, v, weights, bound)
        outcomes[witness is None] += 1
    assert outcomes[True] > 20 and outcomes[False] > 20, outcomes


def test_weight_lemma_validation():
    with pytest.raises(InputError):
        weight_lemma_check(3, 3, {}, 1.0)
    with pytest.raises(InputError):
        weight_lemma_check(6, 3, {(0, 1): 1.0}, 1.0)
    with pytest.raises(InputError, match="duplicate weight key"):
        weight_lemma_check(6, 3, {(0, 1, 2): 1.0, (2, 1, 0): 2.0}, 1.0)
