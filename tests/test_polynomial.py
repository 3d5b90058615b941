import itertools
import math

import pytest
from hypothesis import given, strategies as st

from hfactor.embed import ConstraintSpec, constrained_count
from hfactor.errors import InputError
from hfactor import polynomial
from hfactor.host import complete_host, sample_gnp
from hfactor.pattern import complete_pattern, cycle_pattern, path_pattern, pattern_from_edges
from hfactor.polynomial import (
    CopyPolynomial,
    concentration_trial,
    derivative_profile,
    evaluate,
    expectation,
    hypothesis_check,
    regularity_report,
)
from hfactor.rng import derive_seed

from oracles import derivative_profile_bruteforce, evaluate_bruteforce

K2 = complete_pattern(2)
K3 = complete_pattern(3)


def edges_at(x0, n=5):
    return CopyPolynomial(pattern=K2, n=n, anchor=ConstraintSpec(((0, x0),), K2.edges))


def triangles_at(x0, n=5, collapse=True):
    return CopyPolynomial(
        pattern=K3, n=n, anchor=ConstraintSpec(((0, x0),), K3.edges), collapse=collapse
    )


def test_expectation_examples():
    assert expectation(edges_at(0), 0.5) == pytest.approx(2.0)
    assert expectation(triangles_at(0), 0.5) == pytest.approx(math.comb(4, 2) * 0.125)
    assert expectation(triangles_at(0), 0.0) == 0.0


def test_expectation_injection_basis():
    # without collapsing, both orderings of the non-pinned vertices count
    f = triangles_at(0, collapse=False)
    assert expectation(f, 0.5) == pytest.approx(4 * 3 * 0.125)


def test_derivative_matches_bruteforce():
    # oracle: explicit term histogram from all pinned injections, maximized
    # over every set of host edges of each size
    f = triangles_at(1, n=6, collapse=False)
    p = 0.4
    terms = []
    others = [x for x in range(6) if x != 1]
    for a, b in itertools.permutations(others, 2):
        img = {0: 1, 1: a, 2: b}
        terms.append(frozenset(tuple(sorted((img[x], img[y]))) for x, y in K3.edges))
    prof = derivative_profile(f, p)
    assert prof["expectation"] == pytest.approx(len(terms) * p**3)
    for size in (1, 2, 3):
        want = max(
            sum(1 for t in terms if frozenset(fixed) <= t)
            for fixed in itertools.combinations(itertools.combinations(range(6), 2), size)
        )
        assert prof["e_by_order"][size] == pytest.approx(want * p ** (3 - size))


def test_profile_edges():
    prof = derivative_profile(edges_at(0), 0.5)
    assert prof["expectation"] == pytest.approx(2.0)
    assert prof["e_by_order"][1] == pytest.approx(1.0)
    assert prof["e_star"] == pytest.approx(2.0)
    assert prof["eprime_max"] == 0.0  # degree one: no orders strictly between


def test_profile_triangles():
    prof = derivative_profile(triangles_at(0), 0.5)
    assert prof["expectation"] == pytest.approx(0.75)
    assert prof["e_by_order"][1] == pytest.approx(0.75)
    assert prof["e_by_order"][2] == pytest.approx(0.5)
    assert prof["normalization"] == 1


def test_profile_pure_counting_at_p_one():
    prof = derivative_profile(triangles_at(0), 1.0)
    # most copies through a fixed edge at x0: n-2 triangles
    assert prof["e_by_order"][1] == 3


def test_min_exponent_positive_for_balanced_pattern():
    n = 30
    f = CopyPolynomial(pattern=K3, n=n, anchor=ConstraintSpec(((0, 0),), K3.edges))
    prof = derivative_profile(f, n ** (-2 / 3))
    assert prof["min_exponent"] is not None
    assert prof["min_exponent"] > 0


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_monotonicity_in_p(p1, p2):
    if p1 > p2:
        p1, p2 = p2, p1
    f = triangles_at(0, n=6, collapse=False)
    assert expectation(f, p1) <= expectation(f, p2) + 1e-12
    lo, hi = derivative_profile(f, p1)["e_by_order"], derivative_profile(f, p2)["e_by_order"]
    for j in lo:
        assert lo[j] <= hi[j] + 1e-12


def test_counting_consistency_at_p_one():
    for pat in (K2, K3, cycle_pattern(4), path_pattern(3)):
        for pins in ((), ((0, 0),)):
            spec = ConstraintSpec(pins, pat.edges)
            f = CopyPolynomial(pattern=pat, n=7, anchor=spec)
            g = complete_host(2, 7)
            assert expectation(f, 1.0) == constrained_count(pat, g, spec)


def test_evaluate_on_host():
    g = sample_gnp(2, 8, 0.6, 5)
    f = triangles_at(0, n=8, collapse=False)
    by_hand = 0
    for a, b in itertools.permutations(range(1, 8), 2):
        if all(
            g.has_edge(e) for e in [(0, a), (0, b), (a, b)]
        ):
            by_hand += 1
    assert evaluate(f, g) == by_hand


def test_hypothesis_check_all_order_edges():
    for n in (5, 9, 17):
        f = edges_at(0, n=n)
        rep = hypothesis_check(f, 1.0, 0.5, "all-order")
        assert rep["passes"] == (n - 1 >= math.sqrt(n))
        assert rep["binding_ratio"] == pytest.approx(math.sqrt(n) / (n - 1))


def test_hypothesis_check_degenerate_degree_one():
    # order range 1..d-1 is empty: only the growth clause binds
    f = edges_at(0, n=40)
    rep = hypothesis_check(f, 1.0, 0.5, "relative-low-order", omega_threshold=10.0)
    assert rep["passes"] == (39 > 10.0)


def test_hypothesis_check_relative_low_order_triangles():
    n = 40
    f = CopyPolynomial(pattern=K3, n=n, anchor=ConstraintSpec(((0, 0),), K3.edges))
    rep = hypothesis_check(f, 0.5, 0.25, "relative-low-order", omega_threshold=10.0)
    assert "binding_ratio" in rep
    prof = derivative_profile(f, 0.5)
    norm = prof["normalization"]
    top = max(prof["e_by_order"][j] for j in (1, 2)) / norm
    expected_pass = (prof["expectation"] / norm > 10.0) and (
        top <= n**-0.25 * prof["expectation"] / norm
    )
    assert rep["passes"] == expected_pass


@pytest.mark.parametrize(
    "plain,nonconstant",
    [("relative-low-order", "nonconstant-relative"), ("upper-tail", "nonconstant-upper-tail")],
)
def test_hypothesis_check_nonconstant_variants(plain, nonconstant):
    # below the degree the low-order maximum is the nonconstant-part maximum,
    # so each nonconstant report is its plain twin's under another name
    for pat, n, pinned, collapse, p, eps in itertools.product(
        (K2, K3, path_pattern(3), cycle_pattern(4)), (6, 40), (False, True), (False, True),
        (0.05, 0.5, 1.0), (0.25, 1.0),
    ):
        anchor = ConstraintSpec(((0, 0),), pat.edges) if pinned else None
        f = CopyPolynomial(pattern=pat, n=n, anchor=anchor, collapse=collapse)
        rep = hypothesis_check(f, p, eps, nonconstant)
        assert rep.pop("theorem") == nonconstant
        twin = hypothesis_check(f, p, eps, plain)
        del twin["theorem"]
        assert rep == twin
        prof = derivative_profile(f, p)
        e0, top = prof["expectation"], prof["eprime_max"]
        if plain == "relative-low-order" and e0 > 0:
            assert rep["binding_ratio"] == pytest.approx(top / (n**-eps * e0))
        elif plain == "upper-tail" and e0 > 0:
            norm = prof["normalization"] or 1
            needed = rep["omega_threshold"] + n**eps * top / norm
            assert rep["binding_ratio"] == pytest.approx(needed * norm / e0)


def test_hypothesis_check_small_ceiling():
    f = edges_at(0, n=30)
    rep = hypothesis_check(f, 1e-4, 0.5, "small-ceiling")
    # tiny p: all derivative expectations small, expectation dominates
    assert rep["binding_ratio"] == pytest.approx(29 * 1e-4 * math.sqrt(30))
    assert rep["passes"] == (29 * 1e-4 <= 30**-0.5)


def test_hypothesis_check_absolute_low_order():
    n, eps = 30, 0.25
    f = triangles_at(0, n=n, collapse=False)
    outcomes = set()
    for p, omega in [(0.01, 1e-4), (0.01, 1.0), (0.5, 1.0)]:
        rep = hypothesis_check(f, p, eps, "absolute-low-order", omega_threshold=omega)
        prof = derivative_profile(f, p)
        norm = prof["normalization"]
        low = max(prof["e_by_order"][j] for j in (1, 2)) / norm
        assert rep["binding_ratio"] == low * n**eps
        assert rep["passes"] == (prof["expectation"] / norm > omega and low <= n**-eps)
        outcomes.add(rep["passes"])
    assert outcomes == {True, False}


def test_hypothesis_check_unknown():
    with pytest.raises(InputError):
        hypothesis_check(edges_at(0), 0.5, 0.5, "Nope")


def test_concentration_binomial_law():
    n, p, trials = 20, 0.4, 800
    f = edges_at(0, n=n)
    rep = concentration_trial(f, p, trials, eps=0.5, seed=17)
    se = math.sqrt(p * (1 - p) * (n - 1) / trials)
    assert abs(rep["empirical_mean"] - (n - 1) * p) <= 4 * se
    assert rep["expectation"] == pytest.approx((n - 1) * p)


def test_concentration_deterministic_at_p_one():
    f = triangles_at(0, n=7, collapse=False)
    rep = concentration_trial(f, 1.0, 50, eps=0.25, seed=3)
    assert rep["exceed_fraction"] == 0.0
    assert rep["empirical_sd"] == 0.0


def test_concentration_triangles_calibrated():
    # 2000-trial calibration at these parameters: exceedance 0.122 at
    # eps=0.5 (anchored-vertex degree noise dominates) and 0.0045 at eps=1
    n = 60
    f = CopyPolynomial(pattern=K3, n=n, anchor=ConstraintSpec(((0, 0),), K3.edges))
    rep = concentration_trial(f, 0.4, 300, eps=0.5, seed=11)
    assert rep["exceed_fraction"] <= 0.2
    wide = concentration_trial(f, 0.4, 300, eps=1.0, seed=11)
    assert wide["exceed_fraction"] <= 0.02
    assert abs(rep["empirical_mean"] - rep["expectation"]) <= 6 * rep["empirical_sd"] / math.sqrt(300) + 1e-9


def test_sampling_battery_means():
    # anchored versions of the standard battery: every cell's empirical mean
    # within 4 estimated standard errors of the exact expectation
    trials = 150
    cell = 0
    for pat in (K2, K3, cycle_pattern(4)):
        for n in (20, 40):
            for p in (0.2, 0.5):
                f = CopyPolynomial(
                    pattern=pat, n=n, anchor=ConstraintSpec(((0, 0),), pat.edges)
                )
                rep = concentration_trial(f, p, trials, eps=0.5, seed=1000 + cell)
                cell += 1
                se = rep["empirical_sd"] / math.sqrt(trials)
                if se == 0:
                    assert rep["empirical_mean"] == rep["expectation"]
                else:
                    assert abs(rep["empirical_mean"] - rep["expectation"]) <= 4 * se


def test_profile_large_n_closed_forms():
    # K3 at n=200 was over the old enumeration cap; the counts are closed forms
    f = CopyPolynomial(pattern=K3, n=200, anchor=None)
    prof = derivative_profile(f, 0.1)
    assert prof["expectation"] == 200 * 199 * 198 * 0.1**3
    assert prof["e_by_order"] == {1: 1188 * 0.1**2, 2: 6 * 0.1, 3: 6}
    assert prof["normalization"] == 6



@pytest.mark.parametrize("pat", [K3, complete_pattern(4)], ids=["K3", "K4"])
@pytest.mark.parametrize("pins", [(), ((0, 0),)], ids=["unanchored", "one-pin"])
def test_profile_counts_do_not_depend_on_n(pat, pins, monkeypatch):
    hosts = []

    def recorded(pattern, g, spec):
        hosts.append(g)
        return constrained_count(pattern, g, spec)

    monkeypatch.setattr(polynomial, "constrained_count", recorded)
    calls = []
    for n in (7, 5000):
        hosts.clear()
        for collapse in (False, True):
            f = CopyPolynomial(pat, n, ConstraintSpec(pins, pat.edges), collapse)
            expectation(f, 0.3)
            derivative_profile(f, 0.3)
        assert {g.n for g in hosts} == {pat.v}
        calls.append(len(hosts))
    assert calls[0] == calls[1]


PROFILE_PATTERNS = {
    "K3": K3,
    "K4": complete_pattern(4),
    "P4": path_pattern(4),
    "C4": cycle_pattern(4),
    "star3": pattern_from_edges(2, 4, [(0, 1), (0, 2), (0, 3)]),
    "P3+isolated": pattern_from_edges(2, 4, [(0, 1), (1, 2)]),
    "two-triples": pattern_from_edges(3, 5, [(0, 1, 2), (2, 3, 4)]),
}


def _pin_sets(pat, n):
    """No pins, then one and two pins, each at the low and the high end of the host."""
    return [
        (),
        ((0, 0),),
        ((0, n - 1),),
        ((0, 0), (pat.v - 1, 1)),
        ((0, n - 1), (pat.v - 1, n - 2)),
    ]


def _polynomials(pat, sizes, every_subset=True):
    """Both bases and every pin set, constraining each nonempty edge subset the pins allow.

    Without ``every_subset``, only the whole allowed edge set is constrained.
    """
    for n in sizes:
        for pins in _pin_sets(pat, n):
            pinned = {a for a, _ in pins}
            allowed = [e for e in pat.edges if not pinned.issuperset(e)]
            subsets = [
                sub
                for r in (range(1, len(allowed) + 1) if every_subset else [len(allowed)])
                for sub in itertools.combinations(allowed, r)
            ]
            for sub in subsets:
                for collapse in (False, True):
                    yield CopyPolynomial(pat, n, ConstraintSpec(pins, sub), collapse)


@pytest.mark.parametrize("pat", PROFILE_PATTERNS.values(), ids=PROFILE_PATTERNS.keys())
def test_profile_matches_injection_oracle(pat):
    # exact: repr compares every float bit for bit
    for f in _polynomials(pat, sorted({pat.v, pat.v + 1, 7})):
        for p in (0.1, 0.37, 1.0):
            assert repr(derivative_profile(f, p)) == repr(derivative_profile_bruteforce(f, p))


@pytest.mark.parametrize("pat", PROFILE_PATTERNS.values(), ids=PROFILE_PATTERNS.keys())
def test_evaluate_matches_injection_oracle(pat):
    hosts = [sample_gnp(pat.k, 7, 0.6, derive_seed(78, pat.k, pat.v, t)) for t in range(4)]
    for f in _polynomials(pat, [7], every_subset=False):
        for g in hosts:
            assert evaluate(f, g) == evaluate_bruteforce(f, g)


REGULARITY_PATTERNS = {
    "K3": K3,
    "P3": path_pattern(3),
    "C4": cycle_pattern(4),
    "two-triples": pattern_from_edges(3, 5, [(0, 1, 2), (2, 3, 4)]),
}


@pytest.mark.parametrize("pat", REGULARITY_PATTERNS.values(), ids=REGULARITY_PATTERNS.keys())
def test_regularity_e_star_is_each_case_profile(pat):
    # at n=7 the images of one pin are listed and those of two or more are
    # sampled, so the cases of one (A, E') carry different pin images
    g = sample_gnp(pat.k, 7, 0.5, derive_seed(79, pat.k, pat.v, pat.m))
    rep = regularity_report(pat, g, 0.5, eps=0.5, beta=20.0, seed=2)
    assert rep["part_a"]["regime"] == "sampled_pins"
    for case in rep["part_a"]["cases"]:
        f = CopyPolynomial(pat, 7, ConstraintSpec(case["pins"], case["constrained_edges"]))
        assert case["e_star"] == derivative_profile(f, 0.5)["e_star"]


def test_regularity_profiles_once_per_pin_set_and_edge_subset(monkeypatch):
    calls = []

    def counted(f, p):
        calls.append(f.spec)
        return derivative_profile(f, p)

    monkeypatch.setattr(polynomial, "derivative_profile", counted)
    rep = regularity_report(K3, sample_gnp(2, 12, 0.8, 3), 0.8, eps=0.5, beta=20.0, seed=3)
    # K3: 7 edge subsets with no pin, 3 x 7 with one pin, 3 x 3 with two
    assert len(calls) == 37
    assert rep["part_a"]["family_size"] == 475
    assert {c["branch"] for c in rep["part_a"]["cases"]} == {"large_expectation"}
    # at small p some ceilings E* fall below n^-eps, and those cases are held to beta
    rep = regularity_report(K3, sample_gnp(2, 12, 0.05, 3), 0.05, eps=0.5, beta=20.0, seed=3)
    small = [c for c in rep["part_a"]["cases"] if c["branch"] == "small_expectation"]
    assert len(small) == 108
    assert all(c["bound"] == 20.0 and c["e_star"] <= c["low_threshold"] for c in small)


@pytest.mark.parametrize("image", [6, 999, -5])
def test_anchor_image_outside_host_is_rejected(image):
    anchor = ConstraintSpec(((0, image),), K3.edges)
    with pytest.raises(InputError, match=f"pin image {image} out of range"):
        CopyPolynomial(pattern=K3, n=6, anchor=anchor)
