import hashlib
import json
import math
from dataclasses import asdict
from fractions import Fraction

import pytest

from hfactor.errors import InputError, InvariantError, NoFactorError
from hfactor.factor import FactorCounter
from hfactor.host import complete_host, host_from_edges, sample_gnp, total_edges
from hfactor.pattern import (
    complete_pattern,
    cycle_pattern,
    path_pattern,
    pattern_from_edges,
    single_edge_pattern,
)
from hfactor.process import gamma, run_process, verify_martingale_step
from hfactor.rng import derive_seed

K2 = complete_pattern(2)
K3 = complete_pattern(3)
E3 = single_edge_pattern(3)
P3 = path_pattern(3)


def test_gamma_values():
    assert gamma(K3, 6, 1) == Fraction(2, 5)
    assert gamma(K3, 6, 6) == Fraction(3, 5)
    assert gamma(K2, 4, 1) == Fraction(1, 3)
    assert gamma(E3, 6, 1) == Fraction(1, 10)


def test_gamma_range():
    with pytest.raises(InputError):
        gamma(K2, 4, 0)
    with pytest.raises(InputError):
        gamma(K2, 4, 7)
    with pytest.raises(InputError):
        gamma(K2, 5, 1)


def test_run_process_immediate_extinction():
    trace = run_process(K3, 3, seed=11)
    assert trace.stop_reason == "extinct"
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.xi == 1 and step.gamma == 1 and step.z == 0
    assert step.log_factor_count == -math.inf
    assert trace.log_initial == pytest.approx(math.log(6))


def test_first_step_fraction_on_complete_host():
    # symmetry: the first deletion always removes the same factor fraction
    for seed in range(5):
        trace = run_process(K2, 4, seed=seed, t_max=1)
        assert trace.steps[0].xi == Fraction(1, 3)


def test_initial_log_count():
    trace = run_process(K2, 8, seed=3, t_max=1)
    assert trace.log_initial == pytest.approx(math.log(math.factorial(8) // math.factorial(4)))


def test_trace_invariants():
    for pat, n in [(K2, 8), (K3, 6), (E3, 6)]:
        for seed in range(6):
            trace = run_process(pat, n, seed=seed)
            prev_log = trace.log_initial
            x_acc = Fraction(0)
            for s in trace.steps:
                assert 0 <= s.xi <= 1
                assert s.log_factor_count <= prev_log + 1e-12
                prev_log = s.log_factor_count
                x_acc += s.z
                assert x_acc == s.x_partial


def test_telescoping_identity():
    for pat, n, seeds in [(K2, 10, range(8)), (K3, 9, range(8))]:
        for seed in seeds:
            trace = run_process(pat, n, seed=seed)
            log_phi = trace.log_initial
            for s in trace.steps:
                if s.xi == 1:
                    break
                log_phi += math.log(1 - s.xi)
                assert abs(log_phi - s.log_factor_count) <= 1e-9


def test_gamma_partial_sums_approximate_log():
    n = 10
    total = total_edges(2, n)
    mnv = Fraction(K2.m * n, K2.v)
    acc = Fraction(0)
    for t in range(1, total):
        acc += gamma(K2, n, t)
        target = float(mnv) * math.log(total / (total - t))
        assert abs(float(acc) - target) <= float(mnv) / (total - t)


def test_step_copy_bound():
    # per-step bound xi <= maxr * (max copies per edge) / (min copy degree),
    # exact whenever the pre-deletion graph has all degrees positive
    for pat, n in [(K2, 10), (K3, 9), (E3, 9)]:
        for seed in range(6):
            trace = run_process(pat, n, seed=seed)
            for s in trace.steps:
                if s.min_copy_degree > 0:
                    bound = s.prev_maxr * Fraction(s.max_copies_per_edge, s.min_copy_degree)
                    assert s.xi <= bound


def test_guard_zeroes_increments():
    trace = run_process(K3, 9, seed=1)
    if trace.guard_trip_step is not None:
        for s in trace.steps:
            if s.i > trace.guard_trip_step:
                assert s.z == 0 and not s.guard_ok


def test_martingale_step_examples():
    left, right = verify_martingale_step(K3, complete_host(2, 6))
    assert left == right == Fraction(2, 5)
    left, right = verify_martingale_step(K2, complete_host(2, 4))
    assert left == right == Fraction(1, 3)
    g = complete_host(2, 4).without_edge((0, 1))
    left, right = verify_martingale_step(K2, g)
    assert left == right == Fraction(2, 5)
    with pytest.raises(NoFactorError, match="no factor"):
        verify_martingale_step(K2, host_from_edges(2, 4, [(1, 2), (1, 3), (2, 3)]))  # 0 isolated


def test_martingale_step_random_battery():
    cases = 0
    for pat, n, p in [(K2, 8, 0.6), (K3, 6, 0.8), (E3, 6, 0.7)]:
        for seed in range(40):
            g = sample_gnp(pat.k, n, p, derive_seed(13, seed))
            if FactorCounter(pat, g).count() == 0:
                continue
            left, right = verify_martingale_step(pat, g)
            assert left == right
            cases += 1
            if cases % 3 == 0:
                break
    assert cases >= 3


def _memo_off_by_one(parent, child, e):
    emask = sum(1 << x for x in e)
    for m, c in child._memo.items():
        if c and m & emask == emask:
            child._memo[m] = c + 1


def _blocks_not_carried(parent, child, e):
    child._blocks_by_min, child._blocks = parent._blocks_by_min, parent._blocks


@pytest.mark.parametrize("corrupt", [_memo_off_by_one, _blocks_not_carried])
def test_run_process_catches_wrong_carry(monkeypatch, corrupt):
    # each step recounts the full host from the carried blocks and the corrected memo, so a
    # wrong correction of the counts through the deleted edge, or blocks that keep the copies
    # using it, must fail the step identity
    carry = FactorCounter.without_edge

    def corrupted(self, e):
        child = carry(self, e)
        corrupt(self, child, e)
        return child

    monkeypatch.setattr(FactorCounter, "without_edge", corrupted)
    with pytest.raises(InvariantError, match="factors left"):
        run_process(K3, 9, seed=1)


def test_process_validation():
    with pytest.raises(InputError):
        run_process(K3, 7, seed=0)
    with pytest.raises(InputError):
        run_process(K2, 30, seed=0)
    with pytest.raises(InputError, match="t_max must be nonnegative"):
        run_process(K2, 4, seed=0, t_max=-3)
    for bad in (math.nan, -1.0):
        with pytest.raises(InputError, match="reg_eps"):
            run_process(K2, 4, seed=0, reg_eps=bad)
    for bad in (math.nan, 0.0, -2.0):
        with pytest.raises(InputError, match="b_level"):
            run_process(K2, 4, seed=0, b_level=bad)


# Per step (xi, max_copies_per_edge, min_copy_degree, prev_maxr, guard_ok),
# recorded from the counter that was rebuilt from scratch on every step.
# The CSV digests do not cover the copy-bound columns.
_GOLDEN_TRACES = [
    (K2, 8, 5, 15, "extinct", [
        ('1/7', 2, 14, '1', True),
        ('2/15', 2, 12, '9/8', True),
        ('5/39', 2, 12, '5/4', True),
        ('3/17', 2, 12, '75/68', True),
        ('1/7', 2, 10, '9/7', True),
        ('7/48', 2, 10, '23/16', True),
        ('5/41', 2, 10, '55/41', True),
        ('7/36', 2, 10, '7/6', True),
        ('6/29', 2, 8, '40/29', True),
        ('4/23', 2, 8, '38/23', True),
        ('8/19', 2, 6, '36/19', True),
        ('6/11', 2, 4, '51/22', False),
        ('2/5', 2, 2, '4', False),
        ('0', 2, 2, '15/4', False),
        ('1', 2, 2, '7/2', False),
    ]),
    (K3, 9, 2, 13, "extinct", [
        ('1/4', 42, 168, '1', True),
        ('5/21', 42, 126, '11/9', True),
        ('11/40', 42, 120, '35/24', True),
        ('15/58', 42, 84, '160/87', True),
        ('14/43', 42, 84, '290/129', True),
        ('7/29', 42, 60, '90/29', True),
        ('2/11', 42, 54, '40/11', True),
        ('5/18', 36, 48, '35/9', True),
        ('7/13', 36, 48, '38/13', False),
        ('5/12', 36, 30, '35/9', False),
        ('1/7', 36, 18, '44/7', False),
        ('2/3', 30, 12, '6', False),
        ('1', 30, 6, '26/3', False),
    ]),
    (P3, 9, 4, 27, "extinct", [
        ('1/6', 28, 168, '1', True),
        ('13/70', 28, 140, '17/15', True),
        ('4/19', 28, 114, '25/19', True),
        ('119/675', 28, 90, '71/45', True),
        ('129/556', 28, 88, '250/139', True),
        ('178/1281', 28, 88, '135/61', True),
        ('279/1103', 28, 84, '2625/1103', True),
        ('31/206', 28, 64, '2475/824', True),
        ('29/100', 26, 60, '418/175', True),
        ('197/994', 26, 42, '1573/497', False),
        ('214/797', 26, 42, '2904/797', False),
        ('247/583', 26, 42, '246/53', False),
        ('5/24', 26, 28, '145/36', False),
        ('65/266', 26, 28, '477/133', False),
        ('79/201', 26, 28, '294/67', False),
        ('14/61', 26, 28, '819/122', False),
        ('11/47', 24, 26, '943/141', False),
        ('23/72', 22, 18, '1679/216', False),
        ('4/49', 20, 18, '1105/147', False),
        ('2/5', 18, 16, '952/135', False),
        ('11/27', 18, 12, '539/81', False),
        ('9/16', 18, 10, '129/16', False),
        ('2/7', 16, 4, '190/21', False),
        ('2/5', 14, 2, '31/3', False),
        ('0', 12, 2, '8', False),
        ('2/3', 10, 2, '19/3', False),
        ('1', 10, 2, '5', False),
    ]),
]


@pytest.mark.parametrize(
    "pat, n, seed, stop_step, stop_reason, rows", _GOLDEN_TRACES,
    ids=["K2-8", "K3-9", "P3-9"],
)
def test_run_process_golden(pat, n, seed, stop_step, stop_reason, rows):
    trace = run_process(pat, n, seed=seed)
    assert (trace.stop_step, trace.stop_reason) == (stop_step, stop_reason)
    got = [
        (s.xi, s.max_copies_per_edge, s.min_copy_degree, s.prev_maxr, s.guard_ok)
        for s in trace.steps
    ]
    want = [
        (Fraction(xi), beta, deg, Fraction(maxr), ok)
        for xi, beta, deg, maxr, ok in rows
    ]
    assert got == want


def test_run_process_golden_t_max():
    trace = run_process(K2, 8, seed=5, t_max=6)
    assert (trace.stop_step, trace.stop_reason) == (6, "t_max")
    assert [s.xi for s in trace.steps] == [
        Fraction(x) for x in ("1/7", "2/15", "5/39", "3/17", "1/7", "7/48")
    ]


# SHA-256 of every field of whole traces, recorded from the counter that was
# rebuilt from scratch on every step: C4 loses some copies of a block per
# deletion, the two-triple 3-uniform pattern does so on a hypergraph.
C4 = cycle_pattern(4)
TWO_TRIPLES = pattern_from_edges(3, 4, [(0, 1, 2), (1, 2, 3)])
_GOLDEN_DIGESTS = [
    (C4, 1, "5375e0aae198c571ff9c1d3c2faec0dc28b8be8c38bf6d62d5dccea6f8f08417"),
    (C4, 2, "d3c00b0396c8137718480e61b4f2e386e03693b21859c8993604a2b8deb853f9"),
    (TWO_TRIPLES, 1, "253589f9ca0b4bf4cd9f6b875faa9fedb7dfe5ad85efcd2f6b3473eccb94e3ad"),
    (TWO_TRIPLES, 2, "8b401e0b307f17f6ba5e8154271ee3a15ebceac38f5ccb41c8294d0cedd9efad"),
]


@pytest.mark.parametrize(
    "pat, seed, digest", _GOLDEN_DIGESTS,
    ids=["C4-8-s1", "C4-8-s2", "two-triples-8-s1", "two-triples-8-s2"],
)
def test_run_process_golden_digest(pat, seed, digest):
    trace = run_process(pat, 8, seed=seed)
    text = json.dumps(asdict(trace), sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# guard_trip_step of the golden traces, recorded from the loop that evaluated
# the guard at two sites (before the loop and after each deletion).
_GOLDEN_TRIPS = [(K2, 8, 5, 11), (K3, 9, 2, 8), (P3, 9, 4, 9)]


@pytest.mark.parametrize("pat, n, seed, trip", _GOLDEN_TRIPS, ids=["K2-8", "K3-9", "P3-9"])
def test_guard_trip_step_pinned(pat, n, seed, trip):
    assert run_process(pat, n, seed=seed).guard_trip_step == trip
    # b_level below every flatness ratio: trips at state 0, every z is 0
    low = run_process(pat, n, seed=seed, b_level=0.5)
    assert low.guard_trip_step == 0
    assert all(s.z == 0 and not s.guard_ok for s in low.steps)
    # stopping right at the trip state still evaluates that state's guard
    at_trip = run_process(pat, n, seed=seed, t_max=trip)
    assert (at_trip.guard_trip_step, at_trip.stop_step, at_trip.stop_reason) == (trip, trip, "t_max")
    assert all(s.guard_ok for s in at_trip.steps)
    before = run_process(pat, n, seed=seed, t_max=trip - 1)
    assert (before.guard_trip_step, before.stop_step) == (None, trip - 1)
    none = run_process(pat, n, seed=seed, t_max=0)
    assert (none.guard_trip_step, none.stop_step, none.stop_reason, none.steps) == (
        None, 0, "t_max", []
    )
    assert run_process(pat, n, seed=seed, t_max=0, b_level=0.5).guard_trip_step == 0
