import math

import pytest

from oracles import binomial_mixture_estimate

from hfactor import thresholds
from hfactor.errors import InputError
from hfactor.factor import has_factor
from hfactor.host import complete_host, host_from_edges, sample_gnp, total_edges
from hfactor.pattern import complete_pattern, pattern_from_edges, single_edge_pattern
from hfactor.rng import derive_seed
from hfactor.thresholds import (
    compare_models,
    coverage_check,
    formula_threshold,
    role_coverage_check,
    threshold_scan,
    wilson_interval,
)

K2 = complete_pattern(2)
K3 = complete_pattern(3)


def test_formula_triangle():
    rep = formula_threshold(K3, 50)
    assert rep["predicted"] == pytest.approx(50 ** (-2 / 3) * math.log(50) ** (1 / 3))
    assert rep["strictly_balanced_value"] == pytest.approx(rep["predicted"])
    assert rep["uniform_local_density"]


def test_formula_matching():
    rep = formula_threshold(K2, 16)
    assert rep["predicted"] == pytest.approx(math.log(16) / 16)


def test_formula_hyperedge():
    rep = formula_threshold(single_edge_pattern(3), 30)
    assert rep["predicted"] == pytest.approx(30 ** (-2) * math.log(30))


def test_formula_unbalanced_pattern():
    # triangle plus pendant: local densities disagree, no log factor
    p = pattern_from_edges(2, 4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    rep = formula_threshold(p, 100)
    assert not rep["uniform_local_density"]
    assert rep["predicted"] == pytest.approx(100 ** (-2 / 3))
    assert rep["strictly_balanced_value"] is None
    assert rep["general_lower_bound"] == pytest.approx(100 ** (-2 / 3))


def test_coverage_examples():
    assert coverage_check(K3, complete_host(2, 6))
    stripped = host_from_edges(
        2, 6, [e for e in complete_host(2, 6).edges if 0 not in e]
    )
    assert not coverage_check(K3, stripped)
    assert coverage_check(K2, host_from_edges(2, 4, [(0, 1), (2, 3)]))


def test_role_coverage_examples():
    assert role_coverage_check(K3, complete_host(2, 6))
    assert not role_coverage_check(K3, host_from_edges(2, 6, [(0, 1)]))
    with pytest.raises(InputError):
        role_coverage_check(K3, complete_host(2, 7))


def test_role_coverage_pendant_shortage():
    # hub-and-spokes host: only one vertex can play the hub role, which is
    # below the n/v quota, while plain coverage still holds
    p = pattern_from_edges(2, 4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    g = host_from_edges(2, 8, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)])
    assert coverage_check(p, g)
    assert not role_coverage_check(p, g)


def test_implication_chain_random():
    for seed in range(60):
        g = sample_gnp(2, 8, 0.4, derive_seed(99, seed))
        fac = has_factor(K2, g)
        role = role_coverage_check(K2, g)
        cov = coverage_check(K2, g)
        assert not (fac and not role)
        assert not (role and not cov)


def test_scan_matching_bracket():
    estimates = threshold_scan(K2, [16], trials=300, seed=5)
    est = estimates[0]
    assert 0.08 <= est.p_half <= 0.35
    assert est.ci_low <= est.p_half <= est.ci_high
    assert est.chain_violations == 0
    assert est.formula_value == pytest.approx(math.log(16) / 16)
    # monotone consistency at the final bracket endpoints
    lo_probes = [pr for pr in est.probes if pr["p"] == est.ci_low]
    hi_probes = [pr for pr in est.probes if pr["p"] == est.ci_high]
    lo_est = lo_probes[-1]["estimate"] if lo_probes else 0.0
    hi_est = hi_probes[-1]["estimate"] if hi_probes else 1.0
    assert hi_est >= lo_est


def test_scan_coverage_below_factor():
    fac = threshold_scan(K2, [16], trials=300, seed=5)[0]
    cov = threshold_scan(K2, [16], trials=300, seed=5, property_name="coverage")[0]
    assert cov.p_half <= fac.p_half


def test_scan_validation():
    with pytest.raises(InputError):
        threshold_scan(K3, [7], trials=10, seed=0)
    with pytest.raises(InputError):
        threshold_scan(K2, [12], trials=0, seed=0)
    with pytest.raises(InputError):
        threshold_scan(K2, [30], trials=10, seed=0)


def test_scan_checks_every_n_before_sampling(monkeypatch):
    calls = []
    monkeypatch.setattr(thresholds, "sample_gnp", lambda *args: calls.append(args))
    with pytest.raises(InputError, match="n=7"):
        threshold_scan(K2, [12, 7], trials=10, seed=0)
    assert calls == []


def test_scan_profiles_the_pattern_once(monkeypatch):
    profiles = []
    density_profile = thresholds.density_profile
    monkeypatch.setattr(thresholds, "density_profile",
                        lambda p: profiles.append(p) or density_profile(p))
    estimates = threshold_scan(K2, [4, 6, 8], trials=2, seed=0)
    assert profiles == [K2]
    assert [e.formula_value for e in estimates] == [
        formula_threshold(K2, n)["predicted"] for n in (4, 6, 8)]


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0)


# p_half, every probe estimate and chain_violations of small seeded scans,
# recorded before the per-host evaluation was merged into one pass
SCAN_GOLDEN = [
    ("factor", 2, 8, 0.3448486328125,
     [1.0, 0.25, 0.75, 0.45, 0.4, 0.55, 0.5, 0.7, 0.65, 0.4, 0.6, 0.7]),
    ("factor", 2, 12, 0.2591552734375,
     [1.0, 0.3, 0.95, 0.85, 0.55, 0.65, 0.35, 0.6, 0.55, 0.45, 0.55, 0.45]),
    ("coverage", 2, 8, 0.2891845703125,
     [1.0, 0.45, 0.75, 0.6, 0.4, 0.6, 0.35, 0.55, 0.6, 0.5, 0.6, 0.65]),
    ("coverage", 2, 12, 0.2540283203125,
     [1.0, 0.45, 0.95, 0.85, 0.65, 0.8, 0.6, 0.4, 0.6, 0.55, 0.5, 0.55]),
    ("role", 2, 8, 0.2891845703125,
     [1.0, 0.45, 0.75, 0.6, 0.4, 0.6, 0.35, 0.55, 0.6, 0.5, 0.6, 0.65]),
    ("role", 2, 12, 0.2540283203125,
     [1.0, 0.45, 0.95, 0.85, 0.65, 0.8, 0.6, 0.4, 0.6, 0.55, 0.5, 0.55]),
    ("role", 3, 9, 0.5350341796875,
     [0.45, 1.0, 0.85, 0.75, 0.45, 0.65, 0.5, 0.5, 0.4, 0.4, 0.4, 0.35]),
]


@pytest.mark.parametrize("prop,v", [("factor", 2), ("coverage", 2), ("role", 2), ("role", 3)])
def test_scan_golden(prop, v):
    expected = [row for row in SCAN_GOLDEN if row[:2] == (prop, v)]
    n_list = [row[2] for row in expected]
    estimates = threshold_scan(complete_pattern(v), n_list, trials=20, seed=31, property_name=prop)
    for est, (_, _, n, p_half, probe_estimates) in zip(estimates, expected):
        assert est.n == n
        assert est.p_half == p_half
        assert [pr["estimate"] for pr in est.probes] == probe_estimates
        assert est.chain_violations == 0


def test_compare_models_extremes():
    rep = compare_models(K2, 6, 1.0, 50, seed=0)
    assert rep["pr_gnp"] == 1.0 and rep["pr_gnm"] == 1.0
    rep = compare_models(K2, 6, 0.0, 50, seed=0)
    assert rep["pr_gnp"] == 0.0 and rep["pr_gnm"] == 0.0


def test_compare_models_agreement():
    # The fixed-size estimate at M = round(Np) differs from the G(n,p) one by
    # a real finite-n gap, so G(n,p) is compared with the Bin(N,p) mixture of
    # fixed-size hosts, whose factor probability equals it exactly
    rep = compare_models(K2, 10, 0.5, 2000, seed=123)
    mix, se_mix = binomial_mixture_estimate(K2, 10, 0.5, 2000, seed=123)
    assert abs(rep["pr_gnp"] - mix) <= 4 * math.sqrt(rep["se_gnp"] ** 2 + se_mix**2)


def test_compare_models_sweep():
    rep = compare_models(K2, 8, 0.4, 100, seed=1, sweep=True)
    assert {row["m_edges"] for row in rep["sweep"]} >= {round(total_edges(2, 8) * 0.4)}


def test_compare_models_validation():
    with pytest.raises(InputError):
        compare_models(complete_pattern(3), 7, 0.5, 10, seed=0)
