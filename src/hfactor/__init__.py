"""Pattern-factor analytics for random graphs and k-uniform hypergraphs.

Exact factor counting at desk scale, the random edge-deletion process with
its exact per-step identities, entropy bounds on factor counts, multilinear
copy-polynomial expectations, and Monte Carlo threshold estimation.

``import hfactor`` loads no layer: each public name imports its module on
first use (PEP 562).
"""

import importlib

_EXPORTS = {
    "embed": ("ConstraintSpec", "automorphism_count", "constrained_count", "copy_degrees",
              "degree_regularity", "enumerate_copies", "expected_copy_degree"),
    "entropy": ("WeightedFamily", "entropy_window", "shearer_check", "weight_lemma_check"),
    "errors": ("InputError", "InvariantError", "NoFactorError"),
    "factor": ("FactorCount", "FactorCounter", "complete_graph_count", "count_factors",
               "has_factor"),
    "host": ("HostGraph", "complete_host", "host_from_edges", "parse_host", "random_ordering",
             "sample_gnm", "sample_gnp"),
    "pattern": ("Balance", "DensityReport", "PatternGraph", "complete_pattern", "cycle_pattern",
                "density", "density_profile", "parse_pattern", "path_pattern",
                "pattern_from_edges", "single_edge_pattern"),
    "polynomial": ("CopyPolynomial", "concentration_trial", "derivative_profile", "expectation",
                   "hypothesis_check", "regularity_report"),
    "process": ("ProcessTrace", "gamma", "run_process", "verify_martingale_step"),
    "thresholds": ("ThresholdEstimate", "compare_models", "coverage_check", "formula_threshold",
                   "role_coverage_check", "threshold_scan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
