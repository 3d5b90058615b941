"""Pattern-factor analytics for random graphs and k-uniform hypergraphs.

Exact factor counting at desk scale, the random edge-deletion process with
its exact per-step identities, entropy bounds on factor counts, multilinear
copy-polynomial expectations, and Monte Carlo threshold estimation.
"""

from .embed import (
    ConstraintSpec,
    automorphism_count,
    constrained_count,
    copy_degree,
    copy_degrees,
    degree_regularity,
    enumerate_copies,
    expected_copy_degree,
)
from .entropy import (
    WeightedFamily,
    copy_distribution,
    entropy_window,
    shearer_check,
    weight_lemma_check,
)
from .errors import InputError, InvariantError, NoFactorError
from .factor import (
    FactorCount,
    FactorCounter,
    b_statistic,
    c_statistic,
    complete_graph_count,
    count_factors,
    edge_fraction,
    expected_factor_count,
    has_factor,
    weight_w,
)
from .host import (
    HostGraph,
    complete_host,
    host_from_edges,
    parse_host,
    random_ordering,
    sample_gnm,
    sample_gnp,
)
from .pattern import (
    Balance,
    DensityReport,
    PatternGraph,
    complete_pattern,
    cycle_pattern,
    density,
    density_profile,
    parse_pattern,
    path_pattern,
    pattern_from_edges,
    single_edge_pattern,
)
from .polynomial import (
    CopyPolynomial,
    concentration_trial,
    derivative_expectation,
    derivative_profile,
    expectation,
    hypothesis_check,
    regularity_report,
)
from .process import (
    ProcessTrace,
    gamma,
    run_process,
    verify_martingale_step,
)
from .thresholds import (
    ThresholdEstimate,
    compare_models,
    coverage_check,
    formula_threshold,
    role_coverage_check,
    threshold_scan,
)

__version__ = "0.1.0"
