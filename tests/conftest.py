import itertools

from hypothesis import HealthCheck, settings, strategies as st

from hfactor.host import host_from_edges
from hfactor.pattern import pattern_from_edges

# derandomize: every run checks the same examples, so a failure seen once reruns
settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def graph_patterns(draw, max_v=6):
    v = draw(st.integers(min_value=2, max_value=max_v))
    pool = list(itertools.combinations(range(v), 2))
    edges = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
    )
    return pattern_from_edges(2, v, edges)


@st.composite
def graph_hosts(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pool = list(itertools.combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(pool), min_size=0, max_size=len(pool), unique=True)
    )
    return host_from_edges(2, n, edges)


@st.composite
def hypergraph_patterns(draw, max_v=4):
    """A 3-uniform pattern on v <= max_v vertices and a 3-uniform host on a multiple of v.

    The host is the complete one minus drawn edges, so most draws have a factor.
    """
    v = draw(st.integers(min_value=3, max_value=max_v))
    pool = list(itertools.combinations(range(v), 3))
    pattern = pattern_from_edges(3, v, draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)))
    n = v * draw(st.integers(min_value=1, max_value=9 // v))
    pool = list(itertools.combinations(range(n), 3))
    removed = set(draw(st.lists(st.sampled_from(pool), unique=True)))
    return pattern, host_from_edges(3, n, [e for e in pool if e not in removed])
