"""Property tests: on random graphs with random integer edge tables, the
engines agree with the permutation brute force and with each other."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from edgeshapley import (
    Edge,
    EdgeCharacteristic,
    EdgeGame,
    Graph,
    edge_shapley,
    edge_shapley_pruned,
    fairness_delta,
    lift,
)

from conftest import permutation_shapley

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


@st.composite
def table_edge_games(draw, max_nodes=7):
    """A random graph on at most ``max_nodes`` nodes and a sparse random
    integer table over its edge subsets (missing subsets are worth 0)."""
    n = draw(st.integers(1, max_nodes))
    labels = [f"n{i}" for i in range(n)]
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    g = Graph(labels, [Edge(labels[i], labels[j]) for i, j in sorted(chosen)])
    m = len(g.edges)
    table = {}
    if m:
        table = draw(st.dictionaries(st.integers(1, (1 << m) - 1), st.integers(-5, 9),
                                     max_size=3 * m))
    return EdgeGame(g, EdgeCharacteristic.from_table(g.edges, table))


@PROPERTY_SETTINGS
@given(table_edge_games())
def test_edge_shapley_equals_permutation_oracle(eg):
    assert list(edge_shapley(eg).values) == permutation_shapley(lift(eg))


@PROPERTY_SETTINGS
@given(table_edge_games())
def test_fairness_deltas_equal(eg):
    for edge in eg.graph.edges:
        d_src, d_dst = fairness_delta(eg, edge)
        assert d_src == d_dst


@PROPERTY_SETTINGS
@given(table_edge_games())
def test_pruned_equals_full(eg):
    assert edge_shapley_pruned(eg).values == edge_shapley(eg).values
