"""Property tests: on random graphs with random edge tables, the engines
agree with the permutation brute force and with each other."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from edgeshapley import (
    Edge,
    EdgeCharacteristic,
    EdgeGame,
    Graph,
    NodeCharacteristic,
    Route,
    contract_weight_fn,
    edge_shapley,
    edge_shapley_pruned,
    fairness_delta,
    lift,
    route_closed_form,
)
from edgeshapley.games import _table

from conftest import permutation_shapley

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


#: Rationals with non-unit denominators.
FRACTIONS = st.builds(Fraction, st.integers(-50, 50), st.integers(2, 12))

#: Integers beyond +-2^62, past the int64 bound of the exact reduction.
HUGE = st.builds(lambda sign, x: sign * x, st.sampled_from((-1, 1)),
                 st.integers(1 << 62, 1 << 80))


@st.composite
def table_edge_games(draw, max_nodes=7, values=st.integers(-5, 9)):
    """A random graph on at most ``max_nodes`` nodes and a sparse random
    table of ``values`` over its edge subsets (missing subsets are worth 0)."""
    n = draw(st.integers(1, max_nodes))
    labels = [f"n{i}" for i in range(n)]
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    g = Graph(labels, [Edge(labels[i], labels[j]) for i, j in sorted(chosen)])
    m = len(g.edges)
    table = {}
    if m:
        table = draw(st.dictionaries(st.integers(1, (1 << m) - 1), values, max_size=3 * m))
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


def _assert_exact_oracle(eg):
    alloc = edge_shapley(eg)
    assert list(alloc.values) == permutation_shapley(lift(eg))
    assert alloc.total() == eg.total_worth


@PROPERTY_SETTINGS
@given(table_edge_games(values=FRACTIONS))
def test_exact_reduction_on_fractions(eg):
    _assert_exact_oracle(eg)


@PROPERTY_SETTINGS
@given(table_edge_games(values=HUGE))
def test_exact_reduction_beyond_int64(eg):
    _assert_exact_oracle(eg)


@PROPERTY_SETTINGS
@given(st.one_of(table_edge_games(), table_edge_games(values=FRACTIONS),
                 table_edge_games(values=HUGE)))
def test_batch_table_equals_scalar_table(eg):
    v = lift(eg)
    assert v.has_vector_path
    batch = _table(v)
    scalar = _table(NodeCharacteristic(v.n, v, exact=True))
    assert batch.dtype == scalar.dtype == object
    assert [(type(x), x) for x in batch] == [(type(x), x) for x in scalar]


@st.composite
def complete_contract_routes(draw, n=12):
    """Containment contract routes on K_n: any node set of two or more nodes
    is covered by its induced edges, so the closed form applies."""
    sets = st.sets(st.integers(0, n - 1), min_size=2, max_size=n)
    picked = draw(st.lists(st.tuples(sets, st.integers(0, 20)), min_size=1, max_size=5))
    return [Route([f"v{i:02d}" for i in nodes], count) for nodes, count in picked]


@settings(derandomize=True, deadline=None, max_examples=10)
@given(complete_contract_routes())
def test_exact_contract_game_beyond_63_edges_equals_closed_form(routes):
    labels = [f"v{i:02d}" for i in range(12)]
    g = Graph(labels, [Edge(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])
    assert len(g.edges) == 66
    eg = EdgeGame(g, contract_weight_fn(g, routes))
    assert not lift(eg).has_vector_path  # more edges than the int64 batch path holds
    assert edge_shapley(eg).values == route_closed_form(g, routes).values
