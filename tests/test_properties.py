"""Property tests: on random graphs with random edge and node tables, the
engines agree with the permutation brute force, with scalar definitions
written here, and with each other."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeshapley import (
    CostDecayParams,
    Edge,
    EdgeCharacteristic,
    EdgeGame,
    Graph,
    GraphGame,
    NodeCharacteristic,
    Route,
    component_efficiency_check,
    contract_weight_fn,
    delete_edge,
    edge_shapley,
    edge_shapley_pruned,
    fairness_delta,
    lift,
    myerson,
    myerson_bridge,
    route_closed_form,
    shapley_sampled,
    supply_weight_fn,
)
from edgeshapley.games import _table
from edgeshapley.masks import all_masks

from conftest import permutation_shapley

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


#: Rationals with non-unit denominators.
FRACTIONS = st.builds(Fraction, st.integers(-50, 50), st.integers(2, 12))

#: Integers beyond +-2^62, past the int64 bound of the exact reduction.
HUGE = st.builds(lambda sign, x: sign * x, st.sampled_from((-1, 1)),
                 st.integers(1 << 62, 1 << 80))


@st.composite
def graphs(draw, min_nodes=1, max_edges=9, max_nodes=7):
    """A random graph on ``min_nodes`` to ``max_nodes`` nodes and at most
    ``max_edges`` edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    labels = [f"n{i}" for i in range(n)]
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)) if pairs else []
    return Graph(labels, [Edge(labels[i], labels[j]) for i, j in sorted(chosen)])


@st.composite
def table_edge_games(draw, values=st.integers(-5, 9)):
    """A random graph and a sparse random table of ``values`` over its edge
    subsets (missing subsets are worth 0)."""
    g = draw(graphs())
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
    assert lift(eg).has_vector_path  # the dividend path holds any number of edges
    assert edge_shapley(eg).values == route_closed_form(g, routes).values


@st.composite
def route_games(draw, exact=False):
    """A containment route game on at most 9 nodes: a supply game with float
    quantities, or a contract game with counts that may exceed 2^62. Each
    route is the endpoint set of a nonempty edge subset, sometimes with an
    extra node that may add no edge (so two routes can share an edge mask),
    and routes are drawn with repetition."""
    g = draw(graphs(min_nodes=2, max_edges=12, max_nodes=9).filter(lambda g: g.edges))
    m = len(g.edges)
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        nodes = g.endpoint_mask(draw(st.integers(1, (1 << m) - 1)))
        nodes |= draw(st.sampled_from([0, *(1 << i for i in range(g.n))]))
        sets.append(g.labels_of(nodes))
    picked = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=6))
    if exact:
        counts = st.one_of(st.integers(0, 20), st.integers(1 << 62, 1 << 80))
        routes = [Route(nodes, draw(counts)) for nodes in picked]
        return EdgeGame(g, contract_weight_fn(g, routes))
    quantities = st.floats(0, 50, allow_nan=False)
    routes = [Route(nodes, draw(quantities)) for nodes in picked]
    return EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.3)))


def edge_mask_table(eg):
    """The lifted table read through int64 induced edge masks: one worth
    call per coalition (exact) or the worth's own vector path (approx)."""
    g, w = eg.graph, eg.characteristic
    edge_masks = g.induced_edge_masks(all_masks(g.n))
    if w.exact:
        return np.fromiter(map(w, edge_masks.tolist()), dtype=object, count=edge_masks.size)
    return w.evaluate_many(edge_masks)


def assert_identical_tables(got, want):
    assert got.dtype == want.dtype
    if got.dtype == object:
        assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("exact", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_dividend_table_equals_edge_mask_table(exact, data):
    eg = data.draw(route_games(exact))
    assert eg.characteristic.dividends is not None
    assert_identical_tables(_table(lift(eg)), edge_mask_table(eg))


@pytest.mark.parametrize("exact", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_deleted_game_keeps_dividends(exact, data):
    eg = data.draw(route_games(exact))
    for edge in eg.graph.edges:
        deleted = delete_edge(eg, edge)
        assert deleted.characteristic.dividends is not None
        v = lift(deleted)
        scalar = NodeCharacteristic(v.n, v, exact=v.exact)  # w(embed(m)) per coalition
        assert_identical_tables(_table(v), _table(scalar))


def test_sampled_dividends_equal_edge_mask_sampler():
    rng = np.random.default_rng(30)
    labels = [f"n{i:02d}" for i in range(30)]
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, 30)}  # a random tree
    while len(pairs) < 45:
        i, j = sorted(int(x) for x in rng.choice(30, size=2, replace=False))
        pairs.add((i, j))
    g = Graph(labels, [Edge(labels[i], labels[j], float(rng.uniform(0.5, 3)))
                       for i, j in sorted(pairs)])
    routes = []
    for _ in range(12):
        edges = rng.choice(len(g.edges), size=int(rng.integers(2, 5)), replace=False)
        nodes = g.endpoint_mask(sum(1 << int(j) for j in edges))
        routes.append(Route(g.labels_of(nodes), float(rng.uniform(1, 20))))
    routes.append(routes[0])
    eg = EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.1)))
    w = eg.characteristic
    through_edges = NodeCharacteristic(
        g.n, lift(eg), exact=False,
        fn_many=lambda masks: w.evaluate_many(g.induced_edge_masks(masks)),
    )
    for samples, seed in ((1, 0), (5000, 7), (9000, 42)):
        assert (shapley_sampled(lift(eg), samples, seed).values
                == shapley_sampled(through_edges, samples, seed).values)


def through_edges(eg):
    """The lifted approx game of ``eg`` without its rows: the sampler reads
    its permutation prefixes as int64 induced edge masks, valued by the
    worth's own vector path."""
    g, w = eg.graph, eg.characteristic
    return NodeCharacteristic(
        g.n, lift(eg), exact=False,
        fn_many=lambda masks: w.evaluate_many(g.induced_edge_masks(masks)),
    )


def assert_sampler_matches_edge_masks(eg, runs):
    v, oracle = lift(eg), through_edges(eg)
    assert v.dividends is not None and oracle.dividends is None
    for samples, seed in runs:
        assert (shapley_sampled(v, samples, seed).values
                == shapley_sampled(oracle, samples, seed).values)


def random_supply_game(seed, n, n_edges, n_routes, repeats=0):
    """A connected random graph on n nodes and a containment supply game on
    ``n_routes`` random routes, the first ``repeats`` of them declared twice."""
    rng = np.random.default_rng(seed)
    labels = [f"n{i:02d}" for i in range(n)]
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    while len(pairs) < n_edges:
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    g = Graph(labels, [Edge(labels[i], labels[j], float(rng.uniform(0.5, 3)))
                       for i, j in sorted(pairs)])
    routes = []
    for _ in range(n_routes):
        edges = rng.choice(len(g.edges), size=int(rng.integers(1, 6)), replace=False)
        nodes = g.endpoint_mask(sum(1 << int(j) for j in edges))
        routes.append(Route(g.labels_of(nodes), float(rng.uniform(0.1, 40))))
    routes += routes[:repeats]
    return EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.2)))


def test_sampled_rows_beyond_one_chunk_equal_edge_mask_sampler():
    eg = random_supply_game(11, 24, 50, 45)
    assert len(eg.characteristic.dividends) > 32  # three chunks of 16 rows
    assert_sampler_matches_edge_masks(eg, ((1, 3), (700, 5), (4100, 9)))


def test_sampled_repeated_rows_equal_edge_mask_sampler():
    eg = random_supply_game(12, 14, 22, 9, repeats=6)
    rows = [em for em, _ in eg.characteristic.dividends]
    assert len(set(rows)) < len(rows)
    assert_sampler_matches_edge_masks(eg, ((1, 0), (3000, 4)))


def test_sampled_rows_completed_at_one_step_equal_edge_mask_sampler():
    # x closes every route, so each permutation with x after a and b
    # completes two or three rows at x's step
    g = Graph(["a", "b", "c", "x"], [Edge("a", "x", 1.0), Edge("b", "x", 2.0),
                                     Edge("c", "x", 0.5)])
    routes = [Route(("a", "x"), 3.7), Route(("b", "x"), 11.3),
              Route(("a", "b", "x"), 0.9), Route(("c", "x"), 6.1)]
    eg = EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.3)))
    assert_sampler_matches_edge_masks(eg, ((1, 1), (2000, 2)))


def test_sampled_block_edges_equal_edge_mask_sampler():
    # one permutation, and one block of 4096 plus one more
    eg = random_supply_game(13, 18, 30, 20)
    assert_sampler_matches_edge_masks(eg, ((1, 6), (4097, 6)))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_sampled_route_games_equal_edge_mask_sampler(data):
    eg = data.draw(route_games(exact=False))
    samples = data.draw(st.sampled_from([1, 37, 600]))
    assert_sampler_matches_edge_masks(eg, ((samples, data.draw(st.integers(0, 99))),))


def test_sum_of_dividend_games_declares_no_rows():
    a = random_supply_game(14, 12, 20, 10)
    b = random_supply_game(15, 12, 20, 10)
    summed = lift(a) + lift(b)
    assert summed.dividends is None
    oracle = through_edges(a) + through_edges(b)
    assert (shapley_sampled(summed, 2500, 8).values
            == shapley_sampled(oracle, 2500, 8).values)


@st.composite
def node_games(draw, zero_normalized=False):
    """A random graph and a sparse random integer table over its coalitions;
    with ``zero_normalized`` every singleton is worth 0."""
    g = draw(graphs())
    smallest = 2 if zero_normalized else 1
    coalitions = [m for m in range(1, 1 << g.n) if m.bit_count() >= smallest]
    table = {}
    if coalitions:
        table = draw(st.dictionaries(st.sampled_from(coalitions), st.integers(-5, 9),
                                     max_size=12))
    return GraphGame(g, NodeCharacteristic.from_table(g.n, table))


def component_sum(gg):
    """The graph-restricted game written coalition by coalition: the sum of
    v over the components of the subgraph the coalition induces."""
    g, v = gg.graph, gg.v
    return NodeCharacteristic(
        g.n, lambda m: sum((v(c) for c in g.component_masks(within=m)), 0)
    )


@PROPERTY_SETTINGS
@given(st.one_of(node_games(), table_edge_games().map(lambda eg: GraphGame(eg.graph, lift(eg)))))
def test_myerson_equals_permutation_oracle(gg):
    alloc = myerson(gg)
    assert alloc.exact and alloc.nodes == gg.graph.nodes
    assert list(alloc.values) == permutation_shapley(component_sum(gg))


@PROPERTY_SETTINGS
@given(node_games())
def test_myerson_approx_domain_matches_exact(gg):
    v = gg.v
    floats = GraphGame(gg.graph, NodeCharacteristic(v.n, lambda m: float(v(m)), exact=False))
    approx = myerson(floats)
    assert not approx.exact
    for a, x in zip(approx.values, myerson(gg).values):
        assert type(a) is float
        assert abs(a - x) <= 1e-9


@PROPERTY_SETTINGS
@given(node_games(zero_normalized=True))
def test_bridge_edge_shapley_equals_myerson(gg):
    assert edge_shapley(myerson_bridge(gg)).values == myerson(gg).values


def separated_pairs(g):
    """Every pair of nonempty disjoint coalitions joined by no edge."""
    full = g.full_node_mask
    for s in range(1, 1 << g.n):
        rest = full & ~s
        t = rest
        while t:
            if g.induced_edge_mask(s | t) == g.induced_edge_mask(s) | g.induced_edge_mask(t):
                yield s, t
            t = (t - 1) & rest


#: Additive lifted games: the bridge of a zero-normalized node game is worth
#: the sum over its edge groups, so it splits across separated coalitions.
BRIDGED = node_games(zero_normalized=True).map(myerson_bridge)


@st.composite
def split_games(draw, values=st.integers(1, 9)):
    """A sparse graph on 5 to 7 nodes and 2 to 5 edges, whose coalitions
    often split into several components, with a worth in ``values`` for
    every nonempty edge subset: most such games break additivity somewhere."""
    g = draw(graphs(min_nodes=5, max_edges=5).filter(lambda g: len(g.edges) >= 2))
    count = (1 << len(g.edges)) - 1
    worths = draw(st.lists(values, min_size=count, max_size=count))
    return EdgeGame(g, EdgeCharacteristic.from_table(g.edges, dict(enumerate(worths, 1))))


@PROPERTY_SETTINGS
@given(st.one_of(split_games(), split_games(FRACTIONS), split_games(HUGE), BRIDGED))
def test_additivity_verdict_equals_separated_pair_oracle(eg):
    g, v = eg.graph, lift(eg)
    additive = all(v(s | t) == v(s) + v(t) for s, t in separated_pairs(g))
    report = component_efficiency_check(eg)
    assert report.additive_hypothesis == additive
    if not additive:
        s, t = (g.node_mask(side) for side in report.hypothesis_witness)
        assert s and t and not s & t
        assert g.induced_edge_mask(s | t) == g.induced_edge_mask(s) | g.induced_edge_mask(t)
        assert v(s | t) != v(s) + v(t)
    else:
        assert report.hypothesis_witness is None


@PROPERTY_SETTINGS
@given(st.one_of(split_games(), BRIDGED))
def test_additivity_verdict_approx_domain(eg):
    # small integer worths are exact in binary64, so the float copy of the
    # game must reach the same verdict and witness
    g, w = eg.graph, eg.characteristic
    floats = EdgeGame(g, EdgeCharacteristic(g.edges, lambda m: float(w(m)), exact=False))
    exact = component_efficiency_check(eg)
    approx = component_efficiency_check(floats)
    assert approx.additive_hypothesis == exact.additive_hypothesis
    assert approx.hypothesis_witness == exact.hypothesis_witness
