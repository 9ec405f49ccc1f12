import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeshapley import (
    CapacityError,
    DegenerateRouteError,
    Edge,
    Graph,
    GraphConstructionError,
    Route,
    UnknownEdgeError,
    UnknownNodeError,
    build_graph,
    load_fixture,
)
from edgeshapley.masks import all_masks

from conftest import random_graph


def test_neighborhood_h_graph(h_graph):
    assert h_graph.neighborhood("D") == {"A", "B"}
    assert h_graph.neighborhood("C") == {"E"}
    assert h_graph.neighborhood("A") == {"D"}


def test_neighborhood_isolated_node():
    g = build_graph(["X", "Y"], [])
    assert g.neighborhood("X") == set()


def test_neighborhood_unknown_node(h_graph):
    with pytest.raises(UnknownNodeError):
        h_graph.neighborhood("Z")


def test_neighborhood_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 9)))
        for u in g.nodes:
            for v in g.neighborhood(u):
                assert u in g.neighborhood(v)


def test_induced_edges_h_graph(h_graph):
    got = {(e.src, e.dst) for e in h_graph.induced_edges({"A", "B", "D"})}
    assert got == {("A", "D"), ("B", "D")}
    assert h_graph.induced_edges({"A", "B"}) == ()


def test_induced_edges_smartphone():
    g = load_fixture("smartphone").graph
    got = {(e.src, e.dst) for e in g.induced_edges({"S1", "S2", "M1"})}
    assert got == {("S1", "M1"), ("S2", "M1")}


def test_induced_edges_unknown_node(h_graph):
    with pytest.raises(UnknownNodeError):
        h_graph.induced_edges({"A", "nope"})


def test_induced_edges_subset_invariant():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 9)))
        mask = int(rng.integers(0, 1 << g.n))
        s = set(g.labels_of(mask))
        induced = g.induced_edges(s)
        assert set(induced) <= set(g.edges)
        for e in induced:
            assert e.src in s and e.dst in s


def test_connected_components_h_graph(h_graph):
    assert set(h_graph.connected_components()) == {
        frozenset({"A", "B", "D"}),
        frozenset({"C", "E"}),
    }


def test_connected_components_edgeless():
    g = build_graph(["x", "y", "z"], [])
    assert set(g.connected_components()) == {
        frozenset({"x"}),
        frozenset({"y"}),
        frozenset({"z"}),
    }


def test_connected_components_smartphone_single_component():
    g = load_fixture("smartphone").graph
    # independent reachability closure over the raw edge list
    adjacency = {}
    for e in g.edges:
        adjacency.setdefault(e.src, set()).add(e.dst)
        adjacency.setdefault(e.dst, set()).add(e.src)
    seen = {g.nodes[0]}
    frontier = [g.nodes[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    assert seen == set(g.nodes)
    assert g.connected_components() == [frozenset(g.nodes)]


def test_components_form_partition():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 10)), p=0.25)
        comps = g.connected_components()
        union = set()
        for comp in comps:
            assert not (union & comp)
            union |= comp
        assert union == set(g.nodes)


def test_route_cost_smartphone():
    g = load_fixture("smartphone").graph
    r = Route(["S1", "S2", "M1", "F1", "D1", "R1"], 100)
    assert g.route_cost(r) == pytest.approx(2 + 2 + 4 + 5 + 1)


def test_route_cost_chain_cases():
    g1 = load_fixture("chain-suppliers").graph
    assert g1.route_cost(Route(["A", "C", "D", "E"], 8)) == pytest.approx(3.0)
    g3 = load_fixture("chain-suppliers-costly").graph
    assert g3.route_cost(Route(["A", "C", "D", "E"], 8)) == pytest.approx(6.0)


def test_route_cost_degenerate(h_graph):
    with pytest.raises(DegenerateRouteError):
        h_graph.route_cost(Route(["A", "B"], 1))


def test_route_cost_monotone_under_node_addition():
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = random_graph(rng, 7, p=0.5)
        mask = int(rng.integers(3, 1 << g.n))
        nodes = list(g.labels_of(mask))
        if len(nodes) < 2 or g.induced_edge_mask(mask) == 0:
            continue
        base = g.route_cost(Route(nodes, 1))
        for extra in g.nodes:
            if extra in nodes:
                continue
            assert g.route_cost(Route(nodes + [extra], 1)) >= base


def test_graph_rejects_bad_input():
    with pytest.raises(GraphConstructionError):
        Graph(["A", "A"], [])
    with pytest.raises(GraphConstructionError):
        Graph(["A", "B"], [Edge("A", "B"), Edge("B", "A")])
    with pytest.raises(GraphConstructionError):
        Edge("A", "A")
    with pytest.raises(GraphConstructionError):
        Edge("A", "B", -1.0)
    with pytest.raises(UnknownNodeError):
        Graph(["A"], [("A", "B")])
    with pytest.raises(GraphConstructionError):
        Graph([f"n{i}" for i in range(64)], [])
    with pytest.raises(GraphConstructionError):
        Route(["A"], 1)
    with pytest.raises(GraphConstructionError):
        Route(["A", "B"], -2)


def test_edge_index_symmetric(h_graph):
    assert h_graph.edge_index("A", "D") == h_graph.edge_index("D", "A")
    with pytest.raises(UnknownEdgeError):
        h_graph.edge_index("A", "B")


def test_has_edge_either_orientation(h_graph):
    assert h_graph.has_edge("A", "D") and h_graph.has_edge("D", "A")
    assert not h_graph.has_edge("A", "B")


def test_graph_identity_and_edge_endpoints(h_graph):
    twin = Graph(h_graph.nodes, h_graph.edges)
    assert twin == h_graph and hash(twin) == hash(h_graph)
    assert twin != h_graph.without_edge("A", "D")
    assert repr(h_graph) == "Graph(nodes=5, edges=3)"
    assert Edge("A", "D").endpoints == frozenset({"A", "D"})


def test_without_edge_and_node(h_graph):
    g = h_graph.without_edge("A", "D")
    assert g.nodes == h_graph.nodes
    assert len(g.edges) == 2
    assert not g.has_edge("A", "D")

    g2 = h_graph.without_node("D")
    assert g2.nodes == ("A", "B", "C", "E")
    assert {(e.src, e.dst) for e in g2.edges} == {("C", "E")}


def test_induced_edge_masks_vectorized_matches_scalar():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 8, p=0.5)
    masks = np.arange(1 << g.n, dtype=np.int64)
    vec = g.induced_edge_masks(masks)
    for m in range(0, 1 << g.n, 37):
        assert int(vec[m]) == g.induced_edge_mask(m)


def test_induced_edge_masks_limited_to_63_edges():
    labels = [f"v{i:02d}" for i in range(12)]
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    k12 = build_graph(labels, pairs)  # 66 edges
    with pytest.raises(CapacityError):
        k12.induced_edge_masks(np.array([k12.full_node_mask], dtype=np.int64))
    g63 = build_graph(labels, pairs[:63])
    full = np.array([g63.full_node_mask], dtype=np.int64)
    assert int(g63.induced_edge_masks(full)[0]) == g63.full_edge_mask == (1 << 63) - 1


def test_induced_edge_counts_equal_popcount_of_edge_masks():
    rng = np.random.default_rng(18)
    labels = [f"v{i:02d}" for i in range(12)]
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    for g in [random_graph(rng, 8, p=0.5), build_graph(["x"], []), build_graph(labels, pairs[:63])]:
        masks = np.arange(1 << g.n, dtype=np.int64)
        counts = g.induced_edge_counts(masks)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bitwise_count(g.induced_edge_masks(masks)))


def test_induced_edge_counts_beyond_63_edges():
    labels = [f"v{i:02d}" for i in range(12)]
    k12 = build_graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])
    masks = np.arange(1 << k12.n, dtype=np.int64)
    counts = k12.induced_edge_counts(masks)
    assert counts.tolist() == [k12.induced_edge_mask(m).bit_count() for m in range(1 << k12.n)]
    assert counts[-1] == 66


def _assert_dense_fills_equal_per_mask(g):
    dense, per_mask = g.all_induced_edge_counts(), g.induced_edge_counts(all_masks(g.n))
    assert dense.dtype == per_mask.dtype == np.int64
    assert np.array_equal(dense, per_mask)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    labels = [f"v{i:02d}" for i in range(n)]
    # either orientation: the fills read the symmetric adjacency
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return build_graph(labels, [(labels[j], labels[i]) if flip else (labels[i], labels[j])
                                for (i, j), flip in zip(chosen, flips)])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_graphs())
def test_dense_fills_equal_per_mask_fills(g):
    _assert_dense_fills_equal_per_mask(g)


def test_dense_fills_on_fixed_graphs():
    # one node, an edgeless graph, a path, a star and K12 (66 edges)
    labels = [f"v{i:02d}" for i in range(12)]
    for g in [
        build_graph(["x"], []),
        build_graph(labels[:7], []),
        build_graph(labels, list(zip(labels, labels[1:]))),
        build_graph(labels, [(labels[5], b) for b in labels if b != labels[5]]),
        build_graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]),
    ]:
        _assert_dense_fills_equal_per_mask(g)
    assert g.all_induced_edge_counts()[-1] == 66


def test_dense_fill_refuses_63_players_before_allocating():
    g = build_graph([f"v{i:02d}" for i in range(63)], [])
    with pytest.raises(CapacityError, match="n <= 62"):
        g.all_induced_edge_counts()


def test_edge_component_masks(h_graph):
    full = h_graph.full_edge_mask
    groups = h_graph.edge_component_masks(full)
    node_groups = {h_graph.labels_of(nodes) for _, nodes in groups}
    assert node_groups == {("A", "B", "D"), ("C", "E")}
    assert h_graph.edge_component_masks(0) == []
