import math
from fractions import Fraction

import numpy as np
import pytest

from edgeshapley import (
    CONTAINMENT,
    STRICT_EQUALITY,
    CostDecayParams,
    DegenerateRouteError,
    EdgeCharacteristic,
    EdgeGame,
    NodeCharacteristic,
    Route,
    build_graph,
    contract_weight_fn,
    edge_shapley,
    lift,
    load_fixture,
    power_weight_fn,
    route_closed_form,
    route_values,
    shapley_exact,
    supply_weight_fn,
)
from edgeshapley.masks import all_masks

from conftest import random_route_game

ALPHA = CostDecayParams(alpha=0.1)


def chain_graph():
    return load_fixture("chain-suppliers").graph


def chain_routes():
    return [
        Route(["A", "C", "D", "E"], 8),
        Route(["B", "C", "D", "E"], 8),
        Route(["A", "B", "C", "D", "E"], 15),
    ]


def test_cost_decay_params_validation():
    with pytest.raises(ValueError):
        CostDecayParams(alpha=0)
    with pytest.raises(ValueError):
        CostDecayParams(alpha=-0.5)
    with pytest.raises(ValueError):
        CostDecayParams(semantics="sometimes")


def test_supply_weight_full_edge_set():
    g = chain_graph()
    w = supply_weight_fn(g, chain_routes(), ALPHA)
    expect = 2 * 8 * math.exp(-0.3) + 15 * math.exp(-0.4)
    assert w(g.full_edge_mask) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(21.908, abs=1e-3)


def test_supply_weight_empty_set_is_zero():
    g = chain_graph()
    w = supply_weight_fn(g, chain_routes(), ALPHA)
    assert w(0) == 0


def test_supply_weight_partial_set():
    g = chain_graph()
    w = supply_weight_fn(g, chain_routes(), ALPHA)
    mask = (
        (1 << g.edge_index("A", "C"))
        | (1 << g.edge_index("C", "D"))
        | (1 << g.edge_index("D", "E"))
    )
    # only the {A,C,D,E} route fits inside those three edges
    assert w(mask) == pytest.approx(8 * math.exp(-0.3), abs=1e-12)


def test_supply_weight_strict_mode():
    g = chain_graph()
    w = supply_weight_fn(g, chain_routes(), CostDecayParams(0.1, STRICT_EQUALITY))
    acde = g.induced_edge_mask(g.node_mask({"A", "C", "D", "E"}))
    assert w(acde) == pytest.approx(8 * math.exp(-0.3), abs=1e-12)
    # a superset of that route's edges matches nothing but the grand route
    assert w(acde | (1 << g.edge_index("B", "C"))) == pytest.approx(
        15 * math.exp(-0.4), abs=1e-12
    )
    assert w(0) == 0


def test_exact_edge_worths_in_a_batch_stay_python_ints():
    # 3^40 has no binary64 representation: the per-mask fallback of an
    # exact worth must hand out Python ints, an approx one float64
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    masks = np.array([0b111, 0b11, 0], dtype=np.int64)
    got = power_weight_fn(g, 40).evaluate_many(masks)
    assert got.dtype == object
    assert [(type(x), x) for x in got] == [(int, 3**40), (int, 2**40), (int, 0)]
    approx = EdgeCharacteristic(g.edges, lambda m: 0.1 * m.bit_count(), exact=False)
    got = approx.evaluate_many(masks)
    assert got.dtype == np.float64 and got.tolist() == [0.1 * 3, 0.1 * 2, 0.0]


def test_sum_of_int64_contract_games_keeps_exact_worths():
    # each game's counts sum just below 2^62, so its batch worths are int64;
    # the sum of three passes 2^63, where int64 addition would wrap
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    big = (1 << 61) - (1 << 40)
    routes = [[Route(["a", "b"], big), Route(["b", "c", "d"], big + k)] for k in (1, 2, 3)]
    parts = [lift(EdgeGame(g, contract_weight_fn(g, r))) for r in routes]
    masks = all_masks(g.n)
    assert all(v.evaluate_many(masks).dtype == np.int64 for v in parts)
    total = parts[0] + parts[1] + parts[2]
    want = [total(m) for m in range(1 << g.n)]
    assert max(want) > 1 << 63
    got = total.evaluate_many(masks)
    assert got.dtype == object
    assert [(type(x), x) for x in got] == [(int, x) for x in want]
    scalar = NodeCharacteristic(g.n, total, exact=True)  # one worth call per coalition
    assert shapley_exact(total).values == shapley_exact(scalar).values
    closed = [route_closed_form(g, r).values for r in routes]
    assert shapley_exact(total).values == tuple(map(sum, zip(*closed)))


def test_supply_vector_path_matches_scalar():
    g = chain_graph()
    for semantics in (CONTAINMENT, STRICT_EQUALITY):
        w = supply_weight_fn(g, chain_routes(), CostDecayParams(0.1, semantics))
        masks = np.arange(1 << len(g.edges), dtype=np.int64)
        vec = w.evaluate_many(masks)
        for m in range(1 << len(g.edges)):
            assert vec[m] == pytest.approx(w(m), abs=0)


def test_containment_monotone_strict_not():
    g = build_graph(["x", "y", "z", "w"], [("x", "y"), ("y", "z"), ("z", "w")])
    routes = [Route(["x", "y"], 5)]
    contain = supply_weight_fn(g, routes, ALPHA)
    strict = supply_weight_fn(g, routes, CostDecayParams(0.1, STRICT_EQUALITY))
    size = 1 << len(g.edges)
    for m in range(size):
        for j in range(len(g.edges)):
            assert contain(m | (1 << j)) >= contain(m)
    xy = 1 << g.edge_index("x", "y")
    # growing past the exact route set loses the route under strict equality
    assert strict(xy) > 0
    assert strict(xy | (1 << g.edge_index("y", "z"))) == 0


def test_route_values_and_alpha_limits():
    g = chain_graph()
    routes = chain_routes()
    tiny = route_values(g, routes, CostDecayParams(alpha=1e-12))
    for rv in tiny:
        assert rv.decayed_value == pytest.approx(rv.route.quantity, abs=1e-9)
    small = route_values(g, routes, CostDecayParams(alpha=0.1))
    large = route_values(g, routes, CostDecayParams(alpha=0.7))
    for a, b in zip(small, large):
        assert b.decayed_value <= a.decayed_value
        assert a.decayed_value <= a.route.quantity


def test_cost_penalty_ordering():
    g = load_fixture("chain-suppliers-costly").graph  # (A,C) costs 4
    cheap = Route(["B", "C", "D", "E"], 8)
    pricey = Route(["A", "C", "D", "E"], 8)
    rv = {tuple(sorted(r.route.nodes)): r for r in route_values(g, [cheap, pricey], ALPHA)}
    assert rv[("A", "C", "D", "E")].decayed_value < rv[("B", "C", "D", "E")].decayed_value


def test_contract_weight_fn():
    g = build_graph(["A", "B", "P"], [("A", "P"), ("B", "P")])
    routes = [Route(["A", "P"], 3), Route(["A", "B", "P"], 5)]
    w = contract_weight_fn(g, routes)
    ap = 1 << g.edge_index("A", "P")
    assert w(ap) == 3
    assert w(g.full_edge_mask) == 8
    assert w(0) == 0
    assert contract_weight_fn(g, [])(g.full_edge_mask) == 0
    with pytest.raises(ValueError):
        contract_weight_fn(g, [Route(["A", "P"], 2.5)])
    with pytest.raises(ValueError, match="semantics must be one of"):
        contract_weight_fn(g, routes, "overlap")
    with pytest.raises(DegenerateRouteError, match=r"contract route \['A', 'B'\] induces no edges"):
        contract_weight_fn(g, [Route(["A", "B"], 1)])


def test_contract_single_route_containment():
    g = build_graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    w = contract_weight_fn(g, [Route(["A", "B"], 4)])
    ab = 1 << g.edge_index("A", "B")
    assert w(ab) == 4
    assert w(g.full_edge_mask) == 4  # superset still carries the route
    assert w(1 << g.edge_index("B", "C")) == 0


def test_power_weight_fn():
    g = chain_graph()
    w2 = power_weight_fn(g, 2)
    assert w2(0b0111) == 9
    assert w2(0) == 0
    with pytest.raises(ValueError):
        power_weight_fn(g, 0)


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def test_closed_form_chain_case():
    g = chain_graph()
    alloc = route_closed_form(g, chain_routes(), ALPHA)
    a = 8 * math.exp(-0.3) / 4 + 15 * math.exp(-0.4) / 5
    c = 2 * (8 * math.exp(-0.3) / 4) + 15 * math.exp(-0.4) / 5
    assert alloc["A"] == pytest.approx(a, abs=1e-12)
    assert alloc["B"] == pytest.approx(a, abs=1e-12)
    assert alloc["C"] == pytest.approx(c, abs=1e-12)
    assert a == pytest.approx(3.4926, abs=1e-4)


def test_closed_form_costly_case():
    s = load_fixture("chain-suppliers-costly")
    alloc = route_closed_form(s.graph, s.routes, CostDecayParams(s.model.alpha))
    a = 8 * math.exp(-0.6) / 4 + 15 * math.exp(-0.7) / 5
    assert alloc["A"] == pytest.approx(a, abs=1e-12)
    assert a == pytest.approx(2.587, abs=1e-3)


def test_closed_form_single_route_splits_evenly():
    g = build_graph(["x", "y", "z"], [("x", "y"), ("y", "z")])
    alloc = route_closed_form(g, [Route(["x", "y", "z"], 9)])
    assert alloc.values == (Fraction(3), Fraction(3), Fraction(3))


def test_closed_form_contract_domain_is_exact():
    g = build_graph(["A", "B", "P"], [("A", "P"), ("B", "P")])
    alloc = route_closed_form(g, [Route(["A", "P"], 3), Route(["A", "B", "P"], 5)])
    assert alloc.exact
    assert alloc["A"] == Fraction(3, 2) + Fraction(5, 3)
    assert alloc.total() == 8


def test_closed_form_preconditions():
    g = chain_graph()
    with pytest.raises(DegenerateRouteError):
        route_closed_form(g, [Route(["A", "B"], 1)], ALPHA)
    # E touches no edge induced by {A, C, E}: a null player of the route's row
    uncovered = [Route(["A", "C", "E"], 1)]
    alloc = route_closed_form(g, uncovered, ALPHA)
    assert alloc["E"] == 0
    engine = edge_shapley(EdgeGame(g, supply_weight_fn(g, uncovered, ALPHA)))
    assert alloc.values == pytest.approx(engine.values, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        route_closed_form(g, chain_routes(), CostDecayParams(0.1, STRICT_EQUALITY))


def test_closed_form_matches_engine_up_to_n14():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(3, 15))
        g, routes, params = random_route_game(rng, n)
        closed = route_closed_form(g, routes, params)
        engine = edge_shapley(EdgeGame(g, supply_weight_fn(g, routes, params)))
        worst = max(abs(x - y) for x, y in zip(closed.values, engine.values))
        assert worst <= 1e-9
