"""Builders turning application data into edge characteristics.

Three families:

* supply games -- routes with quantities, discounted by an exponential decay
  in total route cost (approx/float domain);
* contract games -- routes with integer contract counts, no cost decay
  (exact domain);
* edge-count power games -- worth = |F|^k (exact domain), declared as a
  function of the edge count, so the lifted game is evaluated on
  induced-edge counts.

Route-based worth functions come in two semantics. "containment" counts a
route whenever all of its edges are present in the evaluated edge set;
"strict-equality" counts it only when the edge set is exactly the route's
edge set. Containment is the default: each route declares its Harsanyi
dividend, a count row of one value on its edge set, so the lifted game is
a sum of unanimity games on the endpoint sets of the route edges, whose
dividend rows the closed form below reads, and it reproduces the reference
allocations. Strict equality is kept for fidelity experiments; it declares
one equality count row per route (F is a route's edge set H exactly when H
lies inside F and |F| = |H|), so its lifted game is evaluated on node
masks too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .edgegame import EdgeCharacteristic, EdgeGame, _equality_rows, lift
from .errors import DegenerateRouteError
from .games import Allocation, shapley_dividends
from .graph import Graph, Route

CONTAINMENT = "containment"
STRICT_EQUALITY = "strict-equality"
_SEMANTICS = (CONTAINMENT, STRICT_EQUALITY)


@dataclass(frozen=True)
class CostDecayParams:
    """Cost sensitivity of supply routes: value decays as exp(-alpha * cost)."""

    alpha: float = 0.1
    semantics: str = CONTAINMENT

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.semantics not in _SEMANTICS:
            raise ValueError(
                f"semantics must be one of {_SEMANTICS}, got {self.semantics!r}"
            )


@dataclass(frozen=True)
class RouteValue:
    """A route with its derived traversal cost and cost-decayed value."""

    route: Route
    cost: float
    decayed_value: float


def route_values(g: Graph, routes: Sequence[Route], params: CostDecayParams) -> list[RouteValue]:
    """Cost and decayed value (quantity * exp(-alpha * cost)) per route."""
    out = []
    for r in routes:
        cost = g.route_cost(r)
        out.append(RouteValue(r, cost, r.quantity * math.exp(-params.alpha * cost)))
    return out


def _route_characteristic(
    g: Graph,
    entries: list[tuple[int, float]] | list[tuple[int, int]],
    semantics: str,
    *,
    exact: bool,
) -> EdgeCharacteristic:
    # One match predicate for both semantics: a route counts in edge set F
    # when F & care == em. Containment cares only about the route's own edges;
    # strict equality cares about every edge (-1 has all bits set).
    rows = [(em if semantics == CONTAINMENT else -1, em, val) for em, val in entries]

    def fn(edge_mask: int):
        return sum(val for care, em, val in rows if edge_mask & care == em)

    # lift reads the declarations below; fn_many serves callers that hold
    # int64 edge-mask arrays, such as perfbench's traced replay
    fn_many = None
    if not exact:
        def fn_many(edge_masks: np.ndarray) -> np.ndarray:
            out = np.zeros(edge_masks.shape, dtype=np.float64)
            for care, em, val in rows:
                out += np.where((edge_masks & care) == em, val, 0.0)
            return out

    # Under containment the worth is a sum of unanimity games on the route
    # edge sets: one dividend (a count row of one value) per route, in route
    # order, repeats kept. Under strict equality it is one equality count
    # row per route, in route order.
    if semantics == CONTAINMENT:
        by_count = tuple((em, (val,)) for em, val in entries)
    else:
        by_count = _equality_rows(entries, len(g.edges))
    return EdgeCharacteristic(g.edges, fn, exact=exact, fn_many=fn_many, by_count=by_count)


def supply_weight_fn(
    g: Graph,
    routes: Sequence[Route],
    params: CostDecayParams | None = None,
) -> EdgeCharacteristic:
    """Edge worth from supply routes: each route contributes its cost-decayed
    quantity to every edge set that carries it (per the chosen semantics)."""
    params = params or CostDecayParams()
    entries = [
        (g.route_edge_mask(rv.route), rv.decayed_value)
        for rv in route_values(g, routes, params)
    ]
    return _route_characteristic(g, entries, params.semantics, exact=False)


def contract_weight_fn(
    g: Graph,
    routes: Sequence[Route],
    semantics: str = CONTAINMENT,
) -> EdgeCharacteristic:
    """Edge worth from contract routes: integer contract counts, no decay."""
    if semantics not in _SEMANTICS:
        raise ValueError(f"semantics must be one of {_SEMANTICS}, got {semantics!r}")
    entries = []
    for r in routes:
        cv = r.quantity
        if cv != int(cv):
            raise ValueError(f"contract count must be an integer, got {cv}")
        em = g.route_edge_mask(r)
        if em == 0:
            raise DegenerateRouteError(
                f"contract route {sorted(r.nodes)} induces no edges"
            )
        entries.append((em, int(cv)))
    return _route_characteristic(g, entries, semantics, exact=True)


def power_weight_fn(g: Graph, exponent: int) -> EdgeCharacteristic:
    """Edge worth |F|^exponent (exact integers).

    The worth depends only on |F|, so it declares one count row on mask 0,
    c^exponent for c = 0..|E|: lifted, it is evaluated on induced-edge
    counts, with no edge masks (see :func:`edgegame.lift`), in int64 when
    |E|^exponent < 2^62 and as Python ints otherwise, so no worth wraps.
    """
    if exponent < 1 or exponent != int(exponent):
        raise ValueError(f"exponent must be a positive integer, got {exponent}")
    k = int(exponent)
    powers = tuple(c**k for c in range(len(g.edges) + 1))
    return EdgeCharacteristic(
        g.edges, lambda m: m.bit_count() ** k, exact=True, by_count=((0, powers),)
    )


def route_closed_form(
    g: Graph,
    routes: Sequence[Route],
    decay: CostDecayParams | None = None,
) -> Allocation:
    """Closed-form allocation for containment-semantics route games.

    The worth (:func:`supply_weight_fn` or :func:`contract_weight_fn`, which
    validate the routes and compute their values) declares one dividend, a
    count row of one value, per route, and the lifted game one row
    (V(H), value) per route, V(H) the
    endpoints of the route's edges H: a sum of unanimity games, whose value
    :func:`games.shapley_dividends` reads off the rows with no enumeration.
    A route node that touches none of H is a null player of its row.

    ``decay`` selects the supply model (float values); without it, route
    quantities are taken as integer contract counts (exact values).
    """
    if decay is not None and decay.semantics != CONTAINMENT:
        raise ValueError("the closed form only applies to containment semantics")
    w = contract_weight_fn(g, routes) if decay is None else supply_weight_fn(g, routes, decay)
    return shapley_dividends(lift(EdgeGame(g, w))).with_labels(g.nodes)
