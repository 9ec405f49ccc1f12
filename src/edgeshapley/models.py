"""Builders turning application data into edge characteristics.

Three families:

* supply games -- routes with quantities, discounted by an exponential decay
  in total route cost (approx/float domain);
* contract games -- routes with integer contract counts, no cost decay
  (exact domain);
* edge-count power games -- worth = |F|^k (exact domain).

Route-based worth functions come in two semantics. "containment" counts a
route whenever all of its edges are present in the evaluated edge set;
"strict-equality" counts it only when the edge set is exactly the route's
edge set. Containment is the default: it makes the lifted game a sum of
unanimity games on route node sets, which is what the closed form below
exploits and what reproduces the reference allocations. Strict equality is
kept for fidelity experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .edgegame import EdgeCharacteristic
from .errors import DegenerateRouteError, RouteCoverageError
from .games import Allocation
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

    fn_many = None
    if not exact:
        def fn_many(edge_masks: np.ndarray) -> np.ndarray:
            out = np.zeros(edge_masks.shape, dtype=np.float64)
            for care, em, val in rows:
                out += np.where((edge_masks & care) == em, val, 0.0)
            return out

    return EdgeCharacteristic(g.edges, fn, exact=exact, fn_many=fn_many)


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
    """Edge worth |F|^exponent (exact integers)."""
    if exponent < 1 or exponent != int(exponent):
        raise ValueError(f"exponent must be a positive integer, got {exponent}")
    k = int(exponent)
    return EdgeCharacteristic(g.edges, lambda m: m.bit_count() ** k, exact=True)


def route_closed_form(
    g: Graph,
    routes: Sequence[Route],
    decay: CostDecayParams | None = None,
) -> Allocation:
    """Closed-form allocation for containment-semantics route games.

    Each route spreads its value evenly over its nodes, so node i receives
    sum over routes containing i of value/|route|. This equals the full
    enumeration because the lifted game is a non-negative combination of
    unanimity games -- provided each route's node set coincides with the
    endpoints of its induced edges (checked).

    ``decay`` selects the supply model (float values); without it, route
    quantities are taken as integer contract counts (exact values).
    """
    if decay is not None and decay.semantics != CONTAINMENT:
        raise ValueError("the closed form only applies to containment semantics")
    exact = decay is None
    totals: list = [Fraction(0) if exact else 0.0 for _ in range(g.n)]
    for r in routes:
        em = g.route_edge_mask(r)
        if em == 0:
            raise DegenerateRouteError(f"route {sorted(r.nodes)} induces no edges")
        node_mask = g.node_mask(r.nodes)
        uncovered = node_mask & ~g.endpoint_mask(em)
        if uncovered:
            raise RouteCoverageError(
                f"route node(s) {list(g.labels_of(uncovered))} touch no induced edge; "
                "the closed form needs node sets equal to their induced-edge endpoints"
            )
        size = len(r.nodes)
        if exact:
            cv = r.quantity
            if cv != int(cv):
                raise ValueError(f"contract count must be an integer, got {cv}")
            share: object = Fraction(int(cv), size)
        else:
            share = r.quantity * math.exp(-decay.alpha * g.route_cost(r)) / size
        for label in r.nodes:
            totals[g.index(label)] += share
    return Allocation(tuple(totals), exact, g.nodes)
