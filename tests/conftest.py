"""Shared builders: reference games, random generators, independent oracles."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from edgeshapley import (
    CostDecayParams,
    Edge,
    EdgeCharacteristic,
    EdgeGame,
    Graph,
    NodeCharacteristic,
    Route,
    build_graph,
    power_weight_fn,
)


def permutation_shapley(v: NodeCharacteristic) -> list[Fraction]:
    """Independent oracle: the direct average of marginal contributions over
    all n! orderings, in exact arithmetic. O(n! * n); keep n small."""
    n = v.n
    totals = [0] * n
    count = 0
    for perm in permutations(range(n)):
        mask = 0
        prev = 0
        for i in perm:
            mask |= 1 << i
            cur = v(mask)
            totals[i] += cur - prev
            prev = cur
        count += 1
    return [Fraction(t) / count for t in totals]


def per_sample_shapley(v: NodeCharacteristic, samples: int, seed: int) -> tuple:
    """Reference for the seeded sampler: one ``Generator.permutation(n)``
    draw per sample and one characteristic call per prefix, each marginal
    added to its player in sample order. Exact games end as one `Fraction`
    per player, approx games as the float total over ``samples``."""
    rng = np.random.default_rng(seed)
    totals = [0] * v.n
    for _ in range(samples):
        mask = 0
        prev = 0
        for idx in rng.permutation(v.n):
            i = int(idx)
            mask |= 1 << i
            cur = v(mask)
            totals[i] += cur - prev
            prev = cur
    if v.exact:
        return tuple(Fraction(t) / samples for t in totals)
    return tuple(t / samples for t in totals)


def per_player_fraction_reduction(table, denom, n, players):
    """The exact Shapley formula written player by player: the sum over
    coalitions S avoiding i of s!(n-s-1)! * (table[S + i] - table[S]) in
    Python ints, over n! * denom."""
    coef = [math.factorial(s) * math.factorial(n - s - 1) for s in range(n)]
    masks = np.arange(1 << n, dtype=np.int64)
    out = []
    for i in players:
        avoid = masks[(masks >> i) & 1 == 0]
        sizes = np.bitwise_count(avoid).tolist()
        terms = zip(sizes, table[avoid | (1 << i)].tolist(), table[avoid].tolist())
        total = sum(coef[s] * (with_i - without) for s, with_i, without in terms)
        out.append(Fraction(total, math.factorial(n) * denom))
    return tuple(out)


# ---------------------------------------------------------------------------
# Reference games
# ---------------------------------------------------------------------------

@pytest.fixture
def h_graph() -> Graph:
    """Five nodes, three unit edges, two components: {A,B,D} and {C,E}."""
    return build_graph(["A", "B", "C", "D", "E"], [("A", "D"), ("B", "D"), ("C", "E")])


@pytest.fixture
def h_game(h_graph) -> EdgeGame:
    """The squared-edge-count game on the H graph."""
    return EdgeGame(h_graph, power_weight_fn(h_graph, 2))


#: The known allocation of the squared-edge-count game on the H graph.
H_ALLOCATION = (
    Fraction(5, 3),
    Fraction(5, 3),
    Fraction(3, 2),
    Fraction(8, 3),
    Fraction(3, 2),
)


# ---------------------------------------------------------------------------
# Random generators (all take an explicit seeded Generator)
# ---------------------------------------------------------------------------

def random_graph(rng: np.random.Generator, n: int, p: float = 0.45) -> Graph:
    labels = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                cost = float(np.round(rng.uniform(0.5, 3.0), 2))
                edges.append(Edge(labels[i], labels[j], cost))
    return Graph(labels, edges)


def random_connected_graph(rng: np.random.Generator, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus a sprinkle of extra edges."""
    labels = [f"n{i}" for i in range(n)]
    edges = []
    present = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append(Edge(labels[j], labels[i], 1.0))
        present.add(frozenset((i, j)))
    for i in range(n):
        for j in range(i + 1, n):
            if frozenset((i, j)) not in present and rng.random() < extra:
                edges.append(Edge(labels[i], labels[j], 1.0))
                present.add(frozenset((i, j)))
    return Graph(labels, edges)


def random_table_edge_game(rng: np.random.Generator, g: Graph) -> EdgeGame:
    """Sparse random integer table over edge subsets (missing subsets are 0)."""
    m = len(g.edges)
    table = {}
    for _ in range(max(2, 3 * m)):
        mask = int(rng.integers(1, (1 << m) - 1, endpoint=True)) if m else 0
        if mask:
            table[mask] = int(rng.integers(-5, 10))
    return EdgeGame(g, EdgeCharacteristic.from_table(g.edges, table))


def random_zero_normalized_game(rng: np.random.Generator, n: int) -> NodeCharacteristic:
    """Random integer worths with v(empty) = 0 and every singleton worth 0."""
    table = {}
    for mask in range(1 << n):
        if mask.bit_count() >= 2:
            table[mask] = int(rng.integers(-8, 15))
    return NodeCharacteristic.from_table(n, table)


def random_route_game(
    rng: np.random.Generator, n: int, max_routes: int = 6
) -> tuple[Graph, list[Route], CostDecayParams]:
    """Containment-semantics supply game whose routes are endpoint unions of
    random edge subsets (so the closed-form precondition always holds)."""
    g = random_connected_graph(rng, n)
    m = len(g.edges)
    routes = []
    for _ in range(int(rng.integers(1, max_routes + 1))):
        edge_mask = int(rng.integers(1, (1 << m) - 1, endpoint=True))
        nodes = g.labels_of(g.endpoint_mask(edge_mask))
        quantity = float(np.round(rng.uniform(1.0, 20.0), 3))
        routes.append(Route(nodes, quantity))
    return g, routes, CostDecayParams(alpha=0.1)


def drop_one_more_row(monkeypatch):
    """Plant a ``delete_edge`` bug: the deleted game also loses its first
    remaining dividend row (a count row of one value), which does not hold
    the deleted edge."""
    from edgeshapley import cli, edgegame

    real = edgegame.delete_edge

    def buggy(eg, e):
        deleted = real(eg, e)
        w = deleted.characteristic
        rows = w.by_count[1:]
        worth = lambda m: sum((val for em, (val,) in rows if m & em == em), 0.0)
        return EdgeGame(deleted.graph,
                        EdgeCharacteristic(w.edges, worth, exact=w.exact, by_count=rows))

    for module in (edgegame, cli):
        monkeypatch.setattr(module, "delete_edge", buggy)
