"""Seeded inputs for the benchmark: scenario documents and their references.

Every game is a scenario JSON document of the kind ``edgeshapley`` loads.
Sizes (players, edges, routes, table entries) and the structure of each game
are fixed, so the amount of work does not depend on the seed; the seed draws
costs, quantities, decay rates, table worths and the listing order.

References are computed here, independently of the package under test:

* containment route games (supply and contract) use the unanimity closed
  form, node share = sum over its routes of route value / route size; this
  needs every route to be connected and to cover its nodes, which the chain
  generator guarantees;
* power and explicit-table games use an exact numpy enumeration of the lifted
  node game with integer worths and rational size weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

LAYER_PREFIX = "SMFDR"  # suppliers, module makers, assemblers, distributors, retailers


@dataclass
class Game:
    """One generated scenario: the document plus the data references need."""

    name: str
    doc: dict
    edges: list[tuple[str, str, float]]
    routes: list[tuple[list[str], int]]

    @property
    def nodes(self) -> list[str]:
        return self.doc["nodes"]


# ---------------------------------------------------------------------------
# Generators. ``shape`` draws the structure (edges, routes, table subsets);
# ``values`` draws costs, quantities, decay, table worths and the order in
# which nodes and edges are listed. Keeping the shape fixed per game while
# the seed draws the values keeps the work per run independent of the seed:
# the cost of axiom detection, for one, grows with the number of
# interchangeable player pairs, which the structure alone decides.
# ---------------------------------------------------------------------------

def _layers(sizes: tuple[int, ...]) -> list[list[str]]:
    return [[f"{LAYER_PREFIX[k]}{i + 1}" for i in range(size)] for k, size in enumerate(sizes)]


def _chain_pairs(shape, layers, n_edges):
    """Edges between consecutive layers only: a covering matching first (every
    node gets an edge), then distinct random extras up to exactly ``n_edges``."""
    pairs = []
    for a, b in zip(layers, layers[1:]):
        a_order = [a[k] for k in shape.permutation(len(a))]
        b_order = [b[k] for k in shape.permutation(len(b))]
        for k in range(max(len(a), len(b))):
            pairs.append((a_order[k % len(a)], b_order[k % len(b)]))
    present = set(pairs)
    candidates = [
        (u, v) for a, b in zip(layers, layers[1:]) for u in a for v in b if (u, v) not in present
    ]
    extra = n_edges - len(pairs)
    if extra < 0 or extra > len(candidates):
        raise ValueError(f"cannot place {n_edges} edges on layers {[len(x) for x in layers]}")
    for k in sorted(shape.choice(len(candidates), size=extra, replace=False)):
        pairs.append(candidates[k])
    return pairs


def _chain_routes(shape, layers, pairs, n_routes):
    """``n_routes - 1`` distinct connected routes (one node per downstream
    layer plus suppliers of the module maker), then one all-node route."""
    nbr: dict[str, list[str]] = {}
    for u, v in pairs:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    layer_of = {label: k for k, layer in enumerate(layers) for label in layer}

    def pick(options):
        return options[int(shape.integers(len(options)))]

    routes = []
    while len(routes) < n_routes - 1:
        f = pick(layers[2])
        m = pick([x for x in nbr[f] if layer_of[x] == 1])
        d = pick([x for x in nbr[f] if layer_of[x] == 3])
        r = pick([x for x in nbr[d] if layer_of[x] == 4])
        suppliers = [x for x in nbr[m] if layer_of[x] == 0]
        k = int(shape.integers(1, len(suppliers) + 1))
        chosen = [suppliers[i] for i in sorted(shape.choice(len(suppliers), size=k, replace=False))]
        nodes = frozenset(chosen + [m, f, d, r])
        if nodes not in routes:
            routes.append(nodes)
    return routes + [frozenset(layer_of)]


def _document(values, name, layers, pairs, model, domain, routes=()):
    """Scenario document with nodes and edges listed in a seeded order and
    seeded edge costs (1.0 to 5.0 in halves) and route quantities."""
    nodes = [x for layer in layers for x in layer]
    nodes = [nodes[k] for k in values.permutation(len(nodes))]
    order = {label: i for i, label in enumerate(nodes)}
    costs = values.integers(2, 11, size=len(pairs)) / 2.0
    edges = [(u, v, float(c)) for (u, v), c in zip(pairs, costs)]
    edges = [edges[k] for k in values.permutation(len(edges))]
    quantities = [int(values.integers(20, 151)) for _ in routes[:-1]]
    if routes:
        quantities.append(int(values.integers(400, 801)))  # the all-node route
    routes = [(sorted(r, key=order.__getitem__), q) for r, q in zip(routes, quantities)]
    doc = {
        "name": name,
        "nodes": nodes,
        "edges": [{"from": u, "to": v, "cost": c} for u, v, c in edges],
        "model": model,
    }
    if routes:
        doc["routes"] = [{"nodes": r, "quantity": q} for r, q in routes]
    doc["domain"] = domain
    return Game(name, doc, edges, routes)


def supply_chain(shape, values, name, sizes, n_edges, n_routes):
    """Five-layer chain with cost-decayed route values, containment worth."""
    layers = _layers(sizes)
    pairs = _chain_pairs(shape, layers, n_edges)
    routes = _chain_routes(shape, layers, pairs, n_routes)
    alpha = float(values.integers(5, 16)) / 100.0
    model = {"type": "supply_cost_decay", "alpha": alpha, "semantics": "containment"}
    return _document(values, name, layers, pairs, model, "approx", routes)


def contract_chain(shape, values, name, sizes, n_edges, n_routes):
    """Five-layer chain with integer contract counts, containment worth."""
    layers = _layers(sizes)
    pairs = _chain_pairs(shape, layers, n_edges)
    routes = _chain_routes(shape, layers, pairs, n_routes)
    model = {"type": "contract", "semantics": "containment"}
    return _document(values, name, layers, pairs, model, "exact", routes)


def power_game(shape, values, name, sizes, n_edges, exponent):
    """Worth |F|^exponent on a five-layer chain graph."""
    layers = _layers(sizes)
    pairs = _chain_pairs(shape, layers, n_edges)
    model = {"type": "edge_count_power", "exponent": exponent}
    return _document(values, name, layers, pairs, model, "exact")


def table_game(shape, values, name, sizes, n_edges, n_entries):
    """Explicit table: distinct edge subsets of 1 to 4 edges, integer worths."""
    layers = _layers(sizes)
    pairs = _chain_pairs(shape, layers, n_edges)
    subsets = []
    while len(subsets) < n_entries:
        k = int(shape.integers(1, 5))
        picked = sorted(int(j) for j in shape.choice(len(pairs), size=k, replace=False))
        if picked not in subsets:
            subsets.append(picked)
    table = [
        {"edges": [list(pairs[j]) for j in picked], "value": int(values.integers(1, 100))}
        for picked in subsets
    ]
    model = {"type": "explicit_table", "table": table}
    return _document(values, name, layers, pairs, model, "exact")


def fixture_game(name: str, text: str) -> Game:
    """A bundled fixture, read as a document like the generated ones."""
    doc = json.loads(text)
    edges = [(e["from"], e["to"], float(e.get("cost", 1.0))) for e in doc["edges"]]
    routes = [(r["nodes"], r["quantity"]) for r in doc.get("routes", [])]
    return Game(name, doc, edges, routes)


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def induced_edges(edges, nodes):
    """Indices of the edges with both endpoints in ``nodes``."""
    return [j for j, (u, v, _) in enumerate(edges) if u in nodes and v in nodes]


def closed_form(game: Game, drop_edge: int | None = None) -> list:
    """Unanimity closed form of a containment route game, optionally for the
    game that ignores edge ``drop_edge`` (routes needing it are worth 0)."""
    model = game.doc["model"]
    exact = model["type"] == "contract"
    index = {label: i for i, label in enumerate(game.nodes)}
    totals: list = [Fraction(0) if exact else 0.0 for _ in game.nodes]
    for nodes, quantity in game.routes:
        members = set(nodes)
        induced = induced_edges(game.edges, members)
        covered = {x for j in induced for x in game.edges[j][:2]}
        if not induced or covered != members:
            raise ValueError(f"{game.name}: route {sorted(members)} does not cover its nodes")
        if drop_edge is not None and drop_edge in induced:
            continue
        if exact:
            share = Fraction(int(quantity), len(members))
        else:
            cost = sum(game.edges[j][2] for j in induced)
            share = quantity * math.exp(-model["alpha"] * cost) / len(members)
        for label in members:
            totals[index[label]] += share
    return totals


def _edge_worths(game: Game, edge_masks: np.ndarray) -> np.ndarray:
    """Integer edge worth of every edge mask, for power and table models."""
    model = game.doc["model"]
    if model["type"] == "edge_count_power":
        return np.bitwise_count(edge_masks).astype(np.int64) ** model["exponent"]
    pair_index = {}
    for j, (u, v, _) in enumerate(game.edges):
        pair_index[frozenset((u, v))] = j
    keys, vals = [], []
    for entry in model["table"]:
        mask = 0
        for u, v in entry["edges"]:
            mask |= 1 << pair_index[frozenset((u, v))]
        keys.append(mask)
        vals.append(int(entry["value"]))
    order = np.argsort(keys)
    keys_arr = np.array(keys, dtype=np.int64)[order]
    vals_arr = np.array(vals, dtype=np.int64)[order]
    pos = np.minimum(np.searchsorted(keys_arr, edge_masks), len(keys_arr) - 1)
    return np.where(keys_arr[pos] == edge_masks, vals_arr[pos], 0)


def exact_enumeration(game: Game) -> list[Fraction]:
    """Shapley value of the lifted game by full enumeration: integer table in
    numpy, per-size marginal sums, rational weights s!(n-s-1)!/n!."""
    n = len(game.nodes)
    index = {label: i for i, label in enumerate(game.nodes)}
    masks = np.arange(1 << n, dtype=np.int64)
    edge_masks = np.zeros_like(masks)
    for j, (u, v, _) in enumerate(game.edges):
        pair = (1 << index[u]) | (1 << index[v])
        edge_masks |= ((masks & pair) == pair).astype(np.int64) << j
    table = _edge_worths(game, edge_masks)
    sizes = np.bitwise_count(masks).astype(np.int64)
    fact = [math.factorial(k) for k in range(n + 1)]
    weights = [Fraction(fact[s] * fact[n - s - 1], fact[n]) for s in range(n)]
    out = []
    for i in range(n):
        bit = 1 << i
        m = masks[(masks & bit) == 0]
        diff = table[m | bit] - table[m]
        if int(np.abs(diff).sum()) >= 1 << 53:
            raise ValueError(f"{game.name}: marginal sums exceed exact float range")
        by_size = np.bincount(sizes[m], weights=diff, minlength=n)
        out.append(sum((w * int(s) for w, s in zip(weights, by_size)), Fraction(0)))
    return out


def total_worth(game: Game) -> Fraction:
    """Worth of all edges, for the exact efficiency cross-check."""
    full = np.array([(1 << len(game.edges)) - 1], dtype=np.int64)
    return Fraction(int(_edge_worths(game, full)[0]))
