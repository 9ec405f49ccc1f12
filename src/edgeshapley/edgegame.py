"""Games whose characteristic function lives on edge subsets.

The central construction: an edge game (graph + worth function on edge sets)
lifts to a node-coalition game by valuing a coalition at the worth of the
edges it fully contains. The Shapley value of that lifted game is the
edge-based allocation this library exists to compute. The lift forces a few
identities worth knowing: singletons are always worth 0, the grand coalition
is worth w(all edges), and a player with no incident edges is a null player.

Neighborhood pruning: a player's marginal against a coalition that misses its
entire neighborhood is zero (adding the player completes no edge), so the
pruned engine leaves those marginals out of its sums. A stronger restriction --
summing only over subsets OF the neighborhood while keeping global weights --
does not agree with the full value and is kept solely as a diagnostic
(:func:`restricted_sum_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import CharacteristicContractError, ZeroNormalizationError
from .games import (
    DEFAULT_ENUMERATION_LIMIT,
    Allocation,
    EngineStats,
    GraphGame,
    NodeCharacteristic,
    Value,
    shapley_exact,
    shapley_restricted,
    shapley_weights,
    values_close,
)
from .graph import MAX_EDGE_BITS, Edge, Graph, NodeId
from .masks import subsets_of


class EdgeCharacteristic:
    """A total worth function on subsets of a fixed edge universe.

    Edge subsets are bit masks over the universe's canonical edge order.
    ``fn(0)`` must be 0; evaluation must be deterministic and effect-free.
    """

    __slots__ = ("edges", "exact", "_fn", "_fn_many")

    def __init__(
        self,
        edges: tuple[Edge, ...],
        fn: Callable[[int], Value],
        *,
        exact: bool = True,
        fn_many: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.edges = tuple(edges)
        self.exact = exact
        self._fn = fn
        self._fn_many = fn_many if not exact else None

    def __call__(self, edge_mask: int) -> Value:
        return self._fn(edge_mask)

    @property
    def has_vector_path(self) -> bool:
        return self._fn_many is not None

    def evaluate_many(self, edge_masks: np.ndarray) -> np.ndarray:
        if self._fn_many is not None:
            return self._fn_many(edge_masks)
        return np.array([self._fn(int(m)) for m in edge_masks], dtype=np.float64)

    @classmethod
    def from_table(
        cls,
        edges: tuple[Edge, ...],
        table: dict[int, Value],
        *,
        exact: bool = True,
    ) -> "EdgeCharacteristic":
        """Explicit edge-subset table; missing subsets are worth 0."""
        snapshot = dict(table)
        if snapshot.get(0, 0) != 0:
            raise CharacteristicContractError(
                f"table assigns {snapshot[0]!r} to the empty edge set"
            )
        return cls(edges, lambda m: snapshot.get(m, 0), exact=exact)


@dataclass(frozen=True)
class EdgeGame:
    """A graph together with a characteristic on its edge subsets."""

    graph: Graph
    characteristic: EdgeCharacteristic

    def __post_init__(self):
        if self.characteristic.edges != self.graph.edges:
            raise ValueError("characteristic universe does not match the graph's edges")
        if self.characteristic(0) != 0:
            raise CharacteristicContractError(
                f"edge characteristic must satisfy w(empty) = 0, got {self.characteristic(0)!r}"
            )

    @property
    def total_worth(self) -> Value:
        return self.characteristic(self.graph.full_edge_mask)


def lift(eg: EdgeGame) -> NodeCharacteristic:
    """Node game induced by an edge game: a coalition is worth the worth of
    the edges both of whose endpoints it contains.

    Batch evaluation (what fills the engines' coalition table) takes the
    induced edge masks of all coalitions at once. An approx worth with a
    vector path evaluates them as one array. An exact worth is called once
    per distinct induced edge set and the results are gathered back per
    coalition, so the table holds the worth's own ints and Fractions; exact
    games on more than ``MAX_EDGE_BITS`` edges are evaluated coalition by
    coalition.
    """
    g = eg.graph
    w = eg.characteristic

    def fn(node_mask: int) -> Value:
        return w(g.induced_edge_mask(node_mask))

    fn_many = None
    if w.has_vector_path:
        fn_many = lambda masks: w.evaluate_many(g.induced_edge_masks(masks))
    elif w.exact and len(g.edges) <= MAX_EDGE_BITS:
        def fn_many(masks: np.ndarray) -> np.ndarray:
            edge_sets, inverse = np.unique(g.induced_edge_masks(masks), return_inverse=True)
            worths = np.fromiter(map(w, edge_sets.tolist()), dtype=object, count=edge_sets.size)
            return worths[inverse]

    return NodeCharacteristic(g.n, fn, exact=w.exact, fn_many=fn_many)


def edge_shapley(
    eg: EdgeGame,
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
    stats: EngineStats | None = None,
) -> Allocation:
    """Shapley value of the lifted node game."""
    alloc = shapley_exact(lift(eg), limit=limit, stats=stats)
    return alloc.with_labels(eg.graph.nodes)


def edge_shapley_pruned(
    eg: EdgeGame,
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
    stats: EngineStats | None = None,
) -> Allocation:
    """Same value as :func:`edge_shapley`, skipping provably-zero marginals.

    A coalition disjoint from a player's neighborhood cannot gain an edge
    when the player joins, so only coalitions meeting the neighborhood enter
    the player's sum; isolated nodes sum no terms and get 0. The coalition
    table is still full, so this saves marginal terms, not evaluations.
    """
    g = eg.graph
    member_masks = [g.adjacency_mask(i) for i in range(g.n)]
    alloc = shapley_restricted(lift(eg), member_masks, limit=limit, stats=stats)
    return alloc.with_labels(g.nodes)


# ---------------------------------------------------------------------------
# Diagnostic: the neighborhood-subset restricted sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictedSumEntry:
    node: NodeId
    restricted: Value
    full: Value
    agrees: bool


@dataclass(frozen=True)
class RestrictedSumReport:
    entries: tuple[RestrictedSumEntry, ...]

    @property
    def all_agree(self) -> bool:
        return all(e.agrees for e in self.entries)


def neighborhood_restricted_allocation(eg: EdgeGame) -> Allocation:
    """Per-node sums taken only over subsets of the node's neighborhood,
    with the global coalition-size weights kept as-is.

    This is NOT the edge-based Shapley value in general; see
    :func:`restricted_sum_report`.
    """
    g = eg.graph
    v = lift(eg)
    weights = shapley_weights(g.n)
    if not v.exact:
        weights = tuple(float(w) for w in weights)
    out = []
    for i in range(g.n):
        bit = 1 << i
        acc: Value = Fraction(0) if v.exact else 0.0
        for s in subsets_of(g.adjacency_mask(i)):
            acc += weights[s.bit_count()] * (v(s | bit) - v(s))
        out.append(acc)
    return Allocation(tuple(out), v.exact, g.nodes)


def restricted_sum_report(
    eg: EdgeGame,
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    tol: float = 1e-9,
) -> RestrictedSumReport:
    """Opt-in diagnostic comparing the neighborhood-subset restricted sum with
    the true edge-based Shapley value, node by node. The two often disagree;
    the report simply records where."""
    full = edge_shapley(eg, limit=limit)
    restricted = neighborhood_restricted_allocation(eg)
    entries = tuple(
        RestrictedSumEntry(
            node=node,
            restricted=restricted[idx],
            full=full[idx],
            agrees=values_close(restricted[idx], full[idx], full.exact, tol),
        )
        for idx, node in enumerate(eg.graph.nodes)
    )
    return RestrictedSumReport(entries)


# ---------------------------------------------------------------------------
# Myerson bridge
# ---------------------------------------------------------------------------

def myerson_bridge(gg: GraphGame) -> EdgeGame:
    """Edge game whose edge-based Shapley value equals the Myerson value of
    the given node game.

    An edge set is worth the sum of v over the node sets of its
    endpoint-connected edge groups. Requires a zero-normalized game
    (every singleton worth 0): the lift structurally forces singletons to 0,
    so nonzero singleton worths cannot survive the construction.
    """
    g, v = gg.graph, gg.v
    for i, label in enumerate(g.nodes):
        worth = v(1 << i)
        if worth != 0:
            raise ZeroNormalizationError(label, worth)

    def fn(edge_mask: int) -> Value:
        return sum((v(nodes) for _, nodes in g.edge_component_masks(edge_mask)), 0)

    return EdgeGame(g, EdgeCharacteristic(g.edges, fn, exact=v.exact))


# ---------------------------------------------------------------------------
# Edge deletion and fairness
# ---------------------------------------------------------------------------

def _resolve_edge(g: Graph, e: Edge | tuple[NodeId, NodeId]) -> int:
    if isinstance(e, Edge):
        return g.edge_index(e.src, e.dst)
    return g.edge_index(*e)


def delete_edge(eg: EdgeGame, e: Edge | tuple[NodeId, NodeId]) -> EdgeGame:
    """The game that ignores edge ``e``: the graph loses the edge and the
    characteristic evaluates as if ``e`` were never present."""
    g = eg.graph
    w = eg.characteristic
    j = _resolve_edge(g, e)
    edge = g.edges[j]
    new_graph = g.without_edge(edge.src, edge.dst)
    low = (1 << j) - 1

    def embed(new_mask):
        # new edge indices >= j map to old index + 1; works on ints and int64 arrays
        return (new_mask & low) | ((new_mask & ~low) << 1)

    fn_many = None
    if w.has_vector_path:
        fn_many = lambda masks: w.evaluate_many(embed(masks))

    new_w = EdgeCharacteristic(
        new_graph.edges, lambda m: w(embed(m)), exact=w.exact, fn_many=fn_many
    )
    return EdgeGame(new_graph, new_w)


def fairness_delta(
    eg: EdgeGame,
    e: Edge | tuple[NodeId, NodeId],
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
) -> tuple[Value, Value]:
    """How much each endpoint of ``e`` loses when the edge is deleted.

    Returns the (src, dst) allocation drops; the allocation rule guarantees
    they are equal, which makes this a handy self-check.
    """
    j = _resolve_edge(eg.graph, e)
    edge = eg.graph.edges[j]
    before = edge_shapley(eg, limit=limit)
    after = edge_shapley(delete_edge(eg, e), limit=limit)
    return (
        before[edge.src] - after[edge.src],
        before[edge.dst] - after[edge.dst],
    )


# ---------------------------------------------------------------------------
# Component efficiency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentEntry:
    nodes: tuple[NodeId, ...]
    allocation_sum: Value
    worth: Value
    matches: bool


@dataclass(frozen=True)
class ComponentEfficiencyReport:
    components: tuple[ComponentEntry, ...]
    additive_hypothesis: bool
    hypothesis_witness: tuple[tuple[NodeId, ...], tuple[NodeId, ...]] | None

    @property
    def all_match(self) -> bool:
        return all(c.matches for c in self.components)


#: Disjoint-pair additivity testing enumerates every pair up to this size and
#: falls back to a seeded random sample above it.
_EXHAUSTIVE_PAIR_LIMIT = 10
_PAIR_SAMPLES = 2000
_PAIR_SEED = 73911


def _additive_hypothesis(v: NodeCharacteristic, g: Graph, tol: float):
    """Check w(S u T) = w(S) + w(T) on separated coalition pairs.

    Pairs must be disjoint AND joined by no edge: a connecting edge belongs
    to neither side alone, so no worth function on edges can be expected to
    split across it (even additive ones fail on adjacent singletons). Under
    the separated reading the property is exactly component decomposability,
    which is what per-component efficiency needs.
    """
    n = g.n
    memo: dict[int, Value] = {}

    def val(m: int) -> Value:
        if m not in memo:
            memo[m] = v(m)
        return memo[m]

    def pairs():
        if n <= _EXHAUSTIVE_PAIR_LIMIT:
            full = (1 << n) - 1
            for s in range(1 << n):
                rest = full & ~s
                yield from ((s, t) for t in subsets_of(rest))
        else:
            rng = np.random.default_rng(_PAIR_SEED)
            full = (1 << n) - 1
            draws = rng.integers(0, 1 << n, size=(_PAIR_SAMPLES, 2), dtype=np.uint64)
            for a, b in draws:
                s = int(a) & full
                t = int(b) & full & ~s
                yield s, t

    for s, t in pairs():
        if not s or not t:
            continue
        es, et = g.induced_edge_mask(s), g.induced_edge_mask(t)
        if g.induced_edge_mask(s | t) != es | et:
            continue  # an edge crosses between s and t
        if not values_close(val(s | t), val(s) + val(t), v.exact, tol):
            return False, (g.labels_of(s), g.labels_of(t))
    return True, None


def component_efficiency_check(
    eg: EdgeGame,
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
    tol: float = 1e-9,
) -> ComponentEfficiencyReport:
    """Per component: do the allocations inside it sum to its lifted worth?

    The property only has to hold when the lifted game is additive across
    disjoint coalitions, so the report also states whether that hypothesis
    survived testing (exhaustive on small graphs, sampled on large ones).
    """
    g = eg.graph
    v = lift(eg)
    alloc = edge_shapley(eg, limit=limit)
    entries = []
    for comp in g.component_masks():
        labels = g.labels_of(comp)
        total = sum(alloc[label] for label in labels)
        worth = v(comp)
        entries.append(
            ComponentEntry(
                nodes=labels,
                allocation_sum=total,
                worth=worth,
                matches=values_close(total, worth, alloc.exact, tol),
            )
        )
    held, witness = _additive_hypothesis(v, g, tol)
    return ComponentEfficiencyReport(tuple(entries), held, witness)
