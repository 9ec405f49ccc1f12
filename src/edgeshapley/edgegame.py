"""Games whose characteristic function lives on edge subsets.

The central construction: an edge game (graph + worth function on edge sets)
lifts to a node-coalition game by valuing a coalition at the worth of the
edges it fully contains. The Shapley value of that lifted game is the
edge-based allocation this library exists to compute. The lift forces a few
identities worth knowing: singletons are always worth 0, the grand coalition
is worth w(all edges), and a player with no incident edges is a null player.
:func:`audit` checks the allocation's properties (efficiency, symmetry, the
null player, fairness under edge deletion, component efficiency) on one
coalition table of the lifted game plus one per deleted edge.

Neighborhood pruning: a player's marginal against a coalition that misses its
entire neighborhood is zero (adding the player completes no edge), so the
pruned engine leaves those marginals out of its float sums and of its count
of marginal terms; its exact sums are the full ones, to which those zeros
add nothing. A stronger restriction --
summing only over subsets OF the neighborhood while keeping global weights --
does not agree with the full value and is kept solely as a diagnostic
(:func:`restricted_sum_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CharacteristicContractError, ZeroNormalizationError
from .games import (
    CHECK_TOL,
    DEFAULT_ENUMERATION_LIMIT,
    Allocation,
    AxiomReport,
    CheckResult,
    EngineStats,
    GraphGame,
    NodeCharacteristic,
    Value,
    _axiom_check,
    _check_object_capacity,
    _component_table,
    _exact_row_dtype,
    _reduce,
    _table,
    shapley_exact,
    shapley_weights,
    value_str,
    values_close,
)
from .graph import MAX_EDGE_BITS, Edge, Graph, NodeId
from .masks import all_masks, indices_of, squeeze, subsets_of, superset_view


class EdgeCharacteristic:
    """A total worth function on subsets of a fixed edge universe.

    Edge subsets are bit masks over the universe's canonical edge order.
    ``fn(0)`` must be 0; evaluation must be deterministic and effect-free.

    ``by_count``, when given, declares the worth as ``(edge_mask, values)``
    count rows: w(F) is the sum of ``values[|F|]`` over the rows whose edge
    mask lies inside F, added in row order from 0. ``values`` holds a value
    per edge count from 0, at least one, and may stop short of |E|: its
    last value then holds for every larger count. Rows may repeat a mask;
    they are not merged, so a float sum keeps the order ``fn`` adds in. A
    row of one value m is the Harsanyi dividend m on its edge set (the
    containment routes); a worth of the edge count alone is one row on mask
    0 (the power games); a worth that takes value v exactly on the edge set
    H is the row on H whose values are 0 but for v at |H| (the explicit
    tables, strict-equality routes; see :func:`_equality_rows`), since
    F = H exactly when H lies inside F and |F| = |H|; :func:`lift` reads
    such a row only on the coalitions that hold H's endpoints and none of
    their other neighbours. It must agree with ``fn``; :func:`lift`
    evaluates it on node masks, without edge masks, and so on any number
    of edges. A row without values, or whose edge mask is
    negative or names edges outside the universe, breaks the contract and
    is refused here.

    ``fn_many``, when given in either domain, maps an int64 edge-mask array
    to the worth array :class:`games.NodeCharacteristic` describes, and must
    agree with ``fn``. Without it, :meth:`evaluate_many` calls ``fn`` once
    per distinct edge mask.
    """

    __slots__ = ("edges", "exact", "by_count", "_fn", "_fn_many")

    def __init__(
        self,
        edges: tuple[Edge, ...],
        fn: Callable[[int], Value],
        *,
        exact: bool = True,
        fn_many: Callable[[np.ndarray], np.ndarray] | None = None,
        by_count: tuple[tuple[int, Sequence[Value]], ...] | None = None,
    ):
        self.edges = tuple(edges)
        self.exact = exact
        self.by_count = (
            None if by_count is None else tuple((em, tuple(values)) for em, values in by_count)
        )
        for em, values in self.by_count or ():
            if em < 0 or em >> len(self.edges):
                raise CharacteristicContractError(
                    f"count row on edge mask {em:#b} names edges outside the "
                    f"{len(self.edges)}-edge universe"
                )
            if not values:
                raise CharacteristicContractError(f"count row on edge mask {em:#b} has no values")
        self._fn = fn
        self._fn_many = fn_many

    def __call__(self, edge_mask: int) -> Value:
        return self._fn(edge_mask)

    @property
    def has_vector_path(self) -> bool:
        return self._fn_many is not None

    def evaluate_many(self, edge_masks: np.ndarray) -> np.ndarray:
        if self._fn_many is not None:
            return self._fn_many(edge_masks)
        edge_sets, inverse = np.unique(edge_masks, return_inverse=True)
        dtype = object if self.exact else np.float64
        worths = np.fromiter(map(self._fn, edge_sets.tolist()), dtype=dtype, count=edge_sets.size)
        return worths[inverse].reshape(edge_masks.shape)

    @classmethod
    def from_table(
        cls,
        edges: tuple[Edge, ...],
        table: dict[int, Value],
        *,
        exact: bool = True,
    ) -> "EdgeCharacteristic":
        """Explicit edge-subset table; missing subsets are worth 0. It
        declares one count row per entry (see :func:`_equality_rows`)."""
        # adding 0 keeps every value but -0.0, which reads 0.0 as the count
        # rows' sum from 0 does
        snapshot = {em: val + 0 for em, val in table.items()}
        if snapshot.get(0, 0) != 0:
            raise CharacteristicContractError(
                f"table assigns {snapshot[0]!r} to the empty edge set"
            )
        return cls(
            edges,
            lambda m: snapshot.get(m, 0),
            exact=exact,
            by_count=_equality_rows(snapshot.items(), len(edges)),
        )


def _equality_rows(
    entries: Iterable[tuple[int, Value]], n_edges: int
) -> tuple[tuple[int, tuple[Value, ...]], ...]:
    """Count rows of the worth that is ``value`` on each entry's edge mask H
    and 0 elsewhere: the row on H whose values are 0 but for ``value`` at
    |H| (and 0 above), one per entry, in entry order (see
    :class:`EdgeCharacteristic`). An entry on edges outside the universe
    equals no edge set and is left out."""
    return tuple(
        (em, (0,) * em.bit_count() + (val, 0)) for em, val in entries if not em >> n_edges
    )


def _count_worths(
    g: Graph, rows: tuple[tuple[int, tuple[Value, ...]], ...], exact: bool
) -> Callable[[np.ndarray | None], np.ndarray]:
    """Batch worths of the lifted game of count ``rows``, in the rows'
    dtype (float64 when approx, else :func:`games._exact_row_dtype`; exact
    int64 worths are numerators over 1), on a coalition array, or on every
    coalition in ascending mask order when given ``None`` (the dense
    table): coalition S, with c its induced-edge count, gains ``values[c]``
    of each row whose endpoints R lie inside S, in row order from 0, a
    short row's last value standing for every count past its end. A
    leading row on mask 0 is one gather; any other row is added where
    ``S & R == R`` (on the dense table, onto the view of R's supersets,
    :func:`masks.superset_view`).

    A row whose values are 0 but w at |H|, H its edge mask, is an equality
    row: it adds w only where S induces exactly H. Such an S holds R, holds
    none of R's outside neighbours (the edge to one is not in H) and
    induces |H| edges; any S that holds R and none of those neighbours
    induces every edge R induces, so it induces exactly H when its count
    is |H|, and never when R induces more than H. So the row adds w where
    ``S & (R | outer) == R`` and c is |H|: on the dense table, on the view
    of the supersets of R that clear the outer neighbours, where the same
    view of the counts reads |H|. What it leaves out adds only zeros.

    The counts come from :meth:`Graph.induced_edge_counts` on a coalition
    array (one pass per edge) and from its O(2^n) doubling fill
    :meth:`Graph.all_induced_edge_counts` on the dense table; both give the
    same integers, so both give the same worths. An approx worth that is
    not finite breaks the contract, named by its coalition, with no float
    warning."""
    dtype = _exact_row_dtype(values for _, values in rows) if exact else np.float64
    steps = []  # (R, R's outside neighbours, |H| of an equality row or None, values)
    for em, values in rows:
        values += values[-1:] * (len(g.edges) + 1 - len(values))
        r, size = g.endpoint_mask(em), em.bit_count()
        if em and not any(val for c, val in enumerate(values) if c != size):
            outer = 0
            for i in indices_of(r):
                outer |= g.adjacency_mask(i)
            steps.append((r, outer & ~r, size, np.array(values, dtype=dtype)))
        else:
            steps.append((r, 0, None, np.array(values, dtype=dtype)))
    # a leading row on mask 0 (the power games) is gathered straight into
    # the worths: 0 + values[c], as adding it onto zeros gives (-0.0 reads 0.0)
    lead = None
    if steps[0][0] == 0:
        lead = steps[0][3] + np.zeros(1, dtype)

    def worths(masks: np.ndarray | None) -> np.ndarray:
        dense = masks is None
        counts = g.all_induced_edge_counts() if dense else g.induced_edge_counts(masks)
        out = np.zeros(counts.shape, dtype=dtype) if lead is None else lead[counts]
        with np.errstate(over="ignore", invalid="ignore"):
            for r, outer, size, values in steps[lead is not None:]:
                if dense:
                    view = superset_view(out, r, outer)
                    held = superset_view(counts, r, outer)
                    hit = True
                else:
                    view, held, hit = out, counts, (masks & (r | outer)) == r
                if size is None:
                    np.add(view, values[held], out=view, where=hit)
                else:
                    np.add(view, values[size], out=view, where=hit & (held == size))
        if not exact:
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                s = int(bad[0]) if dense else int(masks.flat[bad[0]])
                raise CharacteristicContractError(
                    f"approx worth of coalition {{{', '.join(g.labels_of(s))}}} is "
                    f"{float(out.flat[bad[0]])!r}: its count rows sum beyond the float range"
                )
        return out

    return worths


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

    Batch evaluation (what fills the engines' coalition table and the
    sampler's prefix blocks) takes one of three paths. A worth whose count
    rows each hold one value declares its Harsanyi dividends (containment
    routes): the edges of a row are all induced by S exactly when their
    endpoints R lie inside S, so the lifted game declares the node-mask
    rows ``(R, value)`` and nothing else (:class:`games.NodeCharacteristic`
    reads them). A worth with other count rows (power games, explicit
    tables, strict-equality routes) is evaluated on node masks too, from the
    coalitions' induced-edge counts (see :func:`_count_worths`): a mask
    array (the sampler's prefix blocks) by one pass per edge and one
    masked pass per row, and the dense table, which :func:`games._table`
    fills through the game's private ``_all_worths`` hook, by the O(2^n)
    doubling fill of every coalition's count and one strided view per row,
    with no mask array. Both hold any number of edges. Any
    other worth is evaluated on the coalitions' induced edge masks, built
    as int64, by :meth:`EdgeCharacteristic.evaluate_many`; on more than
    ``MAX_EDGE_BITS`` edges, which int64 masks do not hold, such games are
    evaluated coalition by coalition.
    """
    g = eg.graph
    w = eg.characteristic
    rows = w.by_count

    def fn(node_mask: int) -> Value:
        return w(g.induced_edge_mask(node_mask))

    if rows is not None and all(len(values) == 1 for _, values in rows):
        dividends = tuple((g.endpoint_mask(em), val) for em, (val,) in rows)
        return NodeCharacteristic(g.n, fn, exact=w.exact, dividends=dividends)
    if rows is not None:
        worths = _count_worths(g, rows, w.exact)
        v = NodeCharacteristic(g.n, fn, exact=w.exact, fn_many=worths)
        v._all_worths = lambda: worths(None)
        return v
    fn_many = None
    if len(g.edges) <= MAX_EDGE_BITS:
        fn_many = lambda masks: w.evaluate_many(g.induced_edge_masks(masks))
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

    Let S avoid node i and all of its neighbours. Then S + i induces the
    same edges as S, and every fill of the lifted table gives the two
    coalitions the same entry. The endpoints R of a row's edges lie inside
    S + i exactly when they lie inside S, since an R holding i holds a
    neighbour of i: a dividend row adds to both or to neither. A count row
    sees the same edge count, and i neighbours no node of an R inside S,
    so it is none of the outer neighbours an equality row excludes. The
    induced edge mask, and so the worth, is the same. The marginal of i
    against S is therefore zero, and only coalitions meeting the
    neighbourhood enter i's sum; isolated nodes get 0.

    The coalition table is still full, so this saves marginal terms, not
    evaluations, and it does not save time. On the float path each node's
    neighbourhood filter drops its terms from the sum, and costs more than
    the terms it drops: a 20-player smartphone run takes about 0.04 s
    against 0.02-0.03 s for :func:`edge_shapley` (in-process medians,
    2 vCPUs).
    Integer sums are exact in any order, so on the exact path the zeros
    stay in: the values are :func:`edge_shapley`'s, from the same table
    and passes, and ``stats`` counts only the 2^(n-1) - 2^(n-1-deg i) kept
    terms of node i. ``threads`` has no effect.
    """
    g = eg.graph
    v = lift(eg)
    members = [g.adjacency_mask(i) for i in range(g.n)]
    table, denom = _table(v, limit, stats)
    if not v.exact:
        values = _reduce(table, denom, member_masks=members, stats=stats)
    else:
        values = _reduce(table, denom)
        if stats is not None:
            half = 1 << (g.n - 1)
            stats.marginals += sum(half - (half >> m.bit_count()) for m in members)
    return Allocation(values, v.exact, g.nodes)


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
            agrees=values_close(restricted[idx], full[idx], full.exact),
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


def _rows_without_edge(rows, j: int):
    """``(edge_mask, values)`` count rows of a worth on the game without
    edge ``j``: the rows holding j can never be contained again and are
    dropped, and the rest are renumbered to the new edge indices, in their
    order. A row keeps its values, since renumbering keeps every edge
    count."""
    if rows is None:
        return None
    return tuple((squeeze(em, 1 << j), values) for em, values in rows if not (em >> j) & 1)


def delete_edge(eg: EdgeGame, e: Edge | tuple[NodeId, NodeId]) -> EdgeGame:
    """The game that ignores edge ``e``: the graph loses the edge and the
    characteristic evaluates as if ``e`` were never present.

    Declared count rows carry over (see :func:`_rows_without_edge`).
    """
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
        new_graph.edges,
        lambda m: w(embed(m)),
        exact=w.exact,
        fn_many=fn_many,
        by_count=_rows_without_edge(w.by_count, j),
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
    they are equal, which makes this a handy self-check. Each endpoint's two
    values are reductions of a whole coalition table for the two endpoints
    only: the game's own, then the edge-deleted game's own (see
    :func:`_endpoint_values`). They equal those players'
    :func:`edge_shapley` values bit for bit. ``threads`` has no effect.
    """
    g = eg.graph
    edge = g.edges[_resolve_edge(g, e)]
    before = _endpoint_values(eg, edge, limit)
    after = _endpoint_values(delete_edge(eg, edge), edge, limit)
    return before[0] - after[0], before[1] - after[1]


def _endpoint_values(eg: EdgeGame, edge: Edge, limit: int | None) -> tuple[Value, Value]:
    """The (src, dst) values of ``edge``'s endpoints in ``eg``: the coalition
    table of ``lift(eg)``, built whole and reduced for those two players
    only."""
    g = eg.graph
    v = lift(eg)
    table, denom = _table(v, limit)
    ends = (g.index(edge.src), g.index(edge.dst))
    return _reduce(table, denom, players=ends)


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


def component_efficiency_check(
    eg: EdgeGame,
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
) -> ComponentEfficiencyReport:
    """Per component: do the allocations inside it sum to its lifted worth?

    The property only has to hold when the lifted game is additive across
    separated coalitions: disjoint AND joined by no edge. A connecting edge
    belongs to neither side alone, so no worth function on edges can be
    expected to split across it (even additive ones fail on adjacent
    singletons). Under that reading additivity is exactly component
    decomposability, v(S) = sum of v over the components of the subgraph S
    induces, which is what per-component efficiency needs.

    The hypothesis is checked exhaustively, as one comparison per coalition
    of the lifted table: v(S) against v(C_S) + v(S - C_S), where C_S is the
    component of S's lowest member (see :func:`games._component_table`). By
    induction on the number of components this holds everywhere exactly when
    every separated pair is additive. The witness is the pair
    (C_S, S - C_S) of the lowest failing coalition S, which is separated and
    breaks additivity. The allocation and the check share one coalition
    table, refused (`CapacityError`) above ``limit`` players, and before
    the split when it holds Python ints the split has no room for (see
    :func:`games._check_object_capacity`).
    """
    g = eg.graph
    v = lift(eg)
    table, denom = _table(v, limit)
    _check_object_capacity(table)
    alloc = Allocation(_reduce(table, denom), v.exact, g.nodes)
    return _component_report(eg, v, table, alloc)


def _component_report(
    eg: EdgeGame,
    v: NodeCharacteristic,
    table: np.ndarray,
    alloc: Allocation,
) -> ComponentEfficiencyReport:
    """:func:`component_efficiency_check` on the lifted game ``v``, its
    coalition table (from :func:`games._table`) and its labelled allocation,
    when the caller holds them.

    An exact table holds integer numerators over one denominator, so it is
    compared as it is. Int64 numerators below 2^(61-n) sum without
    overflow; on the int64 table of the dividend fill,
    ``table[C_S] + table[S - C_S]`` stays below the 2^62 that bounds the
    rows' magnitudes, since no row lies inside two disjoint coalitions.
    """
    g = eg.graph
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
                matches=values_close(total, worth, alloc.exact),
            )
        )
    lowest = _component_table(g)
    split = table[lowest]
    rest = np.bitwise_xor(lowest, all_masks(g.n), out=lowest)
    split += table[rest]
    if v.exact:
        bad = table != split
    else:
        scale = np.maximum(np.maximum(np.abs(table), np.abs(split)), 1.0)
        bad = ~(np.abs(table - split) <= CHECK_TOL * scale)
    if not bad.any():
        return ComponentEfficiencyReport(tuple(entries), True, None)
    s = int(np.argmax(bad))
    t = int(rest[s])
    witness = (g.labels_of(s ^ t), g.labels_of(t))
    return ComponentEfficiencyReport(tuple(entries), False, witness)


# ---------------------------------------------------------------------------
# The axiom audit
# ---------------------------------------------------------------------------

def audit(eg: EdgeGame, *, limit: int | None = DEFAULT_ENUMERATION_LIMIT) -> AxiomReport:
    """The checks the CLI's ``axioms`` command prints, in order: efficiency,
    symmetry and null-player (see :func:`games.axiom_check`), fairness over
    every edge deletion up to the first unequal pair, one
    component-efficiency check per component and the component-additivity
    hypothesis (see :func:`component_efficiency_check`); the last two are
    informational. One coalition table of ``lift(eg)`` serves the
    allocation and every check but fairness, whose deletions each build
    their own (see :func:`_endpoint_values`), so the audit enumerates
    |E| + 1 games. A table of Python ints that the component split has no
    room for is refused before any of them (see
    :func:`games._check_object_capacity`). Float values compare to a
    relative ``games.CHECK_TOL``.
    """
    g = eg.graph
    v = lift(eg)
    table, denom = _table(v, limit)
    _check_object_capacity(table)
    alloc = Allocation(_reduce(table, denom), v.exact, g.nodes)
    checks = list(_axiom_check(v, alloc, "all", (), limit, table))

    witness = ""
    for edge in g.edges:
        after_src, after_dst = _endpoint_values(delete_edge(eg, edge), edge, limit)
        d_src = alloc[edge.src] - after_src
        d_dst = alloc[edge.dst] - after_dst
        if not values_close(d_src, d_dst, v.exact):
            witness = (
                f"; unequal deltas on ({edge.src}, {edge.dst}): "
                f"{value_str(d_src)} vs {value_str(d_dst)}"
            )
            break
    checks.append(
        CheckResult("fairness", not witness, f"{len(g.edges)} edge deletion(s){witness}")
    )

    comp = _component_report(eg, v, table, alloc)
    for entry in comp.components:
        checks.append(
            CheckResult(
                "component-efficiency",
                entry.matches,
                f"{{{', '.join(entry.nodes)}}}: allocation sum "
                f"{value_str(entry.allocation_sum)} vs worth {value_str(entry.worth)}",
            )
        )
    checks.append(
        CheckResult(
            "component-additivity-hypothesis",
            comp.additive_hypothesis,
            f"held on all {1 << g.n} coalitions"
            if comp.additive_hypothesis
            else f"failed on {comp.hypothesis_witness}",
        )
    )
    return AxiomReport(tuple(checks))
