"""Immutable graphs with the structural queries every game construction needs.

Edges are stored directed (they model flow and carry a cost), but adjacency,
induced-edge containment, and connectivity all treat endpoints symmetrically:
an edge joins its two endpoints no matter which way it points.

Node labels map to canonical indices 0..n-1 in construction order; every
coalition/adjacency query works on compact integer bit masks over that index
space, so graphs are capped at 63 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    DegenerateRouteError,
    GraphConstructionError,
    UnknownEdgeError,
    UnknownNodeError,
)
from .masks import MAX_ENUMERATION_PLAYERS, indices_of

NodeId = str

MAX_NODES = 63

#: Edge subsets fit an int64 array only up to this many edges.
MAX_EDGE_BITS = 63


@dataclass(frozen=True)
class Edge:
    """A directed, cost-weighted edge. ``cost`` is in transport/processing units."""

    src: NodeId
    dst: NodeId
    cost: float = 1.0

    def __post_init__(self):
        if not self.src or not self.dst:
            raise GraphConstructionError("edge endpoints must be non-empty labels")
        if self.src == self.dst:
            raise GraphConstructionError(f"self-loop on {self.src!r} not allowed")
        if self.cost < 0:
            raise GraphConstructionError(
                f"edge ({self.src!r}, {self.dst!r}) has negative cost {self.cost}"
            )

    @property
    def endpoints(self) -> frozenset[NodeId]:
        return frozenset((self.src, self.dst))


@dataclass(frozen=True)
class Route:
    """A set of nodes jointly moving ``quantity`` units (supply or contracts)."""

    nodes: frozenset[NodeId]
    quantity: float

    def __init__(self, nodes: Iterable[NodeId], quantity: float):
        object.__setattr__(self, "nodes", frozenset(nodes))
        object.__setattr__(self, "quantity", quantity)
        if len(self.nodes) < 2:
            raise GraphConstructionError("a route needs at least two nodes")
        if quantity < 0:
            raise GraphConstructionError(f"route quantity must be >= 0, got {quantity}")


def _as_edge(spec) -> Edge:
    if isinstance(spec, Edge):
        return spec
    return Edge(*spec)


class Graph:
    """Immutable node/edge container; all queries are read-only and thread-safe."""

    __slots__ = (
        "_nodes",
        "_edges",
        "_index",
        "_adj",
        "_edge_pair_masks",
        "_incident",
        "_pair_to_edge",
    )

    def __init__(self, nodes: Iterable[NodeId], edges: Iterable[Edge | tuple] = ()):
        node_list = list(nodes)
        if len(node_list) > MAX_NODES:
            raise GraphConstructionError(
                f"at most {MAX_NODES} nodes supported, got {len(node_list)}"
            )
        index: dict[NodeId, int] = {}
        for label in node_list:
            if not label:
                raise GraphConstructionError("node labels must be non-empty")
            if label in index:
                raise GraphConstructionError(f"duplicate node label {label!r}")
            index[label] = len(index)

        edge_list = tuple(_as_edge(e) for e in edges)
        adj = [0] * len(node_list)
        incident = [0] * len(node_list)
        pair_masks = []
        pair_to_edge: dict[int, int] = {}
        for j, e in enumerate(edge_list):
            for end in (e.src, e.dst):
                if end not in index:
                    raise UnknownNodeError(end)
            a, b = index[e.src], index[e.dst]
            pair = (1 << a) | (1 << b)
            if pair in pair_to_edge:
                raise GraphConstructionError(
                    f"duplicate edge between {e.src!r} and {e.dst!r} "
                    "(one edge per unordered endpoint pair)"
                )
            pair_to_edge[pair] = j
            pair_masks.append(pair)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            incident[a] |= 1 << j
            incident[b] |= 1 << j

        self._nodes = tuple(node_list)
        self._edges = edge_list
        self._index = index
        self._adj = tuple(adj)
        self._edge_pair_masks = tuple(pair_masks)
        self._incident = tuple(incident)
        self._pair_to_edge = pair_to_edge

    # -- identity ---------------------------------------------------------

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def full_node_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def full_edge_mask(self) -> int:
        return (1 << len(self._edges)) - 1

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self._nodes, self._edges))

    def __repr__(self):
        return f"Graph(nodes={len(self._nodes)}, edges={len(self._edges)})"

    # -- label/index translation -------------------------------------------

    def index(self, label: NodeId) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownNodeError(label) from None

    def node_mask(self, labels: Iterable[NodeId]) -> int:
        m = 0
        for label in labels:
            m |= 1 << self.index(label)
        return m

    def labels_of(self, mask: int) -> tuple[NodeId, ...]:
        return tuple(self._nodes[i] for i in indices_of(mask))

    def edge_index(self, u: NodeId, v: NodeId) -> int:
        """Index of the edge joining u and v, either orientation."""
        pair = (1 << self.index(u)) | (1 << self.index(v))
        try:
            return self._pair_to_edge[pair]
        except KeyError:
            raise UnknownEdgeError(u, v) from None

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        try:
            self.edge_index(u, v)
            return True
        except UnknownEdgeError:
            return False

    # -- structural queries --------------------------------------------------

    def adjacency_mask(self, i: int) -> int:
        """Neighbors of node index ``i`` as a bit mask (symmetric adjacency)."""
        return self._adj[i]

    def neighborhood(self, u: NodeId) -> set[NodeId]:
        """All nodes joined to ``u`` by an edge in either orientation."""
        return set(self.labels_of(self._adj[self.index(u)]))

    def induced_edge_mask(self, node_mask: int) -> int:
        """Edge-index mask of the edges with both endpoints inside ``node_mask``."""
        m = 0
        for j, pair in enumerate(self._edge_pair_masks):
            if pair & node_mask == pair:
                m |= 1 << j
        return m

    def induced_edge_masks(self, node_masks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`induced_edge_mask` over an int64 array of coalitions.

        The result is int64 too, so graphs with more than ``MAX_EDGE_BITS``
        edges raise :class:`CapacityError`.
        """
        if len(self._edges) > MAX_EDGE_BITS:
            raise CapacityError(
                f"{len(self._edges)} edges exceed the {MAX_EDGE_BITS}-edge limit "
                "of the int64 edge-mask path"
            )
        out = np.zeros(node_masks.shape, dtype=np.int64)
        for j, pair in enumerate(self._edge_pair_masks):
            out |= np.where((node_masks & pair) == pair, np.int64(1 << j), np.int64(0))
        return out

    def induced_edge_counts(self, node_masks: np.ndarray) -> np.ndarray:
        """Number of edges with both endpoints inside each coalition of an
        int64 array, as int64, one pass over the array per edge. No edge
        masks are built, so any number of edges works. For every coalition
        at once, :meth:`all_induced_edge_counts` fills the same counts in
        O(2^n)."""
        out = np.zeros(node_masks.shape, dtype=np.int64)
        held = np.empty_like(node_masks)
        hit = np.empty(node_masks.shape, dtype=bool)
        for pair in self._edge_pair_masks:
            np.bitwise_and(node_masks, pair, out=held)
            np.equal(held, pair, out=hit)
            out += hit
        return out

    def all_induced_edge_counts(self) -> np.ndarray:
        """:meth:`induced_edge_counts` of every coalition, 0 .. 2^n - 1 in
        ascending order, filled by doubling over the players in O(2^n): for
        S below 2^i, S | 2^i induces the edges of S and one more per
        neighbour of i in S.

        Each half ``out[2^i : 2^(i+1)]`` first takes the number of i's
        neighbours in S, itself doubled in place over the bits j < i (one
        more at S | 2^j when j is a neighbour of i), then adds
        ``out[:2^i]``: about 2^(n+1) entries written in all, whatever the
        number of edges. That the neighbours count the edges S | 2^i adds
        relies on one edge per unordered node pair and no self-loops,
        which ``Graph.__init__`` and ``Edge`` enforce. Above
        ``MAX_ENUMERATION_PLAYERS`` nodes it raises :class:`CapacityError`
        before it allocates.
        """
        n = self.n
        if n > MAX_ENUMERATION_PLAYERS:
            raise CapacityError(
                f"all 2^{n} coalitions do not fit an int64 array (n <= {MAX_ENUMERATION_PLAYERS})"
            )
        out = np.zeros(1 << n, dtype=np.int64)
        for i, adj in enumerate(self._adj):
            low = 1 << i
            top = out[low : 2 * low]  # i's neighbours in S, from top[0] = 0
            for j in range(i):
                bit = 1 << j
                np.add(top[:bit], (adj >> j) & 1, out=top[bit : 2 * bit])
            top += out[:low]
        return out

    def induced_edges(self, s: Iterable[NodeId]) -> tuple[Edge, ...]:
        """Edges with both endpoints in ``s``, in canonical edge order."""
        return self.edges_of_mask(self.induced_edge_mask(self.node_mask(s)))

    def edges_of_mask(self, edge_mask: int) -> tuple[Edge, ...]:
        return tuple(self._edges[j] for j in indices_of(edge_mask))

    def endpoint_mask(self, edge_mask: int) -> int:
        """Node mask of every endpoint touched by the edges in ``edge_mask``."""
        m = 0
        for j in indices_of(edge_mask):
            m |= self._edge_pair_masks[j]
        return m

    def incident_edge_mask(self, i: int) -> int:
        """Edges touching node index ``i``."""
        return self._incident[i]

    def component_masks(self, within: int | None = None) -> list[int]:
        """Connected components of the subgraph induced by ``within`` (default: all).

        Reachability ignores edge direction; isolated nodes appear as
        singleton masks. Components are ordered by their lowest node index.
        """
        remaining = self.full_node_mask if within is None else within
        comps = []
        while remaining:
            comp = remaining & -remaining
            frontier = comp
            while frontier:
                reach = 0
                for i in indices_of(frontier):
                    reach |= self._adj[i]
                frontier = reach & remaining & ~comp
                comp |= frontier
            comps.append(comp)
            remaining &= ~comp
        return comps

    def connected_components(self) -> list[frozenset[NodeId]]:
        """Partition of the node set by reachability (singletons included)."""
        return [frozenset(self.labels_of(m)) for m in self.component_masks()]

    def edge_component_masks(self, edge_mask: int) -> list[tuple[int, int]]:
        """Group the edges in ``edge_mask`` by shared endpoints.

        Returns ``(edge_group_mask, node_group_mask)`` pairs, one per group of
        edges connected through common endpoints, ordered by lowest edge index.
        """
        remaining = edge_mask
        groups = []
        while remaining:
            seed = remaining & -remaining
            group = seed
            nodes = self._edge_pair_masks[seed.bit_length() - 1]
            while True:
                grown = group
                for i in indices_of(nodes):
                    grown |= self._incident[i] & edge_mask
                if grown == group:
                    break
                for j in indices_of(grown & ~group):
                    nodes |= self._edge_pair_masks[j]
                group = grown
            groups.append((group, nodes))
            remaining &= ~group
        return groups

    # -- routes ---------------------------------------------------------------

    def route_edge_mask(self, route: Route) -> int:
        """Edge set a route traverses: the edges induced by its node set."""
        return self.induced_edge_mask(self.node_mask(route.nodes))

    def route_cost(self, route: Route) -> float:
        """Total cost of the edges induced by the route's node set."""
        em = self.route_edge_mask(route)
        if em == 0:
            raise DegenerateRouteError(
                f"route {sorted(route.nodes)} induces no edges; "
                "a route must traverse at least one edge"
            )
        return float(sum(self._edges[j].cost for j in indices_of(em)))

    # -- derived graphs ---------------------------------------------------------

    def without_edge(self, u: NodeId, v: NodeId) -> "Graph":
        """Copy of this graph with the (u, v) edge removed."""
        j = self.edge_index(u, v)
        return Graph(self._nodes, self._edges[:j] + self._edges[j + 1 :])

    def without_node(self, u: NodeId) -> "Graph":
        """Copy of this graph with ``u`` and its incident edges removed."""
        i = self.index(u)
        keep = [e for j, e in enumerate(self._edges) if not (self._incident[i] >> j) & 1]
        return Graph(
            tuple(x for x in self._nodes if x != u),
            keep,
        )


def build_graph(
    nodes: Sequence[NodeId],
    edges: Iterable[tuple[NodeId, NodeId] | tuple[NodeId, NodeId, float]],
) -> Graph:
    """Convenience constructor from (src, dst[, cost]) tuples; cost defaults to 1."""
    return Graph(nodes, [_as_edge(e) for e in edges])
