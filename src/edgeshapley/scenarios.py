"""Scenario documents: JSON schema, loader/validator, and bundled fixtures.

A scenario bundles a graph, a value model, optional routes, the value domain,
and (optionally) an expected allocation for regression. The JSON schema:

.. code-block:: json

    { "nodes": ["A", "B"],
      "edges": [{"from": "A", "to": "B", "cost": 1.0}],
      "model": {"type": "supply_cost_decay", "alpha": 0.1,
                "semantics": "containment"},
      "routes": [{"nodes": ["A", "B"], "quantity": 8}],
      "domain": "approx",
      "expected": {"A": "1.5", "B": "1.5"} }

Model types: ``supply_cost_decay`` (approx domain), ``edge_count_power``,
``contract``, ``explicit_table`` (all exact domain). Exact values -- explicit
table entries and exact expected vectors -- are decimal-integer or "p/q"
fraction strings. Optional metadata fields: ``name``, ``notes``, and
``expected_status`` ("verified" | "unverified"; unverified vectors are kept
for reference but skipped by regression).

Loading is strict: every structural problem is reported with the offending
field's path. Loaded scenarios are immutable and shareable across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Union

from .edgegame import EdgeCharacteristic, EdgeGame
from .errors import ScenarioError
from .games import Allocation, Value
from .graph import MAX_NODES, Edge, Graph, Route
from .models import (
    CONTAINMENT,
    STRICT_EQUALITY,
    CostDecayParams,
    contract_weight_fn,
    power_weight_fn,
    supply_weight_fn,
)

EXACT = "exact"
APPROX = "approx"

VERIFIED = "verified"
UNVERIFIED = "unverified"


#: A supply model is the cost decay of its routes.
SupplyModel = CostDecayParams


@dataclass(frozen=True)
class ContractModel:
    semantics: str = CONTAINMENT


@dataclass(frozen=True)
class PowerModel:
    exponent: int = 2


@dataclass(frozen=True)
class TableModel:
    #: (edge mask, worth) entries over the scenario graph's edge order.
    entries: tuple[tuple[int, int | Fraction], ...]


Model = Union[SupplyModel, ContractModel, PowerModel, TableModel]

_MODEL_DOMAIN = {
    SupplyModel: APPROX,
    ContractModel: EXACT,
    PowerModel: EXACT,
    TableModel: EXACT,
}


@dataclass(frozen=True, eq=True)
class Scenario:
    graph: Graph
    model: Model
    routes: tuple[Route, ...]
    domain: str
    expected: tuple[tuple[str, Value], ...] | None = None
    expected_status: str = VERIFIED
    name: str | None = None
    notes: str | None = None

    def characteristic(self) -> EdgeCharacteristic:
        if isinstance(self.model, SupplyModel):
            return supply_weight_fn(self.graph, self.routes, self.model)
        if isinstance(self.model, ContractModel):
            return contract_weight_fn(self.graph, self.routes, self.model.semantics)
        if isinstance(self.model, PowerModel):
            return power_weight_fn(self.graph, self.model.exponent)
        return EdgeCharacteristic.from_table(self.graph.edges, dict(self.model.entries))

    def edge_game(self) -> EdgeGame:
        return EdgeGame(self.graph, self.characteristic())

    def expected_allocation(self) -> Allocation | None:
        if self.expected is None:
            return None
        by_node = dict(self.expected)
        values = tuple(by_node[label] for label in self.graph.nodes)
        return Allocation(values, self.domain == EXACT, self.graph.nodes)


def _fail(message: str, location: str) -> ScenarioError:
    return ScenarioError(message, location=location)


def _require(doc: dict, key: str, kind, location: str):
    if key not in doc:
        raise _fail(f"missing required field {key!r}", location)
    value = doc[key]
    if not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise _fail(f"{key!r} must be a {names}", f"{location}.{key}")
    return value


_EXACT_VALUE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _parse_exact_value(raw, location: str) -> int | Fraction:
    """A whole number as a Python int (the engines' integer paths), else a Fraction."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and _EXACT_VALUE.match(raw):
        value = Fraction(raw)
        return value.numerator if value.denominator == 1 else value
    raise _fail(
        f'exact values must be integer or "p/q" fraction strings, got {raw!r}',
        location,
    )


def _parse_approx_value(raw, location: str) -> float:
    if isinstance(raw, bool):
        raise _fail(f"cannot parse numeric value {raw!r}", location)
    try:
        return float(raw)
    except (ValueError, TypeError):
        raise _fail(f"cannot parse numeric value {raw!r}", location) from None


_TOP_KEYS = {"nodes", "edges", "model", "routes", "domain", "expected",
             "expected_status", "name", "notes"}


def parse_scenario(text: str, *, name_hint: str | None = None) -> Scenario:
    """Parse and fully validate a scenario JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(e.msg, location=f"line {e.lineno}, column {e.colno}") from None
    if not isinstance(doc, dict):
        raise _fail("document must be a JSON object", "$")

    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise _fail(f"unknown field(s) {sorted(unknown)}", "$")

    # nodes
    raw_nodes = _require(doc, "nodes", list, "$")
    if not raw_nodes:
        raise _fail("at least one node is required", "$.nodes")
    if len(raw_nodes) > MAX_NODES:
        raise _fail(f"{len(raw_nodes)} nodes exceeds the limit of {MAX_NODES}", "$.nodes")
    seen = set()
    for k, label in enumerate(raw_nodes):
        if not isinstance(label, str) or not label:
            raise _fail("node labels must be non-empty strings", f"$.nodes[{k}]")
        if label in seen:
            raise _fail(f"duplicate node {label!r}", f"$.nodes[{k}]")
        seen.add(label)
    node_set = seen

    # edges
    raw_edges = _require(doc, "edges", list, "$")
    edges: list[Edge] = []
    pairs_seen = set()
    for k, item in enumerate(raw_edges):
        loc = f"$.edges[{k}]"
        if not isinstance(item, dict):
            raise _fail("edge entries must be objects", loc)
        src = _require(item, "from", str, loc)
        dst = _require(item, "to", str, loc)
        for end in (src, dst):
            if end not in node_set:
                raise _fail(f"unknown node {end!r}", loc)
        if src == dst:
            raise _fail(f"self-loop on {src!r}", loc)
        cost = item.get("cost", 1.0)
        if isinstance(cost, bool) or not isinstance(cost, (int, float)):
            raise _fail("cost must be a number", f"{loc}.cost")
        if cost < 0:
            raise _fail(f"cost must be >= 0, got {cost}", f"{loc}.cost")
        pair = frozenset((src, dst))
        if pair in pairs_seen:
            raise _fail(f"duplicate edge between {src!r} and {dst!r}", loc)
        pairs_seen.add(pair)
        extra = set(item) - {"from", "to", "cost"}
        if extra:
            raise _fail(f"unknown edge field(s) {sorted(extra)}", loc)
        edges.append(Edge(src, dst, cost))

    graph = Graph(raw_nodes, edges)

    # model
    raw_model = _require(doc, "model", dict, "$")
    mtype = _require(raw_model, "type", str, "$.model")
    model = _parse_model(raw_model, mtype, graph)

    # routes
    routes: list[Route] = []
    raw_routes = doc.get("routes", [])
    if not isinstance(raw_routes, list):
        raise _fail("'routes' must be a list", "$.routes")
    if raw_routes and not isinstance(model, (SupplyModel, ContractModel)):
        raise _fail(
            f"routes are only meaningful for supply/contract models, not {mtype!r}",
            "$.routes",
        )
    for k, item in enumerate(raw_routes):
        loc = f"$.routes[{k}]"
        if not isinstance(item, dict):
            raise _fail("route entries must be objects", loc)
        extra = set(item) - {"nodes", "quantity"}
        if extra:
            raise _fail(f"unknown route field(s) {sorted(extra)}", loc)
        labels = _require(item, "nodes", list, loc)
        for label in labels:
            if label not in node_set:
                raise _fail(f"unknown node {label!r}", f"{loc}.nodes")
        if len(set(labels)) < 2:
            raise _fail("a route needs at least two distinct nodes", f"{loc}.nodes")
        quantity = _require(item, "quantity", (int, float), loc)
        if isinstance(quantity, bool) or quantity < 0:
            raise _fail(f"quantity must be a number >= 0, got {quantity!r}", f"{loc}.quantity")
        if isinstance(model, ContractModel) and quantity != int(quantity):
            raise _fail(f"contract counts must be integers, got {quantity}", f"{loc}.quantity")
        route = Route(labels, quantity)
        if graph.route_edge_mask(route) == 0:
            raise _fail(
                f"route {sorted(route.nodes)} induces no edges", f"{loc}.nodes"
            )
        routes.append(route)

    # domain
    domain = _require(doc, "domain", str, "$")
    if domain not in (EXACT, APPROX):
        raise _fail(f"domain must be '{EXACT}' or '{APPROX}', got {domain!r}", "$.domain")
    required = _MODEL_DOMAIN[type(model)]
    if domain != required:
        raise _fail(
            f"model {mtype!r} requires domain '{required}', got {domain!r}", "$.domain"
        )

    # expected
    expected = None
    if "expected" in doc:
        raw_expected = doc["expected"]
        if not isinstance(raw_expected, dict):
            raise _fail("'expected' must be an object", "$.expected")
        missing = node_set - set(raw_expected)
        extra = set(raw_expected) - node_set
        if missing:
            raise _fail(f"expected vector misses node(s) {sorted(missing)}", "$.expected")
        if extra:
            raise _fail(f"expected vector names unknown node(s) {sorted(extra)}", "$.expected")
        parsed = []
        for label in graph.nodes:
            loc = f"$.expected.{label}"
            raw = raw_expected[label]
            if domain == EXACT:
                parsed.append((label, _parse_exact_value(raw, loc)))
            else:
                parsed.append((label, _parse_approx_value(raw, loc)))
        expected = tuple(parsed)

    status = doc.get("expected_status", VERIFIED)
    if status not in (VERIFIED, UNVERIFIED):
        raise _fail(
            f"expected_status must be '{VERIFIED}' or '{UNVERIFIED}', got {status!r}",
            "$.expected_status",
        )

    name = doc.get("name", name_hint)
    if name is not None and not isinstance(name, str):
        raise _fail("'name' must be a string", "$.name")
    notes = doc.get("notes")
    if notes is not None and not isinstance(notes, str):
        raise _fail("'notes' must be a string", "$.notes")

    return Scenario(
        graph=graph,
        model=model,
        routes=tuple(routes),
        domain=domain,
        expected=expected,
        expected_status=status,
        name=name,
        notes=notes,
    )


def _parse_model(raw: dict, mtype: str, graph: Graph) -> Model:
    loc = "$.model"

    def check_keys(allowed: set[str]):
        extra = set(raw) - allowed - {"type"}
        if extra:
            raise _fail(f"unknown model field(s) {sorted(extra)}", loc)

    if mtype == "supply_cost_decay":
        check_keys({"alpha", "semantics"})
        alpha = raw.get("alpha", 0.1)
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not alpha > 0:
            raise _fail(f"alpha must be a number > 0, got {alpha!r}", f"{loc}.alpha")
        semantics = raw.get("semantics", CONTAINMENT)
        if semantics not in (CONTAINMENT, STRICT_EQUALITY):
            raise _fail(f"unknown semantics {semantics!r}", f"{loc}.semantics")
        return SupplyModel(float(alpha), semantics)
    if mtype == "contract":
        check_keys({"semantics"})
        semantics = raw.get("semantics", CONTAINMENT)
        if semantics not in (CONTAINMENT, STRICT_EQUALITY):
            raise _fail(f"unknown semantics {semantics!r}", f"{loc}.semantics")
        return ContractModel(semantics)
    if mtype == "edge_count_power":
        check_keys({"exponent"})
        exponent = _require(raw, "exponent", int, loc)
        if isinstance(exponent, bool) or exponent < 1:
            raise _fail(f"exponent must be a positive integer, got {exponent!r}", f"{loc}.exponent")
        return PowerModel(exponent)
    if mtype == "explicit_table":
        check_keys({"table"})
        raw_table = _require(raw, "table", list, loc)
        entries: dict[int, int | Fraction] = {}
        for k, item in enumerate(raw_table):
            eloc = f"{loc}.table[{k}]"
            if not isinstance(item, dict):
                raise _fail("table entries must be objects", eloc)
            extra = set(item) - {"edges", "value"}
            if extra:
                raise _fail(f"unknown table field(s) {sorted(extra)}", eloc)
            raw_pairs = _require(item, "edges", list, eloc)
            if not raw_pairs:
                raise _fail("table entries need at least one edge", f"{eloc}.edges")
            mask = 0
            for pair in raw_pairs:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise _fail("edge references must be [from, to] pairs", f"{eloc}.edges")
                try:
                    mask |= 1 << graph.edge_index(pair[0], pair[1])
                except Exception:
                    raise _fail(f"unknown edge {pair!r}", f"{eloc}.edges") from None
            if mask in entries:
                raise _fail("duplicate edge subset in table", eloc)
            entries[mask] = _parse_exact_value(item.get("value", 0), f"{eloc}.value")
        return TableModel(tuple(sorted(entries.items())))
    raise _fail(f"unknown model type {mtype!r}", f"{loc}.type")


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a file path or directly from JSON text."""
    if isinstance(source, Path):
        return parse_scenario(source.read_text("utf-8"), name_hint=source.stem)
    text = str(source)
    if text.lstrip().startswith("{"):
        return parse_scenario(text)
    path = Path(text)
    if not path.exists():
        raise ScenarioError(f"no such scenario file: {text}")
    return parse_scenario(path.read_text("utf-8"), name_hint=path.stem)


def _model_doc(s: Scenario) -> dict:
    m = s.model
    if isinstance(m, SupplyModel):
        return {"type": "supply_cost_decay", "alpha": m.alpha, "semantics": m.semantics}
    if isinstance(m, ContractModel):
        return {"type": "contract", "semantics": m.semantics}
    if isinstance(m, PowerModel):
        return {"type": "edge_count_power", "exponent": m.exponent}
    table = []
    for mask, value in m.entries:
        refs = [[e.src, e.dst] for e in s.graph.edges_of_mask(mask)]
        table.append({"edges": refs, "value": str(value)})
    return {"type": "explicit_table", "table": table}


def serialize_scenario(s: Scenario) -> str:
    """Canonical JSON for a scenario; reparsing yields an equivalent one."""
    doc: dict = {}
    if s.name is not None:
        doc["name"] = s.name
    doc["nodes"] = list(s.graph.nodes)
    doc["edges"] = [
        {"from": e.src, "to": e.dst, "cost": e.cost} for e in s.graph.edges
    ]
    doc["model"] = _model_doc(s)
    if s.routes:
        index = {label: i for i, label in enumerate(s.graph.nodes)}
        doc["routes"] = [
            {"nodes": sorted(r.nodes, key=index.__getitem__), "quantity": r.quantity}
            for r in s.routes
        ]
    doc["domain"] = s.domain
    if s.expected is not None:
        by_node = dict(s.expected)
        if s.domain == EXACT:
            doc["expected"] = {label: str(by_node[label]) for label in s.graph.nodes}
        else:
            doc["expected"] = {label: repr(float(by_node[label])) for label in s.graph.nodes}
    if s.expected_status != VERIFIED:
        doc["expected_status"] = s.expected_status
    if s.notes is not None:
        doc["notes"] = s.notes
    return json.dumps(doc, indent=2) + "\n"


def _compress_mask(mask: int, kept: list[int]) -> int:
    out = 0
    for new_i, old_i in enumerate(kept):
        if (mask >> old_i) & 1:
            out |= 1 << new_i
    return out


def remove_node(s: Scenario, u: str) -> Scenario:
    """What-if transform: drop a node, its incident edges, and every route
    through it; model parameters survive, any expected vector does not."""
    old = s.graph
    removed_edges = old.incident_edge_mask(old.index(u))
    new_graph = old.without_node(u)
    routes = tuple(r for r in s.routes if u not in r.nodes)
    model = s.model
    if isinstance(model, TableModel):
        kept = [j for j in range(len(old.edges)) if not (removed_edges >> j) & 1]
        entries = tuple(
            (_compress_mask(mask, kept), value)
            for mask, value in model.entries
            if not mask & removed_edges
        )
        model = TableModel(entries)
    name = f"{s.name} minus {u}" if s.name else None
    return Scenario(
        graph=new_graph,
        model=model,
        routes=routes,
        domain=s.domain,
        expected=None,
        expected_status=VERIFIED,
        name=name,
        notes=s.notes,
    )


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------

def _fixture_dir():
    return resources.files(__package__) / "fixtures"


def fixture_names() -> list[str]:
    """Names of the scenarios bundled with the package."""
    return sorted(
        p.name[: -len(".json")]
        for p in _fixture_dir().iterdir()
        if p.name.endswith(".json")
    )


def fixture_text(name: str) -> str:
    entry = _fixture_dir() / f"{name}.json"
    try:
        return entry.read_text("utf-8")
    except FileNotFoundError:
        raise ScenarioError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None


def load_fixture(name: str) -> Scenario:
    """Load a bundled scenario by name."""
    return parse_scenario(fixture_text(name), name_hint=name)
