import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from edgeshapley import (
    Graph,
    ScenarioError,
    UnknownNodeError,
    edge_shapley,
    fixture_names,
    load_fixture,
    load_scenario,
    parse_scenario,
    remove_node,
    serialize_scenario,
)
from edgeshapley.cli import main
from edgeshapley.scenarios import (
    APPROX,
    EXACT,
    PowerModel,
    SupplyModel,
    TableModel,
    UNVERIFIED,
    VERIFIED,
)

MINIMAL = """
{
  "nodes": ["L", "R"],
  "edges": [{"from": "L", "to": "R", "cost": 1.0}],
  "model": {"type": "explicit_table",
            "table": [{"edges": [["L", "R"]], "value": "6"}]},
  "domain": "exact"
}
"""


def patched(**overrides) -> str:
    doc = json.loads(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def test_minimal_scenario_loads_and_solves():
    s = parse_scenario(MINIMAL)
    assert isinstance(s.model, TableModel)
    alloc = edge_shapley(s.edge_game())
    assert alloc.values == (Fraction(3), Fraction(3))


def test_load_fixture_counterexample_h():
    s = load_fixture("counterexample-H")
    assert s.graph.nodes == ("A", "B", "C", "D", "E")
    assert {(e.src, e.dst) for e in s.graph.edges} == {
        ("A", "D"), ("B", "D"), ("C", "E")
    }
    assert s.model == PowerModel(exponent=2)
    assert s.domain == EXACT
    expect = dict(s.expected)
    assert expect == {
        "A": Fraction(5, 3), "B": Fraction(5, 3), "C": Fraction(3, 2),
        "D": Fraction(8, 3), "E": Fraction(3, 2),
    }


def test_load_fixture_smartphone():
    s = load_fixture("smartphone")
    assert len(s.graph.nodes) == 20
    assert len(s.graph.edges) == 23
    assert len(s.routes) == 11
    quantities = sorted(r.quantity for r in s.routes)
    assert quantities[0] == 40 and quantities[-1] == 715
    assert s.model == SupplyModel(alpha=0.1, semantics="containment")
    assert s.domain == APPROX


def test_load_scenario_accepts_text_and_path(tmp_path):
    from_text = load_scenario(MINIMAL)
    p = tmp_path / "two.json"
    p.write_text(MINIMAL)
    from_path = load_scenario(p)
    also_str_path = load_scenario(str(p))
    assert from_text.graph == from_path.graph == also_str_path.graph
    assert from_path.name == "two"
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# Validation diagnostics
# ---------------------------------------------------------------------------

def test_parse_error_reports_position():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("{\n  \"nodes\": [,]\n}")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"nodes": []}, "at least one node"),
        ({"nodes": ["L", "L"]}, "duplicate node"),
        ({"nodes": [f"n{i}" for i in range(64)]}, "exceeds the limit"),
        ({"edges": [{"from": "L", "to": "X"}]}, "unknown node 'X'"),
        ({"edges": [{"from": "L", "to": "L"}]}, "self-loop"),
        ({"edges": [{"from": "L", "to": "R", "cost": -1}]}, "cost must be >= 0"),
        (
            {"edges": [{"from": "L", "to": "R"}, {"from": "R", "to": "L"}]},
            "duplicate edge",
        ),
        ({"domain": "approx"}, "requires domain 'exact'"),
        ({"domain": "fuzzy"}, "domain must be"),
        ({"model": {"type": "mystery"}}, "unknown model type"),
        ({"model": {"type": "supply_cost_decay", "alpha": -2}}, "alpha must be"),
        ({"model": {"type": "edge_count_power"}}, "missing required field 'exponent'"),
        ({"model": {"type": "edge_count_power", "exponent": 0}}, "positive integer"),
        (
            {"model": {"type": "explicit_table",
                       "table": [{"edges": [["L", "X"]], "value": "1"}]}},
            "unknown edge",
        ),
        (
            {"model": {"type": "explicit_table",
                       "table": [{"edges": [["L", "R"]], "value": "1.5"}]}},
            "exact values must be integer",
        ),
        ({"routes": [{"nodes": ["L", "R"], "quantity": 1}]}, "only meaningful"),
        ({"extra_field": 1}, "unknown field"),
        ({"expected": {"L": "1"}}, "misses node"),
        ({"expected": {"L": "1", "R": "2", "X": "3"}}, "unknown node"),
        ({"expected_status": "maybe"}, "expected_status"),
    ],
)
def test_validation_rejects(mutation, fragment):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(patched(**mutation))
    assert fragment in str(exc.value)


def test_route_validation():
    doc = {
        "nodes": ["A", "B", "C"],
        "edges": [{"from": "A", "to": "B"}],
        "model": {"type": "contract"},
        "routes": [{"nodes": ["A", "C"], "quantity": 1}],
        "domain": "exact",
    }
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps(doc))
    assert "induces no edges" in str(exc.value)

    doc["routes"] = [{"nodes": ["A", "B"], "quantity": 2.5}]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps(doc))
    assert "integers" in str(exc.value)

    doc["routes"] = [{"nodes": ["A", "X"], "quantity": 1}]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps(doc))
    assert "unknown node" in str(exc.value)


TWO_NODES = {"nodes": ["A", "B"], "edges": [{"from": "A", "to": "B", "cost": 1.0}]}
SUPPLY = {**TWO_NODES, "model": {"type": "supply_cost_decay", "alpha": 0.1},
          "routes": [{"nodes": ["A", "B"], "quantity": 8}], "domain": "approx",
          "expected": {"A": 4, "B": 4}}
CONTRACT = {**TWO_NODES, "model": {"type": "contract"},
            "routes": [{"nodes": ["A", "B"], "quantity": 2}], "domain": "exact"}
POWER = {**TWO_NODES, "model": {"type": "edge_count_power", "exponent": 2}, "domain": "exact"}
TABLE = json.loads(MINIMAL)
#: JSON number tokens no float holds: Python's json reads the first four as
#: floats (1e999 as inf) and the last as an int
NOT_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]
BEYOND_FLOAT = "1" + "0" * 400


def number_case(doc, path, token):
    name = doc["model"]["type"]
    label = "1e400-int" if token == BEYOND_FLOAT else token
    return pytest.param(doc, path, token, id=f"{name}-{path[-1]}-{label}")


@pytest.mark.parametrize("doc, path, token", [
    *[number_case(SUPPLY, ("model", "alpha"), t) for t in [*NOT_FINITE, BEYOND_FLOAT]],
    *[number_case(d, ("edges", 0, "cost"), t)
      for d in (SUPPLY, CONTRACT, POWER, TABLE) for t in ["NaN", "Infinity", BEYOND_FLOAT]],
    *[number_case(SUPPLY, ("routes", 0, "quantity"), t) for t in [*NOT_FINITE, BEYOND_FLOAT]],
    *[number_case(CONTRACT, ("routes", 0, "quantity"), t) for t in NOT_FINITE],
    *[number_case(SUPPLY, ("expected", "A"), t)
      for t in [*NOT_FINITE, BEYOND_FLOAT, '"nan"', '"1e999"']],
])
def test_numbers_a_float_cannot_hold_fail_at_their_field(doc, path, token):
    # non-finite numbers are refused everywhere, and numbers the approx
    # model reads as floats must fit in one; the error names the field
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@"
    text = json.dumps(doc).replace('"@"', token)
    location = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert str(exc.value).startswith(f"{location}: ")


def supply_doc(**overrides) -> str:
    return json.dumps({**SUPPLY, **overrides})


def table_doc(*entries) -> str:
    return patched(model={"type": "explicit_table", "table": list(entries)})


@pytest.mark.parametrize("text, location", [
    pytest.param("[]", "$", id="document-not-an-object"),
    pytest.param(patched(nodes="L"), "$.nodes", id="nodes-not-a-list"),
    pytest.param(patched(nodes=["L", ""]), "$.nodes[1]", id="empty-node-label"),
    pytest.param(patched(edges=[1]), "$.edges[0]", id="edge-not-an-object"),
    pytest.param(patched(edges=[{"from": "L", "to": "R", "cost": "1"}]), "$.edges[0].cost",
                 id="cost-not-a-number"),
    pytest.param(patched(edges=[{"from": "L", "to": "R", "weight": 1}]), "$.edges[0]",
                 id="unknown-edge-field"),
    pytest.param(patched(model={"type": "edge_count_power", "exponent": 2, "k": 1}), "$.model",
                 id="unknown-model-field"),
    pytest.param(supply_doc(model={"type": "supply_cost_decay", "semantics": "loose"}),
                 "$.model.semantics", id="unknown-supply-semantics"),
    pytest.param(patched(model={"type": "contract", "semantics": "loose"}), "$.model.semantics",
                 id="unknown-contract-semantics"),
    pytest.param(table_doc(1), "$.model.table[0]", id="table-entry-not-an-object"),
    pytest.param(table_doc({"edges": [["L", "R"]], "value": "1", "note": ""}), "$.model.table[0]",
                 id="unknown-table-field"),
    pytest.param(table_doc({"edges": [], "value": "1"}), "$.model.table[0].edges",
                 id="table-entry-without-edges"),
    pytest.param(table_doc({"edges": [["L"]], "value": "1"}), "$.model.table[0].edges",
                 id="edge-reference-not-a-pair"),
    pytest.param(table_doc({"edges": [["L", "R"]], "value": "1"},
                           {"edges": [["R", "L"]], "value": "2"}),
                 "$.model.table[1]", id="duplicate-table-subset"),
    pytest.param(patched(routes={}), "$.routes", id="routes-not-a-list"),
    pytest.param(supply_doc(routes=[1]), "$.routes[0]", id="route-not-an-object"),
    pytest.param(supply_doc(routes=[{"nodes": ["A", "B"], "quantity": 1, "cost": 2}]),
                 "$.routes[0]", id="unknown-route-field"),
    pytest.param(supply_doc(routes=[{"nodes": ["A", "A"], "quantity": 1}]), "$.routes[0].nodes",
                 id="route-of-one-node"),
    pytest.param(patched(expected=[3, 3]), "$.expected", id="expected-not-an-object"),
    pytest.param(supply_doc(expected={"A": "four", "B": 4}), "$.expected.A",
                 id="approx-expected-not-numeric"),
    pytest.param(patched(name=3), "$.name", id="name-not-a-string"),
    pytest.param(patched(notes=3), "$.notes", id="notes-not-a-string"),
])
def test_validation_names_the_refused_field(tmp_path, capsys, text, location):
    # a minimal document broken in one field: the error names that field,
    # and the CLI prints it and exits 65
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert exc.value.location == location
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["compute", "--input", str(path)]) == 65
    assert capsys.readouterr().err.startswith(f"edgeshapley: error: {location}: ")


def path_table_doc(ref) -> str:
    return json.dumps({
        "nodes": ["A", "B", "C"],
        "edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "C"}],
        "model": {"type": "explicit_table", "table": [{"edges": [["A", "B"]], "value": "1"},
                                                      {"edges": [ref], "value": "2"}]},
        "domain": "exact",
    })


@pytest.mark.parametrize("ref", [[1, 2], [["A"], "B"], ["A", "Z"], ["A", "C"]],
                         ids=["int-labels", "unhashable-label", "unknown-node", "no-such-edge"])
def test_bad_edge_reference_is_an_unknown_edge(ref):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(path_table_doc(ref))
    assert str(exc.value) == f"$.model.table[1].edges: unknown edge {ref!r}"


def test_edge_lookup_fault_is_not_an_unknown_edge(monkeypatch):
    # only what a bad reference raises reads as an unknown edge
    def broken(self, u, v):
        raise ZeroDivisionError("lookup fault")

    monkeypatch.setattr(Graph, "edge_index", broken)
    with pytest.raises(ZeroDivisionError, match="lookup fault"):
        parse_scenario(path_table_doc(["A", "B"]))


def test_unknown_fixture_lists_the_available_ones():
    with pytest.raises(ScenarioError, match=r"^unknown fixture 'nope'; available: ") as exc:
        load_fixture("nope")
    assert exc.value.location is None
    assert all(name in str(exc.value) for name in fixture_names())


def test_exact_numbers_keep_arbitrary_precision():
    big = 10**400
    doc = {**CONTRACT, "routes": [{"nodes": ["A", "B"], "quantity": big}],
           "expected": {"A": big // 2, "B": str(big // 2)}}
    s = parse_scenario(json.dumps(doc))
    assert s.routes[0].quantity == big
    assert dict(s.expected) == {"A": big // 2, "B": big // 2}
    table = {**TABLE, "model": {"type": "explicit_table",
                                "table": [{"edges": [["L", "R"]], "value": big}]}}
    assert parse_scenario(json.dumps(table)).model.entries == ((0b1, big),)



def test_exact_numbers_beyond_the_int_str_digit_limit():
    # 5001 digits, past the interpreter's 4300-digit limit on int <-> str
    # conversion; the json module cannot write them, so they are spliced in
    digits, big = "1" + "0" * 5000, 10**5000
    doc = {**CONTRACT, "routes": [{"nodes": ["A", "B"], "quantity": "#"}],
           "expected": {"A": "@/3", "B": "@"}}
    text = json.dumps(doc).replace("@", digits)
    s = parse_scenario(text.replace('"#"', digits))
    assert s.routes[0].quantity == big
    assert dict(s.expected) == {"A": Fraction(big, 3), "B": big}
    table = {**TABLE, "model": {"type": "explicit_table",
                                "table": [{"edges": [["L", "R"]], "value": "#"}]}}
    assert parse_scenario(json.dumps(table).replace('"#"', digits)).model.entries == (
        (0b1, big),)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text.replace('"#"', "-" + digits))
    assert str(exc.value) == f"$.routes[0].quantity: quantity must be a number >= 0, got -{digits}"

# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

def test_round_trip_all_fixtures():
    for name in fixture_names():
        s = load_fixture(name)
        again = parse_scenario(serialize_scenario(s))
        assert again == s, name


def test_round_trip_minimal():
    s = parse_scenario(MINIMAL)
    assert parse_scenario(serialize_scenario(s)) == s


def test_round_trip_beyond_the_int_str_digit_limit():
    # a 5001-digit contract count, expected values and a table value, all
    # written digit for digit; a name holding "null" stays a string
    digits, big = "7" * 5001, int(Decimal("7" * 5001))
    doc = {**CONTRACT, "name": 'null "null"',
           "routes": [{"nodes": ["A", "B"], "quantity": "#"}],
           "expected": {"A": f"{digits}/2", "B": f"{digits}/2"}}
    s = parse_scenario(json.dumps(doc).replace('"#"', digits))
    text = serialize_scenario(s)
    assert f'"quantity": {digits}' in text
    again = parse_scenario(text)
    assert again == s
    assert again.routes[0].quantity == big and again.name == 'null "null"'
    assert dict(again.expected) == {"A": Fraction(big, 2), "B": Fraction(big, 2)}
    table = {**TABLE, "model": {"type": "explicit_table",
                                "table": [{"edges": [["L", "R"]], "value": "#"}]}}
    s = parse_scenario(json.dumps(table).replace('"#"', digits))
    assert parse_scenario(serialize_scenario(s)) == s


def test_whole_exact_values_parse_as_ints():
    # whole numbers, written as ints or strings, parse as Python ints, so
    # exact tables of them take the engines' integer numerator paths
    values = [6, "6", "12/2", "1/3"]
    doc = json.loads(MINIMAL)
    doc["nodes"] += ["X", "Y"]
    doc["edges"] += [{"from": "L", "to": "X"}, {"from": "L", "to": "Y"}]
    # edge masks 0b1, 0b10, 0b11, 0b100: the order the entries are kept in
    subsets = [[["L", "R"]], [["L", "X"]], [["L", "R"], ["L", "X"]], [["L", "Y"]]]
    doc["model"]["table"] = [{"edges": e, "value": v} for e, v in zip(subsets, values)]
    doc["expected"] = dict(zip(doc["nodes"], values))
    doc["expected_status"] = UNVERIFIED
    s = parse_scenario(json.dumps(doc))
    want = [(int, 6), (int, 6), (int, 6), (Fraction, Fraction(1, 3))]
    assert [mask for mask, _ in s.model.entries] == [0b1, 0b10, 0b11, 0b100]
    assert [(type(x), x) for _, x in s.model.entries] == want
    assert [(type(x), x) for _, x in s.expected] == want
    again = parse_scenario(serialize_scenario(s))
    assert again == s
    assert [(type(x), x) for _, x in again.model.entries] == want
    assert [(type(x), x) for _, x in again.expected] == want


# ---------------------------------------------------------------------------
# Fixture regression
# ---------------------------------------------------------------------------

def test_fixture_inventory():
    names = fixture_names()
    assert {
        "counterexample-H",
        "chain-suppliers",
        "chain-modules",
        "chain-suppliers-costly",
        "smartphone",
        "platform-single",
        "platform-dual",
        "platform-dual-dropA",
    } <= set(names)


def test_every_verified_fixture_matches_engine():
    for name in fixture_names():
        s = load_fixture(name)
        expected = s.expected_allocation()
        if expected is None or s.expected_status == UNVERIFIED:
            continue
        alloc = edge_shapley(s.edge_game())
        for label in s.graph.nodes:
            if s.domain == EXACT:
                assert alloc[label] == expected[label], (name, label)
            else:
                assert abs(alloc[label] - expected[label]) <= 2e-3, (name, label)


def test_platform_fixtures_load_with_unverified_vectors():
    for name in ("platform-single", "platform-dual", "platform-dual-dropA"):
        s = load_fixture(name)
        assert s.expected is not None
        assert s.expected_status == UNVERIFIED
        assert s.routes == ()
        # the reference vectors carry the efficiency totals 24 / 36 / 22
    sums = {
        "platform-single": 24,
        "platform-dual": 36,
        "platform-dual-dropA": 22,
    }
    for name, total in sums.items():
        s = load_fixture(name)
        assert sum(v for _, v in s.expected) == total


# ---------------------------------------------------------------------------
# remove_node
# ---------------------------------------------------------------------------

def test_remove_node_chain_suppliers():
    s = load_fixture("chain-suppliers")
    out = remove_node(s, "A")
    assert set(out.graph.nodes) == {"B", "C", "D", "E"}
    assert [sorted(r.nodes) for r in out.routes] == [["B", "C", "D", "E"]]
    total = out.edge_game().total_worth
    assert total == pytest.approx(8 * math.exp(-0.3), abs=1e-12)
    assert out.expected is None


def test_remove_node_unknown():
    with pytest.raises(UnknownNodeError):
        remove_node(load_fixture("chain-suppliers"), "Z")


def test_remove_isolated_node_changes_nothing_else():
    doc = {
        "nodes": ["A", "B", "X"],
        "edges": [{"from": "A", "to": "B"}],
        "model": {"type": "explicit_table",
                  "table": [{"edges": [["A", "B"]], "value": "4"}]},
        "domain": "exact",
    }
    s = parse_scenario(json.dumps(doc))
    before = edge_shapley(s.edge_game())
    after = edge_shapley(remove_node(s, "X").edge_game())
    for label in ("A", "B"):
        assert before[label] == after[label]


def test_remove_node_on_every_route_zeroes_game():
    s = load_fixture("chain-suppliers")
    out = remove_node(s, "C")  # C sits on every route
    assert out.routes == ()
    alloc = edge_shapley(out.edge_game())
    assert all(v == 0 for v in alloc.values)


def test_remove_node_remaps_table_entries():
    doc = {
        "nodes": ["A", "B", "C"],
        "edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "C"}],
        "model": {"type": "explicit_table",
                  "table": [
                      {"edges": [["A", "B"]], "value": "2"},
                      {"edges": [["A", "B"], ["B", "C"]], "value": "5"}
                  ]},
        "domain": "exact",
    }
    s = parse_scenario(json.dumps(doc))
    out = remove_node(s, "C")
    w = out.edge_game().characteristic
    assert w(0b1) == 2  # surviving entry, remapped to the new edge order
    assert out.edge_game().total_worth == 2
    # no dangling references anywhere
    for r in out.routes:
        assert r.nodes <= set(out.graph.nodes)
    again = parse_scenario(serialize_scenario(out))
    assert again.model == out.model


def test_expected_allocation_labels():
    s = load_fixture("counterexample-H")
    expected = s.expected_allocation()
    assert expected.nodes == s.graph.nodes
    assert expected["D"] == Fraction(8, 3)
    assert parse_scenario(MINIMAL).expected_allocation() is None
    assert load_fixture("chain-suppliers").expected_status == VERIFIED
