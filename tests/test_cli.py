import ast
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import edgeshapley
from edgeshapley.cli import METHODS, main
from edgeshapley.edgegame import delete_edge, edge_shapley, lift
from edgeshapley.games import NodeCharacteristic, shapley_exact, shapley_sampled
from edgeshapley.models import CostDecayParams, route_closed_form
from edgeshapley.scenarios import load_scenario

from conftest import drop_one_more_row

def fixture_path(name: str) -> str:
    return str(resources.files("edgeshapley") / "fixtures" / f"{name}.json")


H = fixture_path("counterexample-H")
CHAIN = fixture_path("chain-suppliers")
SMARTPHONE = fixture_path("smartphone")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_h_table(capsys):
    code, out = run(capsys, "compute", "--input", H, "--method", "edge_shapley")
    assert code == 0
    for fragment in ("5/3", "3/2", "8/3", "total: 9"):
        assert fragment in out


def test_compute_h_json_schema(capsys):
    code, out = run(capsys, "compute", "--input", H, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "counterexample-H"
    assert doc["method"] == "edge_shapley"
    assert doc["total"] == 9.0
    assert [row["node"] for row in doc["allocations"]] == ["A", "B", "C", "D", "E"]
    assert doc["allocations"][0]["exact"] == "5/3"
    assert doc["allocations"][0]["decimal"] == pytest.approx(5 / 3)
    assert all("name" in c and "passed" in c for c in doc["checks"])
    assert "elapsed_ms" not in doc  # timing is opt-in to keep bytes stable


def test_compute_approx_has_no_exact_strings(capsys):
    code, out = run(capsys, "compute", "--input", CHAIN, "--format", "json",
                    "--method", "closed_form")
    assert code == 0
    doc = json.loads(out)
    assert all("exact" not in row for row in doc["allocations"])
    assert doc["allocations"][0]["decimal"] == pytest.approx(3.4926, abs=1e-4)


def test_csv_rows_match_json_allocations(capsys):
    code, csv_out = run(capsys, "compute", "--input", H, "--format", "csv")
    assert code == 0
    code, json_out = run(capsys, "compute", "--input", H, "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    lines = csv_out.strip().splitlines()
    assert lines[0] == "node,value"
    assert len(lines) == 1 + len(doc["allocations"])
    for line, row in zip(lines[1:], doc["allocations"]):
        node, value = line.split(",")
        assert node == row["node"]
        assert value == row["exact"]


def test_compute_byte_deterministic(capsys):
    a = run(capsys, "compute", "--input", CHAIN, "--format", "json",
            "--method", "edge_shapley")
    b = run(capsys, "compute", "--input", CHAIN, "--format", "json",
            "--method", "edge_shapley")
    assert a == b


def test_threads_do_not_change_output(capsys):
    a = run(capsys, "compute", "--input", CHAIN, "--format", "json", "--threads", "1")
    b = run(capsys, "compute", "--input", CHAIN, "--format", "json", "--threads", "3")
    assert a == b


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_timing_adds_only_elapsed_ms(capsys, fmt):
    # JSON gains a last float field and the table a last line; CSV carries
    # no timing. Every other byte is the run without the flag
    argv = ["compute", "--input", H, "--format", fmt]
    code, plain = run(capsys, *argv)
    assert code == 0
    code, timed = run(capsys, *argv, "--timing")
    assert code == 0
    if fmt == "csv":
        assert timed == plain
        return
    lines = timed.splitlines(keepends=True)
    if fmt == "json":
        assert type(json.loads(timed)["elapsed_ms"]) is float
        # the field closes the object, after the checks' closing bracket
        assert lines[-2].startswith('  "elapsed_ms": ') and lines[-3] == "  ],\n"
        lines[-3:-1] = ["  ]\n"]
    else:
        assert re.fullmatch(r"elapsed_ms: \d+\.\d\n", lines[-1])
        del lines[-1]
    assert "".join(lines) == plain


def test_compute_check_expected_pass(capsys):
    code, out = run(capsys, "compute", "--input", H, "--check-expected")
    assert code == 0
    assert "allocation matches expected" in out


def test_compute_check_expected_mismatch_exits_2(tmp_path, capsys):
    doc = json.loads(Path(H).read_text())
    doc["expected"]["A"] = "9/5"
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "compute", "--input", str(bad), "--check-expected")
    assert code == 2
    assert "mismatch at A" in out


@pytest.mark.parametrize("shift, code, fragment", [
    (0, 0, "allocation matches expected vector"),
    (3e-3, 2, "mismatch at D: computed 4.97423302083379 vs expected 4.977"),
    (1e-3, 0, "allocation matches expected vector"),
])
def test_compute_check_expected_approx_tolerance(tmp_path, capsys, shift, code, fragment):
    # approx expected vectors hold 3 decimals: D is 4.974233, so a shift of
    # its expected 4.974 beyond the 2e-3 tolerance fails and one within passes
    path = CHAIN
    if shift:
        doc = json.loads(Path(CHAIN).read_text())
        doc["expected"]["D"] = str(float(doc["expected"]["D"]) + shift)
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(doc))
    got, out = run(capsys, "compute", "--input", str(path), "--check-expected")
    assert got == code
    assert fragment in out


def test_compute_check_expected_skips_unverified(capsys):
    code, out = run(capsys, "compute", "--input", fixture_path("platform-single"),
                    "--check-expected")
    assert code == 0
    assert "unverified" in out


def test_compute_sampled_deterministic(capsys):
    args = ("compute", "--input", H, "--method", "sampled",
            "--samples", "2000", "--seed", "42", "--format", "json")
    assert run(capsys, *args) == run(capsys, *args)


def test_compute_pruned_and_myerson_methods(capsys):
    code, out = run(capsys, "compute", "--input", H, "--method",
                    "edge_shapley_pruned", "--format", "json")
    assert code == 0
    assert json.loads(out)["allocations"][3]["exact"] == "8/3"
    code, _ = run(capsys, "compute", "--input", H, "--method", "myerson")
    assert code == 0


def test_compute_plain_shapley_method_matches_edge_shapley(capsys):
    code, a = run(capsys, "compute", "--input", H, "--method", "shapley",
                  "--format", "json")
    assert code == 0
    code, b = run(capsys, "compute", "--input", H, "--method", "edge_shapley",
                  "--format", "json")
    assert code == 0
    assert json.loads(a)["allocations"] == json.loads(b)["allocations"]


def test_compute_sampled_exact_domain_reports_fractions(capsys):
    code, out = run(capsys, "compute", "--input", H, "--method", "sampled",
                    "--samples", "500", "--seed", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["allocations"]
    for row in rows:
        assert "/" in row["exact"] or row["exact"].lstrip("-").isdigit()


def test_compute_writes_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "compute", "--input", H, "--format", "json",
                    "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["total"] == 9.0


def test_compute_smartphone_sampled_close_to_closed_form(capsys):
    code, sampled_out = run(capsys, "compute", "--input", SMARTPHONE, "--method",
                            "sampled", "--samples", "200000", "--seed", "7",
                            "--format", "json")
    assert code == 0
    code, closed_out = run(capsys, "compute", "--input", SMARTPHONE, "--method",
                           "closed_form", "--format", "json")
    assert code == 0
    sampled = {r["node"]: r["decimal"] for r in json.loads(sampled_out)["allocations"]}
    closed = {r["node"]: r["decimal"] for r in json.loads(closed_out)["allocations"]}
    for node, value in closed.items():
        assert abs(sampled[node] - value) <= 0.02 * abs(value), node


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_load_failure_exits_65(capsys):
    assert main(["compute", "--input", "/no/such/file.json"]) == 65
    capsys.readouterr()


def test_invalid_scenario_exits_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", "--input", str(bad)]) == 65
    capsys.readouterr()


def test_incompatible_method_exits_64(capsys):
    assert main(["compute", "--input", H, "--method", "closed_form"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("model, domain", [
    ({"type": "supply_cost_decay", "alpha": 0.1}, "approx"),
    ({"type": "contract"}, "exact"),
])
def test_closed_form_refuses_strict_equality(tmp_path, capsys, model, domain):
    doc = {
        "nodes": ["A", "B", "C"],
        "edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "C"}],
        "model": {**model, "semantics": "strict-equality"},
        "routes": [{"nodes": ["A", "B", "C"], "quantity": 2}],
        "domain": domain,
    }
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(doc))
    assert main(["compute", "--input", str(path), "--method", "closed_form"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "edgeshapley: error: closed_form requires containment semantics\n"


def test_closed_form_on_a_route_node_that_touches_no_route_edge(tmp_path, capsys):
    # {A, B, C} induces only A-B: C is a null player of that route's row
    path = tmp_path / "uncovered.json"
    path.write_text(json.dumps({
        "nodes": ["A", "B", "C", "D"],
        "edges": [{"from": "A", "to": "B", "cost": 1.0},
                  {"from": "B", "to": "D", "cost": 2.0},
                  {"from": "C", "to": "D", "cost": 1.0}],
        "model": {"type": "supply_cost_decay", "alpha": 0.1},
        "routes": [{"nodes": ["A", "B", "C"], "quantity": 6},
                   {"nodes": ["A", "B", "D"], "quantity": 4}],
        "domain": "approx",
    }))
    values = {}
    for method in ("closed_form", "edge_shapley"):
        code, out = run(capsys, "compute", "--input", str(path), "--method", method,
                        "--format", "json")
        assert code == 0
        values[method] = [row["decimal"] for row in json.loads(out)["allocations"]]
    assert values["closed_form"] == pytest.approx(values["edge_shapley"], rel=1e-9, abs=1e-9)
    assert values["closed_form"] == pytest.approx([3.70227, 3.70227, 0, 0.987758], abs=1e-5)


def test_oversize_exact_exits_64(capsys):
    assert main(["compute", "--input", SMARTPHONE, "--limit", "10"]) == 64
    capsys.readouterr()


def test_default_limit_refuses_25_players(tmp_path, capsys):
    nodes = [f"v{i:02d}" for i in range(25)]
    doc = {
        "nodes": nodes,
        "edges": [{"from": a, "to": b, "cost": 1.0} for a, b in zip(nodes, nodes[1:])],
        "model": {"type": "supply_cost_decay", "alpha": 0.1, "semantics": "containment"},
        "routes": [{"nodes": nodes[:3], "quantity": 3},
                   {"nodes": nodes[10:14], "quantity": 5}],
        "domain": "approx",
    }
    path = tmp_path / "path25.json"
    path.write_text(json.dumps(doc))
    for argv in (["compute", "--method", "edge_shapley"], ["axioms"]):
        assert main(argv + ["--input", str(path)]) == 64
        assert "enumeration limit 24" in capsys.readouterr().err
    for argv in (["--method", "closed_form"], ["--method", "sampled", "--samples", "10"]):
        assert main(["compute", "--input", str(path)] + argv) == 0
        capsys.readouterr()


def _path_supply_scenario(tmp_path, n: int) -> str:
    nodes = [f"v{i:02d}" for i in range(n)]
    doc = {
        "nodes": nodes,
        "edges": [{"from": a, "to": b, "cost": 1.0} for a, b in zip(nodes, nodes[1:])],
        "model": {"type": "supply_cost_decay", "alpha": 0.1, "semantics": "containment"},
        "routes": [{"nodes": nodes[:3], "quantity": 3}],
        "domain": "approx",
    }
    path = tmp_path / f"path{n}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_raised_limit_refused_before_allocating(tmp_path, capsys):
    # 63 players do not fit the int64 coalition table; 40 players would need
    # thousands of GiB. Both are refused before any 2^n array exists.
    for n, message in ((63, "62-player bound"), (40, "GiB, more than the")):
        path = _path_supply_scenario(tmp_path, n)
        for argv in (["compute", "--method", "edge_shapley"], ["axioms"]):
            assert main(argv + ["--input", path, "--limit", str(n)]) == 64
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_exits_64(samples, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", H, "--method", "sampled", "--samples", samples])
    assert exc.value.code == 64
    assert "--samples: must be a positive integer" in capsys.readouterr().err


def test_negative_seed_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", CHAIN, "--method", "sampled", "--seed", "-1"])
    assert exc.value.code == 64
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


def _k12_route_scenario(tmp_path, semantics="containment", domain="approx") -> str:
    """Supply (approx) or contract (exact) scenario on K12: 66 edges in
    lexicographic order, so the route on v09, v10, v11 uses only edges 63,
    64 and 65."""
    nodes = [f"v{i:02d}" for i in range(12)]
    if domain == "approx":
        model = {"type": "supply_cost_decay", "alpha": 0.1, "semantics": semantics}
    else:
        model = {"type": "contract", "semantics": semantics}
    doc = {
        "nodes": nodes,
        "edges": [{"from": a, "to": b, "cost": 1.0}
                  for i, a in enumerate(nodes) for b in nodes[i + 1:]],
        "model": model,
        "routes": [{"nodes": nodes[:2], "quantity": 3},
                   {"nodes": nodes[-3:], "quantity": 5}],
        "domain": domain,
    }
    path = tmp_path / f"k12-{semantics}-{domain}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("domain", ["approx", "exact"])
def test_strict_equality_routes_beyond_63_edges(tmp_path, capsys, domain):
    # strict equality declares count rows, read on node masks, so 66 edges
    # run every method; the reference evaluates the lift once per coalition
    path = _k12_route_scenario(tmp_path, "strict-equality", domain)
    eg = load_scenario(path).edge_game()
    exact = domain == "exact"

    def per_coalition(game):
        return NodeCharacteristic(game.graph.n, lift(game), exact=exact)

    def allocation(doc):
        return [row["exact" if exact else "decimal"] for row in doc["allocations"]]

    def text(values):
        return [str(x) if exact else float(x) for x in values]

    want = shapley_exact(per_coalition(eg)).values
    assert edge_shapley(eg).values == want
    code, out = run(capsys, "compute", "--input", path, "--format", "json")
    assert code == 0 and allocation(json.loads(out)) == text(want)
    sampled = shapley_sampled(per_coalition(eg), 10, 42).values
    assert shapley_sampled(lift(eg), 10, 42).values == sampled
    code, out = run(capsys, "compute", "--input", path, "--method", "sampled",
                    "--samples", "10", "--format", "json")
    assert code == 0 and allocation(json.loads(out)) == text(sampled)
    deleted = shapley_exact(per_coalition(delete_edge(eg, ("v09", "v10")))).values
    code, out = run(capsys, "whatif", "--input", path, "--remove-edge", "v09", "v10",
                    "--format", "json")
    assert code == 0 and allocation(json.loads(out)["modified"]) == text(deleted)


def test_containment_routes_beyond_63_edges(tmp_path, capsys):
    path = _k12_route_scenario(tmp_path)
    s = load_scenario(path)
    expected = route_closed_form(s.graph, s.routes, CostDecayParams(0.1))
    alloc = edge_shapley(s.edge_game())
    assert all(abs(a - b) <= 1e-9 for a, b in zip(alloc.values, expected.values))
    contract = load_scenario(_k12_route_scenario(tmp_path, domain="exact"))
    assert edge_shapley(contract.edge_game()).values == route_closed_form(
        contract.graph, contract.routes).values
    for method in ("edge_shapley", "sampled"):
        code, out = run(capsys, "compute", "--input", path, "--method", method,
                        "--samples", "10", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["allocations"]) == 12


def test_closed_form_with_routes_beyond_edge_63(tmp_path, capsys):
    path = _k12_route_scenario(tmp_path)
    code, out = run(capsys, "compute", "--input", path, "--method", "closed_form",
                    "--format", "json")
    assert code == 0
    s = load_scenario(path)
    expected = route_closed_form(s.graph, s.routes, CostDecayParams(0.1))
    assert [row["decimal"] for row in json.loads(out)["allocations"]] == list(expected.values)


def run_module(*argv) -> subprocess.CompletedProcess:
    """``python -m edgeshapley`` in a child that imports the same package
    this test imported."""
    src = str(Path(edgeshapley.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "edgeshapley", *argv],
                          capture_output=True, text=True, env=env)


def test_usage_error_exits_64():
    assert run_module("compute", "--input", H, "--method", "bogus").returncode == 64


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ("compute", "--input", CHAIN, "--format", "json")
    child = run_module(*argv)
    code, out = run(capsys, *argv)
    assert code == 0
    assert (child.returncode, child.stdout, child.stderr) == (code, out, "")


def test_whatif_unknown_target_exits_65(capsys):
    assert main(["whatif", "--input", H, "--remove-node", "Z"]) == 65
    capsys.readouterr()
    assert main(["whatif", "--input", H, "--remove-edge", "A", "B"]) == 65
    capsys.readouterr()


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("edgeshapley: error: ")
    assert err.count("\n") == 1


def test_whatif_removing_the_only_node_exits_64(tmp_path, capsys):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({
        "nodes": ["U"],
        "edges": [],
        "model": {"type": "edge_count_power", "exponent": 1},
        "domain": "exact",
    }))
    assert main(["whatif", "--input", str(path), "--remove-node", "U"]) == 64
    assert_one_error_line(capsys)


@pytest.mark.parametrize("token", ["NaN", "1" + "0" * 400], ids=["NaN", "1e400-int"])
def test_scenario_number_no_float_holds_exits_65(tmp_path, capsys, token):
    path = tmp_path / "supply.json"
    path.write_text(
        '{"nodes": ["A", "B"], "edges": [{"from": "A", "to": "B"}], '
        '"model": {"type": "supply_cost_decay"}, '
        f'"routes": [{{"nodes": ["A", "B"], "quantity": {token}}}], "domain": "approx"}}'
    )
    assert main(["compute", "--input", str(path)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("edgeshapley: error: $.routes[0].quantity: ")
    assert err.count("\n") == 1


#: Two zero-cost routes of quantity 1e308: each fits a float, their sum does not.
OVERFLOW = (
    '{"nodes": ["A", "B", "C"], "edges": [{"from": "A", "to": "B", "cost": 0}, '
    '{"from": "B", "to": "C", "cost": 0}], "model": {"type": "supply_cost_decay"}, '
    '"routes": [{"nodes": ["A", "B"], "quantity": 1e308}, '
    '{"nodes": ["B", "C"], "quantity": 1e308}], "domain": "approx"}'
)


@pytest.mark.parametrize("argv", [
    *(["compute", "--method", method] for method in METHODS),
    ["axioms"],
    ["whatif", "--remove-edge", "A", "B"],
    ["whatif", "--remove-edge", "B", "C", "--method", "closed_form"],
], ids=lambda argv: "-".join(argv))
def test_approx_dividends_beyond_the_float_range_exit_65(tmp_path, capsys, argv):
    path = tmp_path / "overflow.json"
    path.write_text(OVERFLOW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        assert main([*argv, "--input", str(path), "--samples", "10"]) == 65
    err = capsys.readouterr().err
    assert err.startswith("edgeshapley: error: approx dividends sum beyond the float range")
    assert err.count("\n") == 1


def huge_routes(semantics, routes):
    """Supply scenario on the path A-B-C with zero-cost routes of quantity
    1e308, each a string of node labels."""
    return json.dumps({
        "nodes": ["A", "B", "C"],
        "edges": [{"from": "A", "to": "B", "cost": 0}, {"from": "B", "to": "C", "cost": 0}],
        "model": {"type": "supply_cost_decay", "semantics": semantics},
        "routes": [{"nodes": list(r), "quantity": 1e308} for r in routes],
        "domain": "approx",
    })


def test_sampled_marginals_beyond_the_float_range_exit_65(tmp_path, capsys):
    # one route of 1e308: every worth fits a float and edge_shapley gives
    # 5e307 to A and B, but a sampled sum of 1e308 marginals does not fit
    path = tmp_path / "huge.json"
    path.write_text(huge_routes("containment", ["AB"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        code, out = run(capsys, "compute", "--input", str(path), "--format", "json")
        assert code == 0
        assert [row["decimal"] for row in json.loads(out)["allocations"]] == [5e307, 5e307, 0.0]
        assert main(["compute", "--input", str(path), "--method", "sampled",
                     "--samples", "100"]) == 65
    err = capsys.readouterr().err
    assert err == ("edgeshapley: error: approx marginals of player 0 sum to inf over the "
                   "first 100 samples, beyond the float range\n")


@pytest.mark.parametrize("argv", [
    *(["compute", "--method", method] for method in METHODS if method != "closed_form"),
    ["axioms"],
    ["whatif", "--remove-edge", "A", "B"],
], ids=lambda argv: "-".join(argv))
def test_strict_equality_worth_beyond_the_float_range_exit_65(tmp_path, capsys, argv):
    # the grand coalition induces both edges, the edge set of the two A-B-C
    # routes, whose 1e308 sum no float holds
    path = tmp_path / "huge.json"
    path.write_text(huge_routes("strict-equality", ["AB", "BC", "ABC", "ABC"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--input", str(path), "--samples", "10"]) == 65
    err = capsys.readouterr().err
    assert err == ("edgeshapley: error: approx worth of coalition {A, B, C} is inf: "
                   "its count rows sum beyond the float range\n")


def test_strict_equality_finite_worths_of_huge_routes_exit_0(tmp_path, capsys):
    # A-B and B-C alone: no coalition induces the edge sets of both, so every
    # worth is finite (the grand coalition's is 0)
    path = tmp_path / "huge.json"
    path.write_text(huge_routes("strict-equality", ["AB", "BC"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["compute"], ["axioms"], ["whatif", "--remove-edge", "A", "B"]):
            assert main([*argv, "--input", str(path)]) == 0
    capsys.readouterr()


def test_whatif_closed_form_on_an_edge_deletion(capsys):
    # the deleted game carries the dividend rows the closed form reads
    modified = {}
    for method in ("closed_form", "edge_shapley"):
        code, out = run(capsys, "whatif", "--input", CHAIN, "--method", method,
                        "--remove-edge", "A", "C", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fairness"]["equal"] is True
        modified[method] = [row["decimal"] for row in doc["modified"]["allocations"]]
    assert modified["closed_form"] == pytest.approx(modified["edge_shapley"], rel=1e-9, abs=1e-9)


def test_directory_as_input_or_output_exits_65(tmp_path, capsys):
    assert main(["compute", "--input", str(tmp_path)]) == 65
    assert_one_error_line(capsys)
    assert main(["compute", "--input", H, "--output", str(tmp_path)]) == 65
    assert_one_error_line(capsys)


# ---------------------------------------------------------------------------
# whatif
# ---------------------------------------------------------------------------

def test_whatif_remove_edge_fairness(capsys):
    code, out = run(capsys, "whatif", "--input", H, "--remove-edge", "A", "D",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    d = doc["fairness"]
    assert d["edge"] == ["A", "D"]
    assert d["delta"][0] == d["delta"][1] == "5/3"
    assert d["equal"] is True
    deltas = {row["node"]: row for row in doc["deltas"]}
    assert deltas["A"]["delta"] == "-5/3"


def test_whatif_sampled_fairness_is_informational(capsys):
    # two Monte-Carlo deltas differ by sampling error; the sampled what-if
    # reports their gap and passes
    argv = ("whatif", "--input", SMARTPHONE, "--remove-edge", "S1", "M1",
            "--method", "sampled", "--samples", "5000")
    code, out = run(capsys, *argv)
    assert code == 0
    fairness = out.split("# fairness\n")[1]
    assert "gap" in fairness and "equal" not in fairness.lower()
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    d = json.loads(out)["fairness"]
    assert "equal" not in d
    assert d["delta"][0] != d["delta"][1]
    assert d["gap"] == d["delta"][0] - d["delta"][1]


@pytest.mark.parametrize("method", ["edge_shapley", "edge_shapley_pruned", "myerson", "shapley"])
def test_whatif_deterministic_method_fails_on_unequal_deltas(capsys, monkeypatch, method):
    # chain-suppliers without A-C keeps only the route B-C-D-E, which the
    # bug drops too: C loses its share of it and A does not
    drop_one_more_row(monkeypatch)
    code, out = run(capsys, "whatif", "--input", CHAIN, "--remove-edge", "A", "C",
                    "--method", method)
    assert code == 1
    assert "-> UNEQUAL" in out


def test_whatif_remove_node_deltas(capsys):
    code, out = run(capsys, "whatif", "--input", CHAIN, "--remove-node", "A",
                    "--method", "closed_form", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    deltas = {row["node"]: row for row in doc["deltas"]}
    assert deltas["A"]["removed"] is True
    assert deltas["A"]["after"] is None
    # closed-form before/after: C, D, E drop by their lost route shares,
    # B keeps its own route and loses only the grand-route share
    drop_cde = 8 * math.exp(-0.3) / 4 + 15 * math.exp(-0.4) / 5
    drop_b = 15 * math.exp(-0.4) / 5
    for node in ("C", "D", "E"):
        assert deltas[node]["delta"] == pytest.approx(-drop_cde, abs=1e-9)
    assert deltas["B"]["delta"] == pytest.approx(-drop_b, abs=1e-9)


def test_whatif_remove_node_absent_from_routes(capsys, tmp_path):
    doc = {
        "nodes": ["A", "B", "X"],
        "edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "X"}],
        "model": {"type": "supply_cost_decay", "alpha": 0.1},
        "routes": [{"nodes": ["A", "B"], "quantity": 5}],
        "domain": "approx",
    }
    p = tmp_path / "spare.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "whatif", "--input", str(p), "--remove-node", "X",
                    "--format", "json")
    assert code == 0
    rows = json.loads(out)["deltas"]
    for row in rows:
        if row["node"] != "X":
            assert row["delta"] == 0.0


def test_whatif_table_output(capsys):
    code, out = run(capsys, "whatif", "--input", H, "--remove-edge", "C", "E")
    assert code == 0
    assert "# fairness" in out
    assert "equal" in out


# ---------------------------------------------------------------------------
# exact values beyond the float range
# ---------------------------------------------------------------------------

BIG = 10**400


@pytest.fixture
def big_contract(tmp_path) -> str:
    """Path A-B-C with contract routes {A,B} (count 10^400) and {A,B,C} (3)."""
    path = tmp_path / "big-contract.json"
    path.write_text(json.dumps({
        "nodes": ["A", "B", "C"],
        "edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "C"}],
        "model": {"type": "contract"},
        "routes": [{"nodes": ["A", "B"], "quantity": BIG},
                   {"nodes": ["A", "B", "C"], "quantity": 3}],
        "domain": "exact",
    }))
    return str(path)


def strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("method", ["edge_shapley", "sampled", "closed_form"])
def test_compute_renders_values_beyond_the_float_range(capsys, big_contract, method):
    argv = ("compute", "--input", big_contract, "--method", method, "--samples", "1000")
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = strict_json(out)
    exact = {row["node"]: row["exact"] for row in doc["allocations"]}
    if method != "sampled":  # sampled estimates are exact fractions of their own
        want = edge_shapley(load_scenario(big_contract).edge_game())
        assert exact == {label: str(x) for label, x in want.as_dict().items()}
    assert sum(Fraction(x) for x in exact.values()) == BIG + 3
    # a float holds C's share but neither A's nor B's, nor the total
    decimal = [row["decimal"] for row in doc["allocations"]]
    assert decimal[:2] == [None, None] and isinstance(decimal[2], float)
    assert doc["total"] is None
    assert doc["checks"][0]["passed"] is True

    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == "node,value\n" + "".join(f"{k},{v}\n" for k, v in exact.items())

    code, out = run(capsys, *argv, "--format", "table")
    assert code == 0
    lines = out.splitlines()
    rows = lines[lines.index("") + 1:][1:4]
    assert [row.split()[:2] for row in rows] == [list(item) for item in exact.items()]
    assert [row.split()[2] for row in rows[:2]] == ["-", "-"]
    assert f"total: {BIG + 3}" in lines


def test_whatif_renders_values_beyond_the_float_range(capsys, big_contract):
    argv = ("whatif", "--input", big_contract, "--remove-edge", "B", "C")
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = strict_json(out)
    assert doc["fairness"] == {"edge": ["B", "C"], "delta": ["1", "1"], "equal": True}
    assert doc["baseline"]["total"] is None and doc["modified"]["total"] is None
    assert doc["modified"]["scenario"] == "big-contract minus edge B-C"
    assert doc["modified"]["checks"] == []
    rows = {row["node"]: (row["before"], row["after"], row["delta"]) for row in doc["deltas"]}
    half = BIG // 2
    assert rows == {"A": (str(half + 1), str(half), "-1"),
                    "B": (str(half + 1), str(half), "-1"),
                    "C": ("1", "0", "-1")}

    code, out = run(capsys, *argv)
    assert code == 0
    assert f"total: {BIG + 3}" in out and f"total: {BIG}" in out
    assert "endpoint deltas B: 1, C: 1 -> equal" in out


# ---------------------------------------------------------------------------
# exact values beyond the interpreter's 4300-digit int-to-str limit
# ---------------------------------------------------------------------------

SEVENS, NINES = "7" * 5001, "9" * 4300

#: Scenario text (the counts written as digits, since the json module would
#: refuse to write them), then the exact strings of the allocation and of
#: v(N). A count of 5001 digits on one edge, with an exact expected vector
#: of the same size; two legal 4300-digit counts on path A-B-C, whose v(N)
#: has 4301 digits.
HUGE_COUNTS = {
    "count-5001": (
        '{"nodes": ["A", "B"], "edges": [{"from": "A", "to": "B"}], '
        '"model": {"type": "contract"}, '
        f'"routes": [{{"nodes": ["A", "B"], "quantity": {SEVENS}}}], "domain": "exact", '
        f'"expected": {{"A": "{SEVENS}/2", "B": "{SEVENS}/2"}}}}',
        {"A": f"{SEVENS}/2", "B": f"{SEVENS}/2"},
        SEVENS,
    ),
    "path-4300": (
        '{"nodes": ["A", "B", "C"], '
        '"edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "C"}], '
        '"model": {"type": "contract"}, '
        f'"routes": [{{"nodes": ["A", "B"], "quantity": {NINES}}}, '
        f'{{"nodes": ["B", "C"], "quantity": {NINES}}}], "domain": "exact"}}',
        {"A": f"{NINES}/2", "B": NINES, "C": f"{NINES}/2"},
        "1" + "9" * 4299 + "8",
    ),
}


@pytest.mark.parametrize("name", HUGE_COUNTS)
def test_exact_values_beyond_the_digit_limit_parse_and_print(tmp_path, capsys, name):
    text, want, grand = HUGE_COUNTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    path = str(path)
    for method in ("edge_shapley", "shapley", "closed_form", "sampled"):
        argv = ("compute", "--input", path, "--method", method, "--samples", "100")
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = strict_json(out)
        assert doc["total"] is None
        code, csv_out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        code, table = run(capsys, *argv, "--format", "table")
        assert code == 0
        assert f"total: {grand}" in table.splitlines()
        if method == "sampled":  # estimates, exact fractions of their own
            continue
        assert {row["node"]: row["exact"] for row in doc["allocations"]} == want
        assert csv_out == "node,value\n" + "".join(f"{k},{v}\n" for k, v in want.items())
    code, _ = run(capsys, "compute", "--input", path, "--check-expected")
    assert code == 0
    for method in ("closed_form", "edge_shapley"):
        code, out = run(capsys, "whatif", "--input", path, "--method", method,
                        "--remove-edge", "A", "B", "--format", "json")
        assert code == 0
        assert strict_json(out)["fairness"]["equal"] is True
    code, out = run(capsys, "axioms", "--input", path)
    assert code == 0
    assert f"[pass] efficiency: sum {grand} vs v(N) {grand}" in out.splitlines()


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_axioms_h_reports_component_mismatch(capsys):
    code, out = run(capsys, "axioms", "--input", H)
    assert code == 0  # component efficiency is informational
    assert "allocation sum 3 vs worth 1" in out
    assert "[pass] efficiency" in out
    assert "[pass] fairness" in out


def test_axioms_additive_game_all_pass(capsys, tmp_path):
    doc = {
        "nodes": ["A", "B", "C", "D"],
        "edges": [{"from": "A", "to": "B"}, {"from": "C", "to": "D"}],
        "model": {"type": "edge_count_power", "exponent": 1},
        "domain": "exact",
    }
    p = tmp_path / "additive.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "axioms", "--input", str(p), "--format", "json")
    assert code == 0
    checks = {(c["name"], c["detail"]): c["passed"] for c in json.loads(out)["checks"]}
    assert all(checks.values())


def test_axioms_single_edge_symmetric_pair(capsys, tmp_path):
    doc = {
        "nodes": ["L", "R"],
        "edges": [{"from": "L", "to": "R"}],
        "model": {"type": "explicit_table",
                  "table": [{"edges": [["L", "R"]], "value": "5"}]},
        "domain": "exact",
    }
    p = tmp_path / "one-edge.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "axioms", "--input", str(p), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    symmetry = next(c for c in doc["checks"] if c["name"] == "symmetry")
    assert symmetry["passed"]
    assert "1 interchangeable pair" in symmetry["detail"]


@pytest.mark.parametrize("name", ["counterexample-H", "platform-dual", "chain-suppliers"])
def test_axioms_builds_and_reduces_the_base_table_once(capsys, monkeypatch, name):
    # one base table, reduced for every player, serves the allocation, the
    # symmetry and null-player views and the component check; each edge
    # deletion builds its own table and reduces the edge's two endpoints
    from edgeshapley import edgegame, games

    built, reduced = [], []
    table, reduce = games._table, games._reduce

    def count_reduce(*args, players=None, **kwargs):
        reduced.append(None if players is None else tuple(players))
        return reduce(*args, players=players, **kwargs)

    for module in (games, edgegame):
        monkeypatch.setattr(module, "_table",
                            lambda v, *args: built.append(v.n) or table(v, *args))
        monkeypatch.setattr(module, "_reduce", count_reduce)
    path = fixture_path(name)
    code, _ = run(capsys, "axioms", "--input", path, "--format", "json")
    assert code == 0
    g = load_scenario(path).graph
    assert len(built) == len(g.edges) + 1
    assert reduced == [None] + [(g.index(e.src), g.index(e.dst)) for e in g.edges]


def test_axioms_fails_on_a_planted_deletion_bug(capsys, monkeypatch):
    # the dropped row lies outside the coalitions holding both endpoints,
    # so only a table built whole from the deleted game shows it
    drop_one_more_row(monkeypatch)
    code, out = run(capsys, "axioms", "--input", CHAIN)
    assert code == 1
    assert "[FAIL] fairness" in out
    assert "unequal deltas on (A, C)" in out


def test_axioms_fails_on_swapped_endpoint_values(capsys, monkeypatch):
    # the deleted game's endpoint values handed back in the wrong order
    from edgeshapley import edgegame, games

    reduce = games._reduce

    def swapped(*args, players=None, **kwargs):
        out = reduce(*args, players=players, **kwargs)
        return out[::-1] if players is not None else out

    for module in (games, edgegame):
        monkeypatch.setattr(module, "_reduce", swapped)
    code, out = run(capsys, "axioms", "--input", CHAIN)
    assert code == 1
    assert "[FAIL] fairness" in out


def test_cli_imports_no_engine_private():
    # the CLI reaches the engines through their public names only, so no
    # table format or reduction detail leaks into it
    tree = ast.parse(Path(edgeshapley.cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "edgeshapley")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
