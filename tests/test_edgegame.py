import json
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from edgeshapley import edgegame, games
from edgeshapley import (
    CapacityError,
    CharacteristicContractError,
    CostDecayParams,
    EdgeCharacteristic,
    EdgeGame,
    EngineStats,
    Graph,
    GraphGame,
    NodeCharacteristic,
    Route,
    ZeroNormalizationError,
    audit,
    build_graph,
    component_efficiency_check,
    contract_weight_fn,
    delete_edge,
    edge_shapley,
    edge_shapley_pruned,
    fairness_delta,
    lift,
    load_fixture,
    myerson,
    myerson_bridge,
    neighborhood_restricted_allocation,
    power_weight_fn,
    remove_node,
    restricted_sum_report,
    route_closed_form,
    shapley_exact,
    shapley_restricted,
    shapley_sampled,
    supply_weight_fn,
)
from edgeshapley.cli import main
from edgeshapley.masks import all_masks

from conftest import (
    H_ALLOCATION,
    drop_one_more_row,
    random_connected_graph,
    random_graph,
    random_route_game,
    random_table_edge_game,
    random_zero_normalized_game,
)


# ---------------------------------------------------------------------------
# Lift
# ---------------------------------------------------------------------------

def test_lift_identities(h_game):
    g = h_game.graph
    v = lift(h_game)
    assert v(0) == 0
    for i in range(g.n):
        assert v(1 << i) == 0
    assert v(g.full_node_mask) == h_game.characteristic(g.full_edge_mask) == 9
    assert v(g.node_mask({"A", "B", "D"})) == 4


def test_lift_drops_exactly_incident_edges():
    """Removing a player from the grand coalition removes exactly its incident
    edges from the evaluated edge set."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 8)))
        eg = random_table_edge_game(rng, g)
        v = lift(eg)
        full = g.full_node_mask
        for i in range(g.n):
            assert g.induced_edge_mask(full & ~(1 << i)) == (
                g.full_edge_mask & ~g.incident_edge_mask(i)
            )
            assert v(full & ~(1 << i)) == eg.characteristic(
                g.full_edge_mask & ~g.incident_edge_mask(i)
            )


def test_lift_incident_worth_identity_for_additive_worth():
    """For additive worth (w = |F|), a player's last-in marginal equals the
    worth of its incident edges. (Not true for general w: on the squared
    game the H graph gives marginal 8 vs incident worth 4.)"""
    rng = np.random.default_rng(31)
    for _ in range(8):
        g = random_graph(rng, int(rng.integers(2, 8)))
        if not g.edges:
            continue
        eg = EdgeGame(g, power_weight_fn(g, 1))
        v = lift(eg)
        full = g.full_node_mask
        for i in range(g.n):
            incident_worth = eg.characteristic(g.incident_edge_mask(i))
            assert v(full) - v(full & ~(1 << i)) == incident_worth


def test_lift_incident_worth_identity_fails_for_squared_worth(h_game):
    g = h_game.graph
    v = lift(h_game)
    u = g.index("D")
    marginal = v(g.full_node_mask) - v(g.full_node_mask & ~(1 << u))
    incident_worth = h_game.characteristic(g.incident_edge_mask(u))
    assert marginal == 8
    assert incident_worth == 4


def test_edge_game_validation(h_graph):
    other = build_graph(["A", "B"], [("A", "B")])
    with pytest.raises(ValueError):
        EdgeGame(h_graph, power_weight_fn(other, 2))
    bad = EdgeCharacteristic(h_graph.edges, lambda m: 1)
    with pytest.raises(CharacteristicContractError):
        EdgeGame(h_graph, bad)


# ---------------------------------------------------------------------------
# Count rows: power games, explicit tables, strict-equality routes
# ---------------------------------------------------------------------------

def test_count_rows_add_in_row_order():
    # 0.3 + 0.2 + 0.2 + 0.1 and 0.3 + 0.1 + 0.2 + 0.2 differ in binary64:
    # the two equality rows on {A-B} (values 0 but at count 1) are added
    # between the count rows around them
    g = build_graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    rows = [(0, (0, 0.3, 0.3)), (0b01, (0, 0.2, 0)), (0b01, (0, 0.2, 0)), (0, (0, 0.1, 0.1))]

    def fn(edge_mask):
        return sum((vals[edge_mask.bit_count()] for em, vals in rows if edge_mask & em == em), 0)

    v = lift(EdgeGame(g, EdgeCharacteristic(g.edges, fn, exact=False, by_count=rows)))
    assert v(0b011) == 0.3 + 0.2 + 0.2 + 0.1 != 0.3 + 0.1 + 0.2 + 0.2
    scalar = NodeCharacteristic(g.n, v, exact=False)
    masks = np.arange(8, dtype=np.int64)
    assert v.evaluate_many(masks).tobytes() == scalar.evaluate_many(masks).tobytes()
    assert shapley_sampled(v, 50, 2).values == shapley_sampled(scalar, 50, 2).values


def test_table_declares_short_equality_rows(h_graph):
    # an entry on H declares the row on H whose values are 0 but for its
    # worth at |H|, and 0 above; an entry on edges outside the universe
    # equals no edge set and declares none
    w = EdgeCharacteristic.from_table(h_graph.edges, {0b011: 4, 0b1: -2, 0b1000: 9})
    assert w.by_count == ((0b011, (0, 0, 4, 0)), (0b1, (0, -2, 0)))
    with pytest.raises(CharacteristicContractError, match="table assigns 2 to the empty edge set"):
        EdgeCharacteristic.from_table(h_graph.edges, {0: 2, 0b1: 3})


def test_short_count_rows_repeat_their_last_value():
    # (0, 1) on mask 0 is |F| > 0, (5,) on {A-B} the dividend 5, mixed with
    # a count row: the worth is read by count, a short row's last value
    # standing for every larger count, as in the scalar worth
    g = build_graph(["A", "B", "C", "D"], [("A", "B"), ("B", "C"), ("C", "D")])
    rows = ((0, (0, 1)), (0b001, (5,)), (0b110, (0, 0, 3, 4)))

    def fn(edge_mask):
        c = edge_mask.bit_count()
        return sum((vals[min(c, len(vals) - 1)] for em, vals in rows if edge_mask & em == em), 0)

    v = lift(EdgeGame(g, EdgeCharacteristic(g.edges, fn, by_count=rows)))
    assert v.dividends is None
    masks = all_masks(g.n)
    assert v.evaluate_many(masks).tolist() == [v(m) for m in range(1 << g.n)]
    assert v(0b0011) == 6 and v(0b1111) == 1 + 5 + 4


def test_table_entry_of_negative_zero_reads_zero():
    # the count rows add a table's worths onto 0, where -0.0 reads 0.0, and
    # the table's own worth agrees, so the batch and scalar paths give the
    # same bits
    g = build_graph(["L", "R"], [("L", "R")])
    w = EdgeCharacteristic.from_table(g.edges, {0b1: -0.0}, exact=False)
    assert str(w(0b1)) == "0.0"
    v = lift(EdgeGame(g, w))
    masks = np.arange(4, dtype=np.int64)
    scalar = NodeCharacteristic(g.n, v, exact=False)
    assert v.evaluate_many(masks).tobytes() == scalar.evaluate_many(masks).tobytes()


@pytest.mark.parametrize("k", [2, 3, 11])
def test_power_game_beyond_63_edges_equals_per_coalition_evaluation(k):
    # K12 has 66 edges; 66^11 >= 2^62, so k = 11 takes the Python-int count
    # table; the reference evaluates the lift once per coalition
    labels = [f"v{i:02d}" for i in range(12)]
    g = build_graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])
    v = lift(EdgeGame(g, power_weight_fn(g, k)))
    assert v.has_vector_path
    scalar = NodeCharacteristic(g.n, v, exact=True)
    assert shapley_exact(v).values == shapley_exact(scalar).values
    assert shapley_sampled(v, 50, 3).values == shapley_sampled(scalar, 50, 3).values


def test_power_games_build_no_edge_masks(h_game, monkeypatch, capsys, tmp_path):
    # power, explicit-table and strict-equality route games all declare count
    # rows: no engine, sampler or CLI command builds edge masks for them
    def refuse(self, node_masks):
        raise AssertionError("a scenario model built induced edge masks")

    monkeypatch.setattr(Graph, "induced_edge_masks", refuse)
    g = h_game.graph
    assert edge_shapley(h_game).values == H_ALLOCATION
    assert edge_shapley_pruned(h_game).values == H_ALLOCATION
    assert shapley_exact(lift(h_game)).values == H_ALLOCATION
    routes = [Route(["A", "D"], 3), Route(["A", "B", "D"], 5), Route(["C", "E"], 2)]
    strict = "strict-equality"
    members = [g.adjacency_mask(i) for i in range(g.n)]
    for eg in (
        h_game,
        EdgeGame(g, EdgeCharacteristic.from_table(g.edges, {0b011: 4, 0b100: Fraction(1, 3)})),
        EdgeGame(g, contract_weight_fn(g, routes, strict)),
        EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.1, strict))),
    ):
        # the reference evaluates the lift once per coalition, on scalar masks
        v = lift(eg)
        scalar = NodeCharacteristic(g.n, v, exact=v.exact)
        assert edge_shapley(eg).values == shapley_exact(scalar).values
        assert edge_shapley_pruned(eg).values == shapley_restricted(scalar, members).values
        assert myerson(GraphGame(g, v)) == myerson(GraphGame(g, scalar))
        assert shapley_sampled(v, 100, 1).values == shapley_sampled(scalar, 100, 1).values
        assert audit(eg).checks[0].passed
        fairness_delta(eg, ("A", "D"))
    h = str(resources.files("edgeshapley") / "fixtures" / "counterexample-H.json")
    chain = json.loads(resources.files("edgeshapley").joinpath(
        "fixtures", "chain-suppliers.json").read_text(encoding="utf-8"))
    chain["model"]["semantics"] = strict
    strict_chain = tmp_path / "chain-strict.json"
    strict_chain.write_text(json.dumps(chain))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({
        "nodes": ["A", "B", "C"], "edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "C"}],
        "model": {"type": "explicit_table", "table": [
            {"edges": [["A", "B"]], "value": "2"}, {"edges": [["A", "B"], ["B", "C"]], "value": "7"}]},
        "domain": "exact",
    }))
    for path, edge in ((h, ("A", "D")), (str(strict_chain), ("A", "C")), (str(table), ("A", "B"))):
        for method in ("edge_shapley", "sampled"):
            assert main(["whatif", "--input", path, "--method", method, "--remove-edge", *edge,
                         "--samples", "100"]) == 0
        assert main(["axioms", "--input", path]) in (0, 1)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# The allocation and its pruned twin
# ---------------------------------------------------------------------------

def test_h_game_allocation(h_game):
    alloc = edge_shapley(h_game)
    assert alloc.values == H_ALLOCATION
    assert alloc.total() == 9


def test_two_node_single_edge_splits_evenly():
    g = build_graph(["L", "R"], [("L", "R")])
    w = EdgeCharacteristic.from_table(g.edges, {0b1: Fraction(7, 2)})
    alloc = edge_shapley(EdgeGame(g, w))
    assert alloc.values == (Fraction(7, 4), Fraction(7, 4))


def test_pruned_equals_full_on_h(h_game):
    assert edge_shapley_pruned(h_game).values == edge_shapley(h_game).values


def test_pruned_equals_full_random_tables():
    rng = np.random.default_rng(22)
    for _ in range(15):
        g = random_graph(rng, 6)
        eg = random_table_edge_game(rng, g)
        assert edge_shapley_pruned(eg).values == edge_shapley(eg).values


def _engine_counters(eg):
    """Run the full and pruned engines and check their work counters: the
    table is always full, and the pruned sum for player i drops exactly the
    2^(n-1-deg i) coalitions built from non-neighbours only."""
    g = eg.graph
    half = 1 << (g.n - 1)
    full_stats, pruned_stats = EngineStats(), EngineStats()
    full = edge_shapley(eg, stats=full_stats)
    pruned = edge_shapley_pruned(eg, stats=pruned_stats)
    assert full_stats.evaluations == pruned_stats.evaluations == 1 << g.n
    assert full_stats.marginals == g.n * half
    assert pruned_stats.marginals == sum(
        half - (half >> g.adjacency_mask(i).bit_count()) for i in range(g.n)
    )
    return full, pruned, pruned_stats


def test_pruned_skips_marginals_and_isolated_nodes():
    g = build_graph(["A", "B", "C"], [("A", "B")])
    for exact in (True, False):
        eg = EdgeGame(g, EdgeCharacteristic.from_table(g.edges, {0b1: 6}, exact=exact))
        full, pruned, pruned_stats = _engine_counters(eg)
        assert full.values == pruned.values == (3, 3, 0)
        # A and B each see only {B}/{A} and {B,C}/{A,C}; C sees nothing at all
        assert pruned_stats.marginals == 4

    rng = np.random.default_rng(139)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 9)))
        full, pruned, _ = _engine_counters(random_table_edge_game(rng, g))
        assert full.values == pruned.values
        g, routes, decay = random_route_game(rng, int(rng.integers(2, 9)))
        full, pruned, _ = _engine_counters(EdgeGame(g, supply_weight_fn(g, routes, decay)))
        assert pruned.values == pytest.approx(full.values, rel=1e-9, abs=1e-9)


def test_isolated_node_gets_zero():
    rng = np.random.default_rng(23)
    g = build_graph(["A", "B", "C", "X"], [("A", "B"), ("B", "C")])
    eg = random_table_edge_game(rng, g)
    alloc = edge_shapley(eg)
    assert alloc["X"] == 0


def test_efficiency_of_edge_shapley():
    rng = np.random.default_rng(24)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 8)))
        eg = random_table_edge_game(rng, g)
        assert edge_shapley(eg).total() == eg.total_worth


# ---------------------------------------------------------------------------
# Restricted-sum diagnostic
# ---------------------------------------------------------------------------

def test_restricted_sum_disagrees_on_h(h_game):
    report = restricted_sum_report(h_game)
    by_node = {e.node: e for e in report.entries}
    assert by_node["C"].restricted == Fraction(1, 20)
    assert by_node["C"].full == Fraction(3, 2)
    assert not report.all_agree



def test_restricted_sum_approx_equals_exact_on_whole_worths():
    # worths that binary64 holds: the float branch sums float weights times
    # float marginals, close to the exact branch's rationals
    g = build_graph(["A", "B", "C", "D"], [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
    table = {0b0011: 4, 0b0110: 7, 0b1111: 12, 0b1000: 1}
    exact = EdgeGame(g, EdgeCharacteristic.from_table(g.edges, table))
    approx = EdgeGame(g, EdgeCharacteristic.from_table(
        g.edges, {em: float(val) for em, val in table.items()}, exact=False))
    want = neighborhood_restricted_allocation(exact)
    got = neighborhood_restricted_allocation(approx)
    assert not got.exact and all(type(x) is float for x in got)
    assert got.values == pytest.approx([float(x) for x in want], rel=1e-12)
    report = restricted_sum_report(approx)
    assert [e.restricted for e in report.entries] == list(got.values)


def test_restricted_sum_on_a_path_and_a_single_edge():
    sixth, half = Fraction(1, 6), Fraction(1, 2)
    path = build_graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    game = EdgeGame(path, power_weight_fn(path, 1))  # worth |F|
    assert neighborhood_restricted_allocation(game).values == (sixth, 1, sixth)
    report = restricted_sum_report(game)
    assert [e.node for e in report.entries] == ["A", "B", "C"]
    assert [e.restricted for e in report.entries] == [sixth, 1, sixth]
    assert [e.full for e in report.entries] == [half, 1, half]
    assert [e.agrees for e in report.entries] == [False, True, False]
    assert not report.all_agree

    edge = build_graph(["A", "B"], [("A", "B")])
    report = restricted_sum_report(EdgeGame(edge, power_weight_fn(edge, 1)))
    assert [(e.restricted, e.full) for e in report.entries] == [(half, half)] * 2
    assert report.all_agree

# ---------------------------------------------------------------------------
# Myerson bridge
# ---------------------------------------------------------------------------

def test_bridge_single_edge_line():
    g = build_graph(["1", "2", "3"], [("1", "2")])
    v = NodeCharacteristic(3, lambda m: 1 if m.bit_count() >= 2 else 0)
    gg = GraphGame(g, v)
    bridged = edge_shapley(myerson_bridge(gg))
    assert bridged.values == (Fraction(1, 2), Fraction(1, 2), 0)
    assert bridged.values == myerson(gg).values


def test_bridge_complete_graph_reduces_to_plain_shapley():
    rng = np.random.default_rng(25)
    labels = ["x", "y", "z"]
    g = build_graph(labels, [("x", "y"), ("x", "z"), ("y", "z")])
    v = random_zero_normalized_game(rng, 3)
    gg = GraphGame(g, v)
    assert edge_shapley(myerson_bridge(gg)).values == shapley_exact(v).values


def test_bridge_matches_myerson_on_random_graphs():
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        g = random_connected_graph(rng, n)
        gg = GraphGame(g, random_zero_normalized_game(rng, n))
        assert edge_shapley(myerson_bridge(gg)).values == myerson(gg).values


def test_bridge_requires_zero_normalized_game():
    g = build_graph(["a", "b"], [("a", "b")])
    v = NodeCharacteristic(2, lambda m: m.bit_count())
    with pytest.raises(ZeroNormalizationError) as exc:
        myerson_bridge(GraphGame(g, v))
    assert "a" in str(exc.value)


# ---------------------------------------------------------------------------
# Edge deletion and fairness
# ---------------------------------------------------------------------------

def test_delete_edge_h_game(h_game):
    smaller = delete_edge(h_game, ("C", "E"))
    assert len(smaller.graph.edges) == 2
    assert lift(smaller)(smaller.graph.full_node_mask) == 4


def test_exact_worth_keeps_its_vector_path(h_game):
    # an exact worth's fn_many is what fills the table, in the base game and
    # in an edge-deleted one, and it gives the scalar path's values
    w = h_game.characteristic
    batches = []

    def many(edge_masks):
        batches.append(edge_masks.size)
        return np.array([w(m) for m in edge_masks.tolist()], dtype=object)

    vector = EdgeGame(h_game.graph, EdgeCharacteristic(w.edges, w, exact=True, fn_many=many))
    assert vector.characteristic.has_vector_path
    assert edge_shapley(vector).values == edge_shapley(h_game).values == H_ALLOCATION
    assert batches == [32]
    deleted = edge_shapley(delete_edge(vector, ("C", "E")))
    assert deleted.values == edge_shapley(delete_edge(h_game, ("C", "E"))).values
    assert batches == [32, 32]


def test_delete_only_edge_zeroes_everything():
    g = build_graph(["L", "R"], [("L", "R")])
    eg = EdgeGame(g, EdgeCharacteristic.from_table(g.edges, {0b1: 5}))
    emptied = delete_edge(eg, ("L", "R"))
    assert edge_shapley(emptied).values == (0, 0)


def test_delete_edge_restriction_consistency():
    """Lifting after deletion must equal evaluating the old worth on the
    induced edges minus the deleted one, for every coalition."""
    rng = np.random.default_rng(27)
    for _ in range(10):
        g = random_graph(rng, 6, p=0.5)
        if not g.edges:
            continue
        eg = random_table_edge_game(rng, g)
        j = int(rng.integers(0, len(g.edges)))
        e = g.edges[j]
        smaller = delete_edge(eg, e)
        lifted = lift(smaller)
        for mask in range(1 << g.n):
            expect = eg.characteristic(g.induced_edge_mask(mask) & ~(1 << j))
            assert lifted(mask) == expect


def test_delete_incident_edges_matches_node_removal():
    """Cutting every edge into a node is the same economics as removing the
    node from the scenario: survivors keep identical allocations."""
    scenario = load_fixture("chain-suppliers")
    eg = scenario.edge_game()
    cut = delete_edge(eg, ("A", "C"))  # A's only edge
    cut_alloc = edge_shapley(cut)
    removed = remove_node(scenario, "A")
    removed_alloc = edge_shapley(removed.edge_game())
    assert cut_alloc["A"] == 0
    for label in removed.graph.nodes:
        assert cut_alloc[label] == pytest.approx(removed_alloc[label], abs=1e-12)


def test_fairness_on_h(h_game):
    d_a, d_d = fairness_delta(h_game, ("A", "D"))
    assert d_a == d_d


def test_fairness_single_edge_game():
    g = build_graph(["L", "R"], [("L", "R")])
    eg = EdgeGame(g, EdgeCharacteristic.from_table(g.edges, {0b1: 5}))
    assert fairness_delta(eg, ("L", "R")) == (Fraction(5, 2), Fraction(5, 2))


def test_fairness_random_games():
    rng = np.random.default_rng(28)
    done = 0
    while done < 8:
        g = random_graph(rng, 6)
        if not g.edges:
            continue
        eg = random_table_edge_game(rng, g)
        for e in g.edges:
            d_i, d_j = fairness_delta(eg, e)
            assert d_i == d_j
        done += 1


# ---------------------------------------------------------------------------
# Component efficiency
# ---------------------------------------------------------------------------

def test_component_report_flags_h_mismatch(h_game):
    report = component_efficiency_check(h_game)
    by_nodes = {frozenset(c.nodes): c for c in report.components}
    small = by_nodes[frozenset({"C", "E"})]
    assert small.allocation_sum == 3
    assert small.worth == 1
    assert not small.matches
    assert not report.additive_hypothesis


def test_component_report_additive_worth_matches_everywhere():
    rng = np.random.default_rng(29)
    for _ in range(8):
        g = random_graph(rng, 5, p=0.4)
        if not g.edges:
            continue
        eg = EdgeGame(g, power_weight_fn(g, 1))  # additive: worth = |F|
        report = component_efficiency_check(eg)
        assert report.additive_hypothesis
        assert report.all_match


def test_additivity_hypothesis_exhaustive_above_ten_players():
    # 11 players: {v0, v1} and {v2, v3} are separated, each worth 0, while
    # their union is worth 1; a seeded sample of coalition pairs misses it
    labels = [f"v{i}" for i in range(11)]
    edges = [("v0", "v1"), ("v2", "v3")] + [("v0", f"v{k}") for k in range(4, 11)]
    g = build_graph(labels, edges)
    eg = EdgeGame(g, EdgeCharacteristic.from_table(g.edges, {0b11: 1}))
    report = component_efficiency_check(eg)
    assert not report.additive_hypothesis
    assert report.hypothesis_witness == (("v0", "v1"), ("v2", "v3"))


def test_myerson_and_component_check_refused_before_allocating(monkeypatch):
    def no_table(*args):
        raise AssertionError("no coalition table may be built")

    monkeypatch.setattr(games, "all_masks", no_table)
    for module in (games, edgegame):
        monkeypatch.setattr(module, "_component_table", no_table)
    # the audit and fairness deltas build no per-n reduction tables either
    monkeypatch.setattr(edgegame, "_ReduceTables", no_table)
    labels = [f"v{i}" for i in range(30)]
    g = build_graph(labels, list(zip(labels, labels[1:])))
    eg = EdgeGame(g, power_weight_fn(g, 2))
    engines = (
        lambda **kw: myerson(GraphGame(g, lift(eg)), **kw),
        lambda **kw: component_efficiency_check(eg, **kw),
        lambda **kw: audit(eg, **kw),
        lambda **kw: fairness_delta(eg, ("v0", "v1"), **kw),
    )
    for engine in engines:
        with pytest.raises(CapacityError, match="enumeration limit 24"):
            engine()
    monkeypatch.setattr(games, "_physical_memory", lambda: 1 << 30)
    for engine in engines:
        with pytest.raises(CapacityError, match="GiB"):
            engine(limit=None)


# ---------------------------------------------------------------------------
# The axiom audit
# ---------------------------------------------------------------------------

def test_audit_reports_the_h_component_mismatch_and_witness(h_game):
    report = audit(h_game)
    assert [(c.name, c.passed) for c in report] == [
        ("efficiency", True),
        ("symmetry", True),
        ("null-player", True),
        ("fairness", True),
        ("component-efficiency", False),
        ("component-efficiency", False),
        ("component-additivity-hypothesis", False),
    ]
    details = [c.detail for c in report]
    assert details[3] == "3 edge deletion(s)"
    assert details[5] == "{C, E}: allocation sum 3 vs worth 1"
    assert details[6] == "failed on (('A', 'D'), ('C', 'E'))"


def test_audit_fails_fairness_on_a_planted_deletion_bug(monkeypatch):
    # the dropped row lies outside the coalitions holding both endpoints,
    # so only a table built whole from the deleted game shows it
    drop_one_more_row(monkeypatch)
    report = audit(load_fixture("chain-suppliers").edge_game())
    fairness = next(c for c in report if c.name == "fairness")
    assert not fairness.passed
    assert fairness.detail.startswith("4 edge deletion(s); unequal deltas on (A, C): ")
    assert [c.passed for c in report if c.name != "fairness"] == [True] * 5


@pytest.mark.parametrize("worth", [lambda m: Fraction(m, 7), lambda m: 1000 * m],
                         ids=["fractions", "ints-above-256"])
def test_myerson_and_component_check_stay_within_the_coalition_budget(worth):
    # the capacity check admits 2^n * games._COALITION_BYTES; exact worths
    # become int64 numerators in the table build, so neither the Myerson
    # fold nor the component split holds one object per coalition
    import tracemalloc

    n = 16
    labels = [f"v{i}" for i in range(n)]
    g = build_graph(labels, list(zip(labels, labels[1:])))
    eg = EdgeGame(g, EdgeCharacteristic(g.edges, worth))
    for run in (lambda: myerson(GraphGame(g, lift(eg))),
                lambda: component_efficiency_check(eg)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= games._COALITION_BYTES << n


def test_myerson_refuses_an_ungrounded_game():
    g = build_graph(["a", "b"], [("a", "b")])
    v = NodeCharacteristic(2, lambda m: 1 if m == 0 else 2 * m.bit_count())
    with pytest.raises(CharacteristicContractError, match="v\\(empty\\) = 0"):
        myerson(GraphGame(g, v))


def test_component_report_connected_graph_single_component():
    rng = np.random.default_rng(30)
    g = random_connected_graph(rng, 6)
    eg = random_table_edge_game(rng, g)
    report = component_efficiency_check(eg)
    assert len(report.components) == 1
    assert report.components[0].matches  # equals plain efficiency


# ---------------------------------------------------------------------------
# Supply model sanity via the engine
# ---------------------------------------------------------------------------

def test_supply_game_engine_matches_closed_form_small():
    scenario = load_fixture("chain-suppliers")
    eg = scenario.edge_game()
    engine = edge_shapley(eg)
    closed = route_closed_form(scenario.graph, scenario.routes, CostDecayParams(0.1))
    for label in scenario.graph.nodes:
        assert engine[label] == pytest.approx(closed[label], abs=1e-12)
