"""Property tests: on random graphs with random edge and node tables, the
engines agree with the permutation brute force, with scalar definitions
written here, and with each other."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeshapley import (
    CostDecayParams,
    Edge,
    EdgeCharacteristic,
    EdgeGame,
    Graph,
    GraphGame,
    NodeCharacteristic,
    Route,
    component_efficiency_check,
    contract_weight_fn,
    delete_edge,
    edge_shapley,
    edge_shapley_pruned,
    fairness_delta,
    lift,
    myerson,
    myerson_bridge,
    power_weight_fn,
    route_closed_form,
    shapley_dividends,
    shapley_exact,
    shapley_sampled,
    supply_weight_fn,
    values_close,
)
from edgeshapley.games import _dividend_worths, _reduce, _ReduceTables, _table
from edgeshapley.masks import all_masks

from conftest import permutation_shapley

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


#: Rationals with non-unit denominators.
FRACTIONS = st.builds(Fraction, st.integers(-50, 50), st.integers(2, 12))

#: Integers beyond +-2^62, past the int64 bound of the exact reduction.
HUGE = st.builds(lambda sign, x: sign * x, st.sampled_from((-1, 1)),
                 st.integers(1 << 62, 1 << 80))


#: Floats, often ones whose binary64 sums depend on the order of addition.
FLOATS = st.one_of(st.sampled_from([0.1, 0.2, 0.3]), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def graphs(draw, min_nodes=1, max_edges=9, max_nodes=7):
    """A random graph on ``min_nodes`` to ``max_nodes`` nodes and at most
    ``max_edges`` edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    labels = [f"n{i}" for i in range(n)]
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)) if pairs else []
    return Graph(labels, [Edge(labels[i], labels[j]) for i, j in sorted(chosen)])


@st.composite
def table_edge_games(draw, values=st.integers(-5, 9), exact=True):
    """A random graph and a sparse random table of ``values`` over its edge
    subsets (missing subsets are worth 0), in the domain ``exact`` names."""
    g = draw(graphs())
    m = len(g.edges)
    table = {}
    if m:
        table = draw(st.dictionaries(st.integers(1, (1 << m) - 1), values, max_size=3 * m))
    return EdgeGame(g, EdgeCharacteristic.from_table(g.edges, table, exact=exact))


@PROPERTY_SETTINGS
@given(table_edge_games())
def test_edge_shapley_equals_permutation_oracle(eg):
    assert list(edge_shapley(eg).values) == permutation_shapley(lift(eg))


@PROPERTY_SETTINGS
@given(table_edge_games())
def test_fairness_deltas_equal(eg):
    for edge in eg.graph.edges:
        d_src, d_dst = fairness_delta(eg, edge)
        assert d_src == d_dst


@PROPERTY_SETTINGS
@given(st.one_of(table_edge_games(), table_edge_games(values=FRACTIONS),
                 table_edge_games(values=FLOATS, exact=False)))
def test_fairness_delta_equals_edge_shapley_differences(eg):
    # the endpoint-only reductions against two whole allocations: equal
    # (exact) or bit-identical (approx) deltas
    before = edge_shapley(eg)
    for edge in eg.graph.edges:
        after = edge_shapley(delete_edge(eg, edge))
        want = (before[edge.src] - after[edge.src], before[edge.dst] - after[edge.dst])
        got = fairness_delta(eg, edge)
        assert [(type(x), x) for x in got] == [(type(x), x) for x in want]


@st.composite
def reduction_inputs(draw):
    """An n-player coalition table with v(empty) = 0 in one of the forms
    ``_table`` hands out (float64; int64 numerators below the 2^(61-n)
    bound; int64 numerators beyond it, which the reduction sums as Python
    ints; Python-int numerators beyond int64), its denominator, the domain,
    optional member masks and an ordered subset of the players."""
    n = draw(st.integers(1, 7))
    form = draw(st.sampled_from(["float64", "int64", "int64-beyond", "object"]))
    if form == "float64":
        values = FLOATS
    elif form == "int64":
        bound = 1 << (61 - n)
        values = st.integers(-bound + 1, bound - 1)
    elif form == "int64-beyond":
        values = st.integers(-(1 << 62), 1 << 62)
    else:
        values = HUGE
    worths = [0] + draw(st.lists(values, min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    if form == "float64":
        table, denom = np.array(worths, dtype=np.float64), 1
    else:
        table = np.array(worths, dtype=object if form == "object" else np.int64)
        denom = draw(st.integers(1, 12))
    members = draw(st.one_of(st.none(), st.lists(st.integers(0, (1 << n) - 1),
                                                 min_size=n, max_size=n)))
    players = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return table, denom, n, form != "float64", members, players


def same_values(got, want):
    """Equal values of equal types, floats compared by their bits."""
    if all(type(x) is float for x in want):
        return np.array(got).tobytes() == np.array(want).tobytes()
    return [(type(x), x) for x in got] == [(type(x), x) for x in want]


@settings(derandomize=True, deadline=None, max_examples=120)
@given(reduction_inputs())
def test_player_subset_reduction_equals_full_reduction(inputs):
    table, denom, n, exact, members, players = inputs
    full = _reduce(table, denom, n, members, None, exact)
    want = [full[i] for i in players]
    assert same_values(_reduce(table, denom, n, members, None, exact, players=players), want)
    # per-n tables shared between a full and a subset reduction
    tables = _ReduceTables(n, exact)
    assert same_values(_reduce(table, denom, n, members, None, exact, tables=tables), full)
    got = _reduce(table, denom, n, members, None, exact, players=players, tables=tables)
    assert same_values(got, want)


@PROPERTY_SETTINGS
@given(table_edge_games())
def test_pruned_equals_full(eg):
    assert edge_shapley_pruned(eg).values == edge_shapley(eg).values


def _assert_exact_oracle(eg):
    alloc = edge_shapley(eg)
    assert list(alloc.values) == permutation_shapley(lift(eg))
    assert alloc.total() == eg.total_worth


@PROPERTY_SETTINGS
@given(table_edge_games(values=FRACTIONS))
def test_exact_reduction_on_fractions(eg):
    _assert_exact_oracle(eg)


@PROPERTY_SETTINGS
@given(table_edge_games(values=HUGE))
def test_exact_reduction_beyond_int64(eg):
    _assert_exact_oracle(eg)


@PROPERTY_SETTINGS
@given(st.one_of(table_edge_games(), table_edge_games(values=FRACTIONS),
                 table_edge_games(values=HUGE), table_edge_games(values=FLOATS, exact=False)))
def test_batch_table_equals_scalar_table(eg):
    v = lift(eg)
    assert v.has_vector_path
    masks = all_masks(v.n)
    batch = v.evaluate_many(masks)
    scalar = NodeCharacteristic(v.n, v, exact=v.exact).evaluate_many(masks)
    assert scalar.dtype == (object if v.exact else np.float64)
    assert batch.dtype == count_dtype(eg.characteristic.by_count, v.exact)
    assert_same_values(batch.astype(object) if batch.dtype == np.int64 else batch, scalar)
    table, denom = _table(v, None)
    if v.exact:
        assert (table.dtype, denom) == table_form(scalar.tolist(), v.n)
    assert_numerators(table, denom, scalar)


@PROPERTY_SETTINGS
@given(graphs(max_nodes=10, max_edges=20), st.one_of(st.integers(1, 4), st.just(62)))
def test_power_count_table_equals_scalar_worth(g, k):
    # the count path against the scalar |F|^k: int64 below 2^62, Python
    # ints (no wrap) from there, e.g. k = 62 on two or more edges
    w = power_weight_fn(g, k)
    v = lift(EdgeGame(g, w))
    masks = all_masks(g.n)
    batch = v.evaluate_many(masks)
    assert batch.dtype == (np.int64 if len(g.edges) ** k < 1 << 62 else object)
    assert batch.tolist() == [w(g.induced_edge_mask(m)) for m in range(1 << g.n)]
    scalar = NodeCharacteristic(v.n, v, exact=True).evaluate_many(masks)
    table, denom = _table(v, None)
    assert (table.dtype, denom) == table_form(scalar.tolist(), v.n)
    assert_numerators(table, denom, scalar)


@st.composite
def count_row_games(draw, exact):
    """A graph on at most 10 nodes and 12 edges and a worth declared by up
    to 8 count rows, drawn with repeats: rows of any values, as many as
    |E| + 1 or fewer (the last one then repeats), equality rows (values 0
    but at |H|) and rows of one value (dividends), on mask 0, on any edge
    mask (most are induced by no coalition) or on one a coalition induces.
    About a third of the worths hold rows of one value only; the others mix
    one such row with at least one of the other kinds. Exact values are small
    ints, negative ones too, or mixed with Fractions or with ints beyond
    2^62; approx values are floats. A row's value at count 0 is 0, so
    w(empty) = 0."""
    g = draw(graphs(max_nodes=10, max_edges=12))
    m = len(g.edges)
    small = st.integers(-20, 20)
    if exact:
        values = draw(st.sampled_from([small, st.one_of(small, FRACTIONS), st.one_of(small, HUGE)]))
    else:
        values = FLOATS
    masks = st.one_of(st.just(0), st.integers(0, (1 << m) - 1),
                      st.integers(0, (1 << g.n) - 1).map(g.induced_edge_mask))
    any_values = st.integers(0, m).flatmap(lambda k: st.lists(values, min_size=k, max_size=k))
    any_row = st.tuples(masks, any_values.map(lambda vs: [0, *vs]))
    equality_row = st.tuples(masks, values).map(
        lambda r: (r[0], [r[1] if c == r[0].bit_count() > 0 else 0 for c in range(m + 1)]))
    # a one-value row on mask 0 would add its value to w(empty): such a row
    # takes the full edge mask instead, and is (0, [0]) on a graph without edges
    one_value_row = st.tuples(masks.map(lambda em: em or (1 << m) - 1), values).map(
        lambda r: (r[0], [r[1] if r[0] else 0]))
    picked, kinds = [draw(one_value_row)], one_value_row
    if draw(st.integers(0, 2)) < 2:
        picked.append(draw(st.one_of(any_row, equality_row)))
        kinds = st.one_of(any_row, equality_row, one_value_row)
    picked += draw(st.lists(kinds, max_size=2))
    rows = draw(st.permutations(picked + draw(st.lists(st.sampled_from(picked), max_size=4))))

    def fn(edge_mask):
        c = edge_mask.bit_count()
        return sum((vals[min(c, len(vals) - 1)] for em, vals in rows if edge_mask & em == em), 0)

    return EdgeGame(g, EdgeCharacteristic(g.edges, fn, exact=exact, by_count=rows))


@pytest.mark.parametrize("exact", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_count_rows_equal_scalar_worth(exact, data):
    # the count-row table and the sampler against the worth evaluated once
    # per coalition, on the game and on every edge deletion: bit-identical
    # floats, equal exact values (a row whose values are 0 but at |H| adds
    # none of its zeros, so an int 0 may stand where the scalar sum adds a
    # Fraction 0). A worth of one-value rows only lifts to their endpoint
    # masks and values as dividends; any other is read by count
    eg = data.draw(count_row_games(exact))
    for game in (eg, *(delete_edge(eg, edge) for edge in eg.graph.edges)):
        v = lift(game)
        rows = game.characteristic.by_count
        if all(len(vals) == 1 for _, vals in rows):
            assert v.dividends == tuple((game.graph.endpoint_mask(em), val) for em, (val,) in rows)
        else:
            assert v.dividends is None
        scalar = NodeCharacteristic(v.n, v, exact=exact)
        masks = all_masks(v.n)
        want = scalar.evaluate_many(masks)
        got = v.evaluate_many(masks)
        assert got.dtype == count_dtype(game.characteristic.by_count, exact)
        table, denom = _table(v, None)
        if exact:
            assert got.tolist() == want.tolist()
            assert [Fraction(x, denom) for x in table.tolist()] == want.tolist()
        else:
            assert got.tobytes() == table.tobytes() == want.tobytes()
        assert shapley_sampled(v, 60, 5).values == shapley_sampled(scalar, 60, 5).values


def table_form(worths, n):
    """The dtype and denominator ``_table`` gives an exact table of
    ``worths`` that is not the int64 dividend fill: numerators over the lcm
    D of the worths' denominators, int64 when every |worth * D| lies below
    2^(61-n), Python ints beyond."""
    denom = math.lcm(*{Fraction(x).denominator for x in worths})
    small = all(abs(x * denom) < 1 << max(61 - n, 0) for x in worths)
    return (np.int64 if small else object), denom


def assert_numerators(table, denom, want):
    """``_table``'s ``(table, denom)`` against ``want``, an array of the
    game's own worths: float64 over 1, bit for bit, when approx; otherwise
    int64 or Python-int numerators with ``Fraction(numerator, denom)`` equal
    to every worth."""
    if want.dtype == np.float64:
        assert (table.dtype, denom) == (np.float64, 1)
        assert table.tobytes() == want.tobytes()
        return
    assert {type(x) for x in want.tolist()} <= {int, Fraction}
    assert table.dtype == np.int64 or {type(x) for x in table} <= {int}
    got = table.tolist()
    if denom != 1:
        got = [Fraction(x, denom) for x in got]
    assert got == want.tolist()


def dividend_game(n, rows, exact):
    """An n-player game declared by its ``(node_mask, value)`` rows."""
    return NodeCharacteristic(
        n, lambda m: sum((val for r, val in rows if m & r == r), 0),
        exact=exact, dividends=tuple(rows),
    )


def fill_dtype(rows, exact):
    """The dtype the dense fill must use: float64 when approx, int64 for
    Python ints whose magnitudes sum below 2^62, object otherwise."""
    if not exact:
        return np.float64
    small = all(type(val) is int for _, val in rows)
    return np.int64 if small and sum(abs(val) for _, val in rows) < 1 << 62 else object


def count_dtype(rows, exact):
    """The dtype the count-row evaluation must use: float64 when approx,
    int64 for Python ints whose largest magnitudes per row sum below 2^62,
    object otherwise."""
    if not exact:
        return np.float64
    small = all(type(val) is int for _, values in rows for val in values)
    return np.int64 if small and sum(max(map(abs, values)) for _, values in rows) < 1 << 62 else object


def table_dtype(rows, exact, n):
    """The dtype and denominator ``_table`` gives a game declared by
    ``rows``: the fill's own dtype over 1, unless that is object, whose
    worths become numerators (see :func:`table_form`)."""
    dtype = fill_dtype(rows, exact)
    if dtype is not object:
        return dtype, 1
    worths = _dividend_worths(tuple(rows), exact, all_masks(n))
    return table_form(worths.tolist(), n)


def assert_fill_equals_mask_path(n, rows, exact, chunk=1 << 20):
    """The superset fill of ``_table`` against ``_dividend_worths`` on all
    2^n masks, taken ``chunk`` masks at a time: bit-identical floats, and
    numerators equal to the worths over the table's denominator."""
    table, denom = _table(dividend_game(n, rows, exact), None)
    assert (table.dtype, denom) == table_dtype(rows, exact, n)
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        assert_numerators(table[masks], denom, _dividend_worths(tuple(rows), exact, masks))


@st.composite
def dividend_rows(draw, values):
    """1 to 10 players and up to 12 rows of ``values``, drawn with repeats,
    on any nonempty node mask; the full mask and the lowest and highest
    single bits are drawn often."""
    n = draw(st.integers(1, 10))
    full = (1 << n) - 1
    masks = st.one_of(st.sampled_from([full, 1, 1 << (n - 1)]), st.integers(1, full))
    picked = draw(st.lists(st.tuples(masks, values), max_size=6))
    rows = draw(st.lists(st.sampled_from(picked), max_size=12)) if picked else []
    return n, rows


@PROPERTY_SETTINGS
@given(st.one_of(dividend_rows(FLOATS).map(lambda d: (*d, False)),
                 dividend_rows(st.integers(-20, 20)).map(lambda d: (*d, True)),
                 dividend_rows(st.one_of(st.integers(-20, 20), HUGE)).map(lambda d: (*d, True)),
                 dividend_rows(st.one_of(st.integers(-20, 20), FRACTIONS)).map(lambda d: (*d, True))))
def test_superset_fill_equals_mask_path(case):
    assert_fill_equals_mask_path(*case)


@pytest.mark.parametrize("exact", [False, True])
def test_superset_fill_edge_rows(exact):
    # float sums that depend on the order rows are added in: 0.1 + 0.2 + 0.3
    # differs from 0.3 + 0.2 + 0.1 in binary64
    a, b, c = (0.1, 0.2, 0.3) if not exact else (1, 2, 3)
    assert_fill_equals_mask_path(1, [(1, a), (1, b), (1, c)], exact)
    n = 6
    full = (1 << n) - 1
    cases = [
        [(full, a), (1, b), (full, c)],  # a full-mask row gives a 0-d view
        [(1, a), (1 << (n - 1), b), (1 | 1 << (n - 1), c)],  # bits 0 and n-1
        [(0b1010, a), (0b1010, b), (0b1010, c), (0b11, a)],  # repeated rows
        [(0b11, c), (0b111, b), (0b1111, a), (0b11, b)],  # nested rows
    ]
    for rows in cases:
        assert_fill_equals_mask_path(n, rows, exact)


def test_superset_fill_alternating_bits_24_players():
    # alternating bits give the most runs: one view axis per player
    n = 24
    odd, even = int("10" * 12, 2), int("01" * 12, 2)
    # 2^11 coalitions hold the first three rows, whose sum depends on order
    rows = [(even, 0.1), (even ^ 1, 0.2), (even | 2, 0.3), (odd, 0.2), ((1 << n) - 1, 0.7)]
    assert_fill_equals_mask_path(n, rows, False)
    assert_fill_equals_mask_path(n, [(even, 5), (odd, -3), ((1 << n) - 1, 7)], True)


@st.composite
def complete_contract_routes(draw, n=12):
    """Containment contract routes on K_n: any node set of two or more nodes
    is covered by its induced edges, so the closed form applies."""
    sets = st.sets(st.integers(0, n - 1), min_size=2, max_size=n)
    picked = draw(st.lists(st.tuples(sets, st.integers(0, 20)), min_size=1, max_size=5))
    return [Route([f"v{i:02d}" for i in nodes], count) for nodes, count in picked]


@settings(derandomize=True, deadline=None, max_examples=10)
@given(complete_contract_routes())
def test_exact_contract_game_beyond_63_edges_equals_closed_form(routes):
    labels = [f"v{i:02d}" for i in range(12)]
    g = Graph(labels, [Edge(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])
    assert len(g.edges) == 66
    eg = EdgeGame(g, contract_weight_fn(g, routes))
    assert lift(eg).has_vector_path  # the dividend path holds any number of edges
    assert edge_shapley(eg).values == route_closed_form(g, routes).values


@st.composite
def route_games(draw, exact=False, max_nodes=9):
    """A containment route game on at most ``max_nodes`` nodes and 12 edges:
    a supply game with float quantities, or a contract game with counts that
    may exceed 2^62. Each route is the endpoint set of a nonempty edge
    subset, sometimes with an extra node that may add no edge (so two routes
    can share an edge mask), and routes are drawn with repetition."""
    g = draw(graphs(min_nodes=2, max_edges=12, max_nodes=max_nodes).filter(lambda g: g.edges))
    m = len(g.edges)
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        nodes = g.endpoint_mask(draw(st.integers(1, (1 << m) - 1)))
        nodes |= draw(st.sampled_from([0, *(1 << i for i in range(g.n))]))
        sets.append(g.labels_of(nodes))
    picked = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=6))
    if exact:
        counts = st.one_of(st.integers(0, 20), st.integers(1 << 62, 1 << 80))
        routes = [Route(nodes, draw(counts)) for nodes in picked]
        return EdgeGame(g, contract_weight_fn(g, routes))
    quantities = st.floats(0, 50, allow_nan=False)
    routes = [Route(nodes, draw(quantities)) for nodes in picked]
    return EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.3)))


def edge_mask_table(eg):
    """The lifted table read through int64 induced edge masks: one worth
    call per coalition (exact) or the worth's own vector path (approx)."""
    g, w = eg.graph, eg.characteristic
    edge_masks = g.induced_edge_masks(all_masks(g.n))
    if w.exact:
        return np.fromiter(map(w, edge_masks.tolist()), dtype=object, count=edge_masks.size)
    return w.evaluate_many(edge_masks)


def assert_same_values(got, want):
    """Equal dtypes and, value for value, the same types and bits."""
    assert got.dtype == want.dtype
    if got.dtype == object:
        assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
    else:
        assert got.tobytes() == want.tobytes()


def assert_dividend_worths(v, want):
    """Batch worths of the dividend game ``v`` on all masks against
    ``want``, its scalar worths: in the dtype of the dense fill (see
    :func:`fill_dtype`), and value for value equal to ``want``, int64 worths
    as Python ints."""
    got = v.evaluate_many(all_masks(v.n))
    assert got.dtype == fill_dtype(v.dividends, v.exact)
    assert_same_values(got.astype(object) if got.dtype == np.int64 else got, want)


@pytest.mark.parametrize("exact", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_dividend_table_equals_edge_mask_table(exact, data):
    eg = data.draw(route_games(exact))
    v = lift(eg)
    assert v.dividends is not None
    want = edge_mask_table(eg)
    assert_dividend_worths(v, want)
    table, denom = _table(v, None)
    assert (table.dtype, denom) == table_dtype(v.dividends, exact, v.n)
    assert_numerators(table, denom, want)


@pytest.mark.parametrize("exact", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_deleted_game_keeps_dividends(exact, data):
    eg = data.draw(route_games(exact))
    for edge in eg.graph.edges:
        deleted = delete_edge(eg, edge)
        v = lift(deleted)
        assert v.dividends is not None
        scalar = NodeCharacteristic(v.n, v, exact=v.exact)  # w(embed(m)) per coalition
        want = scalar.evaluate_many(all_masks(v.n))
        assert_dividend_worths(v, want)
        table, denom = _table(v, None)
        assert (table.dtype, denom) == table_dtype(v.dividends, exact, v.n)
        assert_numerators(table, denom, want)


@pytest.mark.parametrize("exact", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_dividend_rows_give_edge_shapley_and_fairness_deltas(exact, data):
    """The row oracle: read off the lifted rows, a containment route game's
    value equals the enumeration's, on the game and on each edge deletion,
    and each endpoint of an edge e loses value/|R| of every row whose edges
    hold e, R the endpoints of those edges."""
    eg = data.draw(route_games(exact, max_nodes=12))
    g = eg.graph
    for game in (eg, *(delete_edge(eg, edge) for edge in g.edges)):
        got, want = shapley_dividends(lift(game)), edge_shapley(game)
        assert got.exact == exact
        assert all(values_close(a, b, exact) for a, b in zip(got, want))

    def share(em, val):
        size = g.endpoint_mask(em).bit_count()
        return Fraction(val, size) if exact else val / size

    for j, edge in enumerate(g.edges):
        held = [share(em, val) for em, (val,) in eg.characteristic.by_count if em >> j & 1]
        lost = sum(held, Fraction(0) if exact else 0.0)
        assert all(values_close(delta, lost, exact) for delta in fairness_delta(eg, edge))


def test_sampled_dividends_equal_edge_mask_sampler():
    rng = np.random.default_rng(30)
    labels = [f"n{i:02d}" for i in range(30)]
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, 30)}  # a random tree
    while len(pairs) < 45:
        i, j = sorted(int(x) for x in rng.choice(30, size=2, replace=False))
        pairs.add((i, j))
    g = Graph(labels, [Edge(labels[i], labels[j], float(rng.uniform(0.5, 3)))
                       for i, j in sorted(pairs)])
    routes = []
    for _ in range(12):
        edges = rng.choice(len(g.edges), size=int(rng.integers(2, 5)), replace=False)
        nodes = g.endpoint_mask(sum(1 << int(j) for j in edges))
        routes.append(Route(g.labels_of(nodes), float(rng.uniform(1, 20))))
    routes.append(routes[0])
    eg = EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.1)))
    w = eg.characteristic
    through_edges = NodeCharacteristic(
        g.n, lift(eg), exact=False,
        fn_many=lambda masks: w.evaluate_many(g.induced_edge_masks(masks)),
    )
    for samples, seed in ((1, 0), (5000, 7), (9000, 42)):
        assert (shapley_sampled(lift(eg), samples, seed).values
                == shapley_sampled(through_edges, samples, seed).values)


def through_edges(eg):
    """The lifted approx game of ``eg`` without its rows: the sampler reads
    its permutation prefixes as int64 induced edge masks, valued by the
    worth's own vector path."""
    g, w = eg.graph, eg.characteristic
    return NodeCharacteristic(
        g.n, lift(eg), exact=False,
        fn_many=lambda masks: w.evaluate_many(g.induced_edge_masks(masks)),
    )


def assert_sampler_matches_edge_masks(eg, runs):
    v, oracle = lift(eg), through_edges(eg)
    assert v.dividends is not None and oracle.dividends is None
    for samples, seed in runs:
        assert (shapley_sampled(v, samples, seed).values
                == shapley_sampled(oracle, samples, seed).values)


def random_supply_game(seed, n, n_edges, n_routes, repeats=0):
    """A connected random graph on n nodes and a containment supply game on
    ``n_routes`` random routes, the first ``repeats`` of them declared twice."""
    rng = np.random.default_rng(seed)
    labels = [f"n{i:02d}" for i in range(n)]
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    while len(pairs) < n_edges:
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    g = Graph(labels, [Edge(labels[i], labels[j], float(rng.uniform(0.5, 3)))
                       for i, j in sorted(pairs)])
    routes = []
    for _ in range(n_routes):
        edges = rng.choice(len(g.edges), size=int(rng.integers(1, 6)), replace=False)
        nodes = g.endpoint_mask(sum(1 << int(j) for j in edges))
        routes.append(Route(g.labels_of(nodes), float(rng.uniform(0.1, 40))))
    routes += routes[:repeats]
    return EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.2)))


def test_sampled_rows_beyond_one_chunk_equal_edge_mask_sampler():
    eg = random_supply_game(11, 24, 50, 45)
    assert len(lift(eg).dividends) > 32  # three chunks of 16 rows
    assert_sampler_matches_edge_masks(eg, ((1, 3), (700, 5), (4100, 9)))


def test_sampled_repeated_rows_equal_edge_mask_sampler():
    eg = random_supply_game(12, 14, 22, 9, repeats=6)
    rows = [em for em, _ in eg.characteristic.by_count]
    assert len(set(rows)) < len(rows)
    assert_sampler_matches_edge_masks(eg, ((1, 0), (3000, 4)))


def test_sampled_rows_completed_at_one_step_equal_edge_mask_sampler():
    # x closes every route, so each permutation with x after a and b
    # completes two or three rows at x's step
    g = Graph(["a", "b", "c", "x"], [Edge("a", "x", 1.0), Edge("b", "x", 2.0),
                                     Edge("c", "x", 0.5)])
    routes = [Route(("a", "x"), 3.7), Route(("b", "x"), 11.3),
              Route(("a", "b", "x"), 0.9), Route(("c", "x"), 6.1)]
    eg = EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.3)))
    assert_sampler_matches_edge_masks(eg, ((1, 1), (2000, 2)))


def test_sampled_block_edges_equal_edge_mask_sampler():
    # one permutation, and one block of 4096 plus one more
    eg = random_supply_game(13, 18, 30, 20)
    assert_sampler_matches_edge_masks(eg, ((1, 6), (4097, 6)))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_sampled_route_games_equal_edge_mask_sampler(data):
    eg = data.draw(route_games(exact=False))
    samples = data.draw(st.sampled_from([1, 37, 600]))
    assert_sampler_matches_edge_masks(eg, ((samples, data.draw(st.integers(0, 99))),))


def test_sum_of_dividend_games_declares_no_rows():
    a = random_supply_game(14, 12, 20, 10)
    b = random_supply_game(15, 12, 20, 10)
    summed = lift(a) + lift(b)
    assert summed.dividends is None
    oracle = through_edges(a) + through_edges(b)
    assert (shapley_sampled(summed, 2500, 8).values
            == shapley_sampled(oracle, 2500, 8).values)


@st.composite
def node_games(draw, zero_normalized=False):
    """A random graph and a sparse random integer table over its coalitions;
    with ``zero_normalized`` every singleton is worth 0."""
    g = draw(graphs())
    smallest = 2 if zero_normalized else 1
    coalitions = [m for m in range(1, 1 << g.n) if m.bit_count() >= smallest]
    table = {}
    if coalitions:
        table = draw(st.dictionaries(st.sampled_from(coalitions), st.integers(-5, 9),
                                     max_size=12))
    return GraphGame(g, NodeCharacteristic.from_table(g.n, table))


def component_sum(gg):
    """The graph-restricted game written coalition by coalition: the sum of
    v over the components of the subgraph the coalition induces."""
    g, v = gg.graph, gg.v
    return NodeCharacteristic(
        g.n, lambda m: sum((v(c) for c in g.component_masks(within=m)), 0)
    )


@PROPERTY_SETTINGS
@given(st.one_of(node_games(), table_edge_games().map(lambda eg: GraphGame(eg.graph, lift(eg)))))
def test_myerson_equals_permutation_oracle(gg):
    alloc = myerson(gg)
    assert alloc.exact and alloc.nodes == gg.graph.nodes
    assert list(alloc.values) == permutation_shapley(component_sum(gg))


@PROPERTY_SETTINGS
@given(node_games())
def test_myerson_approx_domain_matches_exact(gg):
    v = gg.v
    floats = GraphGame(gg.graph, NodeCharacteristic(v.n, lambda m: float(v(m)), exact=False))
    approx = myerson(floats)
    assert not approx.exact
    for a, x in zip(approx.values, myerson(gg).values):
        assert type(a) is float
        assert abs(a - x) <= 1e-9


@PROPERTY_SETTINGS
@given(node_games(zero_normalized=True))
def test_bridge_edge_shapley_equals_myerson(gg):
    assert edge_shapley(myerson_bridge(gg)).values == myerson(gg).values


@pytest.mark.parametrize("n", [3, 4, 6])
def test_int64_dividend_table_around_the_reduction_bound(n):
    # the dividend fill hands int64 worths to the reduction, which sums them
    # in int64 below 2^(61-n) and as Python ints at and beyond it; the
    # Myerson fold stays in int64, since no row lies inside two components
    full = (1 << n) - 1
    labels = [f"n{i}" for i in range(n)]
    g = Graph(labels, [Edge(labels[i], labels[i + 1]) for i in range(n - 2)])
    for big in ((1 << (61 - n)) - 1, 1 << (61 - n), 1 << 60):
        rows = [(0b11, big), (0b110, -big), (full, big)]  # magnitudes below 2^62
        v = dividend_game(n, rows, True)
        assert _table(v, None)[0].dtype == np.int64
        assert list(shapley_exact(v).values) == permutation_shapley(v)
        gg = GraphGame(g, v)
        assert list(myerson(gg).values) == permutation_shapley(component_sum(gg))


def separated_pairs(g):
    """Every pair of nonempty disjoint coalitions joined by no edge."""
    full = g.full_node_mask
    for s in range(1, 1 << g.n):
        rest = full & ~s
        t = rest
        while t:
            if g.induced_edge_mask(s | t) == g.induced_edge_mask(s) | g.induced_edge_mask(t):
                yield s, t
            t = (t - 1) & rest


#: Additive lifted games: the bridge of a zero-normalized node game is worth
#: the sum over its edge groups, so it splits across separated coalitions.
BRIDGED = node_games(zero_normalized=True).map(myerson_bridge)


@st.composite
def split_games(draw, values=st.integers(1, 9)):
    """A sparse graph on 5 to 7 nodes and 2 to 5 edges, whose coalitions
    often split into several components, with a worth in ``values`` for
    every nonempty edge subset: most such games break additivity somewhere."""
    g = draw(graphs(min_nodes=5, max_edges=5).filter(lambda g: len(g.edges) >= 2))
    count = (1 << len(g.edges)) - 1
    worths = draw(st.lists(values, min_size=count, max_size=count))
    return EdgeGame(g, EdgeCharacteristic.from_table(g.edges, dict(enumerate(worths, 1))))


@PROPERTY_SETTINGS
@given(st.one_of(split_games(), split_games(FRACTIONS), split_games(HUGE), BRIDGED))
def test_additivity_verdict_equals_separated_pair_oracle(eg):
    g, v = eg.graph, lift(eg)
    additive = all(v(s | t) == v(s) + v(t) for s, t in separated_pairs(g))
    report = component_efficiency_check(eg)
    assert report.additive_hypothesis == additive
    if not additive:
        s, t = (g.node_mask(side) for side in report.hypothesis_witness)
        assert s and t and not s & t
        assert g.induced_edge_mask(s | t) == g.induced_edge_mask(s) | g.induced_edge_mask(t)
        assert v(s | t) != v(s) + v(t)
    else:
        assert report.hypothesis_witness is None


@PROPERTY_SETTINGS
@given(st.one_of(split_games(), BRIDGED))
def test_additivity_verdict_approx_domain(eg):
    # small integer worths are exact in binary64, so the float copy of the
    # game must reach the same verdict and witness
    g, w = eg.graph, eg.characteristic
    floats = EdgeGame(g, EdgeCharacteristic(g.edges, lambda m: float(w(m)), exact=False))
    exact = component_efficiency_check(eg)
    approx = component_efficiency_check(floats)
    assert approx.additive_hypothesis == exact.additive_hypothesis
    assert approx.hypothesis_witness == exact.hypothesis_witness
