import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from edgeshapley import games, pairwise
from edgeshapley import (
    Allocation,
    CapacityError,
    CharacteristicContractError,
    CostDecayParams,
    Edge,
    EngineStats,
    EdgeCharacteristic,
    EdgeGame,
    Graph,
    GraphConstructionError,
    GraphGame,
    NodeCharacteristic,
    Route,
    axiom_check,
    build_graph,
    contract_weight_fn,
    edge_shapley_pruned,
    lift,
    myerson,
    myerson_bridge,
    power_weight_fn,
    shapley_dividends,
    shapley_exact,
    shapley_sampled,
    shapley_weights,
    supply_weight_fn,
    values_close,
)
from edgeshapley.masks import all_masks

from conftest import (
    neighbourhood_masks,
    per_player_float_reduction,
    per_player_fraction_reduction,
    per_sample_shapley,
    permutation_shapley,
    random_connected_graph,
    random_zero_normalized_game,
)


def unanimity(n, members):
    required = 0
    for i in members:
        required |= 1 << i
    return NodeCharacteristic(n, lambda m: 1 if m & required == required else 0)


def additive(n):
    return NodeCharacteristic(n, lambda m: m.bit_count())


def test_weights_sum_to_one():
    from math import comb

    for n in range(1, 12):
        w = shapley_weights(n)
        assert sum(comb(n - 1, s) * w[s] for s in range(n)) == 1


def test_unanimity_game():
    alloc = shapley_exact(unanimity(3, (0, 1, 2)))
    assert alloc.values == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_additive_game():
    alloc = shapley_exact(additive(4))
    assert alloc.values == (1, 1, 1, 1)


def test_matches_permutation_oracle():
    """Frozen-oracle property: subset-weighted accumulation must equal the
    direct average over all n! permutations, exactly."""
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        table = {m: int(rng.integers(-10, 20)) for m in range(1, 1 << n)}
        v = NodeCharacteristic.from_table(n, table)
        assert list(shapley_exact(v).values) == permutation_shapley(v)


def test_efficiency_exact_domain():
    rng = np.random.default_rng(102)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        v = random_zero_normalized_game(rng, n)
        alloc = shapley_exact(v)
        assert alloc.total() == v((1 << n) - 1)


def test_efficiency_approx_domain():
    rng = np.random.default_rng(103)
    n = 9
    table = {m: float(rng.uniform(-3, 9)) for m in range(1, 1 << n)}
    snapshot = dict(table)
    v = NodeCharacteristic(
        n,
        lambda m: snapshot.get(m, 0.0),
        exact=False,
        fn_many=lambda ms: np.array([snapshot.get(int(m), 0.0) for m in ms]),
    )
    alloc = shapley_exact(v)
    grand = v((1 << n) - 1)
    assert abs(alloc.total() - grand) <= 1e-9 * max(1.0, abs(grand))


def scalar_pairs(v):
    """Pairs i < j with v(S + i) = v(S + j) for every S avoiding both."""
    return [
        (i, j)
        for i in range(v.n)
        for j in range(i + 1, v.n)
        if all(
            v(m | 1 << i) == v(m | 1 << j)
            for m in range(1 << v.n)
            if not m & (1 << i | 1 << j)
        )
    ]


def scalar_nulls(v):
    """Players i with v(S + i) = v(S) for every S avoiding i."""
    return [
        i
        for i in range(v.n)
        if all(v(m | 1 << i) == v(m) for m in range(1 << v.n) if not m >> i & 1)
    ]


def planted_game(seed, n, exact):
    """Random game on n players of three random types. Worth depends only on
    how many players of types 0 and 1 a coalition holds, so same-type players
    are interchangeable and type-2 players are null -- unless one random
    coalition's worth is replaced, which breaks some of those relations."""
    rng = np.random.default_rng([seed, n])
    types = rng.integers(0, 3, size=n)
    counts = [
        (sum(1 for i in range(n) if m >> i & 1 and types[i] == 0),
         sum(1 for i in range(n) if m >> i & 1 and types[i] == 1))
        for m in range(1 << n)
    ]
    draw = (lambda: int(rng.integers(-5, 10))) if exact else (lambda: float(rng.uniform(-3, 9)))
    worth_of = {c: draw() for c in sorted(set(counts)) if c != (0, 0)}
    table = {m: worth_of.get(c, 0) for m, c in enumerate(counts)}
    if rng.random() < 0.5:
        table[int(rng.integers(1, 1 << n))] = draw()
    return NodeCharacteristic.from_table(n, table, exact=exact)


def pairs_beside_0_and_2(n):
    """(0, 2) plus every pair of the other players."""
    rest = [i for i in range(n) if i not in (0, 2)]
    return sorted([(0, 2)] + list(combinations(rest, 2)))


def test_symmetry_and_null_player():
    # players 0 and 1 interchangeable; player 3 is null
    n = 4
    v = NodeCharacteristic(
        n, lambda m: (m & 0b0011 and 1) + 3 * ((m & 0b0100) >> 2)
    )
    alloc = shapley_exact(v)
    assert alloc[0] == alloc[1]
    assert alloc[3] == 0
    report = axiom_check(v, alloc)
    assert report.all_passed


@pytest.mark.parametrize(
    "v, pairs, nulls",
    [
        # players 0 and 1 interchangeable; player 3 is null
        (NodeCharacteristic(4, lambda m: (m & 0b0011 and 1) + 3 * ((m & 0b0100) >> 2)),
         [(0, 1)], [3]),
        # only the coalition {0, 2} is worth anything: nobody is null
        (NodeCharacteristic.from_table(13, {0b101: 1}), pairs_beside_0_and_2(13), []),
        (NodeCharacteristic.from_table(16, {0b101: 1}), pairs_beside_0_and_2(16), []),
    ]
    + [
        # relations found by the scalar definitions
        (planted_game(7, n, exact), None, None)
        for n in range(2, 10)
        for exact in (True, False)
    ],
)
def test_symmetry_and_null_player_detection(v, pairs, nulls):
    if pairs is None:
        pairs, nulls = scalar_pairs(v), scalar_nulls(v)
    table = games._table(v, None)[0]
    assert games.interchangeable_pairs(table) == pairs
    assert games.null_players(table) == nulls
    alloc = shapley_exact(v)
    report = axiom_check(v, alloc)
    assert report.all_passed
    details = {c.name: c.detail for c in report}
    assert details["symmetry"] == f"{len(pairs)} interchangeable pair(s)"
    assert details["null-player"] == f"null players {nulls}"


def test_additivity():
    rng = np.random.default_rng(104)
    n = 5
    a = random_zero_normalized_game(rng, n)
    b = random_zero_normalized_game(rng, n)
    fa = shapley_exact(a)
    fb = shapley_exact(b)
    fab = shapley_exact(a + b)
    assert tuple(x + y for x, y in zip(fa, fb)) == fab.values
    report = axiom_check(a, fa, "additivity", game_pairs=[(a, b)])
    assert report.all_passed


def test_axiom_check_reports_the_first_failure():
    # players 0 and 1 interchangeable; player 3 is null
    v = NodeCharacteristic(4, lambda m: (m & 0b0011 and 1) + 3 * ((m & 0b0100) >> 2))
    skewed = Allocation((Fraction(1, 4), Fraction(3, 4), Fraction(2), Fraction(0)), True)
    report = axiom_check(v, skewed, ["symmetry", "null-player"])
    assert [(c.name, c.passed, c.detail) for c in report] == [
        ("symmetry", False, "1 interchangeable pair(s); mismatch at (0, 1): 1/4 vs 3/4"),
        ("null-player", True, "null players [3]"),
    ]
    paid_null = Allocation((Fraction(1, 2), Fraction(1, 2), Fraction(3), Fraction(-1)), True)
    check = axiom_check(v, paid_null, "null-player").checks[0]
    assert (check.passed, check.detail) == (False, "null players [3]; nonzero value -1 at player 3")


def test_additivity_reports_the_first_player_that_breaks():
    # a game whose batch worths disagree with its scalar ones breaks its
    # contract: its table reads the batch worths, the sum's the scalar ones
    n = 3
    a = NodeCharacteristic(n, lambda m: m.bit_count(),
                           fn_many=lambda masks: np.bitwise_count(masks & 0b110).astype(object))
    b = additive(n)
    alloc = shapley_exact(a)
    check = axiom_check(a, alloc, "additivity", game_pairs=[(a, b)]).checks[0]
    assert (check.passed, check.detail) == (False, "1 game pair(s); broke at player 0")


def test_axiom_check_refuses_bad_requests():
    v = additive(3)
    alloc = shapley_exact(v)
    with pytest.raises(ValueError, match="allocation length does not match the player count"):
        axiom_check(v, Allocation((1, 1), True))
    with pytest.raises(ValueError, match=r"unknown axiom check\(s\): \['fairness'\]"):
        axiom_check(v, alloc, ["efficiency", "fairness"])
    with pytest.raises(ValueError, match="additivity check needs game_pairs"):
        axiom_check(v, alloc, "additivity")


def add_other(n, exact, other):
    return NodeCharacteristic(n, lambda m: 0, exact=exact) + other


@pytest.mark.parametrize("call, kind, message", [
    pytest.param(lambda: NodeCharacteristic(0, lambda m: 0), ValueError,
                 "a game needs at least one player", id="no-players"),
    pytest.param(lambda: add_other(2, True, 1), TypeError,
                 "unsupported operand type(s) for +: 'NodeCharacteristic' and 'int'",
                 id="add-non-characteristic"),
    pytest.param(lambda: add_other(2, True, additive(3)), ValueError,
                 "can only add games with equal player count and domain", id="add-player-count"),
    pytest.param(lambda: add_other(2, False, additive(2)), ValueError,
                 "can only add games with equal player count and domain", id="add-domain"),
    pytest.param(lambda: GraphGame(build_graph(["a", "b", "c"], []), additive(2)), ValueError,
                 "characteristic has 2 players but graph has 3 nodes", id="graph-game-size"),
    pytest.param(lambda: Allocation((1, 2), True)["a"], KeyError,
                 "allocation carries no node labels", id="label-lookup-without-labels"),
    pytest.param(lambda: Allocation((1, 2), True, ("a", "b"))["c"], KeyError, "c",
                 id="label-lookup-of-missing-label"),
    pytest.param(lambda: Allocation((1, 2), True).as_dict(), KeyError,
                 "allocation carries no node labels", id="as-dict-without-labels"),
    pytest.param(lambda: shapley_dividends(additive(2)), ValueError,
                 "the game declares no dividends", id="dividends-undeclared"),
    pytest.param(lambda: Edge("", "b"), GraphConstructionError,
                 "edge endpoints must be non-empty labels", id="empty-edge-label"),
    pytest.param(lambda: Graph(["a", ""]), GraphConstructionError,
                 "node labels must be non-empty", id="empty-node-label"),
])
def test_library_refusals(call, kind, message):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind
    assert exc.value.args == (message,)


def test_contract_violation():
    v = NodeCharacteristic(3, lambda m: 1)
    with pytest.raises(CharacteristicContractError):
        shapley_exact(v)
    with pytest.raises(CharacteristicContractError):
        shapley_sampled(v, 10, 0)
    floats = NodeCharacteristic(3, lambda m: 0.1 * bin(m).count("1") ** 2, exact=True)
    with pytest.raises(CharacteristicContractError,
                       match=r"returned 0\.0 for coalition 0b0, which is not an int or Fraction"):
        shapley_exact(floats)


def test_capacity_guard():
    v = NodeCharacteristic(13, lambda m: 0)
    with pytest.raises(CapacityError):
        shapley_exact(v, limit=12)
    assert shapley_exact(v, limit=13).values == tuple([Fraction(0)] * 13)
    with pytest.raises(CapacityError):
        NodeCharacteristic(64, lambda m: 0)


def test_axiom_detection_refused_above_limit(monkeypatch):
    def no_table(n):
        raise AssertionError("the coalition table must not be built")

    monkeypatch.setattr(games, "all_masks", no_table)
    v = NodeCharacteristic(30, lambda m: 0)
    zeros = Allocation((0,) * 30, True)
    for which in ("symmetry", "null-player"):
        with pytest.raises(CapacityError):
            axiom_check(v, zeros, which)
    assert axiom_check(v, zeros, "efficiency").all_passed


def test_enumeration_refuses_63_players(monkeypatch):
    def no_table(n):
        raise AssertionError("the coalition table must not be built")

    monkeypatch.setattr(games, "all_masks", no_table)
    v = NodeCharacteristic(63, lambda m: 0)
    for limit in (63, None):
        with pytest.raises(CapacityError, match="62-player bound"):
            shapley_exact(v, limit=limit)
    with pytest.raises(CapacityError):
        all_masks(63)


def test_memory_estimate_refuses_before_allocating(monkeypatch):
    def no_table(n):
        raise AssertionError("the coalition table must not be built")

    monkeypatch.setattr(games, "all_masks", no_table)
    monkeypatch.setattr(games, "_physical_memory", lambda: 1 << 25)
    v = NodeCharacteristic(20, lambda m: 0)
    with pytest.raises(CapacityError, match=r"needs about 0\.06 GiB, more than the 0\.03 GiB"):
        shapley_exact(v)
    labels = [f"v{i}" for i in range(20)]
    g = build_graph(labels, list(zip(labels, labels[1:])))
    with pytest.raises(CapacityError, match="GiB"):
        edge_shapley_pruned(EdgeGame(g, power_weight_fn(g, 2)))
    with pytest.raises(CapacityError, match="GiB"):
        axiom_check(v, Allocation((0,) * 20, True), "symmetry")
    monkeypatch.setattr(games, "_physical_memory", lambda: None)
    with pytest.raises(AssertionError, match="must not be built"):
        shapley_exact(v)


def test_physical_memory_is_unknown_where_sysconf_fails(monkeypatch):
    def no_sysconf(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(games.os, "sysconf", no_sysconf)
    assert games._physical_memory() is None


@pytest.mark.parametrize("n", [3, 4, 6])
def test_exact_reduction_around_the_int64_bound(n):
    # the int64 sums are taken while max |worth| * 2^(n+1) < 2^62; at the
    # bound and far beyond it the sums run on Python ints
    for big in ((1 << (61 - n)) - 1, 1 << (61 - n), (1 << 62) - 1, 1 << 90):
        v = NodeCharacteristic(n, lambda m: big * (-1) ** m.bit_count() // (1 + (m & 1))
                               if m else 0)
        alloc = shapley_exact(v)
        assert list(alloc.values) == permutation_shapley(v)
        assert alloc.total() == v((1 << n) - 1)


def float_bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def test_float_reduction_equals_per_player_formula():
    # mixed magnitudes make every sum depend on its order of addition; from
    # n = 16 players sit above the block's bits, and the 21-player table
    # has 64 blocks. Neighbourhood masks drop whole chunks, keep whole
    # chunks and keep none at all
    rng = np.random.default_rng(2024)
    for n in range(1, 22):
        table = rng.normal(size=1 << n) * 10.0 ** rng.integers(-3, 4, size=1 << n)
        table[0] = 0.0
        dense = [int(m) for m in rng.integers(0, 1 << n, size=n)]
        sparse = neighbourhood_masks(rng, n)
        for members in (None, dense, sparse) if n <= 20 else (sparse,):
            want, kept = per_player_float_reduction(table, n, members)
            stats = EngineStats()
            got = games._reduce(table, 1, member_masks=members, stats=stats)
            assert float_bits(got) == float_bits(want), (n, members)
            assert stats.marginals == sum(kept)
            # a subset of the players, in shuffled order
            players = rng.permutation(n)[: rng.integers(1, n + 1)].tolist()
            stats = EngineStats()
            got = games._reduce(table, 1, players=players, member_masks=members, stats=stats)
            assert float_bits(got) == float_bits([want[i] for i in players]), (n, players)
            assert stats.marginals == sum(kept[i] for i in players)


@pytest.mark.parametrize("values", ["mixed", "zeros", "negative-zeros", "signed-zeros"])
def test_pairwise_leaves_reproduce_numpys_sum(values):
    # the float reduction sums each player's terms as numpy's pairwise tree,
    # from np.sum of its leaves (pairwise.leaves) added in postfix order
    # (pairwise.combine): a numpy that sums in another order fails here
    # first, not in the goldens
    rng = np.random.default_rng(28)
    lengths = [*range(10), 127, 128, 129]
    for k in range(3, 18):
        lengths += [(1 << k) - 8, 1 << k, (1 << k) + 8]
    lengths += rng.integers(0, 3 << 15, size=24).tolist()
    for length in lengths:
        if values == "mixed":
            x = rng.normal(size=length) * 10.0 ** rng.integers(-8, 9, size=length)
        elif values == "zeros":
            x = np.zeros(length)
        elif values == "negative-zeros":
            x = np.full(length, -0.0)
        else:
            x = np.where(rng.random(length) < 0.5, -0.0, 0.0)
        want = float_bits(np.sum(x))
        leaves = pairwise.leaves(length)
        assert sum(leaves) == length and max(leaves) <= pairwise.LEAF
        starts = np.cumsum((0, *leaves)).tolist()
        sums = [np.sum(x[a : a + size]) for a, size in zip(starts, leaves)]
        assert float_bits(pairwise.combine(length, iter(sums))) == want, length
        # streamed in pieces of up to one leaf, through a carry of two
        stream = pairwise.Stream(length, np.empty(2 * pairwise.LEAF))
        pos = 0
        while pos < length:
            size = min(int(rng.integers(1, pairwise.LEAF + 1)), length - pos)
            stream.feed(x[pos : pos + size])
            pos += size
        assert float_bits(stream.total()) == want, length


def cached_arrays(tables):
    """Every array the cached per-n reduction tables hold."""
    for value in (getattr(tables, slot) for slot in games._ReduceTables.__slots__):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, games._Half):
            yield value.shift
            yield value.bits
            yield from value.groups


def test_reduction_tables_cache_is_invisible():
    # a reduction gives the same values on a cold cache, a warm one and one
    # that reduced another n and the other domain in between
    rng = np.random.default_rng(27)
    for n in range(1, 15):
        tables = {False: rng.normal(size=1 << n) * 100, True: rng.integers(-1000, 1000, 1 << n)}
        tables[False][0] = tables[True][0] = 0
        members = [int(m) for m in rng.integers(0, 1 << n, size=n)]
        other = n % 14 + 1
        for is_exact, denom, kwargs in (
            (False, 1, {}),
            (False, 1, {"players": [n - 1, 0]}),
            (False, 1, {"member_masks": members}),
            (True, 3, {}),
            (True, 3, {"players": [n - 1, 0]}),
        ):
            table = tables[is_exact]
            games._reduce_tables.cache_clear()
            cold = games._reduce(table, denom, **kwargs)
            warm = games._reduce(table, denom, **kwargs)
            games._reduce(np.zeros(1 << other, dtype=table.dtype), 1)
            games._reduce(tables[not is_exact], 1)
            again = games._reduce(table, denom, **kwargs)
            if is_exact:
                assert cold == warm == again, (n, kwargs)
            else:
                bits = np.array(cold).tobytes()
                assert np.array(warm).tobytes() == np.array(again).tobytes() == bits, (n, kwargs)
        for is_exact in (False, True):
            cached = games._reduce_tables(n, is_exact)
            if is_exact:
                assert type(cached.coef) is type(cached.hold_coef) is tuple
            for array in cached_arrays(cached):
                with pytest.raises(ValueError, match="read-only"):
                    array += 0


def exact_reduction_table(rng, n, form):
    """An n-player table with v(empty) = 0: int64 below the 2^(61-n) bound
    of the int64 sums (``inside``) or up to 2^62 (``beyond``), Python ints
    beyond 2^62 (``huge``) or Fractions of denominators 2-12 (``fraction``)."""
    size = 1 << n
    if form == "inside":
        bound = 1 << (61 - n)
        table = rng.integers(-bound + 1, bound, size)
    elif form == "beyond":
        table = rng.integers(-(1 << 62), 1 << 62, size)
    elif form == "huge":
        high = rng.integers(-(1 << 20), 1 << 20, size).tolist()
        low = rng.integers(0, 1 << 62, size).tolist()
        table = np.array([(h << 62) + x for h, x in zip(high, low)], dtype=object)
    else:
        nums = rng.integers(-1000, 1000, size).tolist()
        dens = rng.integers(2, 13, size).tolist()
        table = np.array([Fraction(a, b) for a, b in zip(nums, dens)], dtype=object)
    table[0] = 0
    return table


@pytest.mark.parametrize("form", ["inside", "beyond", "huge", "fraction"])
def test_exact_restricted_reduction_equals_per_player_loop(form):
    # past _PER_PLAYER_TERMS the exact reduction sums every player in a
    # constant number of passes: the same rationals as one pass per player
    rng = np.random.default_rng(["inside", "beyond", "huge", "fraction"].index(form))
    for n in range(12, 16):
        raw = exact_reduction_table(rng, n, form)
        v = NodeCharacteristic(n, lambda m: raw[m], exact=True, fn_many=lambda masks: raw[masks])
        table, denom = games._table(v, None)
        assert (table.dtype == np.int64) == (form in ("inside", "fraction"))
        assert (denom > 1) == (form == "fraction")
        want = per_player_fraction_reduction(table, denom, n, range(n))
        stats = EngineStats()
        assert games._reduce(table, denom, stats=stats) == want, n
        assert stats.marginals == n << (n - 1)
        if form == "beyond":
            # int64 numerators past the bound, which _reduce sums as Python ints
            assert games._reduce(raw, 1) == want
        stats = EngineStats()
        alloc = shapley_exact(v, stats=stats)
        assert alloc.values == want and stats.marginals == n << (n - 1)
        assert all(type(x) is Fraction for x in alloc.values)


@pytest.mark.parametrize("per_player_terms", [-1, 1 << 62], ids=["constant-pass", "per-player"])
def test_exact_reduction_refuses_member_masks(monkeypatch, per_player_terms):
    # member masks would leave terms out of exact sums; exact pruned values
    # are the full sums, so no exact caller passes them
    monkeypatch.setattr(games, "_PER_PLAYER_TERMS", per_player_terms)
    table = np.arange(16, dtype=np.int64)
    with pytest.raises(ValueError, match="member masks prune float reductions only"):
        games._reduce(table, 1, member_masks=[0b0010, 0b0001, 0b1000, 0b0100])


def test_threads_bit_identical():
    rng = np.random.default_rng(105)
    n = 10
    snapshot = {m: float(rng.uniform(0, 5)) for m in range(1, 1 << n)}
    v = NodeCharacteristic(n, lambda m: snapshot.get(m, 0.0), exact=False)
    one = shapley_exact(v, threads=1)
    four = shapley_exact(v, threads=4)
    assert one.values == four.values


# ---------------------------------------------------------------------------
# Sampled engine
# ---------------------------------------------------------------------------

def test_sampled_additive_is_exact():
    v = additive(4)
    for seed in (0, 7, 12345):
        alloc = shapley_sampled(v, 50, seed)
        assert alloc.values == (1, 1, 1, 1)


def test_sampled_null_player_is_zero():
    n = 4
    v = NodeCharacteristic(n, lambda m: 1 if m & 0b0111 else 0)
    alloc = shapley_sampled(v, 199, 3)
    assert alloc[3] == 0


def test_sampled_deterministic():
    rng = np.random.default_rng(106)
    n = 6
    v = random_zero_normalized_game(rng, n)
    a = shapley_sampled(v, 500, seed=99)
    b = shapley_sampled(v, 500, seed=99)
    assert a.values == b.values
    c = shapley_sampled(v, 500, seed=100)
    assert c.values != a.values  # different seed explores different orders


def test_sampled_rejects_zero_samples():
    with pytest.raises(ValueError):
        shapley_sampled(additive(3), 0, 1)


def test_sampled_marginals_beyond_the_float_range_break_the_contract():
    # every worth fits a float; 1e308 marginals summed over samples do not
    v = NodeCharacteristic(2, lambda m: 1e308 if m == 0b11 else 0.0, exact=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        with pytest.raises(CharacteristicContractError,
                           match="player 0 sum to inf over the first 10 samples"):
            shapley_sampled(v, 10, 1)
        # one sample's sum fits
        assert sorted(shapley_sampled(v, 1, 1).values) == [0.0, 1e308]


def test_values_close_on_floats_that_are_not_finite():
    # the relative tolerance would scale by inf: (inf, 1e308) read as close
    assert not values_close(math.inf, 1e308, False)
    assert not values_close(1e308, -math.inf, False)
    assert values_close(math.inf, math.inf, False)
    assert not values_close(math.inf, -math.inf, False)
    assert not values_close(math.nan, math.nan, False)
    assert values_close(1e308, 1e308 * (1 + 1e-12), False)


def oracle_sampler_games():
    """One game per way the sampler reads prefix worths: lifted exact power,
    contract (declared rows) and table games, an approx Myerson bridge (no
    vector path), an approx strict-equality supply game (the worth's vector
    path on prefix masks) and an approx containment supply game (completion
    steps of declared rows)."""
    rng = np.random.default_rng(2024)
    g = random_connected_graph(rng, 6)
    routes = [Route(g.labels_of(g.endpoint_mask(int(rng.integers(1, 1 << len(g.edges))))),
                    float(np.round(rng.uniform(1, 20), 3))) for _ in range(4)]
    counts = [Route(r.nodes, int(rng.integers(1, 9))) for r in routes]
    # worths on the edge sets coalitions induce, so most coalitions count
    table = {g.induced_edge_mask(m): Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
             for m in range(1 << g.n) if rng.random() < 0.5}
    table.pop(0, None)
    node_game = NodeCharacteristic(
        g.n, lambda m: 0.0 if m.bit_count() < 2 else 0.1 * m + 0.3 * m.bit_count(),
        exact=False,
    )
    return {
        "power": EdgeGame(g, power_weight_fn(g, 2)),
        "contract": EdgeGame(g, contract_weight_fn(g, counts)),
        "table": EdgeGame(g, EdgeCharacteristic.from_table(g.edges, table)),
        "bridge-approx": myerson_bridge(GraphGame(g, node_game)),
        "supply-strict": EdgeGame(g, supply_weight_fn(
            g, routes, CostDecayParams(0.2, "strict-equality"))),
        "supply-containment": EdgeGame(g, supply_weight_fn(g, routes, CostDecayParams(0.2))),
    }


@pytest.mark.parametrize("name", sorted(oracle_sampler_games()))
def test_sampled_equals_per_sample_oracle(name):
    # one permuted block row per sample draws what one permutation(n) call
    # per sample draws, within a block and across block boundaries
    v = lift(oracle_sampler_games()[name])
    for seed in (5, 2718):
        for samples in (1, 4095, 4096, 4097):
            assert (shapley_sampled(v, samples, seed).values
                    == per_sample_shapley(v, samples, seed))


def test_exact_sampler_on_fraction_table_equals_per_sample_oracle():
    # Fraction worths over many denominators, some numerators beyond int64,
    # some plain ints and some Fractions over 1: the sampler's integer
    # numerators must sum to exactly the oracle's Fractions
    rng = np.random.default_rng(11)
    n = 7
    denominators = (1, 2, 3, 7, 12, 97, (1 << 61) - 1)
    table = {}
    for m in range(1, 1 << n):
        num = int(rng.integers(-50, 50)) << int(rng.choice([0, 70]))
        den = denominators[int(rng.integers(len(denominators)))]
        table[m] = num if den == 1 and m % 2 else Fraction(num, den)
    v = NodeCharacteristic.from_table(n, table)
    for samples in (1, 4095, 4096, 4097):
        got = shapley_sampled(v, samples, 8).values
        assert all(type(x) is Fraction for x in got)
        assert got == per_sample_shapley(v, samples, 8)


def exact_dividend_game(n, rows):
    """An exact n-player game declared by its ``(node_mask, value)`` rows,
    with no ``fn_many``; its scalar worth sums the rows inside a coalition."""
    return NodeCharacteristic(
        n, lambda m: sum((val for r, val in rows if m & r == r), 0), dividends=tuple(rows)
    )


def exact_row_values(kind, rng):
    """A row value: an int that sums in int64, an int beyond 2^62, or a
    Fraction over a non-unit denominator."""
    if kind == "int64":
        return int(rng.integers(-50, 50))
    if kind == "huge":
        return int(rng.choice([-1, 1])) * (int(rng.integers(1, 99)) << 62)
    return Fraction(int(rng.integers(-50, 50)), int(rng.integers(2, 13)))


@pytest.mark.parametrize("kind, count, dtype", [
    ("int64", 40, np.int64),  # three 16-row chunks, the last one partial
    ("huge", 17, object),  # a full chunk of 16, then one of 4 with the repeats
    ("fraction", 17, object),
])
def test_exact_sampler_on_completion_steps_equals_per_sample_oracle(
    kind, count, dtype, monkeypatch
):
    rng = np.random.default_rng(17)
    n = 7
    rows = [(int(rng.integers(1, 1 << n)), exact_row_values(kind, rng)) for _ in range(count)]
    rows += rows[:3]  # repeated rows are kept, not merged
    v = exact_dividend_game(n, rows)
    assert games._dividend_dtype(v.dividends, True) is dtype

    # every prefix worth comes from the completion steps, none from batches
    def no_batches(self, masks):
        raise AssertionError("the sampler evaluated prefix masks")

    monkeypatch.setattr(NodeCharacteristic, "evaluate_many", no_batches)
    for samples in (1, 4097):
        got = shapley_sampled(v, samples, 23).values
        assert all(type(x) is Fraction for x in got)
        assert got == per_sample_shapley(v, samples, 23)


def test_completion_steps_sum_fraction_rows_as_int64_numerators():
    # 20 Fraction rows: the first chunk's 2^16 row subsets are summed as
    # int64 numerators over the rows' lcm, and equal the rows' own sums on
    # the prefix masks
    rng = np.random.default_rng(29)
    n = 7
    rows = tuple((int(rng.integers(1, 1 << n)), exact_row_values("fraction", rng))
                 for _ in range(20))
    worths, denom = games._completion_worths(rows, n, True)
    assert denom == math.lcm(*(val.denominator for _, val in rows)) > 1
    perms = rng.permuted(np.tile(np.arange(n), (64, 1)), axis=1)
    got = worths(perms)
    assert got.dtype == np.int64
    prefixes = np.bitwise_or.accumulate(np.int64(1) << perms, axis=1)
    want = games._dividend_worths(rows, True, prefixes.ravel())
    assert [Fraction(x, denom) for x in got.ravel().tolist()] == want.tolist()


def test_exact_dividend_row_that_is_no_rational_breaks_the_contract():
    # the coalition named is the float row's own node mask, which holds it
    v = exact_dividend_game(3, [(0b1, 2), (0b11, 0.5), (0b110, 1)])
    calls = (
        lambda: shapley_sampled(v, 10, 0),
        lambda: shapley_exact(v),
        lambda: v.evaluate_many(all_masks(3)),
    )
    for call in calls:
        with pytest.raises(CharacteristicContractError,
                           match=r"dividend 0\.5 on coalition 0b11, which is not an int"):
            call()


@pytest.mark.parametrize("mask", [0b1000, -1])
def test_dividend_row_outside_the_players_breaks_the_contract(mask):
    # refused when the game is built: 0b1000 on 3 players used to fill every
    # table entry, the empty coalition's too, with its value
    with pytest.raises(CharacteristicContractError,
                       match=rf"^dividend row on coalition {mask:#b} names players outside the "
                             r"3-player game$"):
        NodeCharacteristic(3, lambda m: 0, dividends=((0b11, 1), (mask, 5)))


def test_exact_dividend_game_evaluates_its_own_rows():
    rows = [(0b11, 3), (0b110, -2), (0b111, 5), (0b11, 4)]
    v = exact_dividend_game(3, rows)
    assert v.has_vector_path
    masks = all_masks(3)
    got = v.evaluate_many(masks)
    assert got.dtype == np.int64
    assert got.tolist() == [v(m) for m in range(8)]
    # a sum of two dividend games declares no rows but keeps a batch path
    total = v + exact_dividend_game(3, [(0b101, 1 << 70)])
    assert total.dividends is None and total.has_vector_path
    assert total.evaluate_many(masks).tolist() == [total(m) for m in range(8)]


def test_fractions_of_numpy_ints_keep_exact_numerators():
    # a Fraction built from numpy ints holds numpy ints; scaled to the
    # common denominator 3 in numpy arithmetic, 2^62 would wrap
    big = np.int64(1 << 62)
    worths = {0: 0, 1: Fraction(big), 2: Fraction(1, 3), 3: Fraction(big, np.int64(1))}
    assert type(worths[1].numerator) is np.int64
    v = NodeCharacteristic(2, worths.__getitem__)
    plain = NodeCharacteristic(2, lambda m: Fraction(int(worths[m].numerator), worths[m].denominator))
    assert shapley_exact(v).values == shapley_exact(plain).values
    for samples in (1, 7):
        assert shapley_sampled(v, samples, 3).values == shapley_sampled(plain, samples, 3).values


def test_numerators_rescale_the_accumulator():
    # blocks of ints, then Fractions whose denominators grow the lcm, then
    # ints again, then int64 over the grown lcm: the accumulator, rescaled as
    # the sampler rescales it, over the running lcm always equals the sum
    blocks = [
        np.array([3, -7, 1 << 80], dtype=object),
        np.array([Fraction(1, 2), Fraction(5, 3), 4], dtype=object),
        np.array([Fraction(7, 1), 2, -1], dtype=object),
        np.array([Fraction(-1, 4), Fraction(2, 9), Fraction(1, 6)], dtype=object),
        np.array([-5, 1 << 40, 0], dtype=np.int64),
    ]
    acc = np.zeros(3, dtype=object)
    denom, total = 1, [0, 0, 0]
    for block in blocks:
        worths = block.reshape(1, 3)
        nums, lcm = games._numerators(worths, denom, object)
        assert lcm % denom == 0
        acc *= lcm // denom
        denom = lcm
        assert nums.shape == (1, 3) and {type(x) for x in nums.ravel()} == {int}
        assert [Fraction(x, denom) for x in nums.ravel()] == block.tolist()
        acc += nums.ravel()
        total = [t + x for t, x in zip(total, block.tolist())]
        assert [Fraction(a, denom) for a in acc] == total
    assert denom == 36
    with pytest.raises(CharacteristicContractError):
        games._numerators(np.array([[1, 0.5]], dtype=object), 1, object)
    # an int64 array over 1 is handed back as it is; int64 numerators that
    # do not fit raise OverflowError, which sends the table to Python ints
    small = np.array([1, -2], dtype=np.int64)
    nums, lcm = games._numerators(small, 1, np.int64)
    assert nums is small and lcm == 1
    with pytest.raises(OverflowError):
        games._numerators(blocks[0], 1, np.int64)


# ---------------------------------------------------------------------------
# Myerson value
# ---------------------------------------------------------------------------

def test_myerson_single_edge_line():
    """n=3, one edge (1,2), v(S) = 1 iff |S| >= 2. Fresh enumeration of the
    component-decomposed worths over all 8 coalitions pins the oracle."""
    g = build_graph(["1", "2", "3"], [("1", "2")])
    v = NodeCharacteristic(3, lambda m: 1 if m.bit_count() >= 2 else 0)
    # masks: 1={1}, 2={2}, 4={3); only {1,2} stays connected, {3} always apart
    lifted_table = {0b000: 0, 0b001: 0, 0b010: 0, 0b100: 0,
                    0b011: 1, 0b101: 0, 0b110: 0, 0b111: 1}
    lifted = NodeCharacteristic.from_table(3, lifted_table)
    oracle = permutation_shapley(lifted)
    assert oracle == [Fraction(1, 2), Fraction(1, 2), 0]
    assert list(myerson(GraphGame(g, v)).values) == oracle


def test_myerson_complete_graph_equals_shapley():
    rng = np.random.default_rng(107)
    n = 4
    labels = [f"n{i}" for i in range(n)]
    g = build_graph(labels, [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)])
    v = random_zero_normalized_game(rng, n)
    assert myerson(GraphGame(g, v)).values == shapley_exact(v).values


def test_myerson_edgeless_graph_pays_singletons():
    n = 3
    g = build_graph(["a", "b", "c"], [])
    worths = {0b001: 5, 0b010: 7, 0b100: 11}
    v = NodeCharacteristic(n, lambda m: sum(w for bit, w in worths.items() if m & bit))
    assert myerson(GraphGame(g, v)).values == (5, 7, 11)


def test_allocation_helpers():
    alloc = Allocation((Fraction(1, 2), Fraction(3, 2)), True, ("a", "b"))
    assert alloc["a"] == Fraction(1, 2)
    assert alloc[1] == Fraction(3, 2)
    assert alloc.total() == 2
    assert alloc.as_dict() == {"a": Fraction(1, 2), "b": Fraction(3, 2)}
    assert alloc.as_floats() == [0.5, 1.5]
    with pytest.raises(ValueError):
        Allocation((1, 2), True, ("only",))
