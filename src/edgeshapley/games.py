"""Coalition games and the allocation engines.

A coalition is an int bit mask over canonical player indices (see
:mod:`edgeshapley.masks`). A characteristic function evaluates coalitions in
exactly one value domain:

* exact -- arbitrary-precision rationals (`fractions.Fraction`, plain ints);
* approx -- binary64 floats.

The two domains never mix inside one computation. Every full-enumeration
value (plain, pruned, Myerson) comes from one engine: :func:`_table` is the
only way to the worth of all 2^n coalitions, and :func:`_reduce` turns that
table into marginal sums, for every player or for a chosen few; symmetry and
null-player detection are views of the same table, and fairness deltas a
two-player view (each edge-deleted game's own table, reduced for the edge's
two endpoints, see :func:`edgeshapley.edgegame.audit`). Every reduction
reads its size tables from one cache, built once per player count and
domain and kept across calls (see :class:`_ReduceTables`). :func:`_table`
runs the capacity and grounding checks before it allocates anything and
hands out one representation per domain: float64 for approx games, integer
numerators over one common denominator for exact games (int64 when a bound
proves every marginal sum safe, Python ints otherwise), so no engine reads
the game's own ints and Fractions. How coalitions split
on a graph is one more table, :func:`_component_table`: the component of
each coalition's lowest member. The Myerson value reduces the
graph-restricted table folded from it, and
:func:`edgeshapley.edgegame.component_efficiency_check` reads its additivity
hypothesis from it. A game that declares its dividends (as the lift of an
edge worth whose count rows each hold one value, a containment route game,
does) fills its table by adding each row onto the view of the supersets of
its node mask: float64 when approx, int64 numerators when exact and the
rows' magnitudes sum below 2^62, the rows' own ints and Fractions (then
brought to numerators) otherwise (:func:`_exact_row_dtype`, which picks
the dtype of count rows too). Only this module reads dividend rows: the
fill, the sampler's completion steps, :func:`shapley_dividends` (the
closed form, read off the rows with no table) and, for other mask arrays,
:func:`_dividend_worths`. Other games fill the table through
:meth:`NodeCharacteristic.evaluate_many`; lifted edge games whose worth
declares other count rows (power games, explicit tables, strict-equality
routes) evaluate them on node masks, and other lifted edge games evaluate
their worth on induced edge masks (see :func:`edgeshapley.edgegame.lift`). One
helper, :func:`_numerators`, turns exact worths into integer numerators
over one denominator, for the table, for the reduction's Python-int
fallback and for the sampler; an int64 array is its own numerators over 1. The domain is
the game's ``exact`` flag, never the table's dtype. The float reduction
weights each player's marginals from one half-size table of size weights.
The exact reduction sums the numerators by coalition size (as Python ints
where the int64 bound does not cover them), for every player at once in a
constant number of passes over the table, and forms one `Fraction` per
player at the end. Member masks, which leave terms out of the sums, prune
float reductions only: exact pruned values are the full sums (see
:func:`edgeshapley.edgegame.edge_shapley_pruned`). The sampler reads a
block of permutations' prefix worths at once, a dividend game's straight
from its declared rows in either domain, and sums an exact game's as
integer numerators over one denominator (see :func:`shapley_sampled`).

Determinism contract: the table is built in ascending mask order in one
pass, and every float sum runs over a contiguous array in that order, so
identical inputs give bit-identical results. There is no thread count for
the result to depend on: ``threads=`` is accepted and ignored.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import CapacityError, CharacteristicContractError
from .graph import Graph
from .masks import MAX_ENUMERATION_PLAYERS, all_masks, indices_of, squeeze, superset_view

Coalition = int
Value = Union[Fraction, int, float]

#: Hard bound imposed by the bit-mask coalition encoding.
MAX_PLAYERS = 63

#: Full 2^n enumeration is refused above this many players unless the caller
#: explicitly raises the limit.
DEFAULT_ENUMERATION_LIMIT = 24

#: Relative tolerance of every float check, in the library and the CLI alike.
CHECK_TOL = 1e-9

#: Peak bytes an enumeration holds per coalition: the table, the masks,
#: the temporaries of the table build and the reduction, and the size
#: tables the reduction caches (see _reduce_tables). The cache keeps them
#: after a call returns: 8 B per half-size entry on approx games (the
#: float weights, 4 B per coalition) and 1.7-3.4 B on exact ones (the
#: uint8 sizes and the two halves, n = 20 down to 16), by tracemalloc at
#: n = 16-20. On a cleared cache, edge_shapley / edge_shapley_pruned /
#: myerson / component_efficiency_check read 16-18 / 25 / 41 / 53 on
#: approx supply games, and a call of the same n on a warm cache holds up
#: to the 4 B kept more. The figures that follow were read before the
#: cache, and each may be that much higher: 15-16 / 15-16 / 41 / 41 on
#: exact contract games (counts above 256, an int64 dividend table).
#: Games on the count-row path, whose table takes its counts from the
#: doubling fill and adds each row on one view, read 16 / 16 / 41 / 41 on
#: |F|^2 power games, 16-17 / 16-17 / 41 / 41 on 24-entry exact explicit
#: tables and strict-equality contract paths, and 21-23 / 26 / 41 / 49 on
#: approx tables. Games whose edge worth declares
#: neither dividends nor count rows (the unique pass of the batch path),
#: such as a path game worth 1000 m for edge mask m, read 57-58 for all
#: four, exact ones on ints and Fractions alike, since the table build
#: hands out int64 numerators. Worths beyond 2^62 stay one Python int per
#: coalition, though the reduction makes no per-player objects, and read
#: 57-58 / 57-58 / 66-80 / 73-74 on a path game worth m << 70 for edge
#: mask m, 49-52 / 49-52 / 91-108 / 99-104 on contract paths with counts
#: beyond 2^64, 16 / 16 / 55-65 / 65-69 on |F|^40 power games (whose
#: table gathers the |E| + 1 value objects) and 17-22 / 17-22 / 42-73 /
#: 42-55 on explicit tables and strict-equality paths worth beyond 2^62.
#: myerson and the component check exceed the budget there, so they first
#: budget two of the table's largest ints per coalition on top of it
#: (:func:`_check_object_capacity`): 136 B on those contract paths, whose
#: ints take 36 B, and 160 B on |F|^40 of 19 edges (48 B). On exact games
#: edge_shapley_pruned builds and reduces edge_shapley's table in the same
#: passes, so it peaks where edge_shapley does. 2^n times the budget must
#: fit in physical memory.
_COALITION_BYTES = 64


class NodeCharacteristic:
    """A total function from coalitions (bit masks) to worth.

    ``fn`` must be deterministic and effect-free with ``fn(0) == 0``. Either
    domain may supply ``fn_many``, which maps an int64 mask array to a worth
    array: float64 for approx characteristics; for exact ones an object
    array of ints and Fractions, or int64, read as numerators over 1. It
    must agree with ``fn``. The engines add declared ``dividends`` onto the
    table's superset views (:func:`_table`), and the sampler reads the
    steps at which rows complete; other games both evaluate through
    :meth:`evaluate_many`: ``fn_many`` when given, else ``fn`` once per mask
    (it sums the rows of a dividend game without ``fn_many``);
    :func:`edgeshapley.edgegame.lift` gives an edge game whose worth
    declares count rows of one value each these rows' ``dividends``, one
    whose worth declares other count rows a ``fn_many`` on node masks (and
    the private ``_all_worths`` hook, by which :func:`_table` fills the
    dense table in O(2^n)), and other edge games on at most 63 edges one on
    induced edge masks.

    ``dividends``, when given, declares the game as a sum of unanimity games:
    ``(node_mask, value)`` rows, where S is worth the sum of ``value`` over
    the rows whose node mask lies inside S, added in row order from 0 (a
    negative mask, or one naming players past n, breaks the contract and is
    refused here). It must agree with ``fn`` bit for bit; the dense table
    is filled from it (see :func:`_table`) and the sampler reads it (see
    :func:`shapley_sampled`). A sum of two games declares none, since it
    adds its floats in another order, and sums the two batch worths.
    """

    __slots__ = ("n", "exact", "dividends", "_fn", "_fn_many", "_all_worths")

    def __init__(
        self,
        n: int,
        fn: Callable[[Coalition], Value],
        *,
        exact: bool = True,
        fn_many: Callable[[np.ndarray], np.ndarray] | None = None,
        dividends: tuple[tuple[int, Value], ...] | None = None,
    ):
        if n < 1:
            raise ValueError("a game needs at least one player")
        if n > MAX_PLAYERS:
            raise CapacityError(f"at most {MAX_PLAYERS} players supported, got {n}")
        self.n = n
        self.exact = exact
        self.dividends = None if dividends is None else tuple(dividends)
        for mask, _ in self.dividends or ():
            if mask < 0 or mask >> n:
                raise CharacteristicContractError(
                    f"dividend row on coalition {mask:#b} names players outside the "
                    f"{n}-player game"
                )
        self._fn = fn
        self._fn_many = fn_many
        # the worths of every coalition in ascending mask order, equal to
        # evaluate_many(all_masks(n)); only edgegame.lift sets it (count rows)
        self._all_worths: Callable[[], np.ndarray] | None = None

    def __call__(self, coalition: Coalition) -> Value:
        return self._fn(coalition)

    @property
    def has_vector_path(self) -> bool:
        return self._fn_many is not None or self.dividends is not None

    def evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        if self._fn_many is not None:
            return self._fn_many(masks)
        if self.dividends is not None:
            return _dividend_worths(self.dividends, self.exact, masks)
        dtype = object if self.exact else np.float64
        return np.fromiter(map(self._fn, masks.tolist()), dtype=dtype, count=masks.size)

    @classmethod
    def from_table(
        cls,
        n: int,
        table: dict[Coalition, Value],
        *,
        exact: bool = True,
    ) -> "NodeCharacteristic":
        """Characteristic backed by an explicit coalition->worth table.

        Coalitions missing from the table are worth 0.
        """
        snapshot = dict(table)
        return cls(n, lambda m: snapshot.get(m, 0), exact=exact)

    def __add__(self, other: "NodeCharacteristic") -> "NodeCharacteristic":
        if not isinstance(other, NodeCharacteristic):
            return NotImplemented
        if self.n != other.n or self.exact != other.exact:
            raise ValueError("can only add games with equal player count and domain")
        a, b = self._fn, other._fn
        fn_many = None
        if self.has_vector_path and other.has_vector_path:
            am, bm = self.evaluate_many, other.evaluate_many
            # exact batch worths may be int64, where a sum could overflow
            dtype = object if self.exact else None
            fn_many = lambda masks: np.add(am(masks), bm(masks), dtype=dtype)
        return NodeCharacteristic(
            self.n, lambda m: a(m) + b(m), exact=self.exact, fn_many=fn_many
        )


@dataclass(frozen=True)
class GraphGame:
    """A node-coalition game played on a graph."""

    graph: Graph
    v: NodeCharacteristic

    def __post_init__(self):
        if self.v.n != self.graph.n:
            raise ValueError(
                f"characteristic has {self.v.n} players but graph has {self.graph.n} nodes"
            )


@dataclass(frozen=True)
class Allocation:
    """Per-player value vector in canonical player order."""

    values: tuple[Value, ...]
    exact: bool
    nodes: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.nodes is not None and len(self.nodes) != len(self.values):
            raise ValueError("label count does not match value count")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, key: int | str) -> Value:
        if isinstance(key, str):
            if self.nodes is None:
                raise KeyError("allocation carries no node labels")
            return self.values[self.nodes.index(key)]
        return self.values[key]

    def with_labels(self, nodes: Sequence[str]) -> "Allocation":
        return Allocation(self.values, self.exact, tuple(nodes))

    def total(self) -> Value:
        return sum(self.values)

    def as_floats(self) -> list[float]:
        return [float(x) for x in self.values]

    def as_dict(self) -> dict[str, Value]:
        if self.nodes is None:
            raise KeyError("allocation carries no node labels")
        return dict(zip(self.nodes, self.values))


@dataclass
class EngineStats:
    """Work counters an engine fills in when handed to it: coalition table
    entries filled (2^n per enumeration, as the table is always full) and
    the marginal terms that enter the values: 2^(n-1) per player reduced,
    whichever passes read them.
    :func:`edgeshapley.edgegame.edge_shapley_pruned` counts only the terms
    it keeps, 2^(n-1) - 2^(n-1-deg i) for node i; its exact sums read the
    others too, which are zero. A lifted edge
    game whose worth declares neither count rows nor a vector path fills its
    2^n entries with one call of the edge worth per distinct induced edge
    set (see :meth:`edgeshapley.edgegame.EdgeCharacteristic.evaluate_many`)."""

    marginals: int = 0
    evaluations: int = 0


def shapley_weights(n: int) -> tuple[Fraction, ...]:
    """Coalition-size weights s!(n-s-1)!/n! for s = 0..n-1, as exact rationals."""
    fact = [math.factorial(k) for k in range(n + 1)]
    return tuple(Fraction(fact[s] * fact[n - s - 1], fact[n]) for s in range(n))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_capacity(v: NodeCharacteristic, limit: int | None):
    """Refuse an enumeration above ``limit`` players, above the int64 mask
    range, or whose estimated footprint exceeds physical memory."""
    n = v.n
    if n > MAX_ENUMERATION_PLAYERS:
        raise CapacityError(
            f"{n} players exceeds the {MAX_ENUMERATION_PLAYERS}-player bound of "
            "the int64 coalition table"
        )
    bound = MAX_ENUMERATION_PLAYERS if limit is None else limit
    if n > bound:
        raise CapacityError(
            f"{n} players exceeds the enumeration limit {bound}; "
            "pass a larger limit to override"
        )
    _check_memory(_COALITION_BYTES << n, f"enumerating {n} players")


def _check_memory(need: int, what: str):
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise CapacityError(
            f"{what} needs about {need / 2**30:.2f} GiB, "
            f"more than the {memory / 2**30:.2f} GiB of physical memory"
        )


def _check_object_capacity(table: np.ndarray, n: int):
    """Refuse to fold (:func:`myerson`) or split (the component check) an
    exact table of Python ints, the numerators beyond int64, when two ints
    per coalition as large as the table's largest, on top of
    ``_COALITION_BYTES``, exceed physical memory: the table may hold one
    int per coalition, and the fold and the split each make one more.
    Int64 and float tables pass as they are."""
    if table.dtype != object:
        return
    largest = sys.getsizeof(max(int(table.max()), -int(table.min())))
    _check_memory(
        (_COALITION_BYTES + 2 * largest) << n,
        f"folding or splitting the {n}-player table of Python ints ({largest} B each)",
    )


def _check_grounded(v: NodeCharacteristic):
    worth = v(0)
    if worth != 0:
        raise CharacteristicContractError(
            f"characteristic must satisfy v(empty) = 0, got {worth!r}"
        )


#: Exact rows accumulate in int64 while the sum of their largest
#: magnitudes, which bounds every worth, stays below this.
_INT64_DIVIDEND_BOUND = 1 << 62


def _exact_row_dtype(row_values: Iterable[Sequence[Value]]):
    """Dtype that exact rows accumulate in, given each row's values: int64
    when every value is a Python int and the rows' largest magnitudes sum
    below 2^62, object (the rows' own arithmetic) otherwise. A worth adds at
    most one value of each row, so that sum bounds every worth. It serves
    dividend rows (one value each) and the count rows of
    :func:`edgeshapley.edgegame.lift` alike."""
    bound = 0
    for values in row_values:
        if any(type(val) is not int for val in values):
            return object
        bound += max(map(abs, values))
    return np.int64 if bound < _INT64_DIVIDEND_BOUND else object


def _dividend_dtype(rows: tuple[tuple[int, Value], ...], exact: bool):
    """Dtype that sums of the dividend ``rows`` accumulate in: float64 for
    approx rows, :func:`_exact_row_dtype` for exact ones. An exact row that
    is not a rational breaks the contract, named by its mask. So do approx
    rows whose magnitudes, summed in row order, are not finite (named by the
    row where the sum left the float range): they bound every worth and
    every partial sum of the rows, so finite magnitudes keep every table
    entry and sampled worth finite."""
    if not exact:
        total = 0.0
        for mask, val in rows:
            total += abs(val)
            if not math.isfinite(total):
                raise CharacteristicContractError(
                    f"approx dividends sum beyond the float range: the magnitudes of the "
                    f"rows up to the one on coalition {mask:#b} add to {total!r}"
                )
        return np.float64
    for mask, val in rows:
        if not isinstance(val, numbers.Rational):
            raise CharacteristicContractError(
                f"exact characteristic declares the dividend {val!r} on coalition "
                f"{mask:#b}, which is not an int or Fraction"
            )
    return _exact_row_dtype((val,) for _, val in rows)


def _dividend_worths(
    rows: tuple[tuple[int, Value], ...], exact: bool, masks: np.ndarray
) -> np.ndarray:
    """Worths of the game declared by ``rows`` on any coalition array: S
    gains each row's value where ``S & R == R``, in row order from 0, in the
    rows' dtype (:func:`_dividend_dtype`; exact int64 sums are numerators
    over 1, as in the dense fill of :func:`_table`)."""
    out = np.zeros(masks.shape, dtype=_dividend_dtype(rows, exact))
    held = np.empty_like(masks)
    hit = np.empty(masks.shape, dtype=bool)
    for r, val in rows:
        np.bitwise_and(masks, r, out=held)
        np.equal(held, r, out=hit)
        np.add(out, val, out=out, where=hit)
    return out


def _table(
    v: NodeCharacteristic,
    limit: int | None,
    stats: EngineStats | None = None,
) -> tuple[np.ndarray, int]:
    """The coalition table of ``v`` as ``(table, D)``: coalition S, in
    ascending mask order, is worth ``table[S] / D``. Every engine gets its
    table here, after the capacity check (:func:`_check_capacity`) and the
    v(empty) = 0 check, before anything is allocated; ``stats`` counts 2^n
    evaluations.

    A game that declares its dividends starts from zeros in the rows' dtype
    (see :func:`_dividend_dtype`) and adds each row, in row order, onto the
    view of the supersets of its node mask (:func:`masks.superset_view`):
    every coalition gets the additions of the rows inside it, in row order
    from 0, and no mask array is built. A lifted edge game whose worth
    declares other count rows fills it through its ``_all_worths`` hook
    (the doubling fill of the induced-edge counts and one view per row, see
    :func:`edgeshapley.edgegame.lift`), which gives
    what :meth:`NodeCharacteristic.evaluate_many` of all masks gives. Other
    games are evaluated through :meth:`NodeCharacteristic.evaluate_many` of
    all masks.

    Approx tables are float64 over D = 1. Exact ones are integer numerators
    over D, the lcm of the worths' denominators (an int64 dividend fill is
    over 1 as it is), from :func:`_numerators`: int64 when every
    |numerator| < 2^(61-n), which bounds each per-size marginal sum of the
    reduction, Python ints otherwise. A worth that is not a rational breaks
    the exact contract.
    """
    _check_capacity(v, limit)
    _check_grounded(v)
    if stats is not None:
        stats.evaluations += 1 << v.n
    if v._all_worths is not None:
        table = v._all_worths()
    elif v.dividends is None:
        table = v.evaluate_many(all_masks(v.n))
    else:
        table = np.zeros(1 << v.n, dtype=_dividend_dtype(v.dividends, v.exact))
        for mask, value in v.dividends:
            view = superset_view(table, mask)
            np.add(view, value, out=view)
        if table.dtype == np.int64:
            return table, 1
    if not v.exact:
        return table, 1
    try:
        small, denom = _numerators(table, 1, np.int64)
    except OverflowError:
        small = None
    if small is not None and _int64_reducible(small, v.n):
        return small, denom
    return _numerators(table, 1, object)


def _numerators(
    worths: np.ndarray,
    denom: int,
    dtype,
    masks: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Exact ``worths`` as integer numerators over D, the lcm of ``denom``
    and the worths' denominators, returned with D, in ``dtype``: int64
    (`OverflowError` when one does not fit) or object (Python ints).

    An int64 array is its own numerators over 1, known from its dtype alone.
    Other arrays are scanned for their types: Python ints are their own
    numerators; any other rational's numerator is taken as a Python int (a
    Fraction of numpy ints holds numpy ints, which would wrap) and scaled
    to D one worth at a time, so no array of new ints is held beside the
    result. A worth that is not a rational breaks the exact contract; the
    error names its coalition, ``masks`` at its position (by default the
    position itself, as in a full table).
    """
    if worths.dtype != np.int64:
        flat = worths.ravel()
        kinds = set(map(type, flat))
        if not all(issubclass(kind, numbers.Rational) for kind in kinds):
            i, bad = next(
                (i, x) for i, x in enumerate(flat) if not isinstance(x, numbers.Rational)
            )
            mask = i if masks is None else int(masks.flat[i])
            raise CharacteristicContractError(
                f"exact characteristic returned {bad!r} for coalition "
                f"{mask:#b}, which is not an int or Fraction"
            )
        if not kinds <= {int}:
            dens = np.fromiter(
                map(operator.attrgetter("denominator"), flat), dtype=object, count=flat.size
            )
            distinct = set(dens)
            lcm = math.lcm(denom, *distinct)
            nums = map(operator.index, map(operator.attrgetter("numerator"), flat))
            if lcm != 1:
                scale = {d: lcm // int(d) for d in distinct}
                nums = map(operator.mul, nums, map(scale.__getitem__, dens))
            return np.fromiter(nums, dtype=dtype, count=flat.size).reshape(worths.shape), lcm
    if denom != 1:
        worths = worths.astype(object) * denom
    return worths.astype(dtype, copy=False), denom


def _int64_reducible(table: np.ndarray, n: int) -> bool:
    """Whether the int64 numerators of an n-player table lie below
    2^(61-n) in magnitude, so every per-size marginal sum fits in int64."""
    bound = 1 << max(61 - n, 0)
    return -bound < int(table.min()) and int(table.max()) < bound


class _Half:
    """The players ``first`` .. ``first + b - 1`` of an n-player coalition,
    whose bits are one axis of the table reshaped to (2^(n-h), 2^h), with
    the other n - b players on the other axis: ``groups[p]`` the values x
    of these b bits with popcount(x) = p, in ascending order; ``shift[p,
    x]`` the flat position of (x, p + popcount(x)) in an (2^b, n + 1)
    array, for p up to n - b; ``bits[j, x]`` bit j of x, as 0/1 int64."""

    __slots__ = ("first", "groups", "shift", "bits")

    def __init__(self, first: int, b: int, n: int):
        x = np.arange(1 << b, dtype=np.int64)
        pop = np.bitwise_count(x).astype(np.int64)
        self.first = first
        order = np.argsort(pop, kind="stable")
        self.shift = x * (n + 1) + pop + np.arange(n - b + 1, dtype=np.int64)[:, None]
        self.bits = (x >> np.arange(b, dtype=np.int64)[:, None]) & 1
        # cached with the other per-n tables (see _reduce_tables); the
        # groups are views of order, so they are sliced after it is frozen
        for array in (order, self.shift, self.bits):
            array.flags.writeable = False
        ends = np.cumsum(np.bincount(pop)).tolist()
        self.groups = [order[a:z] for a, z in zip([0, *ends], ends)]


class _ReduceTables:
    """The per-n tables every reduction of n-player tables in one domain
    reads, all read-only: the float size weights of the half-size
    coalitions (approx) or, exact, the integer size coefficients
    ``coef[s]`` = s!(n-s-1)!, n!, the weights ``hold_coef[t] = coef[t-1] +
    coef[t]`` of a player's size-t sums, the low and high halves of the
    players (see :class:`_Half` and :func:`_exact_size_sums`) and the
    half-size coalitions' sizes (see :func:`_reduce`). Reductions take
    them from :func:`_reduce_tables`, which builds them once per player
    count and domain and keeps them across calls."""

    __slots__ = ("weights", "coef", "scale", "hold_coef", "low", "high", "sizes")

    def __init__(self, n: int, exact: bool):
        # popcount(k) for k < 2^(n-1) as uint8, by doubling (k + 2^b holds
        # one more player than k), with no int64 index of the coalitions
        sizes = np.zeros(1 << (n - 1), dtype=np.uint8)
        for b in range(n - 1):
            np.add(sizes[: 1 << b], 1, out=sizes[1 << b : 2 << b])
        sizes.flags.writeable = False
        self.weights = self.coef = self.hold_coef = self.low = self.high = self.sizes = None
        self.scale = 1
        if exact:
            fact = [math.factorial(k) for k in range(n + 1)]
            self.coef = tuple(fact[s] * fact[n - s - 1] for s in range(n))
            self.hold_coef = tuple(map(operator.add, (0, *self.coef), (*self.coef, 0)))
            self.scale = fact[n]
            h = n // 2
            self.low, self.high = _Half(0, h, n), _Half(h, n - h, n)
            self.sizes = sizes
        else:
            self.weights = np.array([float(w) for w in shapley_weights(n)])[sizes]
            self.weights.flags.writeable = False


#: The per-n tables of the last two (n, exact) reduced: enough for every
#: table of one game (edge deletion keeps n) and a switch of domain.
_reduce_tables = functools.lru_cache(maxsize=2)(_ReduceTables)


def _half_size_sums(grid: np.ndarray, axis: int, half: _Half, other: _Half, n: int):
    """``out[x, t]``: the sum of the table over the coalitions of size t
    whose bits in ``half`` are x. ``grid`` is the table reshaped to
    (2^(n-h), 2^h) and ``axis`` the axis of ``other``'s bits: each of its
    popcount groups p is gathered and summed along it and lands on row x at
    column p + popcount(x)."""
    by_count = np.stack([np.take(grid, g, axis=axis).sum(axis=axis) for g in other.groups])
    out = np.zeros((by_count.shape[1], n + 1), dtype=grid.dtype)
    np.put(out, half.shift, by_count)
    return out


def _exact_size_sums(table: np.ndarray, n: int, players: list[int], tables: _ReduceTables):
    """``(held, tot)``: ``held[k][t]`` the sum of the table over the size-t
    coalitions that hold ``players[k]``, and ``tot[t]`` over all size-t
    coalitions, as Python ints, in at most two passes over the table
    however many players are asked for.

    The table, reshaped to (2^(n-h), 2^h) with h = n // 2, is summed by the
    popcount of the high bits (one gather and sum per popcount group): with
    each column shifted by its own popcount that gives the per-size sums
    of every low-bit pattern, whose column sums are ``tot`` and whose
    products with the low players' 0/1 bit rows are their ``held`` rows.
    High players, when asked for, take the same sums the other way round:
    the column sums by the popcount of the low bits, shifted by the
    popcount of the high bits, times the high players' bit rows. Every
    partial sum is a sum over a subset of the table, so int64 numerators
    under the 2^(61-n) bound stay exact.
    """
    low, high = tables.low, tables.high
    grid = table.reshape(-1, 1 << high.first)
    low_sums = _half_size_sums(grid, 0, low, high, n)
    held: dict[int, list] = {}
    lows = [i for i in players if i < high.first]
    if lows:
        held.update(zip(lows, (low.bits[lows] @ low_sums).tolist()))
    highs = [i - high.first for i in players if i >= high.first]
    if highs:
        rows = high.bits[highs] @ _half_size_sums(grid, 1, high, low, n)
        held.update(zip((high.first + j for j in highs), rows.tolist()))
    return [held[i] for i in players], low_sums.sum(axis=0).tolist()


#: Exact reductions of at most this many marginal terms in all (two
#: players up to 14, every player up to 11) take one pass per player: below
#: it the fixed cost of the constant-pass path's numpy calls outweighs
#: the passes it saves. Larger ones take the constant-pass path.
_PER_PLAYER_TERMS = 1 << 14


def _reduce(
    table: np.ndarray,
    denom: int,
    n: int,
    exact: bool,
    *,
    players: Iterable[int] | None = None,
    member_masks: Sequence[int] | None = None,
    stats: EngineStats | None = None,
) -> tuple[Value, ...]:
    """Shapley value of player i = sum over coalitions S avoiding i of
    ``weight(|S|) * (table[S + i] - table[S])``, for each of ``players``
    (default every player, in index order), in that order.
    ``member_masks[i]``, when given, keeps only the coalitions that meet
    it (bit i ignored); only float tables take member masks.

    An exact table (``exact``, the game's domain) holds integer numerators
    over ``denom`` (see :func:`_table`); int64 numerators that the
    2^(61-n) bound does not cover (a Myerson fold, a dividend fill near
    2^62) are summed as Python ints. Player i gets the single rational
    ``sum_s coef[s] * (A[s+1] + A[s] - tot[s]) / (n! * denom)``, coef[s] =
    s!(n-s-1)!, where A[t] sums the size-t coalitions that hold i and
    tot[t] all size-t coalitions: the A rows of all the players and tot
    come from at most two passes over the table (see
    :func:`_exact_size_sums`). Reductions of at most ``_PER_PLAYER_TERMS``
    marginal terms in all take the per-player loop below instead.

    Float tables, and those small exact reductions, read each player's
    marginals from the table reshaped to (2^(n-1-i), 2, 2^i): its
    ``[:, 0, :]`` rows are the coalitions avoiding i and its ``[:, 1, :]``
    rows the same coalitions with i added, both in ascending mask order.
    Position k of that order is the coalition whose mask with bit i
    squeezed out (see :func:`masks.squeeze`) is k, so it has popcount(k)
    members: one half-size table of sizes (and of float weights) serves
    every player. Each player's marginals are subtracted into one reused
    half-size buffer. Exact marginals are summed per coalition size. Float
    marginals are weighted in place, filtered by member masks as ``k &
    squeeze(member_masks[i]) != 0`` (k from an index built per call) and
    summed as one contiguous array. The size tables are the cached ones of
    n players in the domain (see :class:`_ReduceTables`), which hold the
    same numbers whichever call built them. A player's value reads only
    the table and that player's view of it, so it does not depend on
    which other players are reduced.
    """
    if exact and member_masks is not None:
        raise ValueError("member masks prune float reductions only")
    tables = _reduce_tables(n, exact)
    wanted = list(range(n) if players is None else players)
    out: list[Value] = []
    if exact:
        if table.dtype == np.int64 and not _int64_reducible(table, n):
            table = _numerators(table, 1, object)[0]
        denom *= tables.scale
        if len(wanted) << (n - 1) > _PER_PLAYER_TERMS:
            held, tot = _exact_size_sums(table, n, wanted, tables)
            base = sum(map(operator.mul, tables.coef, tot))
            if stats is not None:
                stats.marginals += len(wanted) << (n - 1)
            return tuple(
                Fraction(sum(map(operator.mul, tables.hold_coef, row)) - base, denom)
                for row in held
            )
    weights, coef, sizes = tables.weights, tables.coef, tables.sizes
    diff = np.empty(1 << (n - 1), dtype=table.dtype)
    if member_masks is not None:
        index = np.arange(diff.size, dtype=np.int64)
    for i in wanted:
        rows = table.reshape(-1, 2, 1 << i)
        np.subtract(rows[:, 1, :], rows[:, 0, :], out=diff.reshape(-1, 1 << i))
        terms = diff
        if not exact:
            diff *= weights
            if member_masks is not None:
                terms = diff[(index & squeeze(member_masks[i], 1 << i)) != 0]
        if stats is not None:
            stats.marginals += int(terms.size)
        if exact:
            by_size = np.zeros(n, dtype=table.dtype)
            np.add.at(by_size, sizes, terms)
            out.append(Fraction(sum(c * int(t) for c, t in zip(coef, by_size)), denom))
        else:
            out.append(float(terms.sum()))
        # a filtered copy would stay alive through the next player's
        # subtraction into the buffer
        del terms
    return tuple(out)


def shapley_exact(
    v: NodeCharacteristic,
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
    stats: EngineStats | None = None,
) -> Allocation:
    """Shapley value by full subset enumeration.

    Each player receives the sum over coalitions S avoiding them of
    ``weight(|S|) * (v(S + {i}) - v(S))``, with size weights formed as exact
    rationals. Exact games return `Fraction` values whose total equals v(N)
    exactly; approx games return floats with the weights converted to binary64
    only after the rational is formed. ``threads`` has no effect.
    """
    table, denom = _table(v, limit, stats)
    return Allocation(_reduce(table, denom, v.n, v.exact, stats=stats), v.exact)


def shapley_dividends(v: NodeCharacteristic) -> Allocation:
    """Shapley value of a game that declares its dividends, read off the
    rows with no enumeration: each member of a row's node mask gets
    value/|mask| of it, added in row order onto 0 (a `Fraction` for exact
    rows, binary64 for float rows). Refuses what :func:`_table` refuses of
    the rows: v(empty) != 0, an exact row that is not a rational."""
    if v.dividends is None:
        raise ValueError("the game declares no dividends")
    _check_grounded(v)
    _dividend_dtype(v.dividends, v.exact)
    totals: list[Value] = [Fraction(0) if v.exact else 0.0] * v.n
    for mask, value in v.dividends:
        members = indices_of(mask)
        for i in members:
            totals[i] += Fraction(value, len(members)) if v.exact else value / len(members)
    return Allocation(tuple(totals), v.exact)


_SAMPLE_BLOCK = 4096

#: Dividend rows are tracked in chunks of this many, as the bits of one
#: uint16 per player and step; the subset sums of the first chunk fill one
#: 2^16-entry float table.
_ROW_CHUNK = 16


def _held_rows(bits: np.ndarray, full: int, perms: np.ndarray) -> np.ndarray:
    """``held[s, t]``: the rows of one chunk held by the first t + 1 players
    of permutation s, as bits. ``bits[j]`` holds the rows player j belongs
    to and ``full`` all the chunk's rows.

    A row is held from its completion step, the position of its last member,
    on; so the rows held at step t are those with no member after t. The
    member bits are OR-accumulated from the last step back, and each step
    keeps the rows missing from the next step's accumulation. A row without
    members is held from step 0.
    """
    later = np.take(bits, perms)
    for t in range(perms.shape[1] - 2, -1, -1):
        np.bitwise_or(later[:, t], later[:, t + 1], out=later[:, t])
    held = np.empty_like(later)
    np.bitwise_xor(later[:, 1:], full, out=held[:, :-1])
    held[:, -1] = full
    return held


def _completion_worths(rows: tuple[tuple[int, Value], ...], n: int, exact: bool):
    """``(worths, D)``: the per-step worths of a block of permutations of an
    n-player sum of unanimity games, the ``(node_mask, value)`` rows, with
    no prefix masks, as values (approx, D = 1) or exact integer numerators
    over D. Exact rows are brought to integer numerators over D, the lcm of
    their denominators (see :func:`_numerators`), before anything is added,
    so every sum is of ints:
    int64 when the scaled rows' magnitudes sum below 2^62 (see
    :func:`_exact_row_dtype`), Python ints otherwise. Approx rows stay in
    float64 (see :func:`_dividend_dtype`).

    ``rowsum[S]``, filled by doubling in row order (``rowsum[S | 1 << r] =
    rowsum[S] + value_r`` for S < 2^r), is the sum of the values of the
    first chunk's row subset S, added in row order from 0; a step's worth
    is ``rowsum`` of the first chunk's rows it holds (see
    :func:`_held_rows`). The rows of later chunks are added on top, row by
    row, at the steps that hold them. These are the additions
    :func:`_dividend_worths` makes on the prefix masks, in the same order,
    so float worths are bit-identical to it and exact ones equal.
    """
    dtype = _dividend_dtype(rows, exact)
    denom = 1
    if exact:
        nums, denom = _numerators(np.array([val for _, val in rows], dtype=object), 1, object)
        rows = tuple(zip((mask for mask, _ in rows), nums.tolist()))
        dtype = _exact_row_dtype((val,) for _, val in rows)
    chunks = []
    # a game without rows still gets one empty chunk, worth 0 at every step
    for start in range(0, max(len(rows), 1), _ROW_CHUNK):
        chunk = rows[start : start + _ROW_CHUNK]
        bits = np.zeros(n, dtype=np.uint16)
        for r, (mask, _) in enumerate(chunk):
            bits[indices_of(mask)] |= np.uint16(1 << r)
        chunks.append((bits, (1 << len(chunk)) - 1, [val for _, val in chunk]))
    head = chunks[0][2]
    rowsum = np.zeros(1 << len(head), dtype=dtype)
    for r, val in enumerate(head):
        low = 1 << r
        np.add(rowsum[:low], val, out=rowsum[low : 2 * low])

    def worths(perms: np.ndarray) -> np.ndarray:
        bits, full, _ = chunks[0]
        vals = np.take(rowsum, _held_rows(bits, full, perms))
        for bits, full, values in chunks[1:]:
            held = _held_rows(bits, full, perms)
            for r, val in enumerate(values):
                np.add(vals, val, out=vals, where=(held & np.uint16(1 << r)) != 0)
        return vals

    return worths, denom


def shapley_sampled(
    v: NodeCharacteristic,
    samples: int,
    seed: int,
) -> Allocation:
    """Monte-Carlo Shapley estimate: average marginal contribution over
    ``samples`` uniformly drawn player permutations.

    The generator is seeded, so identical (seed, samples, game) inputs give
    bit-identical output on every run. Permutations are drawn in blocks of
    ``_SAMPLE_BLOCK`` rows by ``rng.permuted(block, axis=1)``, whose rows
    must equal successive ``rng.permutation(n)`` draws, so the stream does
    not depend on the block size. A game that declares its dividends, in
    either domain, reads every prefix worth from the steps at which each
    row completes (see :func:`_completion_worths`); every other game from
    :meth:`NodeCharacteristic.evaluate_many` of the prefix masks, which
    gives the same worths. Marginals are added in sample order into float64
    (approx) or, exact, into Python-int numerators over one denominator:
    each block's worths are brought to numerators over the lcm of the
    denominators seen so far (see :func:`_numerators`; the accumulator is
    rescaled when the lcm grows), and each player gets one `Fraction` at
    the end. Exact dividends give integer numerators over their rows' lcm
    (see :func:`_completion_worths`), with no type scan. Exact sums do not
    depend on their order, so this equals adding the game's own ints and
    Fractions.
    An approx running sum that leaves the float range breaks the contract,
    named by its player, with no float warning; finite sums are untouched.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _check_grounded(v)
    n = v.n
    rng = np.random.default_rng(seed)
    completion_worths = None
    denom = 1  # exact: acc holds numerators over denom
    if v.dividends is not None:
        completion_worths, denom = _completion_worths(v.dividends, n, v.exact)
    acc = np.zeros(n, dtype=object if v.exact else np.float64)
    remaining = samples
    base = np.tile(np.arange(n), (_SAMPLE_BLOCK, 1))
    while remaining > 0:
        k = min(remaining, _SAMPLE_BLOCK)
        perms = rng.permuted(base[:k], axis=1)
        # a named block outlives the next block's allocations; freeing it
        # at once measured 15-20% slower on 32-48-player route games
        if completion_worths is not None:
            vals, prefixes = completion_worths(perms), None
        else:
            prefixes = np.bitwise_or.accumulate(np.int64(1) << perms, axis=1)
            vals = v.evaluate_many(prefixes.ravel()).reshape(perms.shape)
        if v.exact and completion_worths is not None:
            vals = vals.astype(object, copy=False)  # numerators over denom
        elif v.exact:
            vals, lcm = _numerators(vals, denom, object, prefixes)
            if lcm != denom:
                acc *= lcm // denom
                denom = lcm
        with np.errstate(over="ignore", invalid="ignore"):
            marginals = np.diff(vals, axis=1, prepend=0)
            np.add.at(acc, perms.ravel(), marginals.ravel())
        remaining -= k
        if not v.exact and not np.isfinite(acc).all():
            i = int(np.argmin(np.isfinite(acc)))
            raise CharacteristicContractError(
                f"approx marginals of player {i} sum to {float(acc[i])!r} over the first "
                f"{samples - remaining} samples, beyond the float range"
            )
    if v.exact:
        return Allocation(tuple(Fraction(t, denom * samples) for t in acc), True)
    return Allocation(tuple(float(x) for x in acc / samples), False)


def _component_table(g: Graph) -> np.ndarray:
    """For every coalition S, in ascending mask order, the component of S's
    lowest member inside the subgraph S induces, as an int64 mask (0 for the
    empty coalition).

    ``reach[X] = X | N(X)`` is filled by doubling over the players; each
    coalition then starts from its lowest member and grows by
    ``comp = reach[comp] & S`` until no coalition changes, in place on two
    swapped buffers (each pass reaches one edge further).
    """
    n = g.n
    reach = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        low = 1 << i
        np.bitwise_or(reach[:low], low | g.adjacency_mask(i), out=reach[low : 2 * low])
    masks = all_masks(n)
    comp = masks & -masks
    grown = np.empty_like(comp)
    while True:
        # every index is a mask below 2^n; "clip" skips the buffered copy
        # that the bounds-checking default mode makes
        np.take(reach, comp, out=grown, mode="clip")
        grown &= masks
        if np.array_equal(grown, comp):
            return comp
        comp, grown = grown, comp


#: Coalitions per block of the Myerson fold after its first component:
#: 256 KiB int64 buffers, as fast as any size on a 20-player game and
#: several blocks from 16 players up.
_FOLD_BLOCK = 1 << 15


def myerson(
    gg: GraphGame,
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
) -> Allocation:
    """Myerson value: Shapley value of the graph-restricted game
    v^G(S) = sum of v(C) over the connected components C of the subgraph S
    induces (isolated members count as singletons).

    The v^G table is folded from the coalition table of v (:func:`_table`,
    numerators when exact) and :func:`_component_table`: each coalition adds
    the worth of the component of its lowest remaining member and strips it,
    so the worths are summed onto 0 in order of lowest member, the order of
    :meth:`Graph.component_masks`. The first component is gathered for
    every coalition at once; the rest of the fold runs on blocks of
    ``_FOLD_BLOCK`` coalitions, each pass over a block gathering only the
    coalitions with members left (a connected one drops out at once), so
    its buffers stay block-sized. A table of Python ints that the fold
    has no room for is refused first (:func:`_check_object_capacity`).
    ``threads`` has no effect.
    """
    g, v = gg.graph, gg.v
    table, denom = _table(v, limit)
    _check_object_capacity(table, g.n)
    comp = _component_table(g)
    # every index is a mask below 2^n; "clip" skips the buffered copy
    # that the bounds-checking default mode makes
    restricted = np.take(table, comp, mode="clip")
    if not v.exact:
        restricted += 0.0  # the fold adds onto 0: a -0.0 worth becomes 0.0
    for start in range(0, table.size, _FOLD_BLOCK):
        rest = np.arange(start, min(start + _FOLD_BLOCK, table.size), dtype=np.int64)
        rest ^= comp[start : start + _FOLD_BLOCK]
        active = np.flatnonzero(rest)
        rest = rest[active]
        active += start
        while active.size:
            part = np.take(comp, rest, mode="clip")
            rest ^= part
            np.add.at(restricted, active, np.take(table, part, mode="clip"))
            del part
            left = rest != 0
            active = active[left]
            rest = rest[left]
    # free the fold's buffers before the reduction allocates its own
    del table, comp
    return Allocation(_reduce(restricted, denom, g.n, v.exact), v.exact, g.nodes)


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)


def interchangeable_pairs(table: np.ndarray, n: int) -> list[tuple[int, int]]:
    """Player pairs i < j with v(S + i) = v(S + j) for every coalition S
    avoiding both.

    Reshaped to (2^(n-1-j), 2, 2^(j-i-1), 2, 2^i), the table's
    ``[:, 1, :, 0, :]`` slice holds the coalitions S + j and its
    ``[:, 0, :, 1, :]`` slice the same coalitions S + i, in ascending order.
    """
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            view = table.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            if np.array_equal(view[:, 0, :, 1, :], view[:, 1, :, 0, :]):
                pairs.append((i, j))
    return pairs


def null_players(table: np.ndarray, n: int) -> list[int]:
    """Players i with v(S + i) = v(S) for every coalition S avoiding i: the
    ``[:, 1, :]`` and ``[:, 0, :]`` rows of the (2^(n-1-i), 2, 2^i) view."""
    out = []
    for i in range(n):
        rows = table.reshape(-1, 2, 1 << i)
        if np.array_equal(rows[:, 1, :], rows[:, 0, :]):
            out.append(i)
    return out


def value_str(x: Value) -> str:
    """``str(x)``, with the digits of an int or a Fraction written through
    `decimal.Decimal`, which the interpreter's limit on int-to-str
    conversion (4300 digits by default) does not cover: an exact value of
    any size prints."""
    if not isinstance(x, numbers.Rational):
        return str(x)
    num = str(Decimal(int(x.numerator)))
    return num if x.denominator == 1 else f"{num}/{Decimal(int(x.denominator))}"


def values_close(a: Value, b: Value, exact: bool) -> bool:
    """Domain-aware comparison: identity for exact values, relative tolerance
    :data:`CHECK_TOL` (floored at absolute ``CHECK_TOL``) for finite floats.
    A float that is not finite is close only to an equal one, since the
    tolerance would scale by infinity."""
    if exact:
        return a == b
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= CHECK_TOL * scale


def axiom_check(
    v: NodeCharacteristic,
    allocation: Allocation,
    which: str | Iterable[str] = "all",
    *,
    game_pairs: Sequence[tuple[NodeCharacteristic, NodeCharacteristic]] = (),
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
) -> AxiomReport:
    """Report-only verification of the classic allocation axioms.

    * efficiency: the allocation sums to v(N);
    * symmetry: every interchangeable pair gets equal values;
    * null-player: every null player gets 0;
    * additivity: for each supplied game pair (a, b), the rule applied to
      a + b equals the sum of the separate allocations.

    Symmetry and null-player detection are exhaustive: both read every
    coalition of one 2^n table, so, like the engines, they are refused above
    ``limit`` players (`CapacityError`) and for v(empty) != 0
    (`CharacteristicContractError`).
    """
    return _axiom_check(v, allocation, which, game_pairs, limit, None)


def _axiom_check(
    v: NodeCharacteristic,
    allocation: Allocation,
    which: str | Iterable[str],
    game_pairs: Sequence[tuple[NodeCharacteristic, NodeCharacteristic]],
    limit: int | None,
    table: np.ndarray | None,
) -> AxiomReport:
    """:func:`axiom_check` on the coalition table of ``v`` when the caller
    already holds it; with ``table`` None the detection builds its own."""
    if len(allocation) != v.n:
        raise ValueError("allocation length does not match the player count")
    names = ("efficiency", "symmetry", "null-player", "additivity")
    if which == "all":
        selected = [x for x in names if x != "additivity" or game_pairs]
    elif isinstance(which, str):
        selected = [which]
    else:
        selected = list(which)
    unknown = set(selected) - set(names)
    if unknown:
        raise ValueError(f"unknown axiom check(s): {sorted(unknown)}")
    if {"symmetry", "null-player"} & set(selected) and table is None:
        table = _table(v, limit)[0]

    checks: list[CheckResult] = []
    for name in selected:
        if name == "efficiency":
            total = allocation.total()
            grand = v((1 << v.n) - 1)
            ok = values_close(total, grand, allocation.exact)
            checks.append(
                CheckResult(
                    "efficiency", ok, f"sum {value_str(total)} vs v(N) {value_str(grand)}"
                )
            )
        elif name == "symmetry":
            pairs = interchangeable_pairs(table, v.n)
            bad = [
                (i, j)
                for i, j in pairs
                if not values_close(allocation[i], allocation[j], allocation.exact)
            ]
            detail = f"{len(pairs)} interchangeable pair(s)"
            if bad:
                i, j = bad[0]
                detail += (
                    f"; mismatch at ({i}, {j}): "
                    f"{value_str(allocation[i])} vs {value_str(allocation[j])}"
                )
            checks.append(CheckResult("symmetry", not bad, detail))
        elif name == "null-player":
            nulls = null_players(table, v.n)
            bad = [i for i in nulls if allocation[i] != 0]
            detail = f"null players {nulls}"
            if bad:
                detail += f"; nonzero value {value_str(allocation[bad[0]])} at player {bad[0]}"
            checks.append(CheckResult("null-player", not bad, detail))
        elif name == "additivity":
            if not game_pairs:
                raise ValueError("additivity check needs game_pairs")
            ok = True
            detail = f"{len(game_pairs)} game pair(s)"
            for a, b in game_pairs:
                fa = shapley_exact(a, limit=limit)
                fb = shapley_exact(b, limit=limit)
                fab = shapley_exact(a + b, limit=limit)
                for i in range(v.n):
                    if not values_close(fa[i] + fb[i], fab[i], fab.exact):
                        ok = False
                        detail += f"; broke at player {i}"
                        break
                if not ok:
                    break
            checks.append(CheckResult("additivity", ok, detail))
    return AxiomReport(tuple(checks))
