"""Coalition games and the allocation engines.

A coalition is an int bit mask over canonical player indices (see
:mod:`edgeshapley.masks`). A characteristic function evaluates coalitions in
exactly one value domain:

* exact -- arbitrary-precision rationals (`fractions.Fraction`, plain ints);
* approx -- binary64 floats.

The two domains never mix inside one computation. Every full-enumeration
value (plain, pruned, Myerson) comes from one engine: :func:`_table` fills the
worth of all 2^n coalitions, and :func:`_reduce` turns that table into
marginal sums; symmetry and null-player detection are views of the same
table. How coalitions split on a graph is one more table,
:func:`_component_table`: the component of each coalition's lowest member.
The Myerson value reduces the graph-restricted table folded from it, and
:func:`edgeshapley.edgegame.component_efficiency_check` reads its additivity
hypothesis from it. Both domains fill the table through
:meth:`NodeCharacteristic.evaluate_many`: exact tables are object arrays of
the characteristic's own ints and Fractions, approx tables float64 arrays.
A lifted edge game whose worth declares its dividends fills its table on
node masks; other lifted exact edge games call the edge worth once per
distinct induced edge set (see :func:`edgeshapley.edgegame.lift`). The float
reduction weights the marginals from one table of size weights. The exact
reduction brings the table to integers over one common
denominator, sums them (int64 when a bound proves it safe, Python ints
otherwise) and forms one `Fraction` per player at the end. The approx
sampler reads a lifted game's per-step worths straight from its declared
dividend rows (see :func:`shapley_sampled`).

Determinism contract: the table is built in ascending mask order in one
pass, and every float sum runs over a contiguous array in that order, so
identical inputs give bit-identical results. There is no thread count for
the result to depend on: ``threads=`` is accepted and ignored.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import CapacityError, CharacteristicContractError
from .graph import Graph
from .masks import all_masks, indices_of, popcount_array

Coalition = int
Value = Union[Fraction, int, float]

#: Hard bound imposed by the bit-mask coalition encoding.
MAX_PLAYERS = 63

#: The coalition table indexes 0 .. 2^n - 1 as int64, which caps it here.
MAX_ENUMERATION_PLAYERS = 62

#: Full 2^n enumeration is refused above this many players unless the caller
#: explicitly raises the limit.
DEFAULT_ENUMERATION_LIMIT = 24

#: Peak bytes an enumeration holds per coalition: the table, the masks and
#: the temporaries of the table build and the reduction. tracemalloc at
#: n = 16-20, for edge_shapley / edge_shapley_pruned / myerson /
#: component_efficiency_check, read 32-35 / 33-35 / 49 / 49 on approx supply
#: games, 30-31 / 30-31 / 60-62 / 41 on exact contract games (counts above
#: 256) and 46-50 / 47-51 / 67-72 / 54-58 on contract games beyond 2^62,
#: whose dividends accumulate as Python ints; exact games without declared
#: dividends (the unique pass of the batch path) read about 61. Exact myerson
#: on large ints exceeds the budget, as it did before the dividend path
#: (65-67 there). 2^n times this must fit in physical memory.
_COALITION_BYTES = 64


class NodeCharacteristic:
    """A total function from coalitions (bit masks) to worth.

    ``fn`` must be deterministic and effect-free with ``fn(0) == 0``. Either
    domain may supply ``fn_many``, which maps an int64 mask array to a worth
    array: float64 for approx characteristics, an object array of ints and
    Fractions for exact ones. The engines fill their coalition table through
    :meth:`evaluate_many`, which falls back to calling ``fn`` once per mask;
    :func:`edgeshapley.edgegame.lift` gives exact edge games a ``fn_many``
    that calls the edge worth once per distinct induced edge set.

    ``dividends``, when given, declares the game as a sum of unanimity games:
    ``(node_mask, value)`` rows, where S is worth the sum of ``value`` over
    the rows whose node mask lies inside S, added in row order from 0. It
    must agree with ``fn`` and ``fn_many`` bit for bit; the approx sampler
    reads it (see :func:`shapley_sampled`). A sum of two games declares
    none, since it adds its floats in another order.
    """

    __slots__ = ("n", "exact", "dividends", "_fn", "_fn_many")

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
        self._fn = fn
        self._fn_many = fn_many

    def __call__(self, coalition: Coalition) -> Value:
        return self._fn(coalition)

    @property
    def has_vector_path(self) -> bool:
        return self._fn_many is not None

    def evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        if self._fn_many is not None:
            return self._fn_many(masks)
        if self.exact:
            return np.fromiter(map(self._fn, masks.tolist()), dtype=object, count=masks.size)
        return np.array([self._fn(int(m)) for m in masks], dtype=np.float64)

    @classmethod
    def from_table(
        cls,
        n: int,
        table: dict[Coalition, Value],
        *,
        exact: bool = True,
        default: Value = 0,
    ) -> "NodeCharacteristic":
        """Characteristic backed by an explicit coalition->worth table.

        Coalitions missing from the table are worth ``default``.
        """
        snapshot = dict(table)
        return cls(n, lambda m: snapshot.get(m, default), exact=exact)

    def __add__(self, other: "NodeCharacteristic") -> "NodeCharacteristic":
        if not isinstance(other, NodeCharacteristic):
            return NotImplemented
        if self.n != other.n or self.exact != other.exact:
            raise ValueError("can only add games with equal player count and domain")
        a, b = self._fn, other._fn
        fn_many = None
        if self._fn_many is not None and other._fn_many is not None:
            am, bm = self._fn_many, other._fn_many
            fn_many = lambda masks: am(masks) + bm(masks)
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
    marginal terms summed. A lifted exact edge game fills its 2^n entries by
    the batch path, which calls the edge worth only once per distinct induced
    edge set."""

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
    need = _COALITION_BYTES << n
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise CapacityError(
            f"enumerating {n} players needs about {need / 2**30:.2f} GiB, "
            f"more than the {memory / 2**30:.2f} GiB of physical memory"
        )


def _check_grounded(v: NodeCharacteristic):
    worth = v(0)
    if worth != 0:
        raise CharacteristicContractError(
            f"characteristic must satisfy v(empty) = 0, got {worth!r}"
        )


def _table(v: NodeCharacteristic) -> np.ndarray:
    """Worth of every coalition, in ascending mask order: an object array of
    the characteristic's own values (exact) or a float64 array (approx)."""
    return v.evaluate_many(all_masks(v.n))


def _integer_table(table: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """An exact table as (numerators, D) over the common denominator D, the
    lcm of the entry denominators.

    The numerators are int64 when max |numerator| * 2^(n+1) < 2^62, which
    bounds every per-size marginal sum of an n-player table; otherwise they
    are Python ints in an object array. An entry that is not a rational
    breaks the exact contract.
    """
    kinds = set(map(type, table))
    for kind in kinds:
        if not issubclass(kind, numbers.Rational):
            mask = next(m for m, x in enumerate(table) if type(x) is kind)
            raise CharacteristicContractError(
                f"exact characteristic returned {table[mask]!r} for coalition "
                f"{mask:#b}, which is not an int or Fraction"
            )
    denom = 1
    if not all(issubclass(kind, numbers.Integral) for kind in kinds):
        denom = math.lcm(*{int(x.denominator) for x in table})
        table = np.fromiter(
            (int(x.numerator) * (denom // int(x.denominator)) for x in table),
            dtype=object,
            count=table.size,
        )
    bound = 1 << max(61 - n, 0)
    try:
        small = table.astype(np.int64)
    except OverflowError:
        small = None
    if small is not None and -bound < int(small.min()) and int(small.max()) < bound:
        return small, denom
    return np.fromiter(map(int, table), dtype=object, count=table.size), denom


def _reduce(
    table: np.ndarray,
    n: int,
    member_masks: Sequence[int] | None,
    stats: EngineStats | None,
) -> tuple[Value, ...]:
    """Shapley value of player i = sum over coalitions S avoiding i of
    ``weight(|S|) * (table[S + i] - table[S])``.

    Reshaped to (2^(n-1-i), 2, 2^i), the table's ``[:, 0, :]`` rows are the
    coalitions avoiding i and its ``[:, 1, :]`` rows the same coalitions with
    i added, both in ascending mask order. ``member_masks[i]``, when given,
    keeps only the coalitions that meet it. Exact tables are brought to
    integers over one denominator D; their marginals are summed per coalition
    size and player i gets the single rational
    ``sum_s s!(n-s-1)! * S_s / (n! * D)``. Float marginals are weighted in
    place by one table of ``weight(|S|)`` per coalition, built once (weight 0
    at |S| = n, which no ``[:, 0, :]`` row holds), and summed as one
    contiguous array.
    """
    exact = table.dtype == object
    masks = all_masks(n)
    if exact:
        table, denom = _integer_table(table, n)
        fact = [math.factorial(k) for k in range(n + 1)]
        coef = [fact[s] * fact[n - s - 1] for s in range(n)]
        denom *= fact[n]
        sizes = popcount_array(masks)
    else:
        weights = np.array([float(w) for w in shapley_weights(n)] + [0.0])
        weighted = weights[popcount_array(masks)]
    out: list[Value] = []
    for i in range(n):
        shape = (-1, 2, 1 << i)
        rows = table.reshape(shape)
        diff = rows[:, 1, :] - rows[:, 0, :]
        if exact:
            size = sizes.reshape(shape)[:, 0, :]
        else:
            diff *= weighted.reshape(shape)[:, 0, :]
        if member_masks is not None:
            keep = (masks.reshape(shape)[:, 0, :] & member_masks[i]) != 0
            diff = diff[keep]
            if exact:
                size = size[keep]
        if stats is not None:
            stats.marginals += int(diff.size)
        if exact:
            by_size = np.zeros(n, dtype=table.dtype)
            np.add.at(by_size, size, diff)
            out.append(Fraction(sum(c * int(t) for c, t in zip(coef, by_size)), denom))
        else:
            out.append(float(diff.sum()))
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
    _check_capacity(v, limit)
    _check_grounded(v)
    if stats is not None:
        stats.evaluations += 1 << v.n
    return Allocation(_reduce(_table(v), v.n, None, stats), v.exact)


def shapley_restricted(
    v: NodeCharacteristic,
    member_masks: Sequence[int],
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
    stats: EngineStats | None = None,
) -> Allocation:
    """Shapley value summing only marginals not known to be zero.

    ``member_masks[i]`` is a player mask; coalitions disjoint from it are
    left out of player i's sum (their marginal must provably be zero, which
    is the caller's responsibility -- see the neighborhood pruning in
    :mod:`edgeshapley.edgegame`). A player with an empty mask is allocated 0.
    The table itself is always full: pruning saves marginal terms, not
    evaluations. ``threads`` has no effect.
    """
    _check_capacity(v, limit)
    _check_grounded(v)
    if len(member_masks) != v.n:
        raise ValueError("need one member mask per player")
    if stats is not None:
        stats.evaluations += 1 << v.n
    return Allocation(_reduce(_table(v), v.n, member_masks, stats), v.exact)


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


def _completion_worths(rows: tuple[tuple[int, Value], ...], n: int):
    """Per-step float worths of a block of permutations of an n-player sum
    of unanimity games, the ``(node_mask, value)`` rows, with no prefix
    masks.

    ``rowsum[S]``, filled by doubling in row order (``rowsum[S | 1 << r] =
    rowsum[S] + value_r`` for S < 2^r), is the sum of the values of the
    first chunk's row subset S, added in row order from 0.0; a step's worth
    is ``rowsum`` of the first chunk's rows it holds (see
    :func:`_held_rows`). The rows of later chunks are added on top, row by
    row, at the steps that hold them. These are the float additions
    :func:`edgeshapley.edgegame._dividend_worths` makes on the prefix masks,
    in the same order, so the worths are bit-identical to it.
    """
    chunks = []
    # a game without rows still gets one empty chunk, worth 0 at every step
    for start in range(0, max(len(rows), 1), _ROW_CHUNK):
        chunk = rows[start : start + _ROW_CHUNK]
        bits = np.zeros(n, dtype=np.uint16)
        for r, (mask, _) in enumerate(chunk):
            bits[indices_of(mask)] |= np.uint16(1 << r)
        chunks.append((bits, (1 << len(chunk)) - 1, [val for _, val in chunk]))
    head = chunks[0][2]
    rowsum = np.zeros(1 << len(head))
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

    return worths


def shapley_sampled(
    v: NodeCharacteristic,
    samples: int,
    seed: int,
) -> Allocation:
    """Monte-Carlo Shapley estimate: average marginal contribution over
    ``samples`` uniformly drawn player permutations.

    The generator is seeded, so identical (seed, samples, game) inputs give
    bit-identical output on every run. Approx games with a vector path draw
    their permutations in blocks of ``_SAMPLE_BLOCK`` and read the worth of
    every prefix at once: a game that declares its dividends from the steps
    at which each row completes (see :func:`_completion_worths`), with no
    prefix masks; others by :meth:`NodeCharacteristic.evaluate_many` of the
    prefix masks. Both give the same per-step worths, so the estimate does
    not depend on which path ran. Other games draw one permutation per
    sample and call the characteristic per prefix.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _check_grounded(v)
    n = v.n
    rng = np.random.default_rng(seed)

    if v.has_vector_path and not v.exact:
        if v.dividends is not None:
            prefix_worths = _completion_worths(v.dividends, n)
        else:
            def prefix_worths(perms: np.ndarray) -> np.ndarray:
                bits = np.int64(1) << perms
                prefixes = np.bitwise_or.accumulate(bits, axis=1)
                return v.evaluate_many(prefixes.ravel()).reshape(perms.shape)
        acc = np.zeros(n, dtype=np.float64)
        remaining = samples
        base = np.tile(np.arange(n), (_SAMPLE_BLOCK, 1))
        while remaining > 0:
            k = min(remaining, _SAMPLE_BLOCK)
            perms = rng.permuted(base[:k], axis=1)
            vals = prefix_worths(perms)
            marginals = np.diff(vals, axis=1, prepend=0.0)
            np.add.at(acc, perms.ravel(), marginals.ravel())
            remaining -= k
        return Allocation(tuple(float(x) for x in acc / samples), False)

    totals: list[Value] = [0] * n
    for _ in range(samples):
        perm = rng.permutation(n)
        mask = 0
        prev: Value = 0
        for idx in perm:
            i = int(idx)
            mask |= 1 << i
            cur = v(mask)
            totals[i] += cur - prev
            prev = cur
    if v.exact:
        values = tuple(Fraction(t) / samples for t in totals)
    else:
        values = tuple(t / samples for t in totals)
    return Allocation(values, v.exact)


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


def myerson(
    gg: GraphGame,
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
) -> Allocation:
    """Myerson value: Shapley value of the graph-restricted game
    v^G(S) = sum of v(C) over the connected components C of the subgraph S
    induces (isolated members count as singletons).

    The v^G table is folded from v's own coalition table and
    :func:`_component_table`: each coalition adds the worth of the component
    of its lowest remaining member and strips it, so the worths are summed
    onto 0 in order of lowest member, the order of
    :meth:`Graph.component_masks`. ``threads`` has no effect.
    """
    g, v = gg.graph, gg.v
    _check_capacity(v, limit)
    table = _table(v)
    comp = _component_table(g)
    restricted = np.zeros(table.size, dtype=table.dtype)
    rest = all_masks(g.n)
    part = np.empty_like(rest)
    worth = np.empty_like(table)
    while rest.any():
        np.take(comp, rest, out=part, mode="clip")
        np.take(table, part, out=worth, mode="clip")
        np.add(restricted, worth, out=restricted, where=rest != 0)
        rest ^= part
    # free the fold's buffers before the reduction allocates its own
    del table, comp, rest, part, worth
    return Allocation(_reduce(restricted, g.n, None, None), v.exact, g.nodes)


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


def values_close(a: Value, b: Value, exact: bool, tol: float = 1e-9) -> bool:
    """Domain-aware comparison: identity for exact values, relative tolerance
    (floored at absolute ``tol``) for floats."""
    if exact:
        return a == b
    scale = max(abs(float(a)), abs(float(b)), 1.0)
    return abs(float(a) - float(b)) <= tol * scale


def axiom_check(
    v: NodeCharacteristic,
    allocation: Allocation,
    which: str | Iterable[str] = "all",
    *,
    game_pairs: Sequence[tuple[NodeCharacteristic, NodeCharacteristic]] = (),
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    tol: float = 1e-9,
) -> AxiomReport:
    """Report-only verification of the classic allocation axioms.

    * efficiency: the allocation sums to v(N);
    * symmetry: every interchangeable pair gets equal values;
    * null-player: every null player gets 0;
    * additivity: for each supplied game pair (a, b), the rule applied to
      a + b equals the sum of the separate allocations.

    Symmetry and null-player detection are exhaustive: both read every
    coalition of one 2^n table, so they are refused (`CapacityError`) above
    ``limit`` players, like the engines.
    """
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
    if {"symmetry", "null-player"} & set(selected):
        _check_capacity(v, limit)
        table = _table(v)

    checks: list[CheckResult] = []
    for name in selected:
        if name == "efficiency":
            total = allocation.total()
            grand = v((1 << v.n) - 1)
            ok = values_close(total, grand, allocation.exact, tol)
            checks.append(
                CheckResult("efficiency", ok, f"sum {total} vs v(N) {grand}")
            )
        elif name == "symmetry":
            pairs = interchangeable_pairs(table, v.n)
            bad = [
                (i, j)
                for i, j in pairs
                if not values_close(allocation[i], allocation[j], allocation.exact, tol)
            ]
            detail = f"{len(pairs)} interchangeable pair(s)"
            if bad:
                i, j = bad[0]
                detail += f"; mismatch at ({i}, {j}): {allocation[i]} vs {allocation[j]}"
            checks.append(CheckResult("symmetry", not bad, detail))
        elif name == "null-player":
            nulls = null_players(table, v.n)
            bad = [i for i in nulls if allocation[i] != 0]
            detail = f"null players {nulls}"
            if bad:
                detail += f"; nonzero value {allocation[bad[0]]} at player {bad[0]}"
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
                    if not values_close(fa[i] + fb[i], fab[i], fab.exact, tol):
                        ok = False
                        detail += f"; broke at player {i}"
                        break
                if not ok:
                    break
            checks.append(CheckResult("additivity", ok, detail))
    return AxiomReport(tuple(checks))
