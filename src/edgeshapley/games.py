"""Coalition games and the allocation engines.

A coalition is an int bit mask over canonical player indices (see
:mod:`edgeshapley.masks`). A characteristic function evaluates coalitions in
exactly one value domain:

* exact -- arbitrary-precision rationals (`fractions.Fraction`, plain ints);
* approx -- binary64 floats.

The two domains never mix inside one computation. Every full-enumeration
value (plain, pruned, Myerson) comes from one engine: :func:`_table` fills the
worth of all 2^n coalitions, and :func:`_reduce` turns that table into
marginal sums. Exact tables hold the characteristic's own ints and Fractions;
approx tables are float64 arrays filled by the batch path when the
characteristic has one.

Determinism contract: the table is built in ascending mask order in one
pass, and every float sum runs over a contiguous array in that order, so
identical inputs give bit-identical results. There is no thread count for
the result to depend on: ``threads=`` is accepted and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import CapacityError, CharacteristicContractError
from .graph import Graph
from .masks import all_masks, popcount_array

Coalition = int
Value = Union[Fraction, int, float]

#: Hard bound imposed by the bit-mask coalition encoding.
MAX_PLAYERS = 63

#: Full 2^n enumeration is refused above this many players unless the caller
#: explicitly raises the limit.
DEFAULT_ENUMERATION_LIMIT = 24


class NodeCharacteristic:
    """A total function from coalitions (bit masks) to worth.

    ``fn`` must be deterministic and effect-free with ``fn(0) == 0``. Approx
    characteristics may supply ``fn_many`` (int64 mask array -> float64 array)
    to unlock the vectorized engine path.
    """

    __slots__ = ("n", "exact", "_fn", "_fn_many")

    def __init__(
        self,
        n: int,
        fn: Callable[[Coalition], Value],
        *,
        exact: bool = True,
        fn_many: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if n < 1:
            raise ValueError("a game needs at least one player")
        if n > MAX_PLAYERS:
            raise CapacityError(f"at most {MAX_PLAYERS} players supported, got {n}")
        self.n = n
        self.exact = exact
        self._fn = fn
        self._fn_many = fn_many if not exact else None

    def __call__(self, coalition: Coalition) -> Value:
        return self._fn(coalition)

    @property
    def has_vector_path(self) -> bool:
        return self._fn_many is not None

    def evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        if self._fn_many is not None:
            return self._fn_many(masks)
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
    """Work counters an engine fills in when handed to it: coalition worths
    evaluated (2^n per enumeration, as the table is always full) and marginal
    terms summed."""

    marginals: int = 0
    evaluations: int = 0


def shapley_weights(n: int) -> tuple[Fraction, ...]:
    """Coalition-size weights s!(n-s-1)!/n! for s = 0..n-1, as exact rationals."""
    fact = [math.factorial(k) for k in range(n + 1)]
    return tuple(Fraction(fact[s] * fact[n - s - 1], fact[n]) for s in range(n))


def _check_capacity(v: NodeCharacteristic, limit: int | None):
    n = v.n
    bound = MAX_PLAYERS if limit is None else min(limit, MAX_PLAYERS)
    if n > bound:
        raise CapacityError(
            f"{n} players exceeds the enumeration limit {bound}; "
            "pass a larger limit to override"
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
    size = 1 << v.n
    if v.exact:
        return np.fromiter(map(v, range(size)), dtype=object, count=size)
    return v.evaluate_many(all_masks(v.n))


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
    keeps only the coalitions that meet it. Exact marginals are summed per
    coalition size and weighted by rationals; float marginals are weighted
    one by one and summed as one contiguous array.
    """
    weights = shapley_weights(n)
    exact = table.dtype == object
    if not exact:
        weights = np.array([float(w) for w in weights])
    masks = all_masks(n)
    sizes = popcount_array(masks)
    out: list[Value] = []
    for i in range(n):
        shape = (-1, 2, 1 << i)
        rows = table.reshape(shape)
        diff = (rows[:, 1, :] - rows[:, 0, :]).ravel()
        size = sizes.reshape(shape)[:, 0, :].ravel()
        if member_masks is not None:
            keep = (masks.reshape(shape)[:, 0, :].ravel() & member_masks[i]) != 0
            diff, size = diff[keep], size[keep]
        if stats is not None:
            stats.marginals += int(diff.size)
        if exact:
            by_size = (w * diff[size == s].sum() for s, w in enumerate(weights))
            out.append(sum(by_size, Fraction(0)))
        else:
            out.append(float((weights[size] * diff).sum()))
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


def shapley_sampled(
    v: NodeCharacteristic,
    samples: int,
    seed: int,
) -> Allocation:
    """Monte-Carlo Shapley estimate: average marginal contribution over
    ``samples`` uniformly drawn player permutations.

    The generator is seeded, so identical (seed, samples, game) inputs give
    bit-identical output on every run.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _check_grounded(v)
    n = v.n
    rng = np.random.default_rng(seed)

    if v.has_vector_path:
        acc = np.zeros(n, dtype=np.float64)
        remaining = samples
        base = np.tile(np.arange(n), (_SAMPLE_BLOCK, 1))
        while remaining > 0:
            k = min(remaining, _SAMPLE_BLOCK)
            perms = rng.permuted(base[:k], axis=1)
            bits = (np.int64(1) << perms.astype(np.int64))
            prefixes = np.bitwise_or.accumulate(bits, axis=1)
            vals = v.evaluate_many(prefixes.ravel()).reshape(k, n)
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


def component_value_characteristic(gg: GraphGame) -> NodeCharacteristic:
    """Lift v to the component-decomposed game: a coalition's worth is the sum
    of v over the connected components of the subgraph it induces (isolated
    members count as singletons)."""
    g, v = gg.graph, gg.v

    def fn(mask: Coalition) -> Value:
        return sum((v(c) for c in g.component_masks(within=mask)), 0)

    return NodeCharacteristic(g.n, fn, exact=v.exact)


def myerson(
    gg: GraphGame,
    *,
    limit: int | None = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
) -> Allocation:
    """Myerson value: Shapley value of the component-decomposed game."""
    alloc = shapley_exact(component_value_characteristic(gg), limit=limit)
    return alloc.with_labels(gg.graph.nodes)


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


#: Pair detection scans every coalition up to this player count, and falls
#: back to a seeded random spot check above it.
EXHAUSTIVE_DETECTION_LIMIT = 12
_SPOT_CHECKS = 4096
_SPOT_SEED = 20210


def _detection_masks(n: int, excluded: int) -> Iterable[int]:
    """Coalitions to test against, avoiding the ``excluded`` players.

    The sampled fallback always includes the empty set, the full complement,
    and every one-short complement: players whose influence only shows in
    near-full coalitions (a route spanning all nodes, say) are invisible to
    uniform random draws.
    """
    full = (1 << n) - 1
    if n <= EXHAUSTIVE_DETECTION_LIMIT:
        return (m for m in range(1 << n) if not (m & excluded))
    rng = np.random.default_rng(_SPOT_SEED)
    complement = full & ~excluded
    structured = [0, complement] + [
        complement & ~(1 << i) for i in range(n) if (complement >> i) & 1
    ]
    draws = rng.integers(0, 1 << n, size=_SPOT_CHECKS, dtype=np.uint64)
    return (m for m in structured + [int(d) & complement for d in draws])


def interchangeable_pairs(v: NodeCharacteristic) -> list[tuple[int, int]]:
    """Player pairs with equal marginals against every tested coalition.

    Exhaustive for small games, seeded spot check for large ones.
    """
    pairs = []
    for i in range(v.n):
        for j in range(i + 1, v.n):
            excluded = (1 << i) | (1 << j)
            if all(v(m | (1 << i)) == v(m | (1 << j)) for m in _detection_masks(v.n, excluded)):
                pairs.append((i, j))
    return pairs


def null_players(v: NodeCharacteristic) -> list[int]:
    """Players whose tested marginal contributions are all zero."""
    out = []
    for i in range(v.n):
        bit = 1 << i
        if all(v(m | bit) == v(m) for m in _detection_masks(v.n, bit)):
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
    * symmetry: every detected interchangeable pair gets equal values;
    * null-player: every detected null player gets 0;
    * additivity: for each supplied game pair (a, b), the rule applied to
      a + b equals the sum of the separate allocations.
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
            pairs = interchangeable_pairs(v)
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
            nulls = null_players(v)
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
