"""The float reduction's sums: numpy's pairwise summation, reproduced over a
coalition table read in cache-sized blocks.

``np.sum`` of a contiguous float64 array adds its terms in a fixed tree
(Higham, "The accuracy of floating point summation", SIAM J. Sci. Comput.
1993): a run of more than 128 terms splits at half its length, rounded down
to a multiple of 8, and the halves' sums are added; a run of 128 or fewer is
added into 8 interleaved accumulators. :func:`marginal_sums` gives each
player's weighted marginals of an n-player table the bits ``np.sum`` gives
them as one array, with no array of 2^(n-1) entries: each node of the tree
of at most :data:`LEAF` terms is summed by ``np.sum`` as it fills, and the
nodes above are added in the tree's order (:class:`Stream`).
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

from .masks import squeeze

#: Coalitions per block of the table: 256 KiB of float64, whose marginals of
#: one player fill one chunk of half as many terms.
BLOCK = 1 << 15

#: The largest nodes of numpy's tree that are summed with one ``np.sum``
#: each: one chunk of a block.
LEAF = BLOCK >> 1


def split(count: int) -> int:
    """Where numpy's pairwise sum splits ``count`` terms above 128: at half,
    rounded down to a multiple of 8, its unroll factor."""
    half = count // 2
    return half - half % 8


@functools.lru_cache(maxsize=256)
def leaves(count: int) -> tuple[int, ...]:
    """The lengths, in order, of the nodes of numpy's tree over ``count``
    terms that hold at most ``LEAF`` terms and whose parent holds more."""
    if count <= LEAF:
        return (count,)
    half = split(count)
    return leaves(half) + leaves(count - half)


def combine(count: int, sums: Iterator[float]) -> float:
    """numpy's pairwise sum of ``count`` terms from the sums of its leaves
    (:func:`leaves`), taken from ``sums`` in order and added in the tree's
    postfix order. A leaf summed by ``np.sum`` starts from 0.0, which turns
    a -0.0 into 0.0; a zero's sign only decides the sign of a zero sum, and
    ``np.sum`` of the whole starts from 0.0 too, so the result is its
    bits."""
    if count <= LEAF:
        return next(sums)
    half = split(count)
    return combine(half, sums) + combine(count - half, sums)


class Stream:
    """``np.sum`` of ``count`` float64 terms fed in pieces, bit for bit: the
    leaves are summed as they fill and combined at the end. A piece that is
    the next leaf whole, with nothing carried, is summed in place; other
    terms go through ``carry``, which must hold one leaf and one piece, and
    is drained a leaf at a time. It is empty again once all ``count`` terms
    are in, so streams fed one after another can share it."""

    __slots__ = ("count", "leaves", "sums", "carry", "fill")

    def __init__(self, count: int, carry: np.ndarray | None):
        self.count = count
        self.leaves = list(reversed(leaves(count)))
        self.sums: list[float] = []
        self.carry = carry
        self.fill = 0

    def feed(self, terms: np.ndarray, keep: np.ndarray | None = None):
        """Add the contiguous ``terms``, or those of them where ``keep``
        holds."""
        if keep is None and not self.fill and terms.size == self.leaves[-1]:
            self.leaves.pop()
            self.sums.append(float(terms.sum()))
            return
        size = terms.size if keep is None else int(np.count_nonzero(keep))
        room = self.carry[self.fill : self.fill + size]
        if keep is None:
            room[:] = terms
        else:
            np.compress(keep, terms, out=room)
        self.fill += size
        while self.leaves and self.fill >= self.leaves[-1]:
            leaf = self.leaves.pop()
            self.sums.append(float(self.carry[:leaf].sum()))
            self.fill -= leaf
            self.carry[: self.fill] = self.carry[leaf : leaf + self.fill]

    def total(self) -> float:
        """The sum of the terms fed, all ``count`` of them: 0.0 for none."""
        return combine(self.count, iter(self.sums)) if self.count else 0.0


def marginal_sums(
    table: np.ndarray,
    players: list[int],
    member_masks: Sequence[int] | None,
    weights: np.ndarray,
    stats=None,
) -> tuple[float, ...]:
    """Each player's sum of ``weights[k] * (table[S + i] - table[S])`` over
    the coalitions S avoiding i of a float64 table of 2^n coalitions, in
    squeezed order (k the mask of S with bit i squeezed out), as ``np.sum``
    sums them; with ``member_masks``, only over the S that meet
    ``member_masks[i]``. ``stats.marginals`` counts the terms kept.

    Block b of ``BLOCK`` coalitions holds positions ``b * c`` to ``(b + 1)
    * c`` (c = half a block) of every player's marginals. A player i with
    2^i <= c reads them from the block's (-1, 2, 2^i) view; a higher player
    from the table's chunk pair ``table[a : a + c]`` and ``table[a + 2^i :
    a + 2^i + c]``, a the coalition avoiding i whose squeezed mask is ``b *
    c``. Either is subtracted into one chunk-sized scratch buffer and
    weighted in place by the chunk's slice of the weights. A player with
    member mask m keeps the positions k with ``k & sq != 0``, sq =
    squeeze(m, 1 << i): all of a chunk whose start meets sq, none of one
    that misses sq entirely, else the positions that one chunk-length mask
    of the low bits of sq keeps. A player that keeps no term gets 0.0.

    Without member masks every leaf is an aligned chunk, summed in place,
    so all the players read each block in turn while it is in cache. A
    pruned player's leaves straddle chunks and go through a carry of up to
    two chunks, so each pruned player takes its own pass over the blocks
    and they all share one carry.
    """
    half = table.size >> 1
    chunk = min(half, LEAF)
    scratch = np.empty(chunk)
    carry = None if member_masks is None else np.empty(2 * chunk)
    values = []
    for group in [players] if member_masks is None else [[i] for i in players]:
        streams = []
        for i in group:
            sq = None if member_masks is None else squeeze(member_masks[i], 1 << i)
            count = half if sq is None else half - (half >> sq.bit_count())
            if stats is not None:
                stats.marginals += count
            keep = None
            if sq is not None and sq & (chunk - 1):
                keep = (np.arange(chunk, dtype=np.uint16) & (sq & (chunk - 1))) != 0
            streams.append((i, sq, keep, Stream(count, carry)))
        for start in range(0, half, chunk):
            block = table[2 * start : 2 * (start + chunk)]
            w = weights[start : start + chunk]
            for i, sq, keep, stream in streams:
                if sq is None or start & sq:
                    keep = None
                elif keep is None:
                    continue
                if 1 << i <= 4:
                    # numpy starts its inner loop once per row, and rows of
                    # 1-4 terms cost more to start than to run: go down the
                    # columns instead
                    rows = block.reshape(-1, 2, 1 << i).T
                    np.subtract(rows[:, 1], rows[:, 0], out=scratch.reshape(-1, 1 << i).T, order="C")
                elif 1 << i <= chunk:
                    rows = block.reshape(-1, 2, 1 << i)
                    np.subtract(rows[:, 1, :], rows[:, 0, :], out=scratch.reshape(-1, 1 << i))
                else:
                    a = ((start >> i) << (i + 1)) | (start & ((1 << i) - 1))
                    b = a + (1 << i)
                    np.subtract(table[b : b + chunk], table[a : a + chunk], out=scratch)
                scratch *= w
                stream.feed(scratch, keep)
        values.extend(stream.total() for _, _, _, stream in streams)
    return tuple(values)
