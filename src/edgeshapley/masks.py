"""Bit-mask helpers for coalitions and edge subsets.

Coalitions and edge subsets are plain Python ints: bit ``i`` set means member
``i`` (canonical index) is present. All enumeration helpers yield masks in
ascending integer order, which is the library-wide deterministic order.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import CapacityError

#: The coalition table indexes 0 .. 2^n - 1 as int64, which caps it here.
MAX_ENUMERATION_PLAYERS = 62


def indices_of(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def squeeze(mask: int, drop: int) -> int:
    """``mask`` without the bits set in ``drop``, each kept bit moved down by
    the number of dropped bits below it: the mask renumbered for a player or
    edge set that has lost the members in ``drop``."""
    for i in reversed(indices_of(drop)):
        mask = (mask & ((1 << i) - 1)) | ((mask >> (i + 1)) << i)
    return mask


def subsets_of(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` (including 0 and ``mask``), ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # next submask in ascending order
        sub = (sub - mask) & mask


def superset_view(table: np.ndarray, mask: int, clear: int = 0) -> np.ndarray:
    """Writable view of the entries of ``table`` at the supersets of ``mask``
    that hold none of the bits of ``clear`` (disjoint from ``mask``), in
    ascending mask order.

    ``table`` is a contiguous array of 2^n entries, one per coalition in
    ascending mask order. It is reshaped to one axis per run of bits that
    are alike (all in ``mask``, all in ``clear`` or all in neither),
    highest bits first (C order puts them first): a run in ``mask`` is
    indexed at its all-ones entry, a run in ``clear`` at its all-zeros
    entry, and any other run is kept whole. The trailing ``Ellipsis``
    keeps the result a view when every bit is fixed, where plain integer
    indices would give a scalar.
    """

    def kind(b: int) -> int:  # 0: in neither, 1: in mask, 2: in clear
        return (mask >> b) & 1 | ((clear >> b) & 1) << 1

    shape: list[int] = []
    index: list = []
    bit = table.size.bit_length() - 1
    while bit:
        top = kind(bit - 1)
        width = 1
        while width < bit and kind(bit - 1 - width) == top:
            width += 1
        shape.append(1 << width)
        index.append((slice(None), -1, 0)[top])
        bit -= width
    return table.reshape(shape)[(*index, Ellipsis)]


def all_masks(n: int) -> np.ndarray:
    """0 .. 2^n - 1 as an int64 array; n above ``MAX_ENUMERATION_PLAYERS``
    raises `CapacityError`."""
    if n > MAX_ENUMERATION_PLAYERS:
        raise CapacityError(
            f"all 2^{n} masks do not fit an int64 array (n <= {MAX_ENUMERATION_PLAYERS})"
        )
    return np.arange(1 << n, dtype=np.int64)
