"""Bit-mask helpers for coalitions and edge subsets.

Coalitions and edge subsets are plain Python ints: bit ``i`` set means member
``i`` (canonical index) is present. All enumeration helpers yield masks in
ascending integer order, which is the library-wide deterministic order.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import CapacityError


def indices_of(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def subsets_of(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` (including 0 and ``mask``), ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # next submask in ascending order
        sub = (sub - mask) & mask


def superset_view(table: np.ndarray, mask: int) -> np.ndarray:
    """Writable view of the entries of ``table`` at the supersets of ``mask``.

    ``table`` is a contiguous array of 2^n entries, one per coalition in
    ascending mask order. It is reshaped to one axis per run of equal bits
    of ``mask``, highest bits first (C order puts them first): a run of set
    bits is indexed at its all-ones entry, a run of clear bits is kept
    whole. The trailing ``Ellipsis`` keeps the result a view when every
    bit is set, where a plain integer index would give a scalar.
    """
    n = table.size.bit_length() - 1
    shape: list[int] = []
    index: list = []
    bit = n
    while bit:
        top = (mask >> (bit - 1)) & 1
        width = 1
        while width < bit and (mask >> (bit - 1 - width)) & 1 == top:
            width += 1
        shape.append(1 << width)
        index.append(-1 if top else slice(None))
        bit -= width
    return table.reshape(shape)[(*index, Ellipsis)]


def all_masks(n: int) -> np.ndarray:
    """0 .. 2^n - 1 as an int64 array; n above 62 raises `CapacityError`."""
    if n > 62:
        raise CapacityError(f"all 2^{n} masks do not fit an int64 array (n <= 62)")
    return np.arange(1 << n, dtype=np.int64)
