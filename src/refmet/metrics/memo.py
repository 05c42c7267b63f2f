"""A per-thread memory of one computation's last result, keyed on the bits
of the two arrays it read: what ssim and ms_ssim share at scale 0."""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

import numpy as np

__all__ = ["PairMemo"]

T = TypeVar("T")


def _same_bits(held: np.ndarray, arr: np.ndarray) -> bool:
    # int64 views: -0.0 and +0.0 differ, as they may in a result.
    return held.shape == arr.shape and np.array_equal(held.view(np.int64), arr.view(np.int64))


def _held(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself if it and every array it views are read-only, as an
    Image's data is: an Image copies whatever array it is given, so no
    caller holds the memory its data views. Else a copy."""
    base = arr
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return arr.copy()
        base = base.base
    return arr if base is None else arr.copy()


class PairMemo(threading.local):
    """The last result of one computation on two float64 arrays and a
    hashable ``extra`` key (a data range), per thread.

    :meth:`get` returns the held result only when both arrays hold the same
    bits in the same shape and ``extra`` is equal; else it drops the held
    entry, computes, and keeps both arrays with the result: read-only ones
    (an Image's data) as they are, others as copies, so writing to an array
    later cannot make a hit stale. A read-only array that is not an Image's
    is taken to stay unwritten. It holds one entry at most, which keeps its
    pair alive until the next miss or :meth:`clear`, and threads never
    share one. A computation that raises keeps nothing.
    """

    entry: tuple | None = None  # (a, b, extra, result)

    def get(self, a: np.ndarray, b: np.ndarray, extra, compute: Callable[[], T]) -> T:
        if a.dtype != np.float64 or b.dtype != np.float64:
            return compute()
        held = self.entry
        if (held is not None and held[2] == extra
                and _same_bits(held[0], a) and _same_bits(held[1], b)):
            return held[3]
        self.entry = None
        result = compute()
        self.entry = _held(a), _held(b), extra, result
        return result

    def clear(self) -> None:
        self.entry = None
