"""A per-thread memory of one computation's last result, keyed on the bits
of the Image it read: what ssim and ms_ssim share across calls."""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

import numpy as np

from ..image import Image

__all__ = ["BitsMemo"]

T = TypeVar("T")


def _same_bits(held: np.ndarray, arr: np.ndarray) -> bool:
    # int64 views: -0.0 and +0.0 differ, as they may in a result.
    return held.shape == arr.shape and np.array_equal(held.view(np.int64), arr.view(np.int64))


class BitsMemo(threading.local):
    """The last result of one computation on an Image and a hashable
    ``extra`` key, per thread. Only Images are taken: their data is float64,
    read-only and private to the Image, so it is held as it is and can never
    change under a held result.

    :meth:`get` returns the held result only when the Image's data holds the
    same bits in the same shape and ``extra`` is equal; else it drops the
    held entry, computes, and keeps the Image's data with the result. It
    holds one entry at most, which keeps its data and result alive until the
    next miss or :meth:`clear`, and threads never share one. A computation
    that raises keeps nothing.
    """

    entry: tuple | None = None  # (data, extra, result)

    def get(self, img: Image, extra, compute: Callable[[], T]) -> T:
        held = self.entry
        if held is not None and held[1] == extra and _same_bits(held[0], img.data):
            return held[2]
        self.entry = None
        result = compute()
        self.entry = img.data, extra, result
        return result

    def clear(self) -> None:
        self.entry = None
