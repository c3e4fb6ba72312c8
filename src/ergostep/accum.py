"""The compensated accumulator for long-running sums.

Running sums over 1e7+ tiny increments lose the online/offline agreement
the rest of the library checks, so every long accumulation goes through
Neumaier-compensated adds instead of bare ``+=``.  A scalar total is the
accumulator of shape ``()``.
"""

from __future__ import annotations

import numpy as np


class VectorKahan:
    """Elementwise Neumaier accumulator over a fixed-shape float array.

    Each element runs the scalar two-sum, so a batch of width one and the
    shape-``()`` accumulator round identically.
    """

    __slots__ = ("total", "carry")

    def __init__(self, shape: tuple[int, ...] | int):
        self.total = np.zeros(shape, dtype=np.float64)
        self.carry = np.zeros(shape, dtype=np.float64)

    def add(self, value: np.ndarray) -> None:
        t = self.total + value
        big = np.abs(self.total) >= np.abs(value)
        self.carry += np.where(big, (self.total - t) + value, (value - t) + self.total)
        self.total = t

    @property
    def value(self) -> np.ndarray:
        return self.total + self.carry

