"""Compensated accumulators for long-running sums.

Running sums over 1e7+ tiny increments lose the online/offline agreement
the rest of the library checks, so every long accumulation goes through
Neumaier-compensated adds instead of bare ``+=``.
"""

from __future__ import annotations

import numpy as np


class Kahan:
    """Neumaier-compensated scalar accumulator."""

    __slots__ = ("total", "carry")

    def __init__(self, value: float = 0.0):
        self.total = float(value)
        self.carry = 0.0

    def add(self, value: float) -> None:
        t = self.total + value
        if abs(self.total) >= abs(value):
            self.carry += (self.total - t) + value
        else:
            self.carry += (value - t) + self.total
        self.total = t

    @property
    def value(self) -> float:
        return self.total + self.carry


class VectorKahan:
    """Elementwise Neumaier accumulator over a fixed-shape float array.

    The same two-sum arithmetic as :class:`Kahan`, applied elementwise, so a
    batch of width one reproduces the scalar accumulator bit for bit.
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

