"""Online weighted empirical measures and their W1 distance to a normal law.

A ``WeightedEmpiricalMeasure`` accumulates, for its one observable f, the
running weighted sum over pre-step states

    value() = sum_k eta_k f(x_{k-1}) / H_n,      H_n = sum_k eta_k,

with Neumaier-compensated summation (``VectorKahan``) so runs of 1e8 tiny
weights keep the online value within round-off of an offline
recomputation.  Accumulation starts at k = 1; burn-in, when wanted, is the
caller's slicing concern.

Every state goes through one fold.  It walks a block of m pre-step states
in tiles of max(1, 16384 // m) replications: each tile is taken as a
C-contiguous replication-major array (T, m, d), the observable is
evaluated on it, and each replication's row of eta-weighted values is
reduced by one contiguous pairwise sum; the assembled per-replication
partials are added to a compensated accumulator once per block.  The tile
is sized to the allocator, not to a cache: each float64 temporary an
observable makes on it is 128 KiB.  At twice that, glibc returned the freed
temporaries to the system after every tile and faulted them in again on the
next, which cost more than the arithmetic.  The simulation drivers hand
blocks to ``observe_block`` as time-major (m, R, d) views of their ring
slots, so each tile is copied out of the block, one tile at a time; a block
that is replication-major in memory gives views, and nothing is copied.
The sums are the same bits whatever the block's memory order.
``observe_block`` takes the weights from the attached schedule; ``record``
folds one state as a block of one.  A replication's row is the same
whichever tile holds it, so serial, batched and partitioned execution
perform an identical sequence of float operations per replication.

``wasserstein1_atoms`` gives the W1 distance from weighted atoms, such as
a measure's buffer, to a ``statistics.NormalDist`` in closed form, one
vectorized pass over the cells between sorted atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .schedules import WeightSchedule

# states per observable call: a float64 temporary of a tile is 128 KiB, small
# enough that the allocator keeps it in the heap between tiles
_TILE_STATES = 16384


class VectorKahan:
    """Elementwise Neumaier accumulator over a fixed-shape float array.

    Each element runs the scalar two-sum, so a batch of width one and the
    shape-``()`` accumulator (a scalar total such as H_n) round identically.
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


class WeightedEmpiricalMeasure:
    """Running nu_n(f) = (1/H_n) sum_k eta_k f(x_{k-1}) for one observable f.

    ``fn`` maps states (..., d) to values (...); a measure without one keeps
    n, H_n and the buffer, and only ``value`` refuses.  ``batch_shape`` adds
    leading replication axes to the accumulator; a scalar measure is
    ``batch_shape=()``.  ``buffer_capacity > 0`` keeps a deterministically
    decimated store of (state, weight) atoms for distance diagnostics: the
    keep stride doubles whenever the buffer fills, so the retained atoms are
    every 2^m-th pre-step state.
    """

    def __init__(self, weights: WeightSchedule | None = None,
                 batch_shape: tuple[int, ...] = (),
                 buffer_capacity: int = 0, fn: Callable | None = None):
        self.weights = weights
        self.batch_shape = tuple(batch_shape)
        self._fn = fn
        self._sum = VectorKahan(self.batch_shape)
        self._h = VectorKahan(())
        self._n = 0
        self._cap = int(buffer_capacity)
        self._buf_states: list[np.ndarray] = []
        self._buf_weights: list[float] = []
        self._stride = 1

    # -- accumulation -----------------------------------------------------------

    def record(self, x: np.ndarray, eta_k: float) -> None:
        """Fold in one pre-step state with weight eta_k (call order k = 1, 2, ...)."""
        self._fold(np.asarray(x, dtype=np.float64)[None], np.array([eta_k], dtype=np.float64))

    def observe_block(self, k0: int, states: np.ndarray) -> None:
        """Fold in pre-step states for steps k0 .. k0+len-1 using the attached
        weight schedule.  ``states`` has shape (len, *batch_shape, d)."""
        if self.weights is None:
            raise ValueError("observe_block requires a weight schedule")
        self._fold(states, self.weights.eta_block(k0, k0 + states.shape[0]))

    def _fold(self, states: np.ndarray, etas: np.ndarray) -> None:
        """Fold states (m, *batch_shape, d) with weights (m,) into the sum, H_n and the buffer."""
        if not np.all(np.isfinite(etas) & (etas >= 0)):
            raise ValueError("weights must be finite and non-negative")
        m = states.shape[0]
        if self._fn is not None:
            flat = states.reshape(m, -1, states.shape[-1])
            part = np.empty(flat.shape[1])
            tile = max(1, _TILE_STATES // max(m, 1))
            for r0 in range(0, flat.shape[1], tile):
                rows = np.ascontiguousarray(flat[:, r0:r0 + tile].swapaxes(0, 1))
                vals = np.asarray(self._fn(rows), dtype=np.float64)
                # C order keeps each replication's row one contiguous pairwise sum
                part[r0:r0 + tile] = np.multiply(vals, etas, order="C").sum(axis=-1)
            self._sum.add(part.reshape(self.batch_shape))
        self._h.add(math.fsum(etas))
        k0 = self._n
        self._n += m
        if self._cap <= 0:
            return
        # the buffer holds the states at every multiple of the stride below
        # n; the stride doubles, halving the buffer, until they fit
        stride = self._stride
        while self._n > self._cap * stride:
            stride *= 2
        if stride != self._stride:
            thin = stride // self._stride
            self._buf_states = self._buf_states[::thin]
            self._buf_weights = self._buf_weights[::thin]
            self._stride = stride
        first = -k0 % stride
        self._buf_states.extend(np.array(states[first::stride], dtype=np.float64))
        self._buf_weights.extend(etas[first::stride].tolist())

    # -- readout ---------------------------------------------------------------

    def value(self):
        if self._fn is None:
            raise ValueError("the measure has no observable")
        if self._n == 0:
            raise ValueError("empty measure: no states recorded")
        h = float(self._h.value)
        if not h > 0:
            raise ValueError("total weight is zero")
        out = self._sum.value / h
        return float(out) if out.shape == () else out

    # -- buffer ------------------------------------------------------------------

    def buffer(self) -> tuple[np.ndarray, np.ndarray]:
        """Decimated (states, weights): shapes (m, *batch, d) and (m,)."""
        if not self._buf_states:
            raise ValueError("sample buffer is empty or disabled")
        return np.stack(self._buf_states), np.array(self._buf_weights)


# ---------------------------------------------------------------------------
# Wasserstein-1 distance to a normal law


def wasserstein1_atoms(xs: np.ndarray, weights: np.ndarray, law: NormalDist) -> float:
    """Exact W1 between a weighted atomic measure and the normal ``law``.

    W1 on the line is the integral of |F_n - F| over states.  In the law's
    standard units t = (x - mu) / s, F_n is constant at a level c on each
    cell [a, b] between consecutive sorted atoms, and G(t) = t Phi(t) + phi(t)
    is an antiderivative of Phi, so the integral over a cell, split at
    u = Phi^{-1}(c) clipped to [a, b], is

        c (u - a) - (G(u) - G(a)) + (G(b) - G(u)) - c (b - u).

    The unbounded end cells give G(t_(1)) on the left and G(t_(m)) - t_(m)
    on the right, and the sum is scaled back by s.  A law with s = 0 is the
    point mass at mu, and W1 is the weighted mean of |x - mu|.
    """
    from scipy.special import ndtr, ndtri

    xs = np.asarray(xs, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if xs.size == 0:
        raise ValueError("need at least one atom")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(weights))):
        raise ValueError("atoms and their weights must be finite")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("atom weights must be non-negative with positive total")
    if law.stdev == 0.0:
        return float(np.dot(weights, np.abs(xs - law.mean)) / weights.sum())
    order = np.argsort(xs, kind="stable")
    t = (xs[order] - law.mean) / law.stdev
    cum = np.cumsum(weights[order])

    def big_g(u):
        return u * ndtr(u) + np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

    g = big_g(t)
    a, b = t[:-1], t[1:]
    # a cumulative sum of non-negative terms never falls, so every level is <= 1
    level = cum[:-1] / cum[-1]
    u = np.clip(ndtri(level), a, b)
    g_u = big_g(u)
    cells = level * (u - a) - (g_u - g[:-1]) + (g[1:] - g_u) - level * (b - u)
    return law.stdev * (math.fsum(cells) + float(g[0] + (g[-1] - t[-1])))


# ---------------------------------------------------------------------------
# cross-replication summary statistics


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    mean_se: float
    skewness_se: float
    kurtosis_se: float


def merge_statistics(per_replication_values) -> SummaryStats:
    """Moment summary of per-replication scalars (unbiased variance)."""
    vals = np.asarray(list(per_replication_values), dtype=np.float64)
    n = vals.size
    if n < 2:
        raise ValueError("need at least two replications")
    mean = float(vals.mean())
    var = float(vals.var(ddof=1))
    centered = vals - mean
    m2 = float(np.mean(centered**2))
    if m2 > 0:
        skew = float(np.mean(centered**3) / m2**1.5)
        kurt = float(np.mean(centered**4) / m2**2 - 3.0)
    else:
        skew = 0.0
        kurt = 0.0
    return SummaryStats(
        n=n,
        mean=mean,
        variance=var,
        skewness=skew,
        excess_kurtosis=kurt,
        mean_se=math.sqrt(var / n) if var > 0 else 0.0,
        skewness_se=math.sqrt(6.0 / n),
        kurtosis_se=math.sqrt(24.0 / n),
    )
