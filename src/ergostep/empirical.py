"""Online weighted empirical measures and distances to analytic laws.

A ``WeightedEmpiricalMeasure`` accumulates, for each registered observable f,
the running weighted sum over pre-step states

    value(f) = sum_k eta_k f(x_{k-1}) / H_n,      H_n = sum_k eta_k,

with compensated summation so runs of 1e8 tiny weights keep the online value
within round-off of an offline recomputation.  Accumulation starts at k = 1;
burn-in, when wanted, is the caller's slicing concern.

Every state goes through one fold.  It walks a block of m pre-step states
in tiles of max(1, 16384 // m) replications: each tile is taken as a
C-contiguous replication-major array (T, m, d), every observable is
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accum import VectorKahan
from .schedules import WeightSchedule

# states per observable call: a float64 temporary of a tile is 128 KiB, small
# enough that the allocator keeps it in the heap between tiles
_TILE_STATES = 16384


@dataclass(frozen=True)
class AnalyticLaw1D:
    """A one-dimensional law given by its cdf and quantile function.

    ``partial_expectation(p1, p2)`` = integral of the quantile over
    probabilities [p1, p2]; supplied in closed form for catalog laws and
    approximated by quadrature otherwise.
    """

    cdf: Callable[[float], float]
    quantile: Callable[[float], float]
    partial_expectation: Callable[[float, float], float] | None = None
    moments: tuple[float, ...] | None = None
    name: str = ""

    def partial_mean(self, p1: float, p2: float) -> float:
        if p2 <= p1:
            return 0.0
        if self.partial_expectation is not None:
            return self.partial_expectation(p1, p2)
        from scipy.integrate import quad

        lo = max(p1, 1e-15)
        hi = min(p2, 1.0 - 1e-15)
        val, _ = quad(self.quantile, lo, hi, limit=200)
        return val


class WeightedEmpiricalMeasure:
    """Running nu_n(f) = (1/H_n) sum_k eta_k f(x_{k-1}) for registered f.

    ``batch_shape`` adds leading replication axes to every accumulator; a
    scalar measure is ``batch_shape=()``.  ``buffer_capacity > 0`` keeps a
    deterministically decimated store of (state, weight) atoms for distance
    diagnostics: the keep stride doubles whenever the buffer fills, so the
    retained atoms are every 2^m-th pre-step state.
    """

    def __init__(self, weights: WeightSchedule | None = None,
                 batch_shape: tuple[int, ...] = (),
                 buffer_capacity: int = 0):
        self.weights = weights
        self.batch_shape = tuple(batch_shape)
        self._obs: dict[str, Callable] = {}
        self._sums: dict[str, VectorKahan] = {}
        self._h = VectorKahan(())
        self._n = 0
        self._cap = int(buffer_capacity)
        self._buf_states: list[np.ndarray] = []
        self._buf_weights: list[float] = []
        self._stride = 1

    # -- registration ---------------------------------------------------------

    def register(self, name: str, fn: Callable) -> None:
        """Register observable ``fn`` mapping states (..., d) to values (...)."""
        if name in self._obs:
            raise ValueError(f"observable {name!r} already registered")
        self._obs[name] = fn
        self._sums[name] = VectorKahan(self.batch_shape)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._obs)

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
        """Fold states (m, *batch_shape, d) with weights (m,) into the sums, H_n and the buffer."""
        if np.any(etas < 0):
            raise ValueError("weights must be non-negative")
        m = states.shape[0]
        flat = states.reshape(m, -1, states.shape[-1])
        partials = {name: np.empty(flat.shape[1]) for name in self._obs}
        tile = max(1, _TILE_STATES // max(m, 1))
        for r0 in range(0, flat.shape[1], tile):
            rows = np.ascontiguousarray(flat[:, r0:r0 + tile].swapaxes(0, 1))
            for name, fn in self._obs.items():
                vals = np.asarray(fn(rows), dtype=np.float64)
                # C order keeps each replication's row one contiguous pairwise sum
                partials[name][r0:r0 + tile] = np.multiply(vals, etas, order="C").sum(axis=-1)
        for name, part in partials.items():
            self._sums[name].add(part.reshape(self.batch_shape))
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

    def value(self, name: str):
        if name not in self._obs:
            raise KeyError(f"unknown observable {name!r}")
        if self._n == 0:
            raise ValueError("empty measure: no states recorded")
        h = float(self._h.value)
        if not h > 0:
            raise ValueError("total weight is zero")
        out = self._sums[name].value / h
        return float(out) if out.shape == () else out

    # -- buffer ------------------------------------------------------------------

    def buffer(self) -> tuple[np.ndarray, np.ndarray]:
        """Decimated (states, weights): shapes (m, *batch, d) and (m,)."""
        if not self._buf_states:
            raise ValueError("sample buffer is empty or disabled")
        return np.stack(self._buf_states), np.array(self._buf_weights)


# ---------------------------------------------------------------------------
# Wasserstein-1 distance to an analytic law


def wasserstein1_atoms(xs: np.ndarray, weights: np.ndarray, law: AnalyticLaw1D) -> float:
    """Exact W1 between a weighted atomic measure and ``law``.

    Integrates |empirical quantile - law quantile| over probability space;
    each cell of the empirical quantile step function is handled in closed
    form through the law's partial expectation, which equals the integral of
    |F_n - F| over states.
    """
    xs = np.asarray(xs, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if xs.size == 0:
        raise ValueError("need at least one atom")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("atom weights must be non-negative with positive total")
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    ws = weights[order] / weights.sum()
    cum = np.concatenate([[0.0], np.cumsum(ws)])
    cum[-1] = 1.0
    total = 0.0
    for x, a, b in zip(xs, cum[:-1], cum[1:]):
        if b <= a:
            continue
        s = min(max(law.cdf(x), a), b)
        # int_a^s (x - Q) dp + int_s^b (Q - x) dp
        total += x * (s - a) - law.partial_mean(a, s)
        total += law.partial_mean(s, b) - x * (b - s)
    return total


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
