"""Innovation distributions and the discrete Levy-area surrogate.

The innovations are i.i.d. R^N-valued with independent coordinates, chosen
to match standard-normal moments up to a stated order:

    rademacher   +-1 each w.p. 1/2             -> matches through order 3
    three_point  {-sqrt(3), 0, +sqrt(3)} w.p.
                 {1/6, 2/3, 1/6}               -> matches through order 5
    gaussian     N(0, I)                       -> matches every order

``InnovationDist.matching_order`` reads that order off the exact moment
table; with independent coordinates it is the tensor-moment order too.

The weak-order-two step additionally consumes a symmetric N x N matrix W
built by ``assemble_w`` from one innovation vector u and independent signs
kappa in {-1/2,+1/2}:

    W[i][i] = u_i^2 - 1,   W[i][j] = u_i u_j - kappa[min(i,j)][max(i,j)]

W is symmetric by construction and centered (E W = 0) whenever u has unit
second moments and independent coordinates.

``InnovationDist.sample`` draws from one generator, or from a sequence of R
generators at once: each stream's raw draws (uniforms, normals or bits) fill
one row of a stream-major buffer, and the whole block is mapped to values at
once into a C-ordered (size, R, N) array whose column r is bit-equal to a
draw of ``size`` from generator r alone.  One mapping per kind serves both
calls.  The three-point and rademacher mappings take uint8 masks of the raw
draws and then write the values over the raw buffer's memory, so a block
draw holds one float64 block, not two, and a caller's ``out`` block can be
that buffer.  Gaussian values are the normals themselves, in stream-major
order, so a gaussian block draw keeps a second float64 block for the
transposing copy into C order.

``joint_outcomes`` is the one enumeration of the finite laws' supports,
with the signs kappa when asked: it is built once per (law, with_kappa)
and cached as a tuple of read-only arrays, so exact expectations over many
batches of states share one enumeration.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

INNOVATION_KINDS = ("gaussian", "rademacher", "three_point")

ENUMERATION_CAP = 10**6

_SQRT3 = math.sqrt(3.0)

# per-coordinate (value, probability) pairs of each finite law
_SUPPORT = {
    "rademacher": ((-1.0, 0.5), (1.0, 0.5)),
    "three_point": ((-_SQRT3, 1.0 / 6.0), (0.0, 2.0 / 3.0), (_SQRT3, 1.0 / 6.0)),
}

# per-coordinate moments E[X^k] as exact rationals (gaussian: (k-1)!! for even k)
_MOMENTS = {
    "rademacher": lambda k: Fraction(0) if k % 2 else Fraction(1),
    "three_point": lambda k: Fraction(0) if k % 2 else Fraction(3 ** (k // 2), 3) if k else Fraction(1),
    "gaussian": lambda k: Fraction(0) if k % 2 else Fraction(_double_factorial(k - 1)),
}


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def gaussian_moment(k: int) -> Fraction:
    """E[Z^k] for Z standard normal, exact."""
    return _MOMENTS["gaussian"](k)


@dataclass(frozen=True)
class InnovationDist:
    """An i.i.d. innovation law on R^N with independent coordinates."""

    kind: str
    dimension: int

    def __post_init__(self):
        if self.kind not in INNOVATION_KINDS:
            raise ValueError(f"unknown innovation kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def matching_order(self) -> int | None:
        """Largest q with every moment through order q equal to the normal's:
        the first k with ``moment(k) != gaussian_moment(k)``, minus one
        (None for gaussian, which matches every order)."""
        if self.kind == "gaussian":
            return None
        k = 1
        while self.moment(k) == gaussian_moment(k):
            k += 1
        return k - 1

    def moment(self, k: int) -> Fraction:
        """Per-coordinate E[X^k], exact."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        return _MOMENTS[self.kind](k)

    def sample(self, rng: np.random.Generator | Sequence[np.random.Generator],
               size: int | tuple | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Draw innovations; trailing axis is the coordinate axis.

        ``rng`` is one generator, or a sequence of R generators with an int
        ``size`` m: then the result has shape (m, R, N), C-ordered, and its
        column r is bit-equal to ``sample(rng[r], m)``.  A block draw may
        pass ``out``, a C-contiguous float64 array of that shape, to receive
        the values; it is returned.
        """
        if isinstance(rng, np.random.Generator):
            shape = (self.dimension,) if size is None else (
                (size, self.dimension) if isinstance(size, int) else (*size, self.dimension)
            )
            raw = np.empty(shape)
            self._fill_raw(rng, raw)
            return self._values(raw, raw)
        shape = (size, len(rng), self.dimension)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
        # stream-major draws, in out's own memory unless the values are the
        # draws themselves (gaussian), which need a transposing copy
        stream_major = (len(rng), size, self.dimension)
        raw = np.empty(stream_major) if self.kind == "gaussian" else out.reshape(stream_major)
        for row, g in zip(raw, rng):
            self._fill_raw(g, row)
        return self._values(raw.transpose(1, 0, 2), out)

    def _fill_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """One stream's raw draws into the C-contiguous float64 ``out``:
        normals, uniforms, or bits as 0.0 and 1.0."""
        if self.kind == "gaussian":
            rng.standard_normal(out=out)
        elif self.kind == "rademacher":
            out[...] = rng.integers(0, 2, size=out.shape)
        else:
            rng.random(out=out)

    def _values(self, raw: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Innovation values of raw draws into the C-ordered ``out`` of
        ``raw``'s shape.  ``out`` may be the memory ``raw`` views: the
        draws are read into masks before any value is written."""
        if self.kind == "gaussian":
            if out is not raw:
                np.copyto(out, raw)
            return out
        if self.kind == "rademacher":
            # bits 0 and 1 to exactly -1.0 and 1.0
            np.multiply((raw != 0.0).view(np.uint8), 2.0, out=out, dtype=np.float64)
            out -= 1.0
            return out
        # the number of the cut points 1/6 and 5/6 that u passes, 0, 1 or 2,
        # shifted and scaled to exactly -sqrt(3), +0.0 and sqrt(3); counting
        # in uint8 and casting once beats a float add of the masks
        passed = (raw >= 1.0 / 6.0).view(np.uint8)
        passed += (raw >= 5.0 / 6.0).view(np.uint8)
        np.subtract(passed, 1.0, out=out, dtype=np.float64)
        out *= _SQRT3
        return out


def assemble_w(u: np.ndarray, kappa: np.ndarray | None) -> np.ndarray:
    """Surrogate matrix for one or many draws: u (..., N) and kappa
    (..., N(N-1)/2) row-major over i < j give (..., N, N) with

        W[i][i] = u_i^2 - 1,   W[i][j] = W[j][i] = u_i u_j - kappa[i][j].
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[-1]
    w = np.einsum("...i,...j->...ij", u, u)
    idx = np.arange(n)
    w[..., idx, idx] -= 1.0
    if n > 1:
        if kappa is None or np.shape(kappa)[-1] != n * (n - 1) // 2:
            raise ValueError("kappa must hold N(N-1)/2 upper-triangular values")
        iu, ju = np.triu_indices(n, 1)
        w[..., iu, ju] -= kappa
        w[..., ju, iu] = w[..., iu, ju]
    return w


def kappa_count(noise_dim: int) -> int:
    return noise_dim * (noise_dim - 1) // 2


def sample_kappa(rng: np.random.Generator, noise_dim: int, size: int | None = None) -> np.ndarray:
    """Draw the upper-triangular +-1/2 signs, row-major i < j."""
    k = kappa_count(noise_dim)
    shape = (k,) if size is None else (size, k)
    return rng.integers(0, 2, size=shape).astype(np.float64) - 0.5


@functools.lru_cache(maxsize=16)
def joint_outcomes(dist: InnovationDist, with_kappa: bool = False) -> tuple[tuple[np.ndarray, np.ndarray, float], ...]:
    """Joint (u, kappa, probability) outcomes for exact expectations, built
    once per (dist, with_kappa): u runs over the innovation's support and,
    for each u, kappa over the upper-triangular sign patterns (empty without
    ``with_kappa``).  The arrays are read-only.

    Raises on gaussian innovations or when the outcome count would exceed
    the enumeration cap.
    """
    if dist.kind == "gaussian":
        raise ValueError("gaussian innovations have no finite support")
    support = _SUPPORT[dist.kind]
    k = kappa_count(dist.dimension) if with_kappa else 0
    if len(support) ** dist.dimension * 2**k > ENUMERATION_CAP:
        raise ValueError("enumeration blow-up: joint outcome count exceeds cap")

    signs = [np.array(kap, dtype=np.float64) for kap in itertools.product((-0.5, 0.5), repeat=k)]
    out = []
    for combo in itertools.product(support, repeat=dist.dimension):
        u = np.array([v for v, _ in combo])
        prob = math.prod(p for _, p in combo) * 0.5**k
        out.extend((u, kap, prob) for kap in signs)
    for u, kap, _ in out:
        u.setflags(write=False)
        kap.setflags(write=False)
    return tuple(out)
