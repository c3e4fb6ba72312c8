"""Diffusion models, smooth observables, and the operators built from them.

A ``DiffusionModel`` packages the drift b, diffusion matrix sigma, and their
derivative oracles for dX = b dt + sigma dW.  An ``Observable`` is a scalar
test function together with a directional-derivative callback

    dirderiv(x, k, (v_1, ..., v_k)) = (D^k f(x); v_1 x ... x v_k)

so tensor contractions never materialize d^k arrays and analytic test
functions stay exact.

On top of these the module evaluates:

  * the infinitesimal generator  Af = <b, grad f> + 1/2 (sigma sigma^T) : D^2 f
  * the asymptotic-variance density  Vf = |sigma^T grad f|^2
    = sum_n (Df; sigma_n)^2, one directional derivative per noise column
    sigma_n of sigma
  * each scheme's increment list delta_j, one step being
    x + sum_j gamma^{j/2} delta_j, which the kernels of ``schemes`` sum;
    the talay2 list holds the columnwise drift-diffusion coupling field
    sigma_tilde (delta_3 = 1/2 sigma_tilde U) and the generator applied to
    the drift (delta_4 = 1/2 Ab)
  * the bias operators Mf = -C_{q+1} f (m1_euler, m1_talay, m2_talay) of a
    scheme of weak order q, read off the same list: C_p is the gamma^p
    coefficient of E f(X_gamma) = f(x) + sum_p gamma^p C_p f(x).  Their
    invariant averages govern the bias terms of the central limit regimes.
  * Af as an Observable with derivatives through order two, so that
    A^2 f, the weak-order-two target, is the generator applied to it

Expectations over the innovation (and sign draws) are evaluated either by
exact enumeration of finite supports or by Monte Carlo with a reported
standard error.

All callbacks are vectorized over leading batch axes: states have shape
(..., d), drifts (..., d), diffusions (..., d, N).  A field or derivative
that does not depend on the state (a constant sigma, the zero Hessian of a
linear drift, an observable derivative above its degree, or at its degree
along directions without batch axes) may return its value without the batch
axes; numpy broadcasting lines it up with batched values, and a caller may
take such a value as state-independent.  The operators restore the batch
shape once, at their boundary: ``generator_apply``, ``vf_operator`` and the
correction operators return values of shape ``x.shape[:-1]``.  Models and
observables are immutable; callbacks must be re-entrant.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .innovations import InnovationDist, assemble_w, joint_outcomes, sample_kappa

_EPS = np.finfo(np.float64).eps
FD_STEP_GRAD = _EPS ** (1.0 / 3.0)
FD_STEP_HESS = _EPS ** 0.25


def _batched(value, x: np.ndarray) -> np.ndarray:
    """``value`` with the batch shape of states ``x``: an array that has it
    is returned as it is, anything else is broadcast (fields that do not
    depend on the state may have left it without batch axes)."""
    if isinstance(value, np.ndarray) and value.shape == x.shape[:-1]:
        return value
    return np.broadcast_to(value, x.shape[:-1])


def _pad_axes(arr: np.ndarray, k: int) -> np.ndarray:
    arr = np.asarray(arr)
    return arr.reshape(arr.shape + (1,) * k)


class InsufficientOrderError(ValueError):
    """Observable cannot supply derivatives of the required order."""


class InsufficientDerivativesError(ValueError):
    """Model lacks analytic derivative data required by the operation."""


class Quadrature:
    pass


@dataclass(frozen=True)
class Enumerate(Quadrature):
    """Exact expectation over the finite innovation (and sign) support."""


@dataclass(frozen=True)
class MonteCarlo(Quadrature):
    """Monte Carlo expectation with ``samples`` draws from a seeded stream."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples <= 0:
            raise ValueError("Monte Carlo quadrature needs at least one sample")


class OperatorValue(NamedTuple):
    value: float | np.ndarray
    stderr: float


@dataclass(frozen=True)
class Observable:
    """Scalar test function with directional derivatives up to ``max_order``."""

    fn: Callable[[np.ndarray], np.ndarray]
    dirderiv: Callable[[np.ndarray, int, tuple], np.ndarray]
    max_order: int = 6
    name: str = ""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)

    def d(self, x: np.ndarray, order: int, dirs: Sequence[np.ndarray]) -> np.ndarray:
        if order > self.max_order:
            raise InsufficientOrderError(
                f"insufficient observable order: need {order}, have {self.max_order}"
            )
        if len(dirs) != order:
            raise ValueError("number of directions must equal derivative order")
        return self.dirderiv(x, order, tuple(dirs))


# ---------------------------------------------------------------------------
# diffusion model


@dataclass(frozen=True)
class DiffusionModel:
    """Coefficients and derivative oracles of dX = b dt + sigma dW.

    Derivative conventions (leading batch axes elided):
      db[i, j]          = d b_i / d x_j
      d2b[i, j, k]      = d^2 b_i / (d x_j d x_k)
      dsigma[i, a, j]   = d sigma_{i,a} / d x_j
      d2sigma[i, a, j, k] = d^2 sigma_{i,a} / (d x_j d x_k)

    A state-independent field may omit the batch axes and return just its
    value axes (e.g. sigma of shape (d, N) for every batch of states);
    operators built on the model still return batch-shaped values.

    Derivative data runs through order two, which is all that the increment
    lists, the bias operators and A^2 f read.  A missing first or second
    derivative falls back to central finite differences, except in
    ``generator_observable``, which needs all four analytic.  The two
    fields after ``d2sigma`` are unread.
    """

    dim: int
    noise_dim: int
    b: Callable
    sigma: Callable
    db: Callable | None = None
    d2b: Callable | None = None
    dsigma: Callable | None = None
    d2sigma: Callable | None = None
    # unread; kept because perfbench/tracing.py names them in MODEL_FIELDS
    db_higher: Callable | None = None
    dsigma_higher: Callable | None = None
    name: str = ""

    # -- derivative access ---------------------------------------------------

    def drift_jacobian(self, x: np.ndarray) -> np.ndarray:
        if self.db is not None:
            return self.db(x)
        return self._fd_jacobian(self.b, x, 1)

    def drift_hessian(self, x: np.ndarray) -> np.ndarray:
        if self.d2b is not None:
            return self.d2b(x)
        return self._fd_hessian(self.b, x, 1)

    def diffusion_jacobian(self, x: np.ndarray) -> np.ndarray:
        if self.dsigma is not None:
            return self.dsigma(x)
        return self._fd_jacobian(self.sigma, x, 2)

    def diffusion_hessian(self, x: np.ndarray) -> np.ndarray:
        if self.d2sigma is not None:
            return self.d2sigma(x)
        return self._fd_hessian(self.sigma, x, 2)

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        """a = sigma sigma^T, shape (..., d, d)."""
        s = self.sigma(x)
        return np.einsum("...in,...jn->...ij", s, s)

    # -- finite-difference fallback -------------------------------------------

    def _fd_jacobian(self, fn, x, value_rank):
        x = np.asarray(x, dtype=np.float64)
        h = FD_STEP_GRAD * (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))
        hv = _pad_axes(np.squeeze(h, -1), value_rank)
        cols = []
        for j in range(self.dim):
            e = np.zeros(self.dim)
            e[j] = 1.0
            cols.append((fn(x + h * e) - fn(x - h * e)) / (2.0 * hv))
        return np.stack(cols, axis=-1)

    def _fd_hessian(self, fn, x, value_rank):
        x = np.asarray(x, dtype=np.float64)
        h = FD_STEP_HESS * (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))
        hv = _pad_axes(np.squeeze(h, -1), value_rank)
        f0 = np.asarray(fn(x), dtype=np.float64)
        out = np.empty(np.broadcast_shapes(f0.shape, hv.shape) + (self.dim, self.dim))
        for j in range(self.dim):
            ej = np.zeros(self.dim)
            ej[j] = 1.0
            out[..., j, j] = (fn(x + h * ej) - 2.0 * f0 + fn(x - h * ej)) / (hv * hv)
            for k in range(j + 1, self.dim):
                ek = np.zeros(self.dim)
                ek[k] = 1.0
                mixed = (
                    fn(x + h * (ej + ek)) - fn(x + h * (ej - ek))
                    - fn(x - h * (ej - ek)) + fn(x - h * (ej + ek))
                ) / (4.0 * hv * hv)
                out[..., j, k] = mixed
                out[..., k, j] = mixed
        return out


@dataclass(frozen=True)
class LyapunovSpec:
    """Lyapunov data V with psi_p(y) = y**p and phi(y) = y**a."""

    v: Callable
    grad_v: Callable
    hess_v: Callable
    alpha: float
    beta: float
    p: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise ValueError("phi exponent a must lie in (0, 1]")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def psi(self, y):
        return np.asarray(y) ** self.p

    def phi(self, y):
        return np.asarray(y) ** self.a


# ---------------------------------------------------------------------------
# first-order operators


def generator_apply(model: DiffusionModel, f: Observable, x: np.ndarray):
    """Af(x) = <b, grad f> + 1/2 sum_ij (sigma sigma^T)_ij d2_ij f,
    contracted through the observable's dirderiv with canonical basis
    directions."""
    if f.max_order < 2:
        raise InsufficientOrderError("insufficient observable order: generator needs order 2")
    x = np.asarray(x, dtype=np.float64)
    out = f.d(x, 1, (model.b(x),))
    a = model.diffusion_matrix(x)
    basis = np.eye(model.dim)
    for i in range(model.dim):
        for j in range(model.dim):
            out = out + 0.5 * a[..., i, j] * f.d(x, 2, (basis[i], basis[j]))
    return _batched(out, x)


def vf_operator(model: DiffusionModel, f: Observable, x: np.ndarray):
    """|sigma(x)^T grad f(x)|^2 = sum_n (Df(x); sigma_n(x))^2 over the noise
    columns sigma_n, the asymptotic-variance density."""
    if f.max_order < 1:
        raise InsufficientOrderError("insufficient observable order: need order 1")
    x = np.asarray(x, dtype=np.float64)
    s = model.sigma(x)
    out = None
    for n in range(model.noise_dim):
        g = f.d(x, 1, (s[..., n],))
        out = g * g if out is None else out + g * g
    return _batched(out, x)


def increments(scheme: str, model: DiffusionModel, x: np.ndarray) -> list:
    """One step of ``scheme`` from states x, x + sum_j gamma^{j/2} delta_j,
    as a list of (j, draw, delta_j) in the order the step kernel sums them:

      euler   delta_2 = b,  delta_1 = sigma U
      talay2  delta_1 = sigma U,  delta_2 = b + 1/2 Theta,
              delta_3 = 1/2 sigma_tilde U,  delta_4 = 1/2 Ab

    with Theta = (D sigma; sigma W^T) for the sign-compensated surrogate W of
    ``assemble_w``, the columnwise coupling field

      sigma_tilde_n = (Db) sigma_n + (D sigma_n) b
                      + 1/2 sum_{l,j} (sigma sigma^T)_{l,j} d2_{l,j} sigma_n

    and (Ab)_k = <b, grad b_k> + 1/2 (sigma sigma^T) : D^2 b_k.  One-step
    weak order two pins both halves of sigma_tilde.  delta_j is an array
    when ``draw`` is False and a function of the draw (u, kappa) when it is
    True.  Each model field is evaluated once, at x.
    """
    b, s = model.b(x), model.sigma(x)

    def noise(u, kappa):
        return np.einsum("...in,...n->...i", s, u)

    if scheme == "euler":
        return [(2, False, b), (1, True, noise)]
    db, ds = model.drift_jacobian(x), model.diffusion_jacobian(x)
    a = np.einsum("...in,...jn->...ij", s, s)
    sigma_tilde = (np.einsum("...ij,...jn->...in", db, s)
                   + np.einsum("...inj,...j->...in", ds, b)
                   + 0.5 * np.einsum("...inlj,...lj->...in", model.diffusion_hessian(x), a))
    coup = 0.5 * sigma_tilde
    ab = (np.einsum("...kj,...j->...k", db, b)
          + 0.5 * np.einsum("...kij,...ij->...k", model.drift_hessian(x), a))

    def drift(u, kappa):
        return b + 0.5 * np.einsum("...ail,...lj,...ij->...a", ds, s, assemble_w(u, kappa))

    def coupling(u, kappa):
        return np.einsum("...in,...n->...i", coup, u)

    return [(1, True, noise), (2, True, drift), (3, True, coupling),
            (4, False, 0.5 * ab)]


# ---------------------------------------------------------------------------
# expansion coefficients and bias operators


def _expect(fn, model: DiffusionModel, innovation: InnovationDist, quadrature: Quadrature,
            with_kappa: bool, x: np.ndarray):
    """E[fn(u, kappa)] per state of ``x``, by enumeration or Monte Carlo.

    ``fn`` maps one (u, kappa) draw to a value that broadcasts against the
    batch axes of ``x``.  The Monte Carlo path feeds it every draw at once
    along a new leading axis that broadcasts against the batch axes of
    ``x``, and reduces over that axis only, so mean and stderr carry the
    batch shape of ``x``.
    """
    if isinstance(quadrature, Enumerate):
        total = 0.0
        for u, kap, p in joint_outcomes(innovation, with_kappa=with_kappa):
            total = total + p * fn(u, kap)
        return total, 0.0
    if not isinstance(quadrature, MonteCarlo):
        raise TypeError(f"unknown quadrature {quadrature!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(quadrature.seed)))
    n = quadrature.samples
    us = innovation.sample(rng, size=n)
    kaps = sample_kappa(rng, innovation.dimension, size=n) if with_kappa else np.zeros((n, 0))
    lead = (n,) + (1,) * (np.ndim(x) - 1)
    vals = np.asarray(fn(us.reshape(lead + us.shape[-1:]), kaps.reshape(lead + kaps.shape[-1:])),
                      dtype=np.float64)
    # a value that depends on neither the draw nor the state lacks their axes
    vals = np.broadcast_to(vals, (n,) + np.shape(x)[:-1])
    mean = vals.mean(axis=0)
    stderr = vals.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.full(mean.shape, np.inf)
    return mean, stderr


@functools.lru_cache(maxsize=None)
def _expansion_terms(marks: tuple, p: int) -> tuple[tuple, tuple]:
    """The terms of C_p over increments marked (j, draw): (fixed, drawn), two
    tuples of (indices into the increments, prod_j m_j!) in ascending order k."""
    fixed, drawn = [], []
    for k in range(1, 2 * p + 1):
        for term in itertools.combinations_with_replacement(range(len(marks)), k):
            if sum(marks[i][0] for i in term) == 2 * p:
                weight = math.prod(math.factorial(term.count(i)) for i in set(term))
                (drawn if any(marks[i][1] for i in term) else fixed).append((term, weight))
    return tuple(fixed), tuple(drawn)


def _expansion_coefficient(scheme: str, p: int, model: DiffusionModel, f: Observable,
                           x: np.ndarray, innovation: InnovationDist,
                           quadrature: Quadrature) -> OperatorValue:
    """C_p f(x), the gamma^p coefficient of E f(X_gamma) = f(x) + sum_p gamma^p C_p f(x)
    for the step of ``scheme``.  Taylor-expanding f around x in the
    increments of ``increments`` gives

        C_p f = sum over multisets {j_1 .. j_k} with j_1 + ... + j_k = 2p of
                E[(D^k f; delta_{j_1} x ... x delta_{j_k})] / prod_j m_j!

    where m_j counts j in the multiset.  A term whose increments are all
    draw-independent is evaluated once, outside the expectation.
    """
    if f.max_order < 2 * p:
        raise InsufficientOrderError(f"insufficient observable order: need {2 * p}, have {f.max_order}")
    x = np.asarray(x, dtype=np.float64)
    # ascending j, so each term's directions come lowest power first
    incs = sorted((inc for inc in increments(scheme, model, x) if inc[0] <= 2 * p),
                  key=lambda inc: inc[0])
    fixed, drawn = _expansion_terms(tuple((j, draw) for j, draw, _ in incs), p)

    def total(terms, deltas):
        out = None
        for term, weight in terms:
            t = f.d(x, len(term), tuple(deltas[i] for i in term)) / weight
            out = t if out is None else out + t
        return out

    def drawn_terms(u, kap):
        return total(drawn, [dl(u, kap) if draw else dl for _, draw, dl in incs])

    value, se = _expect(drawn_terms, model, innovation, quadrature, scheme == "talay2", x)
    if fixed:
        value = total(fixed, [dl for _, _, dl in incs]) + value
    return OperatorValue(_batched(value, x), se)


def m1_euler(model: DiffusionModel, f: Observable, x: np.ndarray,
             innovation: InnovationDist, quadrature: Quadrature = Enumerate()) -> OperatorValue:
    """Bias operator of the Euler kernel, Mf = -C_2 f."""
    value, se = _expansion_coefficient("euler", 2, model, f, x, innovation, quadrature)
    return OperatorValue(-value, se)


def m1_talay(model: DiffusionModel, f: Observable, x: np.ndarray,
             innovation: InnovationDist, quadrature: Quadrature = Enumerate()) -> OperatorValue:
    """First-order bias operator of the weak-order-two kernel, Mf = -C_2 f."""
    value, se = _expansion_coefficient("talay2", 2, model, f, x, innovation, quadrature)
    return OperatorValue(-value, se)


def m2_talay(model: DiffusionModel, f: Observable, x: np.ndarray,
             innovation: InnovationDist, quadrature: Quadrature = Enumerate()) -> OperatorValue:
    """Second-order bias operator of the weak-order-two kernel, Mf = -C_3 f."""
    value, se = _expansion_coefficient("talay2", 3, model, f, x, innovation, quadrature)
    return OperatorValue(-value, se)


# ---------------------------------------------------------------------------
# the generator as an observable


def _contract_dirs(tensor: np.ndarray, dirs: Sequence[np.ndarray], d: int,
                   value_rank: int) -> np.ndarray:
    """Contract the trailing ``len(dirs)`` axes of ``tensor`` against
    direction vectors (each possibly batch-shaped (..., d)).

    ``value_rank`` counts ALL trailing value axes of the tensor (component
    axes plus one coordinate axis per derivative order); directions are
    padded to broadcast across the surviving value axes and any batch axes.
    """
    out = np.asarray(tensor, dtype=np.float64)
    rank = value_rank
    for w in reversed(list(dirs)):
        w = np.asarray(w, dtype=np.float64)
        w = w.reshape(w.shape[:-1] + (1,) * (rank - 1) + (d,))
        out = (out * w).sum(-1)
        rank -= 1
    return out


def _subsets(k: int):
    idx = list(range(k))
    for mask in range(1 << k):
        yield [i for i in idx if mask >> i & 1], [i for i in idx if not mask >> i & 1]


def generator_observable(model: DiffusionModel, f: Observable) -> Observable:
    """Af as an Observable of order ``min(f.max_order - 2, 2)``, enough for
    A^2 f = ``generator_apply(model, Af, x)``, the weak-order-two target.

    Derivatives are assembled by the Leibniz rule from f's dirderiv and the
    model's analytic fields (b, db, d2b) and (sigma, dsigma, d2sigma);
    finite-difference derivative data is refused because differencing the
    fields inside A^2 f is too noisy.
    """
    if f.max_order < 2:
        raise InsufficientOrderError("insufficient observable order: generator needs order 2")
    if any(t is None for t in (model.db, model.d2b, model.dsigma, model.d2sigma)):
        raise InsufficientDerivativesError(
            "generator observable requires analytic drift/diffusion derivatives through order 2"
        )
    drift = (model.b, model.db, model.d2b)
    diffusion = (model.sigma, model.dsigma, model.d2sigma)
    d = model.dim
    basis = np.eye(d)

    def fn(x):
        return generator_apply(model, f, x)

    def sigma_pair_tensor(x, order_t, dirs):
        """D^{order_t}(sigma sigma^T)_{ij}[dirs] as (..., d, d) via the product rule."""
        sig = [diffusion[m](x) for m in range(order_t + 1)]
        out = 0.0
        for left, right in _subsets(order_t):
            # diffusion tensors carry (d, N) plus one coordinate axis per derivative
            tl = _contract_dirs(sig[len(left)], [dirs[t] for t in left], d, len(left) + 2)
            tr = _contract_dirs(sig[len(right)], [dirs[t] for t in right], d, len(right) + 2)
            out = out + np.einsum("...in,...jn->...ij", tl, tr)
        return out

    def dd(x, k, dirs):
        x = np.asarray(x, dtype=np.float64)
        out = 0.0
        for left, right in _subsets(k):
            bt = _contract_dirs(drift[len(left)](x), [dirs[t] for t in left], d, len(left) + 1)
            rest = [dirs[t] for t in right]
            for i in range(d):
                out = out + bt[..., i] * f.d(x, len(rest) + 1, (basis[i], *rest))
            at = sigma_pair_tensor(x, len(left), [dirs[t] for t in left])
            for i in range(d):
                for j in range(d):
                    out = out + 0.5 * at[..., i, j] * f.d(x, len(rest) + 2, (basis[i], basis[j], *rest))
        return out

    return Observable(fn=fn, dirderiv=dd, max_order=min(f.max_order - 2, 2),
                      name=f"A[{f.name or 'f'}]")
