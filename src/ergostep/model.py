"""Diffusion models, smooth observables, and the operators built from them.

A ``DiffusionModel`` packages the drift b, diffusion matrix sigma, and their
derivative oracles for dX = b dt + sigma dW, and its invariant law and
Lyapunov constants when known.  An ``InvariantLaw`` is a quadrature rule
for the invariant law nu, so nu(g) of an operator g is one call of g on
the rule's nodes.  An ``Observable`` is a scalar test
function together with a directional-derivative callback

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

Expectations over the innovation (and sign draws) are exact sums over
``joint_outcomes``, and every derivative of b and sigma is the model's
analytic field, called directly once ``require_derivatives`` has found all
four: a missing one raises ``InsufficientDerivativesError``.

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

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .innovations import InnovationDist, assemble_w, joint_outcomes


def _batched(value, x: np.ndarray) -> np.ndarray:
    """``value`` with the batch shape of states ``x``: an array that has it
    is returned as it is, anything else is broadcast (fields that do not
    depend on the state may have left it without batch axes)."""
    if isinstance(value, np.ndarray) and value.shape == x.shape[:-1]:
        return value
    return np.broadcast_to(value, x.shape[:-1])


class InsufficientOrderError(ValueError):
    """Observable cannot supply derivatives of the required order."""


class InsufficientDerivativesError(ValueError):
    """Model lacks analytic derivative data required by the operation."""


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
    lists, the bias operators and A^2 f read.  The four derivative fields
    are optional: the Euler kernel and its bias operator read only b and
    sigma, and whatever reads them calls ``require_derivatives`` first.
    The two fields after ``d2sigma`` are unread.  ``law`` is the invariant
    law as a quadrature rule, and ``lyapunov`` the constants for which the
    discrete mean-reversion probe of V = 1 + |x|^2 holds; None when the
    model has none.
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
    law: InvariantLaw | None = None
    lyapunov: LyapunovSpec | None = None

    def require_noise(self, innovation: InnovationDist) -> None:
        """Raise ``ValueError`` unless ``innovation`` draws one coordinate per
        noise column, so that sigma U is the model's noise."""
        if innovation.dimension != self.noise_dim:
            raise ValueError("innovation dimension must match the model's noise dimension")

    def require_derivatives(self) -> None:
        """Raise ``InsufficientDerivativesError`` naming the first missing
        field of db, d2b, dsigma and d2sigma."""
        for name in ("db", "d2b", "dsigma", "d2sigma"):
            if getattr(self, name) is None:
                raise InsufficientDerivativesError(
                    f"the model lacks the analytic derivative field {name!r}; talay2 and the "
                    f"generator observable need b and sigma differentiated through order two")

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        """a = sigma sigma^T, shape (..., d, d)."""
        s = self.sigma(x)
        return np.einsum("...in,...jn->...ij", s, s)


@dataclass(frozen=True)
class InvariantLaw:
    """The invariant law nu as a quadrature rule.  ``rule()`` returns the
    nodes (m, d), their weights (m,) and the weights' total; it builds them
    on its first call, so a model that never integrates pays nothing.
    ``normal`` is the law itself when it is a 1-d normal, the one law that
    W1 reads."""

    rule: Callable[[], tuple[np.ndarray, np.ndarray, float]]
    normal: NormalDist | None = None

    def expect(self, fn) -> float:
        """nu(fn), with ``fn`` mapping all the nodes (m, d) to values (m,)
        in one call."""
        nodes, weights, total = self.rule()
        return float(np.dot(weights, fn(nodes)) / total)


@dataclass(frozen=True)
class LyapunovSpec:
    """The constants of the mean reversion AV <= beta - alpha V that the
    discrete probe checks, for V(x) = 1 + |x|^2."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


# ---------------------------------------------------------------------------
# first-order operators


def generator_apply(model: DiffusionModel, f: Observable, x: np.ndarray):
    """Af(x) = <b, grad f> + 1/2 sum_ij (sigma sigma^T)_ij d2_ij f,
    contracted through the observable's dirderiv with canonical basis
    directions."""
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
    model.require_derivatives()
    db, ds = model.db(x), model.dsigma(x)
    a = np.einsum("...in,...jn->...ij", s, s)
    sigma_tilde = (np.einsum("...ij,...jn->...in", db, s)
                   + np.einsum("...inj,...j->...in", ds, b)
                   + 0.5 * np.einsum("...inlj,...lj->...in", model.d2sigma(x), a))
    coup = 0.5 * sigma_tilde
    ab = (np.einsum("...kj,...j->...k", db, b)
          + 0.5 * np.einsum("...kij,...ij->...k", model.d2b(x), a))

    def drift(u, kappa):
        return b + 0.5 * np.einsum("...ail,...lj,...ij->...a", ds, s, assemble_w(u, kappa))

    def coupling(u, kappa):
        return np.einsum("...in,...n->...i", coup, u)

    return [(1, True, noise), (2, True, drift), (3, True, coupling),
            (4, False, 0.5 * ab)]


# ---------------------------------------------------------------------------
# expansion coefficients and bias operators


def _expect(fn, innovation: InnovationDist, with_kappa: bool):
    """E[fn(u, kappa)], the sum over the innovation's (and, with
    ``with_kappa``, the signs') finite support.  ``fn`` maps one outcome to
    a value; a batch of states rides along in its axes."""
    total = 0.0
    for u, kap, p in joint_outcomes(innovation, with_kappa=with_kappa):
        total = total + p * fn(u, kap)
    return total


def _expansion_terms(marks: list, p: int) -> tuple[list, list]:
    """The terms of C_p over increments marked (j, draw): (fixed, drawn), two
    lists of (indices into the increments, prod_j m_j!) in ascending order k."""
    fixed, drawn = [], []
    for k in range(1, 2 * p + 1):
        for term in itertools.combinations_with_replacement(range(len(marks)), k):
            if sum(marks[i][0] for i in term) == 2 * p:
                weight = math.prod(math.factorial(term.count(i)) for i in set(term))
                (drawn if any(marks[i][1] for i in term) else fixed).append((term, weight))
    return fixed, drawn


def _expansion_coefficient(scheme: str, p: int, model: DiffusionModel, f: Observable,
                           x: np.ndarray, innovation: InnovationDist) -> np.ndarray:
    """C_p f(x), the gamma^p coefficient of E f(X_gamma) = f(x) + sum_p gamma^p C_p f(x)
    for the step of ``scheme``.  Taylor-expanding f around x in the
    increments of ``increments`` gives

        C_p f = sum over multisets {j_1 .. j_k} with j_1 + ... + j_k = 2p of
                E[(D^k f; delta_{j_1} x ... x delta_{j_k})] / prod_j m_j!

    where m_j counts j in the multiset.  A term whose increments are all
    draw-independent is evaluated once, outside the expectation.
    """
    model.require_noise(innovation)
    x = np.asarray(x, dtype=np.float64)
    # ascending j, so each term's directions come lowest power first
    incs = sorted((inc for inc in increments(scheme, model, x) if inc[0] <= 2 * p),
                  key=lambda inc: inc[0])
    fixed, drawn = _expansion_terms([(j, draw) for j, draw, _ in incs], p)

    def total(terms, deltas):
        out = None
        for term, weight in terms:
            t = f.d(x, len(term), tuple(deltas[i] for i in term)) / weight
            out = t if out is None else out + t
        return out

    def drawn_terms(u, kap):
        return total(drawn, [dl(u, kap) if draw else dl for _, draw, dl in incs])

    value = _expect(drawn_terms, innovation, scheme == "talay2")
    if fixed:
        value = total(fixed, [dl for _, _, dl in incs]) + value
    return _batched(value, x)


def m1_euler(model: DiffusionModel, f: Observable, x: np.ndarray,
             innovation: InnovationDist) -> np.ndarray:
    """Bias operator of the Euler kernel, Mf = -C_2 f."""
    return -_expansion_coefficient("euler", 2, model, f, x, innovation)


def m1_talay(model: DiffusionModel, f: Observable, x: np.ndarray,
             innovation: InnovationDist) -> np.ndarray:
    """First-order bias operator of the weak-order-two kernel, Mf = -C_2 f."""
    return -_expansion_coefficient("talay2", 2, model, f, x, innovation)


def m2_talay(model: DiffusionModel, f: Observable, x: np.ndarray,
             innovation: InnovationDist) -> np.ndarray:
    """Second-order bias operator of the weak-order-two kernel, Mf = -C_3 f."""
    return -_expansion_coefficient("talay2", 3, model, f, x, innovation)


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
    model's analytic fields (b, db, d2b) and (sigma, dsigma, d2sigma).
    """
    if f.max_order < 2:
        raise InsufficientOrderError("insufficient observable order: generator needs order 2")
    model.require_derivatives()
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
