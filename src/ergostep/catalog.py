"""Built-in models, observables, Lyapunov data, and analytic laws.

Every model here carries exact drift and diffusion derivatives through
order two, the whole derivative contract of ``model``, so the increment
lists, the bias operators and the generator as an observable run without
any finite differencing.  Observables carry exact derivatives through
order six.  Catalog entries are addressable by name from the experiment
config (``model.id``, ``f``).
"""

from __future__ import annotations

import math
import re
from statistics import NormalDist
from typing import Callable

import numpy as np

from .empirical import AnalyticLaw1D
from .model import DiffusionModel, LyapunovSpec, Observable


# ---------------------------------------------------------------------------
# models


def _const_field(value) -> Callable:
    """A state-independent field: it returns ``value`` itself, without batch
    axes, and numpy broadcasting lines it up with batched states."""
    value = np.array(value, dtype=np.float64)
    value.setflags(write=False)
    return lambda x: value


def ou1d(theta: float = 1.0, sigma: float = math.sqrt(2.0)) -> DiffusionModel:
    """1-d Ornstein-Uhlenbeck: b(x) = -theta x, constant diffusion."""
    th = float(theta)
    sg = float(sigma)

    def b(x):
        return -th * x

    return DiffusionModel(
        dim=1, noise_dim=1, b=b,
        sigma=_const_field([[sg]]),
        db=_const_field([[-th]]),
        d2b=_const_field(np.zeros((1, 1, 1))),
        dsigma=_const_field(np.zeros((1, 1, 1))),
        d2sigma=_const_field(np.zeros((1, 1, 1, 1))),
        name=f"ou1d(theta={th}, sigma={sg})",
    )


def double_well(sigma: float = math.sqrt(2.0)) -> DiffusionModel:
    """1-d double well: b = -(x^3 - x), the negative gradient of x^4/4 - x^2/2."""
    sg = float(sigma)

    def b(x):
        return x - x**3

    def db(x):
        return (1.0 - 3.0 * x**2)[..., None]

    def d2b(x):
        return (-6.0 * x)[..., None, None]

    return DiffusionModel(
        dim=1, noise_dim=1, b=b,
        sigma=_const_field([[sg]]),
        db=db, d2b=d2b,
        dsigma=_const_field(np.zeros((1, 1, 1))),
        d2sigma=_const_field(np.zeros((1, 1, 1, 1))),
        name=f"double_well(sigma={sg})",
    )


def ou_nd(theta_matrix, sigma_matrix) -> DiffusionModel:
    """d-dimensional linear drift b(x) = -Theta x with constant diffusion."""
    th = np.asarray(theta_matrix, dtype=np.float64)
    sg = np.asarray(sigma_matrix, dtype=np.float64)
    d, n = sg.shape

    def b(x):
        return -np.einsum("ij,...j->...i", th, x)

    return DiffusionModel(
        dim=d, noise_dim=n, b=b,
        sigma=_const_field(sg),
        db=_const_field(-th),
        d2b=_const_field(np.zeros((d, d, d))),
        dsigma=_const_field(np.zeros((d, n, d))),
        d2sigma=_const_field(np.zeros((d, n, d, d))),
        name="ou_nd",
    )


# the config keys each catalog model reads besides model.id
_MODEL_KEYS = {"ou1d": ("model.theta", "model.sigma"), "double_well": ("model.sigma",),
               "ou_nd": ("model.theta", "model.sigma", "model.dim")}


def model_from_config(cfg: dict) -> DiffusionModel:
    """The catalog model of parsed config values: ``model.id`` a name,
    ``model.theta`` and ``model.sigma`` floats, ``model.dim`` an int.  A key
    the chosen model does not read is refused, not dropped."""
    mid = cfg.get("model.id", "ou1d")
    if mid not in _MODEL_KEYS:
        raise ValueError(f"unknown model id {mid!r}")
    ignored = sorted(set(cfg) - {"model.id", *_MODEL_KEYS[mid]})
    if ignored:
        raise ValueError(f"model {mid!r} does not take {ignored[0]}")
    if mid == "ou1d":
        return ou1d(theta=float(cfg.get("model.theta", 1.0)),
                    sigma=float(cfg.get("model.sigma", math.sqrt(2.0))))
    if mid == "double_well":
        return double_well(sigma=float(cfg.get("model.sigma", math.sqrt(2.0))))
    if mid == "ou_nd":
        # isotropic theta I / sigma I in the flat config; full matrices go
        # through the ou_nd constructor directly
        d = cfg.get("model.dim", 2)
        th = float(cfg.get("model.theta", 1.0)) * np.eye(d)
        sg = float(cfg.get("model.sigma", math.sqrt(2.0))) * np.eye(d)
        return ou_nd(th, sg)


# ---------------------------------------------------------------------------
# observables


def _falling(k: int, m: int) -> float:
    out = 1.0
    for i in range(m):
        out *= k - i
    return out


def monomial1d(k: int) -> Observable:
    """x^k on R with exact directional derivatives."""
    if not 0 <= k <= 6:
        raise ValueError("monomial degree must lie in [0, 6]")

    def fn(x):
        return np.asarray(x)[..., 0] ** k

    def dd(x, m, dirs):
        if m > k:
            return 0.0
        if m == k:  # the constant k!, since x**0 is exactly 1.0
            out = _falling(k, k)
        else:
            x1 = np.asarray(x, dtype=np.float64)[..., 0]
            out = _falling(k, m) * (x1 if k - m == 1 else x1 ** (k - m))
        for v in dirs:
            out = out * np.asarray(v)[..., 0]
        return out

    return Observable(fn=fn, dirderiv=dd, max_order=6, name=f"x^{k}")


def coordinate_monomial(exponents) -> Observable:
    """prod_i x_i^{a_i} with exact directional derivatives (total degree <= 6)."""
    exps = tuple(int(a) for a in exponents)
    if any(a < 0 for a in exps) or sum(exps) > 6:
        raise ValueError("exponents must be non-negative with total degree <= 6")
    d = len(exps)

    def fn(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.ones(x.shape[:-1])
        for i, a in enumerate(exps):
            if a:
                out = out * x[..., i] ** a
        return out

    def partial(x, counts):
        out = None
        for i, (a, c) in enumerate(zip(exps, counts)):
            if c > a:
                return 0.0
            fac = _falling(a, c)
            term = fac * x[..., i] ** (a - c) if a - c else fac
            out = term if out is None else out * term
        return out if out is not None else 1.0

    def dd(x, m, dirs):
        import itertools

        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(x.shape[:-1])
        for assign in itertools.product(range(d), repeat=m):
            counts = [0] * d
            for c in assign:
                counts[c] += 1
            term = partial(x, counts)
            if isinstance(term, float) and term == 0.0:
                continue
            for t, c in enumerate(assign):
                term = term * np.asarray(dirs[t])[..., c]
            out = out + term
        return out

    name = "*".join(f"x{i+1}^{a}" for i, a in enumerate(exps) if a) or "1"
    return Observable(fn=fn, dirderiv=dd, max_order=6, name=name)


_MONO_RE = re.compile(r"^x(\d*)(?:\^(\d+))?$")


def observable_from_name(name: str, dim: int = 1) -> Observable:
    """Parse catalog names: ``x^2``, ``x^4`` (d=1) or products like
    ``x1*x2``, ``x1^2*x2`` (d >= 2)."""
    name = name.strip().replace(" ", "")
    exps = [0] * dim
    for factor in name.split("*"):
        m = _MONO_RE.match(factor)
        if not m:
            raise ValueError(f"unknown observable {name!r}")
        idx = int(m.group(1)) - 1 if m.group(1) else 0
        if not 0 <= idx < dim:
            raise ValueError(f"coordinate out of range in observable {name!r}")
        exps[idx] += int(m.group(2)) if m.group(2) else 1
    if dim == 1:
        return monomial1d(exps[0])
    return coordinate_monomial(exps)


# ---------------------------------------------------------------------------
# Lyapunov data


def quadratic_lyapunov(alpha: float, beta: float, p: float = 1.0, a: float = 1.0) -> LyapunovSpec:
    """V(x) = 1 + |x|^2, the essentially quadratic catalog choice."""

    def v(x):
        x = np.asarray(x, dtype=np.float64)
        return 1.0 + np.einsum("...i,...i->...", x, x)

    def grad(x):
        return 2.0 * np.asarray(x, dtype=np.float64)

    def hess(x):
        x = np.asarray(x, dtype=np.float64)
        d = x.shape[-1]
        return np.broadcast_to(2.0 * np.eye(d), x.shape[:-1] + (d, d))

    return LyapunovSpec(v=v, grad_v=grad, hess_v=hess, alpha=alpha, beta=beta, p=p, a=a)


# ---------------------------------------------------------------------------
# analytic laws


def normal_law(mean: float = 0.0, std: float = 1.0) -> AnalyticLaw1D:
    dist = NormalDist(mean, std)
    mu, s = float(mean), float(std)

    def pdf_std(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def partial_expectation(p1, p2):
        z1 = dist.inv_cdf(p1) if p1 > 0 else -math.inf
        z2 = dist.inv_cdf(p2) if p2 < 1 else math.inf
        t1 = pdf_std((z1 - mu) / s) if math.isfinite(z1) else 0.0
        t2 = pdf_std((z2 - mu) / s) if math.isfinite(z2) else 0.0
        return mu * (p2 - p1) + s * (t1 - t2)

    moments = tuple(_normal_moment(mu, s, k) for k in range(7))
    return AnalyticLaw1D(cdf=dist.cdf, quantile=dist.inv_cdf,
                         partial_expectation=partial_expectation,
                         moments=moments, name=f"normal({mu}, {s}^2)")


def _normal_moment(mu: float, s: float, k: int) -> float:
    total = 0.0
    for j in range(0, k + 1, 2):
        total += (math.comb(k, j) * mu ** (k - j) * s**j
                  * math.prod(range(j - 1, 0, -2)))
    return total


def gauss_hermite_expectation(fn, mean: float = 0.0, std: float = 1.0, nodes: int = 64) -> float:
    """E[fn(X)] for X ~ N(mean, std^2) by Gauss-Hermite quadrature; exact for
    polynomials of degree < 2*nodes.  ``fn`` maps the grid of 1-d states
    (nodes, 1) to values (nodes,) in one call."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    xs = mean + math.sqrt(2.0) * std * t
    vals = np.asarray(fn(xs[:, None]), dtype=np.float64).reshape(-1)
    return float(np.dot(w, vals) / math.sqrt(math.pi))


def ou_invariant_law(theta: float = 1.0, sigma: float = math.sqrt(2.0)) -> AnalyticLaw1D:
    """Invariant law N(0, sigma^2 / (2 theta)) of the 1-d Ornstein-Uhlenbeck model."""
    return normal_law(0.0, math.sqrt(sigma**2 / (2.0 * theta)))
