"""Built-in models, observables and Lyapunov constants.

Every model here carries exact drift and diffusion derivatives through
order two, the whole derivative contract of ``model``, so the increment
lists, the bias operators and the generator as an observable run without
any finite differencing, and the Lyapunov constants of V = 1 + |x|^2.
Each also carries its invariant law as a quadrature rule: a tensor
Gauss-Hermite rule for the normal laws of ``ou1d`` and ``ou_nd``
(``normal_law``), and Gauss-Legendre against the Gibbs density for
``double_well``.  Observables carry exact derivatives through order six.
Catalog entries are addressable by name from the experiment config
(``model.id``, ``f``).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from statistics import NormalDist
from typing import Callable

import numpy as np

from .innovations import ENUMERATION_CAP
from .model import DiffusionModel, InvariantLaw, LyapunovSpec, Observable


# ---------------------------------------------------------------------------
# models


def _const_field(value) -> Callable:
    """A state-independent field: it returns ``value`` itself, without batch
    axes, and numpy broadcasting lines it up with batched states."""
    value = np.array(value, dtype=np.float64)
    value.setflags(write=False)
    return lambda x: value


def normal_law(cov, per_axis: int) -> InvariantLaw:
    """N(0, cov) by the tensor Gauss-Hermite rule of ``per_axis`` nodes per
    axis through the square root of cov from ``eigh`` (a singular cov keeps
    its point mass), exact for degree below 2 ``per_axis`` in each
    coordinate; a rule of more than ``ENUMERATION_CAP`` nodes is refused."""
    cov = np.asarray(cov, dtype=np.float64)
    d = cov.shape[0]

    @functools.cache
    def rule():
        if per_axis**d > ENUMERATION_CAP:
            raise ValueError(f"enumeration blow-up: a Gauss-Hermite rule of {per_axis} nodes "
                             f"per axis in dimension {d} exceeds the cap")
        vals, vecs = np.linalg.eigh(cov)
        root = math.sqrt(2.0) * (vecs * np.sqrt(np.maximum(vals, 0.0)))
        t, w = np.polynomial.hermite.hermgauss(per_axis)
        grid = np.stack(np.meshgrid(*[t] * d, indexing="ij"), axis=-1).reshape(-1, d)
        weights = functools.reduce(np.multiply.outer, [w] * d).reshape(-1)
        return grid @ root.T, weights, math.sqrt(math.pi) ** d

    normal = NormalDist(0.0, math.sqrt(cov[0, 0])) if d == 1 else None
    return InvariantLaw(rule, normal)


def ou1d(theta: float = 1.0, sigma: float = math.sqrt(2.0)) -> DiffusionModel:
    """1-d Ornstein-Uhlenbeck: b(x) = -theta x, theta > 0, constant diffusion.
    AV = 2 theta + sigma^2 - 2 theta V, and an Euler step adds
    gamma theta^2 (V - 1), so alpha is half the rate 2 theta."""
    th = float(theta)
    sg = float(sigma)
    if not th > 0:
        raise ValueError(f"model.theta must be positive, got {th!r}")

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
        law=normal_law([[sg**2 / (2.0 * th)]], 64),
        lyapunov=LyapunovSpec(alpha=th, beta=th + sg**2),
    )


def double_well(sigma: float = math.sqrt(2.0)) -> DiffusionModel:
    """1-d double well: b = -U' for U = x^4/4 - x^2/2.  AV = 2x^2 - 2x^4 +
    sigma^2 <= beta - V, since -2y^2 + 3y peaks at 9/8.  The Gibbs law, of
    density exp(-2U / sigma^2) = exp(-((x^2 - 1) / sigma)^2 / 2) up to a
    constant, is Gauss-Legendre on [-L, L], 2U(L) / sigma^2 = 700, with 256
    nodes for |sigma| >= 0.05 and 256 ceil(0.05 / |sigma|) below, so the
    node spacing keeps up with the wells' width sigma: within 1e-12 of
    adaptive quadrature for |sigma| in [0.01, 3].  Below 0.01 the rule
    refuses to build.  At sigma = 0 the law is not unique, and ``law`` is
    None."""
    sg = float(sigma)

    @functools.cache
    def rule():
        width = abs(sg)
        if width < 0.01:
            raise ValueError(f"the double_well Gibbs rule needs |model.sigma| >= 0.01, got {sg!r}")
        t, w = np.polynomial.legendre.leggauss(256 * math.ceil(0.05 / width) if width < 0.05 else 256)
        x = math.sqrt(1.0 + math.sqrt(1.0 + 1400.0 * sg * sg)) * t
        weights = w * np.exp(-0.5 * ((x * x - 1.0) / sg) ** 2)
        return x[:, None], weights, float(weights.sum())

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
        law=InvariantLaw(rule) if sg != 0 else None,
        lyapunov=LyapunovSpec(alpha=1.0, beta=sg**2 + 17.0 / 8.0),
    )


def ou_nd(theta_matrix, sigma_matrix) -> DiffusionModel:
    """d-dimensional linear drift b(x) = -Theta x with constant diffusion; Lyapunov
    constants as ``ou1d``'s for theta = lambda_min((Theta + Theta^T) / 2) > 0.
    For a stable Theta the law is N(0, S), Theta S + S Theta^T = sigma sigma^T
    by a Kronecker solve, on 6 nodes per axis: exact for Vf (degree <= 10)
    and Mf of every catalog f."""
    th = np.asarray(theta_matrix, dtype=np.float64)
    sg = np.asarray(sigma_matrix, dtype=np.float64)
    d, n = sg.shape
    lam = float(np.linalg.eigvalsh(0.5 * (th + th.T))[0])
    law = None
    if np.all(np.linalg.eigvals(th).real > 0):
        eye = np.eye(d)
        cov = np.linalg.solve(np.kron(th, eye) + np.kron(eye, th), (sg @ sg.T).ravel())
        law = normal_law(cov.reshape(d, d), 6)

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
        law=law,
        lyapunov=LyapunovSpec(alpha=lam, beta=lam + float(np.sum(sg**2))) if lam > 0 else None,
    )


def _isotropic_ou_nd(theta: float = 1.0, sigma: float = math.sqrt(2.0), dim: int = 2) -> DiffusionModel:
    """The config's ``ou_nd``: Theta = theta I and sigma I."""
    theta, sigma = float(theta), float(sigma)
    if not theta > 0:
        raise ValueError(f"model.theta must be positive, got {theta!r}")
    return ou_nd(theta * np.eye(dim), sigma * np.eye(dim))


# each config model id, its constructor and the model.* keys it reads
_MODELS = {"ou1d": (ou1d, ("theta", "sigma")), "double_well": (double_well, ("sigma",)),
          "ou_nd": (_isotropic_ou_nd, ("theta", "sigma", "dim"))}


def model_from_config(cfg: dict) -> DiffusionModel:
    """The catalog model of parsed config values: ``model.id`` a name,
    ``model.theta`` and ``model.sigma`` floats, ``model.dim`` an int.  A key
    the chosen model does not read is refused, not dropped."""
    mid = cfg.get("model.id", "ou1d")
    if mid not in _MODELS:
        raise ValueError(f"unknown model id {mid!r}")
    build, params = _MODELS[mid]
    ignored = sorted(set(cfg) - {"model.id", *(f"model.{p}" for p in params)})
    if ignored:
        raise ValueError(f"model {mid!r} does not take {ignored[0]}")
    return build(**{p: cfg[f"model.{p}"] for p in params if f"model.{p}" in cfg})


# ---------------------------------------------------------------------------
# observables


def _falling(k: int, m: int) -> float:
    out = 1.0
    for i in range(m):
        out *= k - i
    return out


def coordinate_monomial(exponents) -> Observable:
    """prod_i x_i^{a_i} with exact directional derivatives (total degree <= 6),
    named ``x^k`` in one dimension.  A derivative is the sum over the
    assignments of its directions to coordinates, accumulated from the first
    term reached: past the degree it is the float 0.0, and at the degree
    along directions without batch axes it has none either."""
    exps = tuple(int(a) for a in exponents)
    if any(a < 0 for a in exps) or sum(exps) > 6:
        raise ValueError("exponents must be non-negative with total degree <= 6")
    d = len(exps)

    def fn(x):
        x = np.asarray(x, dtype=np.float64)
        out = x[..., 0] ** exps[0]
        for i, a in enumerate(exps[1:], 1):
            if a:
                out = out * x[..., i] ** a
        return out

    def partial(x, counts):
        out = None
        for i, (a, c) in enumerate(zip(exps, counts)):
            if c > a:
                return None
            fac = _falling(a, c)
            if a - c:
                fac = fac * (x[..., i] if a - c == 1 else x[..., i] ** (a - c))
            out = fac if out is None else out * fac
        return out

    def dd(x, m, dirs):
        x = np.asarray(x, dtype=np.float64)
        out = None
        for assign in itertools.product(range(d), repeat=m):
            term = partial(x, [assign.count(i) for i in range(d)])
            if term is None:
                continue
            for t, c in enumerate(assign):
                term = term * np.asarray(dirs[t])[..., c]
            out = term if out is None else out + term
        return 0.0 if out is None else out

    name = (f"x^{exps[0]}" if d == 1
            else "*".join(f"x{i+1}^{a}" for i, a in enumerate(exps) if a) or "1")
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
    return coordinate_monomial(exps)
