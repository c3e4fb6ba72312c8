"""Numeric probes for the standing hypotheses: discrete-time Lyapunov
mean reversion, innovation moment matching, and one-step weak order.

The weak-order and mean-reversion probes take their one-step expectations
over ``schemes.make_stepper``, the kernel the simulation driver runs, and
raise ``DivergenceError`` when such an expectation is not finite.

Probes are pure functions of their inputs; reports are assembled in grid
order, so identical inputs produce identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .innovations import InnovationDist, gaussian_moment
from .model import (
    DiffusionModel,
    Enumerate,
    LyapunovSpec,
    Observable,
    Quadrature,
    _expect,
    generator_apply,
    generator_observable,
)
from .schemes import DivergenceError, make_stepper

PASS_TOL_ABS = 1e-8
PASS_TOL_REL = 0.02
MC_INCONCLUSIVE_FRACTION = 0.1


@dataclass(frozen=True)
class ProbeReport:
    grid: np.ndarray
    margins: np.ndarray
    verdict: str  # "pass" | "fail" | "inconclusive"
    worst_point: np.ndarray
    metadata: dict = field(default_factory=dict)


def default_grid(dim: int, radius: float = 5.0, points_per_axis: int = 21,
                 cloud_size: int = 200, seed: int = 0xE260D) -> np.ndarray:
    """Tensor grid over [-radius, radius]^d for d <= 2, else a fixed-seed
    uniform cloud (pointwise inequalities need actionable counterexamples,
    not quadrature nodes)."""
    if dim <= 2:
        axis = np.linspace(-radius, radius, points_per_axis)
        grids = np.meshgrid(*([axis] * dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return rng.uniform(-radius, radius, size=(cloud_size, dim))


# ---------------------------------------------------------------------------
# recursive control


def lambda_p_grid_max(lyapunov: LyapunovSpec, grid: np.ndarray) -> float:
    """Grid maximum of the clamped top eigenvalue of
    D^2 V + 2 (p - 1) grad V grad V^T / V (a grid max, not a supremum)."""
    v = np.asarray(lyapunov.v(grid), dtype=np.float64)
    gv = np.asarray(lyapunov.grad_v(grid), dtype=np.float64)
    hv = np.asarray(lyapunov.hess_v(grid), dtype=np.float64)
    mat = hv + 2.0 * (lyapunov.p - 1.0) * np.einsum("...i,...j->...ij", gv, gv) / v[..., None, None]
    eig = np.linalg.eigvalsh(mat)
    return float(max(eig.max(), 0.0))


def recursive_control_probe(scheme: str, model: DiffusionModel, lyapunov: LyapunovSpec,
                            gamma: float, grid: np.ndarray | None = None,
                            quadrature: Quadrature = Enumerate()) -> ProbeReport:
    """Margin of the discrete-time mean-reversion inequality on a grid.

    margin(x) = psi_p(V)/V * p * (beta - alpha phi(V))
                - (E[psi_p(V(X_gamma)) | x] - psi_p(V(x))) / gamma

    Pass needs margin >= -max(1e-8, 0.02 scale(x)) at every grid point,
    where scale(x) = psi_p(V)/V * p * (|beta| + alpha phi(V)) is the
    non-cancelling magnitude of the two sides: small steps satisfy the
    inequality only up to O(gamma^{3/2}) remainders, and a slack
    proportional to |rhs| itself would spuriously fail wherever the
    right-hand side crosses zero.  Monte Carlo standard errors above 10%
    of scale(x) make the verdict inconclusive rather than pass/fail.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if grid is None:
        grid = default_grid(model.dim)
    grid = np.asarray(grid, dtype=np.float64).reshape(-1, model.dim)
    if grid.shape[0] == 0:
        raise ValueError("probe grid must be non-empty")
    innovation = InnovationDist("three_point", model.noise_dim)

    def psi_v(x):
        return lyapunov.psi(lyapunov.v(x))

    v = np.asarray(lyapunov.v(grid), dtype=np.float64)
    rhs = lyapunov.psi(v) / v * lyapunov.p * (lyapunov.beta - lyapunov.alpha * lyapunov.phi(v))
    scale = lyapunov.psi(v) / v * lyapunov.p * (abs(lyapunov.beta) + lyapunov.alpha * lyapunov.phi(v))
    step = make_stepper(scheme, model)
    with np.errstate(over="ignore", invalid="ignore"):
        ev, se = _expect(lambda u, kap: psi_v(step(grid, gamma, u, kap)), model, innovation,
                         quadrature, with_kappa=scheme == "talay2", x=grid)
    if not np.all(np.isfinite(ev)):
        raise DivergenceError(None)
    pseudo = (ev - psi_v(grid)) / gamma
    margins = rhs - pseudo
    tol = np.maximum(PASS_TOL_ABS, PASS_TOL_REL * scale)
    worst = int(np.argmin(margins + tol))
    inconclusive = bool(np.any(se / gamma > MC_INCONCLUSIVE_FRACTION * scale))
    if inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "pass" if bool(np.all(margins >= -tol)) else "fail"
    return ProbeReport(
        grid=grid,
        margins=margins,
        verdict=verdict,
        worst_point=grid[worst],
        metadata={
            "gamma": gamma,
            "scheme": scheme,
            "alpha": lyapunov.alpha,
            "beta": lyapunov.beta,
            "p": lyapunov.p,
            "a": lyapunov.a,
            "lambda_p_grid_max": lambda_p_grid_max(lyapunov, grid),
            "lambda_p_is_grid_max_not_supremum": True,
            "max_stderr": float(np.max(se / gamma)) if np.any(se) else 0.0,
        },
    )


# ---------------------------------------------------------------------------
# moment matching


@dataclass(frozen=True)
class MomentMatchReport:
    """Per-multi-index deviations of innovation tensor moments from the
    standard normal's, exact rationals for discrete supports."""

    kind: str
    dimension: int
    max_order: int
    deviations: dict[int, dict[tuple[int, ...], Fraction]]

    def max_abs_deviation(self, order: int) -> Fraction:
        devs = self.deviations[order]
        return max((abs(v) for v in devs.values()), default=Fraction(0))

    def matched_through(self) -> int:
        out = 0
        for q in range(1, self.max_order + 1):
            if self.max_abs_deviation(q) != 0:
                break
            out = q
        return out


def moment_match_report(dist: InnovationDist, up_to_order: int) -> MomentMatchReport:
    """Compare E[U^(x q~)] against normal tensor moments for q~ <= up_to_order.

    Multi-indices are coordinate tuples i_1 <= ... <= i_q~; independent
    coordinates reduce each entry to a product of per-coordinate moments,
    normal entries to products of double factorials.
    """
    if not 1 <= up_to_order <= 6:
        raise ValueError("moment order must lie in [1, 6]")
    devs: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for q in range(1, up_to_order + 1):
        table: dict[tuple[int, ...], Fraction] = {}
        for idx in itertools.combinations_with_replacement(range(dist.dimension), q):
            counts = [0] * dist.dimension
            for i in idx:
                counts[i] += 1
            m_dist = math.prod((dist.moment(c) for c in counts), start=Fraction(1))
            m_norm = math.prod((gaussian_moment(c) for c in counts), start=Fraction(1))
            table[idx] = m_dist - m_norm
        devs[q] = table
    return MomentMatchReport(kind=dist.kind, dimension=dist.dimension,
                             max_order=up_to_order, deviations=devs)


# ---------------------------------------------------------------------------
# one-step weak order


@dataclass(frozen=True)
class WeakOrderResult:
    scheme: str
    gammas: tuple[float, ...]
    errors: tuple[float, ...]
    ratios: tuple[float, ...]


def weak_order_probe(scheme: str, model: DiffusionModel, f: Observable, x,
                     gammas, innovation: InnovationDist) -> WeakOrderResult:
    """Exhaustive-enumeration one-step error against the semigroup Taylor
    target: f + gamma Af for the Euler kernel, plus gamma^2/2 A^2 f for the
    weak-order-two kernel.  Consecutive error ratios near 2^(q+1) confirm
    the O(gamma^(q+1)) remainder."""
    if innovation.support1d() is None:
        raise ValueError("weak order probe needs a finite-support innovation")
    if any(gamma <= 0 for gamma in gammas):
        raise ValueError("step size must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    need = 2 if scheme == "euler" else 4
    if f.max_order < need:
        raise ValueError(f"insufficient observable order: need {need}")
    step = make_stepper(scheme, model)
    with np.errstate(over="ignore", invalid="ignore"):
        af = generator_apply(model, f, x)
        target0 = np.asarray(f.fn(x), dtype=np.float64) + 0.0
        if scheme == "talay2":
            a2f = generator_apply(model, generator_observable(model, f), x)
        errs = []
        for gamma in gammas:
            mean, _ = _expect(lambda u, kap: np.asarray(f.fn(step(x, gamma, u, kap)), dtype=np.float64),
                              model, innovation, Enumerate(), with_kappa=scheme == "talay2", x=x)
            if not np.isfinite(mean):
                raise DivergenceError(None)
            target = target0 + gamma * af
            if scheme == "talay2":
                target = target + 0.5 * gamma * gamma * a2f
            errs.append(float(mean - target))
    ratios = tuple(errs[i] / errs[i + 1] if errs[i + 1] != 0 else math.inf
                   for i in range(len(errs) - 1))
    return WeakOrderResult(scheme=scheme, gammas=tuple(float(g) for g in gammas),
                           errors=tuple(errs), ratios=ratios)
