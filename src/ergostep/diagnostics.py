"""Numeric probes for two of the standing hypotheses: discrete-time
Lyapunov mean reversion and one-step weak order.  The third, innovation
moment matching, is exact arithmetic and lives on the innovation law as
``InnovationDist.matching_order``.

The weak-order and mean-reversion probes take their one-step expectations
over ``schemes.make_stepper``, the kernel the simulation driver runs, as
exact sums over the finite support of the innovation the run draws from,
and raise ``DivergenceError`` when such an expectation is not finite.  So a
verdict is pass or fail, never a matter of sampling error.

Probes are pure functions of their inputs; reports are assembled in grid
order, so identical inputs produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .innovations import InnovationDist
from .model import DiffusionModel, LyapunovSpec, Observable, _expect, generator_apply, generator_observable
from .schemes import DivergenceError, make_stepper

PASS_TOL_ABS = 1e-8
PASS_TOL_REL = 0.02


@dataclass(frozen=True)
class ProbeReport:
    grid: np.ndarray
    margins: np.ndarray
    verdict: str  # "pass" | "fail"
    worst_point: np.ndarray
    metadata: dict = field(default_factory=dict)


def default_grid(dim: int) -> np.ndarray:
    """Tensor grid of 21 points per axis over [-5, 5]^d for d <= 2, else a
    fixed-seed uniform cloud of 200 points (pointwise inequalities need
    actionable counterexamples, not quadrature nodes)."""
    if dim <= 2:
        axis = np.linspace(-5.0, 5.0, 21)
        grids = np.meshgrid(*([axis] * dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0xE260D)))
    return rng.uniform(-5.0, 5.0, size=(200, dim))


def _one_step_means(scheme: str, model: DiffusionModel, fn, x: np.ndarray, gammas,
                    innovation: InnovationDist) -> list[np.ndarray]:
    """E[fn(X_gamma) | X_0 = x] for each gamma under the driver's kernel, as
    the exact sum over the finite support of ``innovation``; a mean that is
    not finite raises ``DivergenceError``."""
    if innovation.kind == "gaussian":
        raise ValueError("the probes need a finite-support innovation")
    model.require_noise(innovation)
    if any(gamma <= 0 for gamma in gammas):
        raise ValueError("step size must be positive")
    step = make_stepper(scheme, model)
    means = []
    with np.errstate(over="ignore", invalid="ignore"):
        for gamma in gammas:
            mean = _expect(lambda u, kap: fn(step(x, gamma, u, kap)), innovation,
                           with_kappa=scheme == "talay2")
            if not np.all(np.isfinite(mean)):
                raise DivergenceError(None)
            means.append(mean)
    return means


# ---------------------------------------------------------------------------
# recursive control


def _v(x: np.ndarray) -> np.ndarray:
    """V(x) = 1 + |x|^2, the essentially quadratic Lyapunov function whose
    constants the catalog models carry.  D^2 V = 2I everywhere, so the top
    Hessian eigenvalue of the mean-reversion hypothesis at p = 1 is exactly
    2 and needs no probe."""
    return 1.0 + np.einsum("...i,...i->...", x, x)


def recursive_control_probe(scheme: str, model: DiffusionModel, lyapunov: LyapunovSpec,
                            gamma: float, innovation: InnovationDist,
                            grid: np.ndarray | None = None) -> ProbeReport:
    """Margin of the discrete-time mean-reversion inequality for
    V(x) = 1 + |x|^2 on a grid.

    margin(x) = beta - alpha V(x) - (E[V(X_gamma) | x] - V(x)) / gamma

    Pass needs margin >= -max(1e-8, 0.02 scale(x)) at every grid point,
    where scale(x) = |beta| + alpha V(x) is the non-cancelling magnitude of
    the two sides: small steps satisfy the inequality only up to
    O(gamma^{3/2}) remainders, and a slack proportional to |rhs| itself
    would spuriously fail wherever the right-hand side crosses zero.  The
    expectation is the exact sum over the finite support of ``innovation``,
    the law the driver draws from.
    """
    if grid is None:
        grid = default_grid(model.dim)
    grid = np.asarray(grid, dtype=np.float64).reshape(-1, model.dim)
    if grid.shape[0] == 0:
        raise ValueError("probe grid must be non-empty")
    ev, = _one_step_means(scheme, model, _v, grid, [gamma], innovation)
    v = _v(grid)
    rhs = lyapunov.beta - lyapunov.alpha * v
    scale = abs(lyapunov.beta) + lyapunov.alpha * v
    pseudo = (ev - v) / gamma
    margins = rhs - pseudo
    tol = np.maximum(PASS_TOL_ABS, PASS_TOL_REL * scale)
    worst = int(np.argmin(margins + tol))
    return ProbeReport(
        grid=grid,
        margins=margins,
        verdict="pass" if bool(np.all(margins >= -tol)) else "fail",
        worst_point=grid[worst],
        metadata={"gamma": gamma, "scheme": scheme, "alpha": lyapunov.alpha, "beta": lyapunov.beta},
    )


# ---------------------------------------------------------------------------
# one-step weak order


@dataclass(frozen=True)
class WeakOrderResult:
    scheme: str
    gammas: tuple[float, ...]
    errors: tuple[float, ...]
    ratios: tuple[float | None, ...]   # None where the next error is exactly 0


def weak_order_probe(scheme: str, model: DiffusionModel, f: Observable, x,
                     gammas, innovation: InnovationDist) -> WeakOrderResult:
    """Exhaustive-enumeration one-step error against the semigroup Taylor
    target: f + gamma Af for the Euler kernel, plus gamma^2/2 A^2 f for the
    weak-order-two kernel.  Consecutive error ratios near 2^(q+1) confirm
    the O(gamma^(q+1)) remainder; a ratio over an exactly zero error is
    None."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    means = _one_step_means(scheme, model, lambda y: np.asarray(f.fn(y), dtype=np.float64), x,
                            gammas, innovation)
    with np.errstate(over="ignore", invalid="ignore"):
        af = generator_apply(model, f, x)
        target0 = np.asarray(f.fn(x), dtype=np.float64) + 0.0
        if scheme == "talay2":
            a2f = generator_apply(model, generator_observable(model, f), x)
        errs = []
        for gamma, mean in zip(gammas, means):
            target = target0 + gamma * af
            if scheme == "talay2":
                target = target + 0.5 * gamma * gamma * a2f
            errs.append(float(mean - target))
    ratios = tuple(errs[i] / errs[i + 1] if errs[i + 1] != 0 else None
                   for i in range(len(errs) - 1))
    return WeakOrderResult(scheme=scheme, gammas=tuple(float(g) for g in gammas),
                           errors=tuple(errs), ratios=ratios)
