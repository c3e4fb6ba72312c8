"""The step kernel of each scheme and the decreasing-step simulation driver.

``make_stepper(scheme, model)`` is the only step kernel.  The simulation
driver runs it, and the weak-order and mean-reversion probes of
``diagnostics`` take their one-step expectations over it, so the kernel the
probes verify is the kernel the driver simulates.  Two schemes:

  ``euler``   x + gamma b + sqrt(gamma) sigma U
  ``talay2``  x + sqrt(gamma) sigma U
                + gamma (b + 1/2 (D sigma; sigma W^T))
                + gamma^{3/2} 1/2 sigma_tilde(x) U + 1/2 gamma^2 Ab

where W is the symmetric sign-compensated surrogate for the Brownian
iterated integrals and sigma_tilde is ``model.sigma_tilde`` with the
diffusion-Hessian contraction at weight 1/2.  The 1/2 weights on the three
correction increments are forced by the one-step weak-order-two expansion
E[f(X_gamma)] = f + gamma Af + gamma^2/2 A^2 f + O(gamma^3), which the
test suite checks by exhaustive enumeration.  With the symmetric +-1/2
sign surrogate this expansion is exact through gamma^2 in dimension one
and for diagonal noise; non-commuting multi-dimensional diffusions retain
a small second-order defect from the surrogate's off-diagonal covariance.

For d = N = 1 each scheme has a hand-expanded scalar branch with the same
increments; it skips the einsum contractions, which cost more than the
arithmetic they do at that size.

Each trajectory owns two counter-based Philox streams keyed by
(master_seed, replication_index): one for innovation draws, one for the
sign draws (row-major over the upper triangle, i < j).  Innovations are
generated in fixed-size blocks, and states are handed to sinks in the same
blocks, so running replications one at a time and running them as a
vectorized batch perform bit-identical float sequences per replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from . import model as model_ops
from .innovations import InnovationDist, assemble_w, kappa_count, sample_kappa
from .model import DiffusionModel
from .schedules import StepSchedule

CHUNK = 1024
DIVERGENCE_BOUND = 1e12

SCHEME_KINDS = ("euler", "talay2")


class DivergenceError(RuntimeError):
    """Trajectory left the finite region; carries the offending step index."""

    def __init__(self, step_index: int | None, replication: int | None = None):
        self.step_index = step_index
        self.replication = replication
        where = f"step {step_index}" if step_index is not None else "unknown step"
        rep = f", replication {replication}" if replication is not None else ""
        super().__init__(f"trajectory diverged at {where}{rep}")


@dataclass(frozen=True)
class SchemeState:
    """End-of-run snapshot; replaying the same seed reproduces it bit-exactly."""

    x: np.ndarray
    n: int
    gamma_n: float
    rng_stream: tuple


class StateSink(Protocol):
    """Consumer of pre-step states, fed in blocks of consecutive steps."""

    def observe_block(self, k0: int, states: np.ndarray) -> None: ...


def trajectory_generators(master_seed: int, replication: int = 0):
    """(innovation, sign) generator pair for one trajectory.

    Streams are Philox counters keyed by (master_seed, replication, tag)
    with tag 0 for innovations and tag 1 for signs, so draw order within
    one stream is independent of block size and execution schedule.
    """
    u = np.random.Generator(np.random.Philox(np.random.SeedSequence((master_seed, replication, 0))))
    k = np.random.Generator(np.random.Philox(np.random.SeedSequence((master_seed, replication, 1))))
    return u, k


# ---------------------------------------------------------------------------
# step kernel


def make_stepper(scheme: str, model: DiffusionModel):
    """Bind a step kernel to a model.  Returns step(x, gamma, u, kappa) with
    no divergence checks (the driver guards per block, the probes check
    their expectations).

    x has shape (..., d), u (..., N) and kappa (..., N(N-1)/2) or None when
    N = 1 or the scheme is euler; leading axes broadcast, so one call steps
    a batch of states, a batch of draws, or both.
    """
    if scheme not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    d, n = model.dim, model.noise_dim

    if scheme == "euler":
        if d == 1 and n == 1:
            def step(x, gamma, u, kappa):
                return x + gamma * model.b(x) + math.sqrt(gamma) * model.sigma(x)[..., 0] * u
        else:
            def step(x, gamma, u, kappa):
                su = np.einsum("...in,...n->...i", model.sigma(x), u)
                return x + gamma * model.b(x) + math.sqrt(gamma) * su
        return step

    if d == 1 and n == 1:
        def step(x, gamma, u, kappa):
            x1 = x[..., 0]
            u1 = u[..., 0]
            b1 = model.b(x)[..., 0]
            s1 = model.sigma(x)[..., 0, 0]
            db1 = model.drift_jacobian(x)[..., 0, 0]
            d2b1 = model.drift_hessian(x)[..., 0, 0, 0]
            ds1 = model.diffusion_jacobian(x)[..., 0, 0, 0]
            d2s1 = model.diffusion_hessian(x)[..., 0, 0, 0, 0]
            s2 = s1 * s1
            theta = ds1 * s1 * (u1 * u1 - 1.0)
            coup = 0.5 * (db1 * s1 + ds1 * b1) + 0.25 * d2s1 * s2
            ab = db1 * b1 + 0.5 * s2 * d2b1
            out = (x1 + math.sqrt(gamma) * s1 * u1
                   + gamma * (b1 + 0.5 * theta)
                   + gamma**1.5 * coup * u1
                   + 0.5 * gamma**2 * ab)
            return out[..., None]
    else:
        def step(x, gamma, u, kappa):
            su = np.einsum("...in,...n->...i", model.sigma(x), u)
            theta = model_ops.levy_weighted_coupling(model, x, assemble_w(u, kappa))
            coup = 0.5 * model_ops.sigma_tilde(model, x, hessian_weight=0.5)
            return (x + math.sqrt(gamma) * su
                    + gamma * (model.b(x) + 0.5 * theta)
                    + gamma**1.5 * np.einsum("...in,...n->...i", coup, u)
                    + 0.5 * gamma**2 * model_ops.drift_generator(model, x))
    return step


# ---------------------------------------------------------------------------
# simulation driver


@dataclass
class BatchResult:
    final_states: np.ndarray          # (R, d)
    excluded: list = field(default_factory=list)  # (replication, step) pairs
    n_steps: int = 0


def _draw_blocks(innovation: InnovationDist, gens_u, gens_k, m: int, need_kappa: bool):
    us = np.stack([innovation.sample(g, size=m) for g in gens_u], axis=1)
    kaps = None
    if need_kappa:
        kaps = np.stack([sample_kappa(g, innovation.dimension, size=m) for g in gens_k], axis=1)
    return us, kaps


def _drive(scheme: str, model: DiffusionModel, steps: StepSchedule,
           innovation: InnovationDist, n_steps: int, x0: np.ndarray,
           master_seed: int, replications: Sequence[int],
           sinks: Sequence[StateSink], raise_on_divergence: bool) -> BatchResult:
    if innovation.dimension != model.noise_dim:
        raise ValueError("innovation dimension must match the model's noise dimension")
    stepper = make_stepper(scheme, model)
    r_count = len(replications)
    x = np.tile(np.asarray(x0, dtype=np.float64).reshape(1, model.dim), (r_count, 1))
    gens = [trajectory_generators(master_seed, r) for r in replications]
    gens_u = [g[0] for g in gens]
    gens_k = [g[1] for g in gens]
    need_kappa = scheme == "talay2" and kappa_count(model.noise_dim) > 0
    excluded: dict[int, int] = {}
    slab = np.empty((CHUNK, r_count, model.dim))
    k = 1
    while k <= n_steps:
        m = min(CHUNK, n_steps - k + 1)
        gammas = steps.gamma_block(k, k + m).tolist()
        us, kaps = _draw_blocks(innovation, gens_u, gens_k, m, need_kappa)
        x_entry = x.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(m):
                slab[t] = x
                x = stepper(x, gammas[t], us[t], kaps[t] if need_kappa else None)
        # the guard runs once per block; the offending step index is
        # recovered by replaying the block for the diverged row
        bad = ~np.all(np.isfinite(x), axis=-1) | (np.max(np.abs(x), axis=-1) > DIVERGENCE_BOUND)
        if np.any(bad):
            for r_idx in np.nonzero(bad)[0]:
                if replications[r_idx] in excluded:
                    continue
                step_at = _locate_divergence(stepper, x_entry[r_idx], gammas,
                                             us[:, r_idx], kaps[:, r_idx] if need_kappa else None, k)
                if raise_on_divergence:
                    raise DivergenceError(step_at, replication=replications[r_idx])
                excluded[replications[r_idx]] = step_at
            # a diverged row restarts from 0, and the sinks never see its
            # states: its replication is excluded
            x[bad] = 0.0
            slab[:m, bad] = 0.0
        for sink in sinks:
            sink.observe_block(k, slab[:m])
        k += m
    return BatchResult(final_states=x, excluded=sorted(excluded.items()), n_steps=n_steps)


def _locate_divergence(stepper, x_row, gammas, us, kaps, k0) -> int:
    x = x_row[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, gamma in enumerate(gammas):
            x = stepper(x, gamma, us[t][None, :], kaps[t][None, :] if kaps is not None else None)
            if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > DIVERGENCE_BOUND:
                return k0 + t + 1
    return k0 + len(gammas)


def simulate(scheme: str, model: DiffusionModel, step_schedule: StepSchedule,
             innovation: InnovationDist, n_steps: int, x0,
             rng_seed: int, sinks: Sequence[StateSink] = (),
             replication: int = 0) -> SchemeState:
    """Advance one trajectory X_0 = x0 through n_steps decreasing-step
    transitions, feeding every pre-step state to the sinks.

    Bit-reproducible for a fixed (rng_seed, replication) pair; a divergence
    aborts with the offending step index.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if n_steps == 0:
        return SchemeState(x=x0, n=0, gamma_n=float("nan"),
                           rng_stream=(rng_seed, replication))
    wrapped = [_SqueezeSink(s) for s in sinks]
    res = _drive(scheme, model, step_schedule, innovation, n_steps, x0,
                 rng_seed, [replication], wrapped, raise_on_divergence=True)
    return SchemeState(x=res.final_states[0], n=n_steps,
                       gamma_n=step_schedule.gamma(n_steps),
                       rng_stream=(rng_seed, replication))


class _SqueezeSink:
    """Adapts (len, 1, d) driver blocks to unbatched (len, d) sink feeds."""

    def __init__(self, sink: StateSink):
        self.sink = sink

    def observe_block(self, k0: int, states: np.ndarray) -> None:
        self.sink.observe_block(k0, states[:, 0, :])


def simulate_batch(scheme: str, model: DiffusionModel, step_schedule: StepSchedule,
                   innovation: InnovationDist, n_steps: int, x0,
                   master_seed: int, replications: int,
                   sinks: Sequence[StateSink] = (),
                   replication_offset: int = 0) -> BatchResult:
    """Advance ``replications`` independent trajectories as one vectorized
    batch; replication r uses the same streams as ``simulate`` with
    ``replication=replication_offset + r``.  Diverged replications are
    frozen at the origin and reported in ``excluded`` instead of raising.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    reps = list(range(replication_offset, replication_offset + replications))
    if n_steps == 0:
        return BatchResult(final_states=np.tile(x0.reshape(1, -1), (replications, 1)))
    return _drive(scheme, model, step_schedule, innovation, n_steps, x0,
                  master_seed, reps, sinks, raise_on_divergence=False)
