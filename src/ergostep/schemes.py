"""The step kernel of each scheme and the decreasing-step simulation driver.

``make_stepper(scheme, model)`` is the only step kernel.  The simulation
driver runs it, and the weak-order and mean-reversion probes of
``diagnostics`` take their one-step expectations over it, so the kernel the
probes verify is the kernel the driver simulates.  Two schemes, each a
step x + sum_j gamma^{j/2} delta_j over its list ``model.increments``:

  ``euler``   x + gamma b + sqrt(gamma) sigma U
  ``talay2``  x + sqrt(gamma) sigma U
                + gamma (b + 1/2 (D sigma; sigma W^T))
                + gamma^{3/2} 1/2 sigma_tilde(x) U + gamma^2 1/2 Ab

where W is the symmetric sign-compensated surrogate for the Brownian
iterated integrals and sigma_tilde is ``model.sigma_tilde``, whose
diffusion-Hessian contraction carries weight 1/2.  The 1/2 weights on the
three correction increments are forced by the one-step weak-order-two
expansion E[f(X_gamma)] = f + gamma Af + gamma^2/2 A^2 f + O(gamma^3), which
the test suite checks by exhaustive enumeration.  With the symmetric +-1/2
sign surrogate this expansion is exact through gamma^2 in dimension one
and for diagonal noise; non-commuting multi-dimensional diffusions retain
a small second-order defect from the surrogate's off-diagonal covariance.
The bias operators Mf = -C_{q+1} f of ``model`` read C_p off the same list.

The general kernel (d >= 2 or N >= 2) sums the list.  For d = N = 1 each
scheme has a hand-expanded scalar branch with the same increments; it
skips the einsum contractions, which cost more than the arithmetic they do
at that size.  Both scalar branches evaluate the fields other
than b once when the kernel is built: a value without batch axes does not
depend on the state, so the step uses that bound float, which rounds
exactly as the per-state value does.  The talay2 branch also drops the
products whose bound factor is exactly zero (the derivatives of a constant
sigma, the Hessian of a linear drift); only the sign of a zero result can
differ from the full expression.

A kernel may carry a block entry, ``step.block(slab, gammas, us)``, that
advances a whole block of steps in place: slab[0] holds the states before
the block and rows 1 .. len(gammas) receive the states after each step.
The 1-d Euler kernel with a bound sigma has one.  It writes every noise
increment sqrt(gamma_k) sigma U_k into the slab with one multiplication
(``np.sqrt`` rounds as ``math.sqrt`` does) and then adds x + gamma b(x)
onto it row by row, the same float operations as the per-step kernel.  The
driver takes the block entry when the kernel has one and steps the kernel
otherwise; the probes and the divergence replay always call ``step``.

Each trajectory owns two counter-based Philox streams keyed by
(master_seed, replication_index): one for innovation draws, one for the
sign draws (row-major over the upper triangle, i < j).  Innovations are
generated in fixed-size blocks, one ``InnovationDist.sample`` call over all
the streams of a batch per block, and states are handed to sinks in the
same blocks, so running replications one at a time and running them as a
vectorized batch perform bit-identical float sequences per replication.
A block reaches the sinks with shape (len, R, d), as a view of one
replication-major copy (R, len, d) that all sinks share, so a sink that
walks replications reads contiguous memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from . import model as model_ops
from .innovations import InnovationDist, kappa_count, sample_kappa
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
    """Consumer of pre-step states, fed in blocks of consecutive steps.

    A block is a view of memory the driver reuses for the next block; a
    sink that keeps states copies them."""

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
            s = _bound_scalar(model.sigma, 2)
            if s is not None:
                def step(x, gamma, u, kappa):
                    return x + gamma * model.b(x) + (math.sqrt(gamma) * s) * u

                def block(slab, gammas, us):
                    m = len(gammas)
                    np.multiply((np.sqrt(gammas) * s)[:, None, None], us, out=slab[1:m + 1])
                    rows = list(slab[:m + 1])
                    for x, nxt, gamma in zip(rows, rows[1:], gammas.tolist()):
                        np.add(x + gamma * model.b(x), nxt, out=nxt)

                step.block = block
            else:
                def step(x, gamma, u, kappa):
                    return x + gamma * model.b(x) + math.sqrt(gamma) * model.sigma(x)[..., 0] * u
        else:
            step = _summed_step(scheme, model)
        return step

    if d == 1 and n == 1:
        s = _bound_scalar(model.sigma, 2)
        db = _bound_scalar(model.drift_jacobian, 2)
        d2b = _bound_scalar(model.drift_hessian, 3)
        ds = _bound_scalar(model.diffusion_jacobian, 3)
        d2s = _bound_scalar(model.diffusion_hessian, 4)

        def step(x, gamma, u, kappa):
            x1 = x[..., 0]
            u1 = u[..., 0]
            b1 = model.b(x)[..., 0]
            s1 = model.sigma(x)[..., 0, 0] if s is None else s
            db1 = model.drift_jacobian(x)[..., 0, 0] if db is None else db
            s2 = s1 * s1
            # a factor bound to exactly 0 drops its products (None != 0.0)
            drift = b1
            coup = db1 * s1
            if ds != 0.0:
                ds1 = model.diffusion_jacobian(x)[..., 0, 0, 0] if ds is None else ds
                drift = b1 + 0.5 * (ds1 * s1 * (u1 * u1 - 1.0))
                coup = coup + ds1 * b1
            coup = 0.5 * coup
            if d2s != 0.0:
                d2s1 = model.diffusion_hessian(x)[..., 0, 0, 0, 0] if d2s is None else d2s
                coup = coup + 0.25 * d2s1 * s2
            ab = db1 * b1
            if d2b != 0.0:
                d2b1 = model.drift_hessian(x)[..., 0, 0, 0] if d2b is None else d2b
                ab = ab + 0.5 * s2 * d2b1
            out = (x1 + math.sqrt(gamma) * s1 * u1
                   + gamma * drift
                   + gamma**1.5 * coup * u1
                   + 0.5 * gamma**2 * ab)
            return out[..., None]
    else:
        step = _summed_step(scheme, model)
    return step


def _summed_step(scheme: str, model: DiffusionModel):
    """The general kernel: x plus gamma^{j/2} delta_j over the scheme's
    increment list, in list order."""
    def step(x, gamma, u, kappa):
        # gamma^{j/2} for j = 1 .. 4, rounded as the written-out kernels round it
        powers = (math.sqrt(gamma), gamma, gamma**1.5, gamma**2)
        out = x
        for j, draw, delta in model_ops.increments(scheme, model, x):
            out = out + powers[j - 1] * (delta(u, kappa) if draw else delta)
        return out
    return step


def _bound_scalar(field, rank: int) -> float | None:
    """The value of a d = N = 1 field with ``rank`` value axes as a float
    when it has no batch axes (it does not depend on the state, by the field
    contract of ``model``), else None."""
    value = field(np.zeros((1, 1)))
    return float(np.reshape(value, -1)[0]) if np.ndim(value) == rank else None


# ---------------------------------------------------------------------------
# simulation driver


@dataclass
class BatchResult:
    final_states: np.ndarray          # (R, d)
    excluded: list = field(default_factory=list)  # (replication, step) pairs
    n_steps: int = 0


def _draw_blocks(innovation: InnovationDist, gens_u, gens_k, m: int, need_kappa: bool):
    us = innovation.sample(gens_u, size=m)
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
    advance = getattr(stepper, "block", None)
    r_count = len(replications)
    gens = [trajectory_generators(master_seed, r) for r in replications]
    gens_u = [g[0] for g in gens]
    gens_k = [g[1] for g in gens]
    need_kappa = scheme == "talay2" and kappa_count(model.noise_dim) > 0
    excluded: dict[int, int] = {}
    # slab[t] is the state before step k + t of the block; slab[0] carries
    # over from the previous block's last row
    slab = np.empty((CHUNK + 1, r_count, model.dim))
    slab[0] = np.asarray(x0, dtype=np.float64).reshape(1, model.dim)
    by_rep = np.empty(r_count * CHUNK * model.dim)
    k = 1
    while k <= n_steps:
        m = min(CHUNK, n_steps - k + 1)
        gammas = steps.gamma_block(k, k + m)
        us, kaps = _draw_blocks(innovation, gens_u, gens_k, m, need_kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            if advance is not None:
                advance(slab, gammas, us)
            else:
                for t, gamma in enumerate(gammas.tolist()):
                    slab[t + 1] = stepper(slab[t], gamma, us[t], kaps[t] if need_kappa else None)
        # the guard runs once per block; the offending step index is
        # recovered by replaying the block for the diverged row
        x = slab[m]
        bad = ~np.all(np.isfinite(x), axis=-1) | (np.max(np.abs(x), axis=-1) > DIVERGENCE_BOUND)
        if np.any(bad):
            for r_idx in np.nonzero(bad)[0]:
                if replications[r_idx] in excluded:
                    continue
                step_at = _locate_divergence(stepper, slab[0, r_idx], gammas.tolist(),
                                             us[:, r_idx], kaps[:, r_idx] if need_kappa else None, k)
                if raise_on_divergence:
                    raise DivergenceError(step_at, replication=replications[r_idx])
                excluded[replications[r_idx]] = step_at
            # a diverged row restarts from 0, and the sinks never see its
            # states: its replication is excluded
            slab[:m + 1, bad] = 0.0
        # one replication-major copy per block, shared by every sink
        rows = by_rep[:r_count * m * model.dim].reshape(r_count, m, model.dim)
        np.copyto(rows, slab[:m].swapaxes(0, 1))
        for sink in sinks:
            sink.observe_block(k, rows.swapaxes(0, 1))
        slab[0] = x
        k += m
    return BatchResult(final_states=slab[0].copy(), excluded=sorted(excluded.items()), n_steps=n_steps)


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
