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
iterated integrals and sigma_tilde is the coupling field of the talay2 list
``model.increments`` (delta_3 = 1/2 sigma_tilde U), whose diffusion-Hessian
contraction carries weight 1/2.  The 1/2 weights on the
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
at that size.  The talay2 scalar branch evaluates the fields other than b
once when the kernel is built: a value without batch axes does not depend
on the state, so the step uses that bound float, which rounds exactly as
the per-state value does.  It also drops the products whose bound factor
is exactly zero (the derivatives of a constant sigma, the Hessian of a
linear drift); only the sign of a zero result can differ from the full
expression.

A kernel may carry a block entry, ``step.block(slab, gammas, us)``, that
advances a whole block of steps in place: slab[0] holds the states before
the block and rows 1 .. len(gammas) receive the states after each step.
The 1-d Euler kernel has one when sigma is bound (a value without batch
axes).  It writes every noise increment sqrt(gamma_k) sigma U_k into the
slab with one multiplication (``np.sqrt`` rounds as ``math.sqrt`` does)
and then adds x + gamma b(x) onto it row by row through one scratch row,
the same float operations as the per-step kernel.  ``us`` may be the
memory of slab rows 1 .. len(gammas).  The driver takes the block entry
when the kernel has one and steps the kernel otherwise; the probes always
call ``step``.

Each trajectory owns two counter-based Philox streams keyed by
(master_seed, replication_index): one for innovation draws, one for the
sign draws (row-major over the upper triangle, i < j), which the driver
builds only for a scheme that draws signs (talay2 with N >= 2).
Innovations are generated in fixed-size blocks, one
``InnovationDist.sample`` call over all the streams of a batch per block,
and states are handed to sinks in the same blocks, so running replications
one at a time and running them as a vectorized batch perform bit-identical
float sequences per replication.

A block lives in one ring slot from draw to fold: the slot is the block's
slab.  Its innovations fill the slot from the back, (len, R, N) in C order,
and its states from the front, (len + 1, R, d), with row 0 the carry, the
previous block's last state.  A slot holds CHUNK * max(N, d) + d floats per
replication, so state row t + 1 only overwrites innovation rows <= t, which
the kernel has spent, for d = N, d > N and d < N alike.  Every sink reads
the same time-major rows 0 .. len - 1 of the slot in place, with shape
(len, R, d).  The divergence guard checks each block's last row, and
locates a replication found outside the finite region at the first of its
states in the block that is non-finite or beyond ``DIVERGENCE_BOUND``.

The kernel has to run its steps in order, but the draws and the sinks only
feed it and read it, so for a run of two blocks or more the driver forks
one worker for the kernel.  The worker runs only the recurrence and the
guard, over a two-slot ring, and keeps the carry in its own memory; this
process keeps the generators and the sinks, feeds block j to the sinks from
its slot and then draws block j + 2 into that slot, while the worker
advances block j + 1.  The ring lives in one anonymous shared ``mmap``, and
the two sides exchange one short message per block: the go-ahead for a
block, and the worker's answer (the pairs that diverged, or the exception a
field raised, which the driver re-raises).  The worker ends with its
``_drive`` call on every exit path.  ``fork`` is safe only in a
single-threaded process, so a one-block run, a library caller with Python
threads of its own alive and a platform without ``fork`` run the same
per-block functions inline, through a one-slot ring.  Either way every
float operation is the same, and so are the bits.

``BatchResult.seconds`` splits the driver's wall time: ``kernel`` is the
time spent in ``_Kernel.block`` (the worker sends its time back with each
answer), ``draw`` and ``feed`` are this process's draws and sink feeds, and
``wait`` is its time blocked on the worker's answers, 0 inline.  The timers
read the clock only; no report carries them.
"""

from __future__ import annotations

import math
import os
import threading
import time
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


class StateSink(Protocol):
    """Consumer of pre-step states, fed in blocks of consecutive steps.

    A driver block is a time-major (len, R, d) view of the block's ring
    slot, which the driver reuses for a later block; a sink that keeps
    states copies them."""

    def observe_block(self, k0: int, states: np.ndarray) -> None: ...


def trajectory_generators(master_seed: int, replication: int = 0):
    """(innovation, sign) generator pair for one trajectory.

    Streams are Philox counters keyed by (master_seed, replication, tag)
    with tag 0 for innovations and tag 1 for signs, so draw order within
    one stream is independent of block size and execution schedule.
    """
    return _stream(master_seed, replication, 0), _stream(master_seed, replication, 1)


def _stream(master_seed: int, replication: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((master_seed, replication, tag))))


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

            s = _bound_scalar(model.sigma, 2)
            if s is not None:
                b = model.b

                def block(slab, gammas, us):
                    m = len(gammas)
                    np.multiply((np.sqrt(gammas) * s)[:, None, None], us, out=slab[1:m + 1])
                    rows = list(slab[:m + 1])
                    t = np.empty_like(rows[0])
                    mul, add = np.multiply, np.add
                    # nxt += x + gamma b(x) through one scratch row: IEEE
                    # + and * commute, so the roundings are the same
                    for x, nxt, gamma in zip(rows, rows[1:], gammas.tolist()):
                        mul(b(x), gamma, t)
                        add(t, x, t)
                        add(nxt, t, nxt)

                step.block = block
        else:
            step = _summed_step(scheme, model)
        return step

    # talay2 reads every derivative field: refuse a model without one here,
    # before the driver draws anything
    model.require_derivatives()
    if d == 1 and n == 1:
        s = _bound_scalar(model.sigma, 2)
        db = _bound_scalar(model.db, 2)
        d2b = _bound_scalar(model.d2b, 3)
        ds = _bound_scalar(model.dsigma, 3)
        d2s = _bound_scalar(model.d2sigma, 4)

        def step(x, gamma, u, kappa):
            x1 = x[..., 0]
            u1 = u[..., 0]
            b1 = model.b(x)[..., 0]
            s1 = model.sigma(x)[..., 0, 0] if s is None else s
            db1 = model.db(x)[..., 0, 0] if db is None else db
            s2 = s1 * s1
            # a factor bound to exactly 0 drops its products (None != 0.0)
            drift = b1
            coup = db1 * s1
            if ds != 0.0:
                ds1 = model.dsigma(x)[..., 0, 0, 0] if ds is None else ds
                drift = b1 + 0.5 * (ds1 * s1 * (u1 * u1 - 1.0))
                coup = coup + ds1 * b1
            coup = 0.5 * coup
            if d2s != 0.0:
                d2s1 = model.d2sigma(x)[..., 0, 0, 0, 0] if d2s is None else d2s
                coup = coup + 0.25 * d2s1 * s2
            ab = db1 * b1
            if d2b != 0.0:
                d2b1 = model.d2b(x)[..., 0, 0, 0] if d2b is None else d2b
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


# the driver's wall-time split: the kernel's busy time, the caller's draws
# and sink feeds, and the caller's time blocked on the kernel worker
_DRIVE_SIDES = ("kernel", "draw", "feed", "wait")


@dataclass
class BatchResult:
    final_states: np.ndarray          # (R, d)
    excluded: list = field(default_factory=list)  # (replication, step) pairs
    seconds: dict = field(default_factory=lambda: dict.fromkeys(_DRIVE_SIDES, 0.0))


class _Kernel:
    """The time-sequential side of the driver: advances each block's slab
    in place, with the divergence guard.

    slab[t] is the state before step k + t of the block being advanced;
    slab[0] is the carry, the previous block's last row."""

    def __init__(self, stepper, steps: StepSchedule, replications: Sequence[int], x0: np.ndarray):
        self.stepper = stepper
        self.steps = steps
        self.replications = replications
        self.carry = np.tile(x0, (len(replications), 1))
        self.excluded: set[int] = set()

    def block(self, k: int, slab: np.ndarray, us: np.ndarray,
              kaps: np.ndarray | None) -> list[tuple[int, int]]:
        """Advance the len(us) steps from step k through ``slab``
        (len(us) + 1, R, d) and return the (replication, step) pairs that
        diverged in the block.  ``us`` may share memory with slab rows
        1 .. len(us), as long as row t + 1 overlaps only rows <= t of it."""
        m = len(us)
        stepper = self.stepper
        slab[0] = self.carry
        gammas = self.steps.gamma_block(k, k + m)
        advance = getattr(stepper, "block", None)
        with np.errstate(over="ignore", invalid="ignore"):
            if advance is not None:
                advance(slab, gammas, us)
            else:
                for t, gamma in enumerate(gammas.tolist()):
                    slab[t + 1] = stepper(slab[t], gamma, us[t], None if kaps is None else kaps[t])
        # the guard runs once per block; a diverged row's first bad state
        # is found by scanning the row's own states
        x = slab[m]
        bad = _outside(x)
        diverged = []
        if np.any(bad):
            for r_idx in np.nonzero(bad)[0]:
                rep = self.replications[r_idx]
                if rep in self.excluded:
                    continue
                step_at = k + int(np.argmax(_outside(slab[1:, r_idx])))
                self.excluded.add(rep)
                diverged.append((rep, step_at))
            # a diverged row restarts from 0, and the sinks never see its
            # states: its replication is excluded
            slab[:, bad] = 0.0
        self.carry[...] = x
        return diverged


def _outside(x: np.ndarray) -> np.ndarray:
    """Which states (..., d) have left the finite region."""
    return ~np.all(np.isfinite(x), axis=-1) | (np.max(np.abs(x), axis=-1) > DIVERGENCE_BOUND)


def _head(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading C-ordered block of a flat buffer, in ``shape``."""
    return flat[:math.prod(shape)].reshape(shape)


def _tail(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The trailing C-ordered block of a flat buffer, in ``shape``."""
    return flat[len(flat) - math.prod(shape):].reshape(shape)


def _buffers(sizes: Sequence[int], shared: bool) -> list[np.ndarray]:
    """Flat float64 buffers of the given lengths; with ``shared``, all in
    one anonymous shared mapping that a forked worker sees too."""
    if not shared:
        return [np.empty(n) for n in sizes]
    import mmap

    memory = np.frombuffer(mmap.mmap(-1, 8 * max(sum(sizes), 1)), dtype=np.float64)
    ends = np.cumsum(sizes).tolist()
    return [memory[end - n:end] for n, end in zip(sizes, ends)]


def _initial_state(x0, d: int) -> np.ndarray:
    """x0 as a state of shape (d,); a scalar sets every coordinate.  The
    sinks see x0 as the first pre-step state, so it must lie in the finite
    region that the divergence guard keeps every later state in."""
    x = np.asarray(x0, dtype=np.float64)
    if x.ndim == 0:
        x = np.full(d, x)
    elif x.shape != (d,):
        raise ValueError(f"x0 must be a scalar or have shape ({d},), got shape {x.shape}")
    if _outside(x):
        raise ValueError(f"x0 must be finite with every |coordinate| <= {DIVERGENCE_BOUND:g}, "
                         f"got {x.tolist()}")
    return x


def _drive(scheme: str, model: DiffusionModel, steps: StepSchedule,
           innovation: InnovationDist, n_steps: int, x0: np.ndarray,
           master_seed: int, replications: Sequence[int], sinks: Sequence[StateSink]) -> BatchResult:
    model.require_noise(innovation)
    r_count, d, n = len(replications), model.dim, model.noise_dim
    gens_u = [_stream(master_seed, r, 0) for r in replications]
    n_kappa = kappa_count(n) if scheme == "talay2" else 0
    # only a scheme that draws signs builds their streams
    gens_k = [_stream(master_seed, r, 1) for r in replications] if n_kappa else []
    count = -(-n_steps // CHUNK)
    forked = count > 1 and hasattr(os, "fork") and threading.active_count() == 1
    slots = 2 if forked else 1
    # a slot is one block's slab: its states fill it from the front and its
    # innovations from the back, so the state after step t overwrites only
    # innovations of steps <= t, which the kernel has spent
    ring_size = (CHUNK * max(n, d) + d) * r_count
    flat = _buffers([ring_size] * slots + [CHUNK * r_count * n_kappa] * slots, shared=forked)
    ring, kap_ring = flat[:slots], flat[slots:]
    kernel = _Kernel(make_stepper(scheme, model), steps, replications, x0)

    # block j's first step and step count, from j alone, so that set-up
    # holds nothing in proportion to n_steps
    def start(j: int) -> int:
        return 1 + j * CHUNK

    def length(j: int) -> int:
        return min(CHUNK, n_steps + 1 - start(j))

    def inputs(j: int):
        """Block j's innovations and signs, as views of its slot."""
        m, s = length(j), j % slots
        return (_tail(ring[s], (m, r_count, n)),
                _head(kap_ring[s], (m, r_count, n_kappa)) if n_kappa else None)

    def slab(j: int) -> np.ndarray:
        """Block j's states (m + 1, R, d), as a view of its slot."""
        return _head(ring[j % slots], (length(j) + 1, r_count, d))

    seconds = dict.fromkeys(_DRIVE_SIDES, 0.0)

    def draw(j: int) -> None:
        t0 = time.perf_counter()
        us, kaps = inputs(j)
        innovation.sample(gens_u, size=len(us), out=us)
        if kaps is not None:
            np.stack([sample_kappa(g, n, size=len(us)) for g in gens_k], axis=1, out=kaps)
        seconds["draw"] += time.perf_counter() - t0

    def feed(j: int) -> None:
        t0 = time.perf_counter()
        # the pre-step states, time-major rows of the slot
        states = slab(j)[:-1]
        for sink in sinks:
            sink.observe_block(start(j), states)
        seconds["feed"] += time.perf_counter() - t0

    def advance(j: int) -> tuple[list[tuple[int, int]], float]:
        """Block j's diverged pairs and the kernel's seconds on it."""
        t0 = time.perf_counter()
        diverged = kernel.block(start(j), slab(j), *inputs(j))
        return diverged, time.perf_counter() - t0

    excluded: dict[int, int] = {}
    if forked:
        _run_forked(count, advance, draw, feed, excluded, seconds)
    else:
        for j in range(count):
            draw(j)
            diverged, kernel_s = advance(j)
            excluded.update(diverged)
            seconds["kernel"] += kernel_s
            feed(j)
    return BatchResult(final_states=slab(count - 1)[-1].copy(), excluded=sorted(excluded.items()),
                       seconds=seconds)


def _run_forked(count: int, advance, draw, feed, excluded: dict, seconds: dict) -> None:
    """Run ``count`` >= 2 blocks with ``advance`` in a forked worker.  Block j
    lives in slot j % 2, its innovations and then its states: while the
    worker advances block j + 1, this process feeds block j to the sinks,
    draws block j + 2 into the slot block j has left and sends the go-ahead
    for block j + 2.  The worker answers each block with the pairs that
    diverged in it and the kernel's seconds, or with the exception it
    raised; ``seconds`` gains the kernel's time and this process's time
    blocked on the answers."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    conn, worker_conn = context.Pipe()
    worker = context.Process(target=_kernel_worker, args=(count, advance, worker_conn, conn),
                             daemon=True)

    def talk(op, *args):
        """A pipe operation; a worker that has gone raises RuntimeError."""
        try:
            return op(*args)
        except (EOFError, ConnectionError):
            worker.join()
            raise RuntimeError(f"the kernel worker exited with code {worker.exitcode}") from None

    def go(j: int) -> None:
        if j < count:
            draw(j)
            talk(conn.send, None)

    done = False
    try:
        worker.start()
        worker_conn.close()
        go(0)
        go(1)
        for j in range(count):
            t0 = time.perf_counter()
            reply = talk(conn.recv)
            seconds["wait"] += time.perf_counter() - t0
            if isinstance(reply, BaseException):
                raise reply
            diverged, kernel_s = reply
            excluded.update(diverged)
            seconds["kernel"] += kernel_s
            feed(j)
            go(j + 2)
        done = True
    finally:
        if worker.pid is not None:
            if not done:
                worker.kill()
            worker.join()
        conn.close()
        worker_conn.close()


def _kernel_worker(count: int, advance, conn, parent_conn) -> None:
    """The forked worker's loop: advance each block once its go-ahead
    arrives, and reply with its diverged pairs and seconds or with the
    exception."""
    parent_conn.close()
    try:
        for j in range(count):
            conn.recv()
            try:
                conn.send(advance(j))
            except Exception as err:
                try:
                    conn.send(err)
                except Exception:  # it does not pickle: send its text
                    conn.send(RuntimeError(f"{type(err).__name__}: {err}"))
                while True:  # take go-aheads until the parent ends this process
                    conn.recv()
    except (EOFError, ConnectionError):
        pass  # the parent is gone


def simulate(scheme: str, model: DiffusionModel, step_schedule: StepSchedule,
             innovation: InnovationDist, n_steps: int, x0,
             rng_seed: int, sinks: Sequence[StateSink] = (),
             replication: int = 0) -> SchemeState:
    """Advance one trajectory X_0 = x0 through n_steps decreasing-step
    transitions, feeding its pre-step states to the sinks as (len, d)
    blocks: the one-replication ``simulate_batch`` with index
    ``replication``, bit-identical to that replication of any batch.  A
    divergence raises ``DivergenceError`` with the step and replication of
    the ``excluded`` pair once the run has ended; the sinks' blocks from
    that step's block on hold the batch's restart from the origin.
    """
    res = simulate_batch(scheme, model, step_schedule, innovation, n_steps, x0, rng_seed, 1,
                         [_SqueezeSink(s) for s in sinks], replication_offset=replication)
    if res.excluded:
        (rep, step_at), = res.excluded
        raise DivergenceError(step_at, replication=rep)
    return SchemeState(x=res.final_states[0], n=n_steps)


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
    ``replication=replication_offset + r``.  Diverged replications restart
    from the origin and are reported in ``excluded`` instead of raising.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    x0 = _initial_state(x0, model.dim)
    reps = list(range(replication_offset, replication_offset + replications))
    if n_steps == 0:
        return BatchResult(final_states=np.tile(x0, (replications, 1)))
    return _drive(scheme, model, step_schedule, innovation, n_steps, x0, master_seed, reps, sinks)
