from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import broadcast_ou, poly1d_model
from ergostep import schemes
from ergostep.catalog import _const_field, coordinate_monomial, ou1d, ou_nd
from ergostep.empirical import WeightedEmpiricalMeasure
from ergostep.innovations import InnovationDist, joint_outcomes, sample_kappa
from ergostep.model import generator_apply, generator_observable
from ergostep.schedules import StepSchedule, WeightSchedule
from ergostep.schemes import (
    CHUNK,
    DivergenceError,
    make_stepper,
    simulate,
    simulate_batch,
    trajectory_generators,
)

OU = ou1d(1.0, math.sqrt(2.0))
TP = InnovationDist("three_point", 1)
# a drift without batch axes, as the field contract allows
CONST_DRIFT = dataclasses.replace(OU, b=_const_field([0.5]), db=_const_field([[0.0]]))


def x(v):
    return np.array([v])


# ---------------------------------------------------------------------------
# one-step kernels


def test_euler_step_deterministic():
    out = make_stepper("euler", OU)(x(1.0), 0.1, np.zeros(1), None)
    assert out[0] == pytest.approx(0.9, abs=1e-16)


def test_euler_step_diffusion_only():
    out = make_stepper("euler", OU)(x(0.0), 0.01, np.ones(1), None)
    assert out[0] == pytest.approx(0.1 * math.sqrt(2.0), rel=1e-15)


def test_euler_step_frozen_model(zero_model):
    out = make_stepper("euler", zero_model)(x(0.7), 0.5, np.ones(1), None)
    assert out[0] == 0.7


def test_talay_step_ou_at_origin():
    # drift, surrogate, and drift-generator increments vanish at x = 0;
    # the gamma^{3/2} correction carries half the coupling field
    out = make_stepper("talay2", OU)(x(0.0), 0.01, np.ones(1), None)
    expected = 0.1 * math.sqrt(2.0) + 0.01**1.5 * 0.5 * (-math.sqrt(2.0))
    assert out[0] == pytest.approx(expected, rel=1e-14)
    assert out[0] == pytest.approx(0.0995 * math.sqrt(2.0), rel=1e-12)


def test_talay_step_constant_coefficients_zero_noise():
    m = poly1d_model([0.8], [1.1])
    out = make_stepper("talay2", m)(x(2.0), 0.05, np.zeros(1), None)
    # Ab = 0 and D sigma = 0: only the drift increment survives
    assert out[0] == pytest.approx(2.0 + 0.05 * 0.8, rel=1e-15)


def test_talay_step_linear_diffusion():
    m = poly1d_model([0.0], [0.0, 1.0])  # b = 0, sigma(x) = x
    out = make_stepper("talay2", m)(x(1.0), 0.01, np.ones(1), None)
    # W = u^2 - 1 = 0 kills the coupling increment; sigma''=0 and b=0 kill the rest
    assert out[0] == pytest.approx(1.0 + 0.1, rel=1e-14)


# ---------------------------------------------------------------------------
# one-step weak order (the module's core numerical claim)


def _one_step_error(scheme: str, gamma: float) -> float:
    f = coordinate_monomial((4,))
    pt = x(1.0)
    af = generator_apply(OU, f, pt)
    target = f.fn(pt) + gamma * af
    if scheme == "talay2":
        target = target + 0.5 * gamma * gamma * generator_apply(OU, generator_observable(OU, f), pt)
    step = make_stepper(scheme, OU)
    total = 0.0
    for u, kap, p in joint_outcomes(TP, with_kappa=(scheme == "talay2")):
        total += p * float(f.fn(step(pt, gamma, u, kap)))
    return float(total - target)


@pytest.mark.parametrize("scheme,window", [("euler", (3.2, 4.8)), ("talay2", (6.0, 10.0))])
def test_one_step_error_ratio(scheme, window):
    for gamma in (2.0**-6, 2.0**-7):
        ratio = _one_step_error(scheme, gamma) / _one_step_error(scheme, gamma / 2.0)
        assert window[0] <= ratio <= window[1]


# ---------------------------------------------------------------------------
# simulation driver


def test_simulate_zero_steps():
    calls = []

    class Spy:
        def observe_block(self, k0, states):
            calls.append(k0)

    st = StepSchedule("power_law", 1.0, 0.5)
    state = simulate("euler", OU, st, TP, 0, 0.25, rng_seed=1, sinks=[Spy()])
    assert state.x[0] == 0.25
    assert state.n == 0
    assert calls == []


def test_simulate_reproducible():
    st = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    a = simulate("euler", OU, st, TP, 5000, 0.0, rng_seed=77)
    b = simulate("euler", OU, st, TP, 5000, 0.0, rng_seed=77)
    assert np.array_equal(a.x, b.x)
    c = simulate("euler", OU, st, TP, 5000, 0.0, rng_seed=78)
    assert not np.array_equal(a.x, c.x)


def test_simulate_long_run_mean_reverts():
    st = StepSchedule("constant", 0.05)
    states = []

    class Collect:
        def observe_block(self, k0, block):
            states.append(block[:, 0].copy())

    simulate("euler", OU, st, TP, 20000, 0.0, rng_seed=3, sinks=[Collect()])
    xs = np.concatenate(states)
    batches = xs[: 20 * (len(xs) // 20)].reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(xs.mean()) <= 3 * se


@pytest.mark.parametrize("scheme,kind", [
    pytest.param(scheme, kind, id=scheme if kind == "three_point" else f"{scheme}-{kind}")
    for kind in ("three_point", "rademacher", "gaussian") for scheme in ("euler", "talay2")
])
def test_batch_matches_serial_bitwise(scheme, kind):
    inn = InnovationDist(kind, 1)
    st = StepSchedule("power_law", 0.5, 0.4)
    w = WeightSchedule("proportional", st)
    n, reps = 2500, 5  # crosses a block boundary
    serial_states = []
    serial_vals = []
    for r in range(reps):
        meas = WeightedEmpiricalMeasure(weights=w, fn=coordinate_monomial((2,)).fn)
        s = simulate(scheme, OU, st, inn, n, 0.3, rng_seed=123, sinks=[meas], replication=r)
        serial_states.append(s.x)
        serial_vals.append(meas.value())
    bmeas = WeightedEmpiricalMeasure(weights=w, batch_shape=(reps,), fn=coordinate_monomial((2,)).fn)
    res = simulate_batch(scheme, OU, st, inn, n, 0.3, master_seed=123,
                         replications=reps, sinks=[bmeas])
    assert np.array_equal(res.final_states, np.stack(serial_states))
    assert np.array_equal(bmeas.value(), np.array(serial_vals))
    assert res.excluded == []


def test_simulate_nd_model_runs():
    theta = np.array([[1.0, 0.2], [0.0, 1.5]])
    sig = np.eye(2)
    m = ou_nd(theta, sig)
    st = StepSchedule("power_law", 0.5, 0.5)
    state = simulate("talay2", m, st, InnovationDist("three_point", 2), 500, [1.0, -1.0], rng_seed=5)
    assert state.x.shape == (2,)
    assert np.all(np.isfinite(state.x))


def test_divergence_raises_with_step_index():
    cubic = poly1d_model([0.0, 0.0, 0.0, 1.0], [0.0])  # b = x^3, no noise
    st = StepSchedule("constant", 1.0)
    with pytest.raises(DivergenceError) as err:
        simulate("euler", cubic, st, TP, 100, 2.0, rng_seed=0)
    assert err.value.step_index is not None
    assert err.value.step_index <= 10


def test_divergence_excluded_in_batch():
    cubic = poly1d_model([0.0, 0.0, 0.0, 1.0], [0.1])
    st = StepSchedule("constant", 1.0)
    res = simulate_batch("euler", cubic, st, TP, 50, 2.0, master_seed=0, replications=3)
    assert len(res.excluded) == 3
    assert all(np.all(np.isfinite(row)) for row in res.final_states)


@pytest.mark.parametrize("model_name", ["ou", "double_well"])
def test_euler_scalar_branch_matches_component_formula(model_name):
    from ergostep.catalog import double_well

    m = OU if model_name == "ou" else double_well(math.sqrt(2.0))
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(64, 1))
    us = rng.choice([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], size=(64, 1))
    step = make_stepper("euler", m)
    for gamma in (1.0, 0.37, 2.0**-9):
        want = (xs[..., 0] + gamma * m.b(xs)[..., 0]
                + math.sqrt(gamma) * m.sigma(xs)[..., 0, 0] * us[..., 0])[..., None]
        got = step(xs, gamma, us, None)
        assert got.shape == (64, 1)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("scheme", ["euler", "talay2"])
def test_general_branch_matches_written_out_kernel(scheme):
    from ergostep.innovations import assemble_w, sample_kappa

    m = ou_nd(np.array([[1.0, 0.3], [-0.2, 0.8]]), np.array([[1.1, 0.2], [-0.4, 0.9]]))
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(64, 2))
    us = InnovationDist("three_point", 2).sample(rng, size=64)
    kaps = sample_kappa(rng, 2, size=64)
    step = make_stepper(scheme, m)
    for gamma in (1.0, 0.37, 2.0**-9):
        su = np.einsum("...in,...n->...i", m.sigma(xs), us)
        if scheme == "euler":
            want = xs + gamma * m.b(xs) + math.sqrt(gamma) * su
        else:
            theta = np.einsum("...ail,...lj,...ij->...a", m.dsigma(xs), m.sigma(xs),
                              assemble_w(us, kaps))
            # D sigma, D^2 sigma and D^2 b vanish: sigma_tilde = Db sigma, Ab = Db b
            db = m.db(xs)
            coup = 0.5 * np.einsum("...ij,...jn->...in", db, m.sigma(xs))
            ab = np.einsum("...kj,...j->...k", db, m.b(xs))
            want = (xs + math.sqrt(gamma) * su
                    + gamma * (m.b(xs) + 0.5 * theta)
                    + gamma**1.5 * np.einsum("...in,...n->...i", coup, us)
                    + 0.5 * gamma**2 * ab)
        got = step(xs, gamma, us, kaps if scheme == "talay2" else None)
        assert got.shape == (64, 2)
        assert np.array_equal(got, want)


def test_innovation_dimension_checked():
    st = StepSchedule("constant", 0.1)
    with pytest.raises(ValueError):
        simulate("euler", OU, st, InnovationDist("three_point", 2), 10, 0.0, rng_seed=0)


def test_double_well_drift_generator_and_weak_order():
    from ergostep.catalog import double_well
    from ergostep.diagnostics import weak_order_probe
    from ergostep.model import increments

    m = double_well(math.sqrt(2.0))
    # Ab = b'b + sigma^2/2 b'' with b = x - x^3, read as 2 delta_4 of the talay2 list
    for v in (-1.5, 0.3, 2.0):
        [ab_half] = [delta for j, _, delta in increments("talay2", m, x(v)) if j == 4]
        expected = (1 - 3 * v * v) * (v - v**3) + 1.0 * (-6.0 * v)
        assert 2.0 * ab_half[0] == pytest.approx(expected, rel=1e-12)
    res = weak_order_probe("talay2", m, coordinate_monomial((4,)), x(0.5), [2.0**-7, 2.0**-8], TP)
    assert 6.0 <= res.ratios[0] <= 10.0
    res_e = weak_order_probe("euler", m, coordinate_monomial((4,)), x(0.5), [2.0**-7, 2.0**-8], TP)
    assert 3.2 <= res_e.ratios[0] <= 4.8


def test_double_well_trajectory_stays_bounded():
    from ergostep.catalog import double_well

    m = double_well(1.0)
    st = StepSchedule("power_law", 0.25, 1.0 / 3.0)
    s = simulate("euler", m, st, TP, 20_000, 0.0, rng_seed=8)
    assert abs(s.x[0]) < 3.0


def test_gaussian_innovation_simulation_reproducible():
    st = StepSchedule("power_law", 0.5, 0.4)
    g = InnovationDist("gaussian", 1)
    a = simulate("talay2", OU, st, g, 4000, 0.1, rng_seed=55)
    b = simulate("talay2", OU, st, g, 4000, 0.1, rng_seed=55)
    assert np.array_equal(a.x, b.x)


class _RecordingSink:
    def __init__(self):
        self.blocks = []

    def observe_block(self, k0, states):
        self.blocks.append((k0, states.copy()))


@pytest.mark.parametrize("scheme,model", [
    ("euler", OU), ("euler", broadcast_ou(1.0, math.sqrt(2.0))), ("euler", CONST_DRIFT), ("talay2", OU),
], ids=["euler-bound-sigma", "euler-batched-sigma", "euler-constant-drift", "talay2"])
def test_sinks_see_the_kernel_loop_block_by_block(scheme, model):
    st = StepSchedule("power_law", 0.5, 1.0 / 3.0)
    n, reps, offset = 2 * CHUNK + 300, 6, 3
    sink = _RecordingSink()
    res = simulate_batch(scheme, model, st, TP, n, 0.4, 21, reps, sinks=[sink],
                         replication_offset=offset)
    step = make_stepper(scheme, model)
    gens = [trajectory_generators(21, r)[0] for r in range(offset, offset + reps)]
    x = np.full((reps, 1), 0.4)
    k = 1
    for k0, states in sink.blocks:
        m = states.shape[0]
        assert k0 == k and states.shape == (m, reps, 1)
        us = TP.sample(gens, m)
        want = np.empty_like(states)
        for t, gamma in enumerate(st.gamma_block(k, k + m).tolist()):
            want[t] = x
            x = step(x, gamma, us[t], None)
        assert states.tobytes() == want.tobytes()
        k += m
    assert k == n + 1
    assert res.final_states.tobytes() == x.tobytes()


@pytest.mark.parametrize("n", [500, 2500], ids=["inline", "worker"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2), (2, 1)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("scheme", ["euler", "talay2"])
def test_driver_with_noise_dim_unlike_dim_is_the_step_loop(scheme, shape, n):
    # a block's states and innovations share its ring slot; their rows
    # differ in width when d != N
    d, noise = shape
    rng = np.random.default_rng(d * 10 + noise)
    model = ou_nd(np.eye(d) + 0.1 * rng.uniform(-1.0, 1.0, (d, d)), rng.uniform(-1.0, 1.0, shape))
    dist = InnovationDist("three_point", noise)
    st = StepSchedule("power_law", 0.5, 1.0 / 3.0)
    reps, offset = 4, 2
    x0 = np.linspace(0.3, -0.2, d)
    sink = _RecordingSink()
    res = simulate_batch(scheme, model, st, dist, n, x0, 21, reps, sinks=[sink],
                         replication_offset=offset)
    step = make_stepper(scheme, model)
    gens = [trajectory_generators(21, r) for r in range(offset, offset + reps)]
    signs = scheme == "talay2" and noise > 1
    x = np.tile(x0, (reps, 1))
    k = 1
    for k0, states in sink.blocks:
        m = states.shape[0]
        assert k0 == k and states.shape == (m, reps, d)
        us = dist.sample([g[0] for g in gens], m)
        kaps = np.stack([sample_kappa(g[1], noise, size=m) for g in gens], axis=1) if signs else None
        want = np.empty_like(states)
        for t, gamma in enumerate(st.gamma_block(k, k + m).tolist()):
            want[t] = x
            x = step(x, gamma, us[t], None if kaps is None else kaps[t])
        assert states.tobytes() == want.tobytes()
        k += m
    assert k == n + 1
    assert res.excluded == [] and res.final_states.tobytes() == x.tobytes()


def test_scalar_x0_sets_every_coordinate():
    model = ou_nd(np.eye(2), np.eye(2))
    dist = InnovationDist("three_point", 2)
    st = StepSchedule("power_law", 0.5, 1.0 / 3.0)
    one = simulate("euler", model, st, dist, 300, 0.3, rng_seed=5)
    assert one.x.tobytes() == simulate("euler", model, st, dist, 300, [0.3, 0.3], rng_seed=5).x.tobytes()
    batch = simulate_batch("talay2", model, st, dist, 300, 0.3, 5, 3)
    assert batch.final_states.tobytes() == simulate_batch(
        "talay2", model, st, dist, 300, np.full(2, 0.3), 5, 3).final_states.tobytes()
    assert simulate("euler", model, st, dist, 0, 0.3, rng_seed=5).x.tolist() == [0.3, 0.3]
    assert simulate_batch("euler", model, st, dist, 0, 0.3, 5, 3).final_states.shape == (3, 2)
    for bad in ([0.3], [0.1, 0.2, 0.3], [[0.1, 0.2]]):
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            simulate_batch("euler", model, st, dist, 300, bad, 5, 3)
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            simulate("euler", model, st, dist, 0, bad, rng_seed=5)


@pytest.mark.parametrize("x0", [1e300, -1e13, math.nan, math.inf, [0.3, 1e13], [math.nan, 0.0]])
def test_x0_outside_the_finite_region_is_refused(x0):
    # the sinks see x0 as the first pre-step state, and the divergence
    # guard checks only the states that steps produce
    model = ou_nd(np.eye(2), np.eye(2))
    dist = InnovationDist("three_point", 2)
    st = StepSchedule("power_law", 0.5, 1.0 / 3.0)
    with pytest.raises(ValueError, match="x0"):
        simulate_batch("euler", model, st, dist, 300, x0, 5, 3)
    with pytest.raises(ValueError, match="x0"):
        simulate("talay2", model, st, dist, 0, x0, rng_seed=5)


@pytest.mark.parametrize("scheme,noise,tags", [
    ("euler", 2, {0}), ("talay2", 1, {0}), ("talay2", 2, {0, 1}),
])
def test_sign_streams_are_built_only_when_the_scheme_draws_signs(monkeypatch, scheme, noise, tags):
    built = []
    stream = schemes._stream

    def counted(seed, replication, tag):
        built.append(tag)
        return stream(seed, replication, tag)

    monkeypatch.setattr(schemes, "_stream", counted)
    model = ou_nd(np.eye(2), np.eye(2)[:, :noise])
    simulate_batch(scheme, model, StepSchedule("constant", 0.01), InnovationDist("three_point", noise),
                   50, 0.0, 3, 4)
    assert set(built) == tags and len(built) == 4 * len(tags)


def test_constant_drift_euler_block_entry_is_the_step_loop():
    step = make_stepper("euler", CONST_DRIFT)
    gammas = StepSchedule("power_law", 0.5, 1.0 / 3.0).gamma_block(1, 9)
    us = TP.sample([trajectory_generators(5, r)[0] for r in range(4)], len(gammas))
    slab = np.empty((len(gammas) + 1, 4, 1))
    slab[0] = np.linspace(-1.0, 1.0, 4)[:, None]
    want = [slab[0].copy()]
    for t, gamma in enumerate(gammas.tolist()):
        want.append(step(want[-1], gamma, us[t], None))
    step.block(slab, gammas, us)
    assert slab.tobytes() == np.array(want).tobytes()


def test_only_the_bound_sigma_euler_kernel_has_a_block_entry():
    assert hasattr(make_stepper("euler", OU), "block")
    assert not hasattr(make_stepper("euler", broadcast_ou(1.0, math.sqrt(2.0))), "block")
    assert not hasattr(make_stepper("talay2", OU), "block")


def test_constant_fields_are_bound_when_the_kernel_is_built():
    calls = Counter()

    def counted(name, fn):
        def field(*args):
            calls[name] += 1
            return fn(*args)
        return field

    names = ("b", "sigma", "db", "d2b", "dsigma", "d2sigma")
    model = dataclasses.replace(OU, **{name: counted(name, getattr(OU, name)) for name in names})
    for scheme in ("euler", "talay2"):
        step = make_stepper(scheme, model)
        calls.clear()
        step(np.zeros((4, 1)), 0.01, np.ones((4, 1)), None)
        # the 1-d Euler step reads sigma per call; its block entry binds it
        assert calls == (Counter(b=1, sigma=1) if scheme == "euler" else Counter(b=1)), scheme
    block = make_stepper("euler", model).block
    calls.clear()
    block(np.zeros((4, 2, 1)), np.full(3, 0.01), np.ones((3, 2, 1)))
    assert calls == Counter(b=3)


# ---------------------------------------------------------------------------
# the kernel worker


def test_divergence_on_the_worker_path_reports_the_first_bad_step():
    # X_k = 1.01^k crosses the bound near k = 2777, in the third block
    growth = poly1d_model([0.0, 1.0], [0.0])
    st = StepSchedule("constant", 0.01)
    step = make_stepper("euler", growth)
    x, first = np.ones(1), 0
    while abs(x[0]) <= 1e12:
        first += 1
        x = step(x, st.gamma1, np.zeros(1), None)
    assert 2 * CHUNK < first <= 3 * CHUNK
    with pytest.raises(DivergenceError) as err:
        simulate("euler", growth, st, TP, 4000, 1.0, rng_seed=4)
    assert (err.value.step_index, err.value.replication) == (first, 0)
    # simulate's replication r is replication_offset r of a one-replication batch
    one = simulate_batch("euler", growth, st, TP, 4000, 1.0, 4, 1, replication_offset=2)
    with pytest.raises(DivergenceError) as err:
        simulate("euler", growth, st, TP, 4000, 1.0, rng_seed=4, replication=2)
    assert [(err.value.replication, err.value.step_index)] == one.excluded == [(2, first)]
    res = simulate_batch("euler", growth, st, TP, 4000, 1.0, 4, 3)
    assert res.excluded == [(r, first) for r in range(3)]
    assert np.all(np.isfinite(res.final_states))


class _FieldError(Exception):
    pass


def test_worker_and_sink_errors_reach_the_caller_and_leave_no_process():
    calls = []

    def b(xs):
        calls.append(None)
        if len(calls) > CHUNK + 10:
            raise _FieldError(os.getpid())
        return OU.b(xs)

    failing = dataclasses.replace(OU, b=b)
    st = StepSchedule("power_law", 0.5, 1.0 / 3.0)
    with pytest.raises(_FieldError) as err:
        simulate_batch("euler", failing, st, TP, 3 * CHUNK, 0.4, 2, 3)
    assert err.value.args[0] != os.getpid()  # raised in the worker
    assert calls == []

    class FailingSink:
        def observe_block(self, k0, states):
            if k0 > CHUNK:
                raise KeyError("sink")

    with pytest.raises(KeyError):
        simulate_batch("euler", OU, st, TP, 4 * CHUNK, 0.4, 2, 3, sinks=[FailingSink()])

    caller = os.getpid()

    def exiting(xs):
        if os.getpid() == caller:
            raise AssertionError("the kernel ran in the caller")
        os._exit(3)

    with pytest.raises(RuntimeError, match="exited with code 3"):
        simulate_batch("euler", dataclasses.replace(OU, b=exiting), st, TP, 2 * CHUNK, 0.4, 2, 3)
    assert multiprocessing.active_children() == []


def test_kernel_runs_in_the_worker_for_two_blocks_on_one_thread():
    calls = Counter()

    def b(xs):
        calls["b"] += 1
        return OU.b(xs)

    counted = dataclasses.replace(OU, b=b)
    st = StepSchedule("power_law", 0.5, 1.0 / 3.0)
    simulate_batch("euler", counted, st, TP, CHUNK, 0.4, 2, 3)
    assert calls["b"] == CHUNK  # one block: inline
    calls.clear()
    forked = simulate_batch("euler", counted, st, TP, CHUNK + 1, 0.4, 2, 3)
    assert calls["b"] == 0  # two blocks: the worker steps
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        inline = simulate_batch("euler", counted, st, TP, CHUNK + 1, 0.4, 2, 3)
    finally:
        release.set()
        other.join(timeout=10)
    assert calls["b"] == CHUNK + 1  # another thread alive: inline
    assert forked.final_states.tobytes() == inline.final_states.tobytes()
    # the worker sends its kernel time back; inline, nothing waits on it
    assert set(forked.seconds) == set(inline.seconds) == {"kernel", "draw", "feed", "wait"}
    assert forked.seconds["kernel"] > 0.0 and inline.seconds["kernel"] > 0.0
    assert inline.seconds["wait"] == 0.0


class _Stop(Exception):
    pass


def test_driver_set_up_holds_nothing_in_proportion_to_n_steps():
    # a sink that stops the run at its first block: the driver's peak is its
    # set-up and one block, whatever n_steps says
    import tracemalloc

    class StopSink:
        def observe_block(self, k0, states):
            raise _Stop

    st = StepSchedule("power_law", 0.5, 1.0 / 3.0)
    simulate_batch("euler", OU, st, TP, 2 * CHUNK, 0.4, 2, 1)  # imports and caches
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            simulate_batch("euler", OU, st, TP, 10**8, 0.4, 2, 1, sinks=[StopSink()])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_importing_the_package_loads_neither_multiprocessing_nor_mmap():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, ergostep; print(sorted({'multiprocessing', 'mmap'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
