from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergostep.catalog import monomial1d, normal_law, observable_from_name, ou1d, ou_nd
from ergostep.empirical import (
    _TILE_STATES,
    AnalyticLaw1D,
    WeightedEmpiricalMeasure,
    merge_statistics,
    wasserstein1_atoms,
)
from ergostep.innovations import InnovationDist
from ergostep.model import Enumerate, generator_observable, m1_euler, vf_operator
from ergostep.schedules import StepSchedule, WeightSchedule
from ergostep.schemes import simulate, trajectory_generators


def atomic_law(xs, ws) -> AnalyticLaw1D:
    """Exact law object for a weighted atomic measure (test oracle)."""
    xs = np.asarray(xs, dtype=np.float64)
    ws = np.asarray(ws, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    xs, ws = xs[order], ws[order] / ws.sum()
    cum = np.cumsum(ws)

    def cdf(v):
        return float(cum[bisect_right(xs.tolist(), v) - 1]) if v >= xs[0] else 0.0

    def quantile(p):
        idx = int(np.searchsorted(cum, p, side="left"))
        return float(xs[min(idx, xs.size - 1)])

    def partial_expectation(p1, p2):
        # integral of the step quantile over [p1, p2]
        total = 0.0
        lo = p1
        for xi, c in zip(xs, cum):
            if lo >= p2:
                break
            hi = min(float(c), p2)
            if hi > lo:
                total += xi * (hi - lo)
                lo = hi
        return total

    return AnalyticLaw1D(cdf=cdf, quantile=quantile, partial_expectation=partial_expectation)


# ---------------------------------------------------------------------------
# recording and readout


def test_single_atom_value():
    m = WeightedEmpiricalMeasure()
    m.register("x^2", monomial1d(2).fn)
    m.record(np.array([2.0]), 1.0)
    assert m.value("x^2") == 4.0


def test_zero_weight_leaves_values_unchanged():
    m = WeightedEmpiricalMeasure()
    m.register("x", monomial1d(1).fn)
    m.record(np.array([1.0]), 2.0)
    before = m.value("x")
    m.record(np.array([55.0]), 0.0)
    assert m.value("x") == before


def test_weighted_average_by_hand():
    m = WeightedEmpiricalMeasure()
    m.register("x", monomial1d(1).fn)
    m.record(np.array([0.0]), 1.0)
    m.record(np.array([2.0]), 3.0)
    assert m.value("x") == pytest.approx(1.5, rel=1e-15)


def test_negative_weight_rejected():
    m = WeightedEmpiricalMeasure()
    m.register("x", monomial1d(1).fn)
    with pytest.raises(ValueError):
        m.record(np.array([0.0]), -1.0)


def test_unknown_name_and_empty_measure():
    m = WeightedEmpiricalMeasure()
    m.register("x", monomial1d(1).fn)
    with pytest.raises(KeyError):
        m.value("y")
    with pytest.raises(ValueError):
        m.value("x")


def test_duplicate_registration_rejected():
    m = WeightedEmpiricalMeasure()
    m.register("x", monomial1d(1).fn)
    with pytest.raises(ValueError):
        m.register("x", monomial1d(1).fn)


def test_online_matches_offline_recomputation():
    ou = ou1d(1.0, math.sqrt(2.0))
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    w = WeightSchedule("trapezoidal", steps, c=1.0)
    meas = WeightedEmpiricalMeasure(weights=w)
    meas.register("x^2", monomial1d(2).fn)
    logged = []

    class Log:
        def observe_block(self, k0, states):
            logged.append(states[:, 0].copy())

    simulate("euler", ou, steps, InnovationDist("three_point", 1), 30_000, 0.0,
             rng_seed=5, sinks=[meas, Log()])
    xs = np.concatenate(logged)
    etas = w.eta_block(1, len(xs) + 1)
    offline = math.fsum(e * v * v for e, v in zip(etas, xs)) / math.fsum(etas)
    assert meas.value("x^2") == pytest.approx(offline, rel=1e-10)


def test_weight_scale_invariance():
    rng, _ = trajectory_generators(8, 0)
    xs = rng.normal(size=200)
    etas = rng.random(200) + 0.1
    vals = {}
    for scale in (1.0, 3.7):
        m = WeightedEmpiricalMeasure()
        m.register("x^2", monomial1d(2).fn)
        for v, e in zip(xs, etas):
            m.record(np.array([v]), scale * e)
        vals[scale] = m.value("x^2")
    assert vals[3.7] == pytest.approx(vals[1.0], rel=1e-13)


def test_buffer_decimation_capacity_and_determinism():
    m = WeightedEmpiricalMeasure(buffer_capacity=16)
    m.register("x", monomial1d(1).fn)
    for k in range(1, 101):
        m.record(np.array([float(k)]), 1.0)
    states, weights = m.buffer()
    assert states.shape[0] <= 16
    # stride doubling keeps every 2^m-th pre-step state, zero-offset
    kept = states[:, 0].astype(int)
    assert kept[0] == 1
    assert set(np.diff(kept)) == {8}


def _per_state_buffer(blocks, cap):
    """The sample buffer as a loop over every state, read after each block:
    keep offset k when the stride divides it; a full buffer halves and
    doubles the stride first."""
    states, weights, stride, k = [], [], 1, 0
    for block, etas in blocks:
        for t in range(block.shape[0]):
            if k % stride == 0:
                if len(states) == cap:
                    states, weights, stride = states[::2], weights[::2], 2 * stride
                if k % stride == 0:
                    states.append(np.array(block[t]))
                    weights.append(float(etas[t]))
            k += 1
        yield np.stack(states), np.array(weights)


@pytest.mark.parametrize("cap", [1, 3, 16])
@pytest.mark.parametrize("block_len", [1, 7, 1024])
def test_buffer_matches_per_state_loop(cap, block_len):
    rng, _ = trajectory_generators(31, 0)
    total = 3000 if block_len == 1024 else 300
    blocks = []
    for k0 in range(0, total, block_len):
        m = min(block_len, total - k0)
        blocks.append((rng.normal(size=(m, 2, 1)), rng.random(m) + 0.1))
    meas = WeightedEmpiricalMeasure(batch_shape=(2,), buffer_capacity=cap)
    meas.register("x", monomial1d(1).fn)
    for (block, etas), (ref_states, ref_weights) in zip(blocks, _per_state_buffer(blocks, cap)):
        meas._fold(block, etas)
        got_states, got_weights = meas.buffer()
        assert got_states.shape == ref_states.shape
        assert np.array_equal(got_states, ref_states)
        assert np.array_equal(got_weights, ref_weights)


def _fold_observables(model, f):
    af = generator_observable(model, f)
    tp = InnovationDist("three_point", model.noise_dim)
    return {
        "Af": af.fn,
        "Mf": lambda xs: m1_euler(model, f, xs, tp, Enumerate()).value,
        "Vf": lambda xs: vf_operator(model, f, xs),
    }


@pytest.mark.parametrize("batch", [(3 * 32 + 5,), (5, 21)], ids=["flat", "grid"])
@pytest.mark.parametrize("case", ["ou_x2", "ou_nd_x1x2"])
def test_tiled_fold_is_bit_identical_to_serial(batch, case):
    if case == "ou_x2":
        model, f = ou1d(1.0, math.sqrt(2.0)), monomial1d(2)
    else:
        model = ou_nd(np.array([[1.0, 0.3], [0.0, 1.5]]), np.array([[1.0, 0.0], [0.4, 0.8]]))
        f = observable_from_name("x1*x2", dim=2)
    obs = _fold_observables(model, f)
    w = WeightSchedule("proportional", StepSchedule("power_law", 1.0, 1.0 / 3.0))
    rng, _ = trajectory_generators(17, 0)
    blocks = [rng.normal(size=(m,) + batch + (model.dim,)) for m in (1024, 1024, 37)]
    # more than three tiles of 1024-step rows, the last ragged
    assert 1024 * math.prod(batch) > 3 * _TILE_STATES and math.prod(batch) % (_TILE_STATES // 1024)

    batched = WeightedEmpiricalMeasure(weights=w, batch_shape=batch)
    for name, fn in obs.items():
        batched.register(name, fn)
    serial = {}
    for idx in np.ndindex(*batch):
        serial[idx] = WeightedEmpiricalMeasure(weights=w)
        for name, fn in obs.items():
            serial[idx].register(name, fn)
    k0 = 1
    for block in blocks:
        batched.observe_block(k0, block)
        for idx, meas in serial.items():
            meas.observe_block(k0, block[(slice(None),) + idx])
        k0 += block.shape[0]
    for name in obs:
        got = batched.value(name)
        assert got.shape == batch
        want = np.array([serial[idx].value(name) for idx in np.ndindex(*batch)]).reshape(batch)
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("m", [1, 1024, 40_000])
def test_fold_calls_see_at_most_a_tile(m):
    seen = []

    def counting(xs):
        seen.append(xs.shape[:-1])
        return xs[..., 0]

    meas = WeightedEmpiricalMeasure(batch_shape=(70,))
    meas.register("x", counting)
    meas._fold(np.zeros((m, 70, 1)), np.ones(m))
    assert sum(math.prod(s) for s in seen) == 70 * m
    assert max(math.prod(s) for s in seen) <= max(m, _TILE_STATES)


def test_fold_is_bit_identical_in_either_memory_order():
    model, f = ou1d(1.0, math.sqrt(2.0)), monomial1d(2)
    obs = _fold_observables(model, f)
    w = WeightSchedule("proportional", StepSchedule("power_law", 1.0, 1.0 / 3.0))
    rng, _ = trajectory_generators(23, 0)
    time_major = rng.normal(size=(1024, 70, 1))
    rep_major = np.ascontiguousarray(time_major.swapaxes(0, 1)).swapaxes(0, 1)
    values = []
    for block in (time_major, rep_major):
        meas = WeightedEmpiricalMeasure(weights=w, batch_shape=(70,))
        for name, fn in obs.items():
            meas.register(name, fn)
        meas.observe_block(1, block)
        meas.observe_block(1025, block[:300])  # a block split at a checkpoint
        values.append({name: meas.value(name).tobytes() for name in obs})
    assert values[0] == values[1]


def test_fold_tiles_of_a_replication_major_block_are_views():
    block = np.ascontiguousarray(np.zeros((70, 1024, 1))).swapaxes(0, 1)
    views = []

    def probe(xs):
        views.append(np.shares_memory(xs, block))
        return xs[..., 0]

    meas = WeightedEmpiricalMeasure(batch_shape=(70,))
    meas.register("x", probe)
    meas._fold(block, np.ones(1024))
    tiles = -(-70 // max(1, _TILE_STATES // 1024))
    assert tiles > 1 and len(views) == tiles and all(views)


def test_buffer_disabled_raises():
    m = WeightedEmpiricalMeasure()
    m.register("x", monomial1d(1).fn)
    m.record(np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        m.buffer()


# ---------------------------------------------------------------------------
# Wasserstein distance


def test_w1_single_atom_against_standard_normal():
    law = normal_law()
    got = wasserstein1_atoms(np.array([0.0]), np.array([1.0]), law)
    assert got == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)


def test_w1_quantile_atoms_decrease():
    law = normal_law()
    prev = math.inf
    for m_atoms in (10, 100, 1000):
        ps = (np.arange(m_atoms) + 0.5) / m_atoms
        xs = np.array([law.quantile(p) for p in ps])
        got = wasserstein1_atoms(xs, np.ones(m_atoms), law)
        assert got < prev
        prev = got
    assert prev < 2e-3


def test_w1_atomic_law_self_distance_zero():
    xs = np.array([-1.0, 0.2, 0.5, 2.0])
    ws = np.array([1.0, 2.0, 0.5, 1.5])
    law = atomic_law(xs, ws)
    assert wasserstein1_atoms(xs, ws, law) <= 1e-12


def test_w1_lower_bound_mean_difference_and_triangle():
    rng, _ = trajectory_generators(21, 0)
    for _ in range(20):
        xa = rng.normal(size=4)
        xb = rng.normal(size=3)
        xc = rng.normal(size=5)
        wa = rng.random(4) + 0.1
        wb = rng.random(3) + 0.1
        wc = rng.random(5) + 0.1
        lb = atomic_law(xb, wb)
        lc = atomic_law(xc, wc)
        dab = wasserstein1_atoms(xa, wa, lb)
        dac = wasserstein1_atoms(xa, wa, lc)
        dbc = wasserstein1_atoms(xb, wb, lc)
        assert dac <= dab + dbc + 1e-12
        mean_a = np.average(xa, weights=wa)
        mean_c = np.average(xc, weights=wc)
        assert dac >= abs(mean_a - mean_c) - 1e-12


def test_w1_of_a_measure_buffer():
    m = WeightedEmpiricalMeasure(buffer_capacity=8)
    m.register("x", monomial1d(1).fn)
    m.record(np.array([0.0]), 1.0)
    states, weights = m.buffer()
    got = wasserstein1_atoms(states[..., 0], weights, normal_law())
    assert got == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)


def test_w1_generic_law_quadrature_fallback():
    dist = normal_law()
    bare = AnalyticLaw1D(cdf=dist.cdf, quantile=dist.quantile)
    got = wasserstein1_atoms(np.array([0.0]), np.array([1.0]), bare)
    assert got == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-8)


def test_normal_law_quantile_identity():
    law = normal_law(0.3, 2.0)
    for p in np.linspace(1e-6, 1 - 1e-6, 41):
        assert law.cdf(law.quantile(p)) == pytest.approx(p, abs=1e-8)


# ---------------------------------------------------------------------------
# summary statistics


def test_merge_statistics_degenerate():
    s = merge_statistics([1.0, 1.0, 1.0, 1.0])
    assert s.mean == 1.0
    assert s.variance == 0.0


def test_merge_statistics_two_values():
    s = merge_statistics([0.0, 2.0])
    assert s.mean == 1.0
    assert s.variance == 2.0


def test_merge_statistics_normal_shape():
    rng, _ = trajectory_generators(99, 0)
    s = merge_statistics(rng.standard_normal(10_000))
    assert abs(s.skewness) < 0.08
    assert abs(s.excess_kurtosis) < 0.15
    assert s.skewness_se == pytest.approx(math.sqrt(6.0 / 10_000))
    assert s.kurtosis_se == pytest.approx(math.sqrt(24.0 / 10_000))


def test_merge_statistics_needs_two():
    with pytest.raises(ValueError):
        merge_statistics([1.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=30), st.floats(0.1, 10.0))
def test_weight_scale_invariance_property(values, scale):
    a = WeightedEmpiricalMeasure()
    a.register("x", monomial1d(1).fn)
    b = WeightedEmpiricalMeasure()
    b.register("x", monomial1d(1).fn)
    for v in values:
        a.record(np.array([v]), 1.0)
        b.record(np.array([v]), scale)
    assert b.value("x") == pytest.approx(a.value("x"), rel=1e-12, abs=1e-12)


def test_w1_matches_scipy_on_quantile_discretization():
    from scipy import stats

    law = normal_law(0.4, 1.3)
    rng, _ = trajectory_generators(29, 0)
    xs = 0.4 + 1.3 * rng.standard_normal(300)
    ws = rng.random(300) + 0.2
    got = wasserstein1_atoms(xs, ws, law)
    # independent oracle: scipy sample-to-sample distance against a dense
    # quantile discretization of the law
    ps = (np.arange(200_000) + 0.5) / 200_000
    ref_atoms = np.array([law.quantile(p) for p in ps])
    ref = stats.wasserstein_distance(xs, ref_atoms, ws, None)
    assert got == pytest.approx(ref, abs=2e-4)
