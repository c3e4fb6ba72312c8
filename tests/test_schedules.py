from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergostep.harness import ExperimentConfig
from ergostep.schedules import StepSchedule, WeightSchedule, order_weights

EPS = np.finfo(np.float64).eps


def test_gamma_power_law_values():
    s = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    assert s.gamma(1) == 1.0
    assert s.gamma(8) == pytest.approx(0.5, abs=1e-15)  # 8^(-1/3)


def test_gamma_constant():
    s = StepSchedule("constant", 0.01)
    assert s.gamma(999) == 0.01


def test_gamma_has_the_bits_of_the_block_the_driver_steps_with():
    # at xi = 1/3, Python's ** and numpy's power disagree in the last bit on
    # thousands of the first 1e5 steps; gamma(n) must be the step taken
    s = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    block = s.gamma_block(1, 100_001)
    assert [s.gamma(n) for n in range(1, 100_001)] == block.tolist()
    for start in (2, 3, 1025, 99_999):
        assert s.gamma_block(start, 100_001).tolist() == block[start - 1:].tolist()
    assert StepSchedule("constant", 0.01).gamma(10**9) == 0.01


def test_gamma_rejects_zero_index():
    s = StepSchedule("constant", 0.01)
    with pytest.raises(ValueError):
        s.gamma(0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule("power_law", 1.0, 1.5)
    with pytest.raises(ValueError):
        StepSchedule("power_law", -1.0, 0.5)
    with pytest.raises(ValueError):
        StepSchedule("nope", 1.0, 0.5)


def test_big_gamma_basics():
    s = StepSchedule("constant", 0.1)
    assert s.big_gamma(0) == 0.0
    assert s.big_gamma(10) == pytest.approx(1.0, rel=1e-15)


def test_big_gamma_against_direct_sum_and_asymptotic():
    s = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    n = 10**6
    got = s.big_gamma(n)
    # independent oracle: exact float sum of k^(-1/3)
    oracle = math.fsum(float(k) ** (-1.0 / 3.0) for k in range(1, n + 1))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.5 * n ** (2.0 / 3.0), rel=0.01)


def test_big_gamma_cache_random_access_matches_forward():
    a = StepSchedule("power_law", 0.7, 0.4)
    b = StepSchedule("power_law", 0.7, 0.4)
    jump = a.big_gamma(70_001)  # extends cache in one large block
    for n in range(1, 500):
        b.big_gamma(n)
    assert b.big_gamma(70_001) == jump


def test_eta_trapezoidal_convention():
    steps = StepSchedule("constant", 0.1)
    w = WeightSchedule("trapezoidal", steps, c=1.0)
    assert w.eta_block(1, 2)[0] == 0.05  # gamma_0 = 0 convention
    assert w.eta_block(5, 6)[0] == pytest.approx(0.1, abs=1e-16)


def test_eta_power():
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    w = WeightSchedule("power", steps, r=2.0)
    assert w.eta_block(8, 9)[0] == pytest.approx(0.25, abs=1e-15)  # (8^(-1/3))^2


def test_big_h_trapezoidal_constant_steps():
    steps = StepSchedule("constant", 0.25)
    w = WeightSchedule("trapezoidal", steps, c=1.0)
    for n in (1, 2, 7, 100):
        assert w.big_h(n) == pytest.approx(0.25 * (n - 0.5), rel=1e-15)


def test_big_h_proportional_equals_big_gamma_exactly():
    steps = StepSchedule("power_law", 1.0, 0.3)
    w = WeightSchedule("proportional", steps, c=1.0)
    for n in (1, 10, 1234):
        assert w.big_h(n) == steps.big_gamma(n)
    w2 = WeightSchedule("proportional", steps, c=2.5)
    for n in (1, 10, 1234):
        assert w2.big_h(n) == 2.5 * steps.big_gamma(n)


def test_big_h_power_asymptotic():
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    w = WeightSchedule("power", steps, r=2.0)
    n = 10**6
    got = w.big_h(n)
    oracle = math.fsum(float(k) ** (-2.0 / 3.0) for k in range(1, n + 1))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(3.0 * n ** (1.0 / 3.0), rel=0.02)


def test_trapezoidal_identity_exact():
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    w = WeightSchedule("trapezoidal", steps, c=1.7)
    for n in (1, 2, 17, 4096, 100_000):
        lhs = w.big_h(n)
        rhs = 1.7 * (steps.big_gamma(n) + steps.big_gamma(n - 1)) / 2.0
        assert lhs == rhs
        # and the termwise sum agrees within the stated accumulation bound
        etas = w.eta_block(1, n + 1)
        direct = math.fsum(etas)
        assert abs(lhs - direct) <= 8 * EPS * n * etas[0]


def test_monotone_partial_sums():
    steps = StepSchedule("power_law", 0.5, 0.9)
    w = WeightSchedule("trapezoidal", steps, c=1.0)
    gs = [steps.big_gamma(n) for n in range(0, 2000)]
    hs = [w.big_h(n) for n in range(1, 2000)]
    assert all(b > a for a, b in zip(gs, gs[1:]))
    assert all(b > a for a, b in zip(hs, hs[1:]))


def test_gamma_decreasing_and_vanishing():
    s = StepSchedule("power_law", 2.0, 0.25)
    vals = [s.gamma(n) for n in range(1, 5000)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert s.gamma(10**12) < 1e-2
    assert s.big_gamma(2_000_000) > s.big_gamma(1_000_000)


@pytest.mark.parametrize("xi", [0.1, 0.2, 0.3, 1.0 / 3.0, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
@pytest.mark.parametrize("q", [1, 2])
def test_ratio_trend_matches_regime_rule(xi, q):
    """sqrt(Gamma_n)/H_{gamma^{q+1},n} diverges iff xi > 1/(2q+1), vanishes
    iff xi < 1/(2q+1), and stays bounded at the boundary: checked through
    the fitted log-log slope on n in [1e3, 1e7] with a dead zone absorbing
    finite-size constants."""
    steps = StepSchedule("power_law", 1.0, xi)
    aux = order_weights(steps, q)
    ns = np.logspace(3, 7, 9)
    r = np.array([math.sqrt(steps.big_gamma(int(n))) / aux.big_h(int(n)) for n in ns])
    slope = np.polyfit(np.log(ns), np.log(r), 1)[0]
    threshold = 1.0 / (2 * q + 1)
    if xi > threshold + 0.02:
        assert slope > 0.02
    elif xi < threshold - 0.02:
        assert slope < -0.02
    else:
        assert abs(slope) < 0.1


def test_variance_clock_is_gamma_weights():
    steps = StepSchedule("power_law", 1.0, 0.5)
    clock = WeightSchedule("power", steps, r=1.0)
    assert clock.eta_block(7, 8)[0] == steps.gamma(7)
    assert clock.big_h(100) == pytest.approx(steps.big_gamma(100), rel=1e-14)


def test_config_round_trip():
    steps = StepSchedule("power_law", 0.3, 0.25)
    w = WeightSchedule("power", steps, r=3.0)
    cfg = ExperimentConfig.from_mapping({"step.kind": "power_law", "step.gamma1": repr(0.3),
                                         "step.xi": repr(0.25), "weight.kind": "power",
                                         "weight.r": repr(3.0)})
    assert ExperimentConfig(**cfg.to_dict()) == cfg
    s2 = cfg.steps()
    w2 = cfg.weights(s2)
    assert s2.gamma(17) == steps.gamma(17)
    assert np.array_equal(w2.eta_block(1, 40), w.eta_block(1, 40))


def test_copies_agree():
    a = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    b = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    assert a.big_gamma(12_345) == b.big_gamma(12_345)


@settings(max_examples=25, deadline=None)
@given(xi=st.floats(0.05, 0.95), gamma1=st.floats(0.01, 10.0), n=st.integers(1, 3000))
def test_partial_sum_matches_fsum(xi, gamma1, n):
    steps = StepSchedule("power_law", gamma1, xi)
    direct = math.fsum(steps.gamma(k) for k in range(1, n + 1))
    assert steps.big_gamma(n) == pytest.approx(direct, rel=1e-13)


# (xi, r) pairs put s = xi * r below 1, near 1, at 1 and above 1
@pytest.mark.parametrize("n", [1023, 1024, 1025, 10**6])
@pytest.mark.parametrize("xi,r", [(0.1, 1.0), (1.0 / 3.0, 2.0), (0.6, 1.0),
                                  (0.5, 1.99998), (0.5, 2.0), (0.4, 3.0), (0.9, 3.0)])
def test_closed_form_partial_sums_match_fsum(xi, r, n):
    steps = StepSchedule("power_law", 0.7, xi)
    w = WeightSchedule("power", steps, r=r)
    want_g = math.fsum(steps.gamma_block(1, n + 1))
    want_h = math.fsum(w.eta_block(1, n + 1))
    assert abs(steps.big_gamma(n) - want_g) <= 1e-13 * want_g
    assert abs(w.big_h(n) - want_h) <= 1e-13 * want_h


def test_partial_sums_need_no_memory_in_n():
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    aux = order_weights(steps, 2)
    tracemalloc.start()
    try:
        steps.big_gamma(10**7)
        aux.big_h(10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
