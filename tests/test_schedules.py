from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergostep.harness import ExperimentConfig
from ergostep.schedules import StepSchedule, WeightSchedule, power_h

EPS = np.finfo(np.float64).eps


def gamma(s: StepSchedule, n: int) -> float:
    """gamma_n, as the driver's blocks give it."""
    return float(s.gamma_block(n, n + 1)[0])


def test_gamma_power_law_values():
    s = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    assert gamma(s, 1) == 1.0
    assert gamma(s, 8) == pytest.approx(0.5, abs=1e-15)  # 8^(-1/3)


def test_gamma_constant():
    s = StepSchedule("constant", 0.01)
    assert gamma(s, 999) == 0.01
    assert gamma(s, 10**9) == 0.01


def test_gamma_block_is_the_same_at_any_start():
    s = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    block = s.gamma_block(1, 100_001)
    for start in (2, 3, 1025, 99_999):
        assert s.gamma_block(start, 100_001).tolist() == block[start - 1:].tolist()


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
    w = WeightSchedule("trapezoidal", steps)
    assert w.eta_block(1, 2)[0] == 0.05  # gamma_0 = 0 convention
    assert w.eta_block(5, 6)[0] == pytest.approx(0.1, abs=1e-16)


def test_big_h_trapezoidal_constant_steps():
    steps = StepSchedule("constant", 0.25)
    w = WeightSchedule("trapezoidal", steps)
    for n in (1, 2, 7, 100):
        assert w.big_h(n) == pytest.approx(0.25 * (n - 0.5), rel=1e-15)


def test_big_h_proportional_equals_big_gamma_exactly():
    steps = StepSchedule("power_law", 1.0, 0.3)
    w = WeightSchedule("proportional", steps)
    for n in (1, 10, 1234):
        assert w.big_h(n) == steps.big_gamma(n)


def test_big_h_power_asymptotic():
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    n = 10**6
    got = power_h(steps, 2.0, n)
    oracle = math.fsum(float(k) ** (-2.0 / 3.0) for k in range(1, n + 1))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(3.0 * n ** (1.0 / 3.0), rel=0.02)


def test_trapezoidal_identity_exact():
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    w = WeightSchedule("trapezoidal", steps)
    for n in (1, 2, 17, 4096, 100_000):
        lhs = w.big_h(n)
        rhs = (steps.big_gamma(n) + steps.big_gamma(n - 1)) / 2.0
        assert lhs == rhs
        # and the termwise sum agrees within the stated accumulation bound
        etas = w.eta_block(1, n + 1)
        direct = math.fsum(etas)
        assert abs(lhs - direct) <= 8 * EPS * n * etas[0]


def test_monotone_partial_sums():
    steps = StepSchedule("power_law", 0.5, 0.9)
    w = WeightSchedule("trapezoidal", steps)
    gs = [steps.big_gamma(n) for n in range(0, 2000)]
    hs = [w.big_h(n) for n in range(1, 2000)]
    assert all(b > a for a, b in zip(gs, gs[1:]))
    assert all(b > a for a, b in zip(hs, hs[1:]))


def test_gamma_decreasing_and_vanishing():
    s = StepSchedule("power_law", 2.0, 0.25)
    vals = [gamma(s, n) for n in range(1, 5000)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert gamma(s, 10**12) < 1e-2
    assert s.big_gamma(2_000_000) > s.big_gamma(1_000_000)


@pytest.mark.parametrize("xi", [0.1, 0.2, 0.3, 1.0 / 3.0, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
@pytest.mark.parametrize("q", [1, 2])
def test_ratio_trend_matches_regime_rule(xi, q):
    """sqrt(Gamma_n)/H_{gamma^{q+1},n} diverges iff xi > 1/(2q+1), vanishes
    iff xi < 1/(2q+1), and stays bounded at the boundary: checked through
    the fitted log-log slope on n in [1e3, 1e7] with a dead zone absorbing
    finite-size constants."""
    steps = StepSchedule("power_law", 1.0, xi)
    ns = np.logspace(3, 7, 9)
    r = np.array([math.sqrt(steps.big_gamma(int(n))) / power_h(steps, q + 1, int(n)) for n in ns])
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
    assert power_h(steps, 1.0, 100) == pytest.approx(steps.big_gamma(100), rel=1e-14)


def test_power_h_is_the_order_clock_of_constant_steps():
    steps = StepSchedule("constant", 0.25)
    for q in (1, 2):
        assert power_h(steps, q + 1, 0) == 0.0
        assert power_h(steps, q + 1, 10**9) == 10**9 * 0.25 ** (q + 1)


@pytest.mark.parametrize("kind", ["power_law", "constant"])
def test_power_h_refuses_a_gamma1_whose_power_leaves_the_normal_floats(kind):
    # gamma1^r = 0.0 would divide by zero in the bias scale; a subnormal one
    # has lost its precision
    for gamma1, r in ((1e-200, 2), (1e-110, 3), (1e-105, 3)):
        with pytest.raises(ValueError, match=r"step\.gamma1"):
            power_h(StepSchedule(kind, gamma1, 0.25), r, 10)
    with pytest.raises(OverflowError):
        power_h(StepSchedule(kind, 1e200, 0.25), 2, 10)
    assert power_h(StepSchedule(kind, 1e-150, 0.25), 2, 1) == 1e-150 ** 2


def test_config_round_trip():
    steps = StepSchedule("power_law", 0.3, 0.25)
    w = WeightSchedule("trapezoidal", steps)
    cfg = ExperimentConfig.from_mapping({"step.kind": "power_law", "step.gamma1": repr(0.3),
                                         "step.xi": repr(0.25), "weight.kind": "trapezoidal",
                                         "weight.c": "1.0"})
    assert ExperimentConfig(**cfg.to_dict()) == cfg
    s2 = cfg.steps()
    w2 = cfg.weights(s2)
    assert gamma(s2, 17) == gamma(steps, 17)
    assert np.array_equal(w2.eta_block(1, 40), w.eta_block(1, 40))


def test_copies_agree():
    a = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    b = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    assert a.big_gamma(12_345) == b.big_gamma(12_345)


@settings(max_examples=25, deadline=None)
@given(xi=st.floats(0.05, 0.95), gamma1=st.floats(0.01, 10.0), n=st.integers(1, 3000))
def test_partial_sum_matches_fsum(xi, gamma1, n):
    steps = StepSchedule("power_law", gamma1, xi)
    direct = math.fsum(gamma(steps, k) for k in range(1, n + 1))
    assert steps.big_gamma(n) == pytest.approx(direct, rel=1e-13)


# (xi, r) pairs put s = xi * r below 1, near 1, at 1 and above 1
@pytest.mark.parametrize("n", [1023, 1024, 1025, 10**6])
@pytest.mark.parametrize("xi,r", [(0.1, 1.0), (1.0 / 3.0, 2.0), (0.6, 1.0),
                                  (0.5, 1.99998), (0.5, 2.0), (0.4, 3.0), (0.9, 3.0)])
def test_closed_form_partial_sums_match_fsum(xi, r, n):
    steps = StepSchedule("power_law", 0.7, xi)
    want_g = math.fsum(steps.gamma_block(1, n + 1))
    want_h = math.fsum(steps.gamma_block(1, n + 1) ** r)
    assert abs(steps.big_gamma(n) - want_g) <= 1e-13 * want_g
    assert abs(power_h(steps, r, n) - want_h) <= 1e-13 * want_h


def test_partial_sums_need_no_memory_in_n():
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    tracemalloc.start()
    try:
        steps.big_gamma(10**7)
        power_h(steps, 3, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
