"""Acceptance suite: desk-scale statistical surrogates of the limit theorems
plus exact structural checks.  Reference configuration throughout: the 1-d
Ornstein-Uhlenbeck model b(x) = -x, sigma = sqrt(2) with invariant law
N(0, 1), observable f = x^2 (so Af = 2 - 2x^2, |sigma' Df|^2 = 8x^2).
Criterion 9 puts the nonlinear double-well drift under the CLT.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import partitioned_batch
from ergostep.catalog import coordinate_monomial, ou1d
from ergostep.diagnostics import recursive_control_probe, weak_order_probe
from ergostep.empirical import WeightedEmpiricalMeasure, merge_statistics
from ergostep.harness import ExperimentConfig, classify_regime, ks_normality, run_clt_experiment, run_ergodic_experiment, run_rate_experiment
from ergostep.innovations import InnovationDist, assemble_w, gaussian_moment, joint_outcomes
from ergostep.model import LyapunovSpec, generator_observable
from ergostep.schedules import StepSchedule, WeightSchedule, power_h
from ergostep.schemes import simulate

MASTER_SEED = 20260809
# upper 1e-5 point of sqrt(R) times the Kolmogorov distance
KS_SQRT_R_1E5 = 2.4516
RATE_GRID = (10_000, 30_000, 100_000, 300_000, 1_000_000)

OU = ou1d(1.0, math.sqrt(2.0))
TP = InnovationDist("three_point", 1)


def check(num, desc: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def ergodic_run():
    cfg = ExperimentConfig(scheme="euler", weight_kind="proportional", gamma1=1.0,
                           xi=1.0 / 3.0, n_steps=100_000, replications=20,
                           seed=MASTER_SEED, checkpoints=(1000, 10_000, 100_000),
                           buffer_capacity=20_000)
    return run_ergodic_experiment(cfg, want_w1=True)


@pytest.fixture(scope="module")
def euler_clt():
    cfg = ExperimentConfig(scheme="euler", weight_kind="proportional", gamma1=1.0,
                           xi=1.0 / 3.0, n_steps=100_000, replications=200,
                           seed=MASTER_SEED, checkpoints=(100_000,))
    return run_clt_experiment(cfg)


@pytest.fixture(scope="module")
def talay_clt():
    cfg = ExperimentConfig(scheme="talay2", weight_kind="trapezoidal", gamma1=1.0,
                           xi=1.0 / 3.0, n_steps=100_000, replications=200,
                           seed=MASTER_SEED, checkpoints=(100_000,))
    return run_clt_experiment(cfg)


@pytest.fixture(scope="module")
def euler_rate():
    cfg = ExperimentConfig(scheme="euler", weight_kind="proportional", gamma1=1.0,
                           xi=1.0 / 3.0, n_steps=RATE_GRID[-1], replications=100,
                           seed=MASTER_SEED, checkpoints=RATE_GRID)
    return run_rate_experiment(cfg)


@pytest.fixture(scope="module")
def talay_rate():
    cfg = ExperimentConfig(scheme="talay2", weight_kind="trapezoidal", gamma1=1.0,
                           xi=0.2, n_steps=RATE_GRID[-1], replications=100,
                           seed=MASTER_SEED, checkpoints=RATE_GRID)
    return run_rate_experiment(cfg)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_ergodic_average(ergodic_run):
    mean = ergodic_run.mean_values[100_000]
    check(1, "Euler ergodic average nu_n(x^2) within 1 +- 0.05 at n = 1e5",
          abs(mean - 1.0) <= 0.05, f"mean={mean:.4f}")


def test_criterion_2_wasserstein_decay(ergodic_run):
    w = [ergodic_run.mean_w1[c] for c in (1000, 10_000, 100_000)]
    decreasing = w[0] > w[1] > w[2]
    check(2, "W1(nu_n, N(0,1)) decreasing over n in {1e3,1e4,1e5} and < 0.05 at 1e5",
          decreasing and w[2] < 0.05,
          "w1=" + ", ".join(f"{v:.4f}" for v in w))


def test_criterion_3_first_order_clt(euler_clt):
    n = 100_000
    stats = euler_clt.statistics[n]
    var = merge_statistics(stats).variance

    # regime-B mean hypothesis: nu(M1 f) = -1 with the finite-n ratio
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    shift = -1.0 * power_h(steps, 2, n) / math.sqrt(steps.big_gamma(n))
    assert euler_clt.predicted_shift[n] == pytest.approx(shift, rel=1e-9)
    assert euler_clt.predicted_variance == pytest.approx(8.0, rel=1e-9)
    d, ks_ok = ks_normality(stats, variance=8.0, mean=shift)

    check(3, "Euler CLT: var(sqrt(Gamma_n) nu_n(Af)) in [6.4, 9.6] and KS passes at 1%",
          6.4 <= var <= 9.6 and ks_ok,
          f"var={var:.3f} shift={shift:.4f} ks={d:.4f}")


def test_criterion_4_second_order_centering(talay_clt):
    n = 100_000
    assert talay_clt.regime == "A_centered"
    stats = talay_clt.statistics[n]
    s = merge_statistics(stats)
    d, ks_ok = ks_normality(stats, variance=8.0, mean=0.0)
    check(4, "Talay second-order CLT centered: |mean| <= 3 SE and KS vs N(0,8) passes",
          abs(s.mean) <= 3.0 * s.mean_se and ks_ok,
          f"mean={s.mean:.4f} 3SE={3 * s.mean_se:.4f} ks={d:.4f}")


def test_criterion_5_rate_exponents(euler_rate, talay_rate):
    ok_e = abs(euler_rate.slope - (-1.0 / 3.0)) <= 0.12
    ok_t = abs(talay_rate.slope - (-0.4)) <= 0.12
    check(5, "RMS-error slopes: Euler xi=1/3 within -1/3 +- 0.12, "
             "Talay xi=1/5 trapezoidal within -2/5 +- 0.12",
          ok_e and ok_t,
          f"euler={euler_rate.slope:.4f} talay={talay_rate.slope:.4f}")


def test_criterion_6_weak_order_probe():
    f = coordinate_monomial((4,))
    x = np.array([1.0])
    gammas = [2.0**-6, 2.0**-7]
    euler = weak_order_probe("euler", OU, f, x, gammas, TP)
    talay = weak_order_probe("talay2", OU, f, x, gammas, TP)
    ok = 3.2 <= euler.ratios[0] <= 4.8 and 6.0 <= talay.ratios[0] <= 10.0
    check(6, "one-step error ratios err(2^-6)/err(2^-7): Euler in [3.2,4.8], "
             "weak-order-two in [6,10]",
          ok, f"euler={euler.ratios[0]:.3f} talay={talay.ratios[0]:.3f}")


def test_criterion_7_moment_matching():
    # independent coordinates make every tensor moment a product of these
    # per-coordinate moments, so they decide the tensor matching order
    rad = InnovationDist("rademacher", 1)
    tp_ok = (all(TP.moment(k) == gaussian_moment(k) for k in range(1, 6))
             and TP.matching_order == 5)
    rad_ok = (all(rad.moment(k) == gaussian_moment(k) for k in range(1, 4))
              and rad.moment(4) - gaussian_moment(4) == Fraction(-2)
              and rad.matching_order == 3)
    check(7, "three_point matches normal moments exactly through order 5; "
             "rademacher deviates by exactly -2 at order four",
          tp_ok and rad_ok)


def test_criterion_8a_trapezoidal_identity():
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    w = WeightSchedule("trapezoidal", steps)
    ok = all(
        w.big_h(n) == (steps.big_gamma(n) + steps.big_gamma(n - 1)) / 2.0
        for n in (1, 7, 1000, 250_000)
    )
    check("8a", "trapezoidal identity H_n = (Gamma_n + Gamma_{n-1}) / 2", ok)


def test_criterion_8b_weight_scale_invariance():
    rng = np.random.default_rng(MASTER_SEED)
    xs = rng.normal(size=300)
    etas = rng.random(300) + 0.05
    vals = []
    for scale in (1.0, 7.3):
        m = WeightedEmpiricalMeasure(fn=coordinate_monomial((2,)).fn)
        for v, e in zip(xs, etas):
            m.record(np.array([v]), scale * e)
        vals.append(m.value())
    check("8b", "scaling all weights leaves nu_n(f) unchanged to round-off",
          vals[1] == pytest.approx(vals[0], rel=1e-13))


def test_criterion_8c_surrogate_symmetry_and_centering():
    rad = InnovationDist("rademacher", 2)
    sym = True
    cent = np.zeros((2, 2))
    for u, kap, p in joint_outcomes(rad, with_kappa=True):
        w = assemble_w(u, kap)
        sym = sym and np.array_equal(w, w.T)
        cent += p * w
    check("8c", "surrogate matrix symmetric always and exactly centered "
                "under enumeration",
          sym and np.array_equal(cent, np.zeros((2, 2))))


def test_criterion_8d_seed_determinism():
    steps = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    w = WeightSchedule("proportional", steps)
    serial = []
    for r in range(8):
        meas = WeightedEmpiricalMeasure(weights=w, fn=coordinate_monomial((2,)).fn)
        s = simulate("talay2", OU, steps, TP, 3000, 0.0, rng_seed=MASTER_SEED,
                     sinks=[meas], replication=r)
        serial.append((s.x[0], meas.value()))
    run = ("talay2", OU, steps, TP, 3000, 0.0, MASTER_SEED)
    batch_x, batch_f = partitioned_batch(*run, [(0, 8)], w, coordinate_monomial((2,)).fn)
    same_x = np.array_equal(batch_x[:, 0], np.array([v for v, _ in serial]))
    same_f = np.array_equal(batch_f, np.array([v for _, v in serial]))
    parts_x, parts_f = partitioned_batch(*run, [(0, 3), (3, 8)], w, coordinate_monomial((2,)).fn)
    same_parts = parts_x.tobytes() == batch_x.tobytes() and parts_f.tobytes() == batch_f.tobytes()

    # the CLT statistic is its normalizer times the partitioned nu_n(Af)
    rep = run_clt_experiment(ExperimentConfig(scheme="euler", n_steps=2000, replications=8,
                                              seed=MASTER_SEED, checkpoints=(2000,)))
    _, af_parts = partitioned_batch("euler", OU, steps, TP, 2000, 0.0, MASTER_SEED,
                                    [(0, 3), (3, 8)], w, generator_observable(OU, coordinate_monomial((2,))).fn)
    same_stats = rep.statistics[2000].tobytes() == (rep.normalizers[2000] * af_parts).tobytes()
    check("8d", "serial, batched and partitioned runs agree bit-for-bit per replication",
          same_x and same_f and same_parts and same_stats)


def test_criterion_8e_regime_classifier_grid():
    ok = True
    for q in (1, 2):
        threshold = 1.0 / (2 * q + 1)
        for xi in (0.1, 0.2, 0.3, 1.0 / 3.0, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            regime = classify_regime(StepSchedule("power_law", 1.0, xi),
                                     "proportional", q).regime
            if abs(xi - threshold) <= 1e-9:
                ok = ok and regime == "B_mixed"
            elif xi > threshold:
                ok = ok and regime == "A_centered"
            else:
                ok = ok and regime == "C_bias"
    check("8e", "regime classifier agrees with the xi vs 1/(2q+1) rule on the grid", ok)


def test_criterion_8f_recursive_control_pass_and_fail():
    grid = np.linspace(-5.0, 5.0, 21)[:, None]
    good = recursive_control_probe("euler", OU, LyapunovSpec(alpha=2.0, beta=4.0),
                                   2.0**-8, TP, grid=grid)
    bad = recursive_control_probe("euler", OU, LyapunovSpec(alpha=10.0, beta=4.0),
                                  2.0**-8, TP, grid=grid)
    check("8f", "mean-reversion probe passes at (alpha=2, beta=4) and fails at alpha=10",
          good.verdict == "pass" and bad.verdict == "fail",
          f"worst_margin={float(np.min(good.margins)):.4f}")


@pytest.mark.parametrize("scheme,weight,xi", [("euler", "proportional", 1.0 / 3.0),
                                              ("talay2", "trapezoidal", 0.2)])
def test_criterion_9_double_well_clt(scheme, weight, xi):
    # regime B under b = x - x^3, where Mf is not trivial: the statistic is
    # judged against N(nu(M f) / l_hat_n, nu(Vf)) from the Gibbs quadrature
    n = 20_000
    cfg = ExperimentConfig(model_id="double_well", scheme=scheme, weight_kind=weight, gamma1=0.25,
                           xi=xi, n_steps=n, replications=100, seed=MASTER_SEED, checkpoints=(n,))
    rep = run_clt_experiment(cfg)
    assert rep.regime == "B_mixed"
    stats = rep.statistics[n]
    s = merge_statistics(stats)
    shift = rep.predicted_shift[n]
    d, _ = ks_normality(stats, variance=rep.predicted_variance, mean=shift)
    ks_scaled = math.sqrt(len(stats)) * d
    check(9, f"double-well {scheme} CLT: sqrt(R) KS < {KS_SQRT_R_1E5} against N(shift, nu(Vf)) "
             f"and |mean - shift| < 4 SE",
          ks_scaled < KS_SQRT_R_1E5 and abs(s.mean - shift) < 4.0 * s.mean_se,
          f"sqrtR*ks={ks_scaled:.3f} mean={s.mean:.4f} shift={shift:.4f} 4SE={4 * s.mean_se:.4f}")
