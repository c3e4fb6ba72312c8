from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from conftest import partitioned_batch
from ergostep import harness
from ergostep.harness import (
    CONFIG_KEYS,
    ConfigError,
    ErgodicReport,
    ExperimentConfig,
    RateReport,
    classify_regime,
    emit,
    fit_loglog,
    ks_normality,
    parse_config_text,
    run_clt_experiment,
    run_ergodic_experiment,
    run_rate_experiment,
)
from ergostep.catalog import ou1d
from ergostep.empirical import WeightedEmpiricalMeasure, wasserstein1_atoms
from ergostep.model import generator_observable, m1_euler, vf_operator
from ergostep.schedules import StepSchedule, order_weights
from ergostep.schemes import make_stepper, simulate, trajectory_generators


# ---------------------------------------------------------------------------
# config


def test_parse_config_text():
    cfg = parse_config_text("""
    # comment
    model.id = ou1d
    step.xi = 0.2       # trailing comment
    f = "x^2"
    checkpoints = 10,20
    """)
    assert cfg == {"model.id": "ou1d", "step.xi": "0.2", "f": "x^2",
                   "checkpoints": "10,20"}


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="stepkind"):
        ExperimentConfig.from_mapping({"stepkind": "power_law"})


def test_bad_value_reported():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"n_steps": "many"})


def test_config_keys_cover_the_fields():
    assert set(CONFIG_KEYS.values()) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert [k for k, name in CONFIG_KEYS.items() if name == "model_params"] == [
        "model.theta", "model.sigma", "model.dim"]


def test_config_values_parse_by_field_type():
    cfg = ExperimentConfig.from_mapping({
        "n_steps": "1e5", "seed": "20260809", "checkpoints": "1e3, 1e5,",
        "model.dim": "3", "step.xi": "0.2", "f": "x^3"})
    assert cfg.n_steps == 100_000 and isinstance(cfg.n_steps, int)
    assert cfg.seed == 20260809
    assert cfg.checkpoints == (1000, 100_000)
    assert cfg.model_params == {"dim": 3} and isinstance(cfg.model_params["dim"], int)
    assert cfg.xi == 0.2 and cfg.observable_name == "x^3"
    assert ExperimentConfig.from_mapping({}) == ExperimentConfig()
    with pytest.raises(ConfigError, match="n_steps"):
        ExperimentConfig.from_mapping({"n_steps": "2.5"})
    with pytest.raises(ConfigError, match="model.sigma"):
        ExperimentConfig.from_mapping({"model.sigma": "-inf"})


def test_builders():
    cfg = ExperimentConfig.from_mapping({
        "model.id": "ou1d", "model.theta": "2.0", "model.sigma": "1.0",
        "scheme": "talay2", "innovation": "three_point", "f": "x^4",
        "weight.kind": "trapezoidal",
    })
    model = cfg.model()
    assert model.dim == 1
    assert model.law.normal.variance == pytest.approx(0.25)
    assert cfg.observable(model).name == "x^4"
    assert cfg.scheme_order() == 2


# ---------------------------------------------------------------------------
# regime classification


@pytest.mark.parametrize("xi,q,expected", [
    (1.0 / 3.0, 1, "B_mixed"),
    (1.0 / 3.0, 2, "A_centered"),
    (0.2, 2, "B_mixed"),
    (0.5, 1, "A_centered"),
    (0.2, 1, "C_bias"),
])
def test_classify_regime_examples(xi, q, expected):
    st = StepSchedule("power_law", 1.0, xi)
    assert classify_regime(st, "proportional" if q == 1 else "trapezoidal", q).regime == expected


@pytest.mark.parametrize("xi", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
@pytest.mark.parametrize("q", [1, 2])
def test_classifier_agrees_with_analytic_rule(xi, q):
    st = StepSchedule("power_law", 1.0, xi)
    decision = classify_regime(st, "proportional", q)
    threshold = 1.0 / (2 * q + 1)
    if abs(xi - threshold) <= 1e-9:
        assert decision.regime == "B_mixed"
    elif xi > threshold:
        assert decision.regime == "A_centered"
    else:
        assert decision.regime == "C_bias"


def test_classifier_needs_power_law():
    with pytest.raises(ConfigError):
        classify_regime(StepSchedule("constant", 0.1), "proportional", 1)


# ---------------------------------------------------------------------------
# KS test


def test_ks_normality_self_test():
    rng, _ = trajectory_generators(17, 0)
    samples = 5.0 + math.sqrt(2.0) * rng.standard_normal(200)
    d, ok = ks_normality(samples, variance=2.0, mean=5.0)
    assert ok
    assert d < 1.628 / math.sqrt(200)


def test_ks_degenerate_samples_fail():
    d, ok = ks_normality(np.zeros(100), variance=1.0, mean=0.0)
    assert d == pytest.approx(0.5)
    assert not ok


def test_ks_gross_shift_fails():
    rng, _ = trajectory_generators(18, 0)
    samples = rng.standard_normal(200) + 5.0
    _, ok = ks_normality(samples, variance=1.0, mean=0.0)
    assert not ok


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_normality(np.zeros(100), variance=0.0)
    with pytest.raises(ValueError):
        ks_normality(np.zeros(10), variance=1.0)


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_loglog_two_points_exact():
    slope, _ = fit_loglog([(100, 1e-1), (10_000, 1e-2)])
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_loglog_ci_covers_noise():
    rng, _ = trajectory_generators(19, 0)
    ns = [10**k for k in range(2, 7)]
    pts = [(n, n**-0.4 * math.exp(0.01 * rng.standard_normal())) for n in ns]
    slope, (lo, hi) = fit_loglog(pts)
    assert lo <= -0.4 <= hi


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_fit_loglog_refuses_nonpositive_or_nonfinite_errors(bad):
    with pytest.raises(ValueError, match="n = 1000"):
        fit_loglog([(100, 1e-1), (1000, bad), (10_000, 1e-2)])


def test_rate_experiment_validation():
    cfg = ExperimentConfig(replications=10, checkpoints=(10, 20, 40))
    with pytest.raises(ConfigError, match="50"):
        run_rate_experiment(cfg)
    cfg = ExperimentConfig(replications=60, checkpoints=(10, 20))
    with pytest.raises(ConfigError, match="grid"):
        run_rate_experiment(cfg)


def test_rate_experiment_small_run():
    cfg = ExperimentConfig(scheme="euler", weight_kind="proportional", xi=1.0 / 3.0,
                           n_steps=8000, replications=50, seed=11,
                           checkpoints=(1000, 3000, 8000))
    rep = run_rate_experiment(cfg)
    assert len(rep.points) == 3
    assert rep.theoretical_exponent == pytest.approx(-1.0 / 3.0)
    assert rep.slope < -0.1  # decreasing errors on any healthy run


# ---------------------------------------------------------------------------
# CLT experiment


def test_clt_small_run_regimes_and_fields():
    cfg = ExperimentConfig(scheme="euler", n_steps=3000, replications=8, seed=2,
                           checkpoints=(1000, 3000))
    rep = run_clt_experiment(cfg)
    assert rep.regime == "B_mixed"
    assert rep.scheme_order == 1
    assert set(rep.statistics) == {1000, 3000}
    assert rep.statistics[3000].shape == (8,)
    assert rep.predicted_variance == pytest.approx(8.0, rel=1e-10)
    # finite-n shift: nu(M1 f) * H_aux / sqrt(Gamma)
    st = cfg.steps()
    from ergostep.schedules import order_weights

    aux = order_weights(st, 1)
    expected = -1.0 * aux.big_h(3000) / math.sqrt(st.big_gamma(3000))
    assert rep.predicted_shift[3000] == pytest.approx(expected, rel=1e-6)


def test_clt_thread_partition_is_bit_stable():
    # replications [0, 3) and [3, 8) in two batches give the bits of one batch of 8
    cfg = ExperimentConfig(scheme="talay2", weight_kind="trapezoidal", n_steps=2000,
                           replications=8, seed=5, checkpoints=(2000,))
    model = cfg.model()
    af = generator_observable(model, cfg.observable(model))
    run = (cfg.scheme, model, cfg.steps(), cfg.innovation(model), cfg.n_steps, cfg.x0, cfg.seed)
    whole = partitioned_batch(*run, [(0, 8)], cfg.weights(), af.fn)
    parts = partitioned_batch(*run, [(0, 3), (3, 8)], cfg.weights(), af.fn)
    assert parts[0].tobytes() == whole[0].tobytes()
    assert parts[1].tobytes() == whole[1].tobytes()


def test_clt_zero_diffusion_degenerates():
    cfg = ExperimentConfig(model_params={"sigma": 0.0}, scheme="euler",
                           n_steps=400, replications=4, seed=1, checkpoints=(400,))
    rep = run_clt_experiment(cfg)
    vals = rep.statistics[400]
    assert np.all(vals == vals[0])
    assert rep.summaries[400].variance == 0.0
    assert rep.predicted_variance == 0.0


def test_clt_checkpoint_validation():
    cfg = ExperimentConfig(n_steps=100, replications=2, checkpoints=(50, 60))
    with pytest.raises(ConfigError):
        run_clt_experiment(cfg)


def test_clt_warns_on_low_matching_order():
    cfg = ExperimentConfig(scheme="talay2", weight_kind="trapezoidal",
                           innovation_kind="rademacher", n_steps=200,
                           replications=2, seed=0, checkpoints=(200,))
    with pytest.warns(UserWarning, match="order"):
        run_clt_experiment(cfg)


def test_clt_euler_requires_proportional_weights():
    cfg = ExperimentConfig(scheme="euler", weight_kind="trapezoidal",
                           n_steps=200, replications=2, checkpoints=(200,))
    with pytest.raises(ConfigError, match="order"):
        run_clt_experiment(cfg)


@pytest.mark.parametrize("scheme,weight,xi", [
    ("euler", "proportional", 1.0 / 3.0),
    ("euler", "proportional", 0.25),
    ("talay2", "trapezoidal", 0.2),
    ("talay2", "trapezoidal", 0.15),
])
def test_clt_gaussian_innovations_rejected_before_simulating(monkeypatch, scheme, weight, xi):
    # regimes B and C enumerate Mf over the innovation's finite support
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before rejecting the config")

    monkeypatch.setattr(harness, "simulate_batch", no_simulation)
    cfg = ExperimentConfig(scheme=scheme, weight_kind=weight, xi=xi, innovation_kind="gaussian",
                           n_steps=200, replications=2, checkpoints=(200,))
    with pytest.raises(ConfigError, match="finite support") as err:
        run_clt_experiment(cfg)
    assert "three_point" in str(err.value) and "rademacher" in str(err.value)


def test_clt_gaussian_innovations_run_in_regime_a():
    cfg = ExperimentConfig(innovation_kind="gaussian", xi=0.4, n_steps=200,
                           replications=2, checkpoints=(200,))
    assert run_clt_experiment(cfg).regime == "A_centered"


# ---------------------------------------------------------------------------
# ergodic / Wasserstein experiment


def test_ergodic_experiment_with_w1():
    cfg = ExperimentConfig(scheme="euler", n_steps=4000, replications=4, seed=9,
                           checkpoints=(1000, 4000), buffer_capacity=500)
    rep = run_ergodic_experiment(cfg, want_w1=True)
    assert set(rep.values) == {1000, 4000}
    assert rep.w1[4000].shape == (4,)
    assert rep.mean_w1[4000] < rep.mean_w1[1000]


def test_ergodic_w1_is_the_w1_of_each_serial_replication_buffer():
    cfg = ExperimentConfig(scheme="euler", n_steps=3000, replications=4, seed=13,
                           checkpoints=(1000, 3000), buffer_capacity=400)
    rep = run_ergodic_experiment(cfg, want_w1=True)
    model, steps = cfg.model(), cfg.steps()
    for r in range(cfg.replications):
        measure = WeightedEmpiricalMeasure(weights=cfg.weights(steps), buffer_capacity=cfg.buffer_capacity)
        simulate(cfg.scheme, model, steps, cfg.innovation(model), cfg.n_steps, [cfg.x0],
                 rng_seed=cfg.seed, sinks=[measure], replication=r)
        states, weights = measure.buffer()
        want = wasserstein1_atoms(states[:, 0], weights, model.law.normal)
        assert rep.w1[3000][r] == pytest.approx(want, rel=1e-12)


def test_ergodic_w1_needs_buffer():
    cfg = ExperimentConfig(n_steps=100, replications=2, buffer_capacity=0)
    with pytest.raises(ConfigError, match="buffer"):
        run_ergodic_experiment(cfg, want_w1=True)


# ---------------------------------------------------------------------------
# emission


def test_emit_clt_csv_row_count(tmp_path):
    cfg = ExperimentConfig(scheme="euler", n_steps=600, replications=3, seed=3,
                           checkpoints=(300, 600))
    rep = run_clt_experiment(cfg)
    path = tmp_path / "clt.csv"
    emit(rep, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "checkpoint_n,replication,statistic"
    assert len(lines) == 1 + 2 * 3


def test_emit_empty_points_header_only(tmp_path):
    rep = RateReport(points=[], slope=float("nan"), slope_ci=(0.0, 0.0),
                     theoretical_exponent=-0.5, excluded=[], config={})
    path = tmp_path / "rate.csv"
    emit(rep, "csv", path)
    assert path.read_text().strip() == "n,rms_error"


def test_emit_json_round_trip(tmp_path):
    cfg = ExperimentConfig(scheme="euler", n_steps=500, replications=3, seed=4,
                           checkpoints=(500,))
    rep = run_clt_experiment(cfg)
    path = tmp_path / "clt.json"
    emit(rep, "json", path)
    payload = json.loads(path.read_text())
    got = np.array(payload["statistics"]["500"])
    assert np.array_equal(got, rep.statistics[500])
    assert payload["predicted_variance"] == rep.predicted_variance


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit(None, "xml", "out.xml")


def test_burn_in_matches_offline_slice():
    import math as _math

    from ergostep.catalog import ou1d
    from ergostep.innovations import InnovationDist
    from ergostep.schemes import simulate

    base = dict(scheme="euler", n_steps=2000, replications=1, seed=13,
                checkpoints=(2000,))
    burned = run_ergodic_experiment(ExperimentConfig(**base, burn_in=500), want_w1=False)

    # offline oracle: log the trajectory, slice off the first 500 states
    logged = []

    class Log:
        def observe_block(self, k0, states):
            logged.append(states[:, 0].copy())

    cfg = ExperimentConfig(**base)
    simulate("euler", ou1d(1.0, _math.sqrt(2.0)), cfg.steps(),
             InnovationDist("three_point", 1), 2000, 0.0, rng_seed=13, sinks=[Log()])
    xs = np.concatenate(logged)
    etas = cfg.weights().eta_block(1, 2001)
    offline = float(np.sum(etas[500:] * xs[500:] ** 2) / np.sum(etas[500:]))
    assert burned.values[2000][0] == pytest.approx(offline, rel=1e-12)


def test_clt_burn_in_statistic_sums_past_burn_in():
    from ergostep.model import generator_observable
    from ergostep.schedules import order_weights
    from ergostep.schemes import simulate

    b, n = 500, 2000
    cfg = ExperimentConfig(scheme="euler", weight_c=2.5, n_steps=n, replications=3,
                           seed=17, checkpoints=(1000, n), burn_in=b)
    rep = run_clt_experiment(cfg)
    assert rep.regime == "B_mixed"

    # offline oracle from serial trajectories, summing over k in (b, n]
    model = cfg.model()
    af = generator_observable(model, cfg.observable(model))
    steps = cfg.steps()
    etas = cfg.weights().eta_block(1, n + 1)
    clock = math.fsum(steps.gamma(k) for k in range(b + 1, n + 1))
    aux = order_weights(steps, 1)
    aux_sum = math.fsum(aux.eta_block(b + 1, n + 1))
    class Log:
        def __init__(self):
            self.blocks = []

        def observe_block(self, k0, states):
            self.blocks.append(states.copy())

    for r in range(3):
        log = Log()
        simulate("euler", model, steps, cfg.innovation(model), n, 0.0,
                 rng_seed=17, sinks=[log], replication=r)
        xs = np.concatenate(log.blocks)
        total = math.fsum(etas[b:] * af.fn(xs[b:]))
        want = total / (2.5 * math.sqrt(clock))
        assert rep.statistics[n][r] == pytest.approx(want, rel=1e-12)
    assert rep.l_hat[n] == pytest.approx(math.sqrt(clock) / aux_sum, rel=1e-12)


def test_burn_in_checkpoint_validation():
    cfg = ExperimentConfig(n_steps=1000, replications=2, checkpoints=(100, 1000), burn_in=200)
    with pytest.raises(ConfigError, match="burn-in"):
        run_clt_experiment(cfg)


def test_ou_nd_from_config():
    cfg = ExperimentConfig.from_mapping({
        "model.id": "ou_nd", "model.dim": "2", "model.theta": "1.0",
        "model.sigma": "1.0", "f": "x1*x2",
    })
    model = cfg.model()
    assert model.dim == 2
    obs = cfg.observable(model)
    assert obs.fn(np.array([2.0, 3.0])) == 6.0


def test_finite_n_shift_approaches_asymptote():
    # l_hat_n = sqrt(Gamma_n)/H_{gamma^2,n} -> sqrt(3/2)/3 = 1/sqrt(6) at
    # xi = 1/3, so the regime-B shift -1/l_hat approaches -sqrt(6)
    from ergostep.schedules import order_weights

    st = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    aux = order_weights(st, 1)
    for n, tol in ((10**5, 0.02), (10**7, 0.005)):
        l_hat = math.sqrt(st.big_gamma(n)) / aux.big_h(n)
        assert -1.0 / l_hat == pytest.approx(-math.sqrt(6.0), rel=tol)


def test_report_rows_carry_original_replication_ids(tmp_path):
    rep = ErgodicReport(checkpoints=[10], values={10: np.array([1.0, 2.0, 3.0])},
                        mean_values={10: 2.0}, w1=None, mean_w1=None,
                        excluded=[(1, 4)], config={}, replication_ids=[0, 2, 3])
    rows = list(rep.rows())
    assert [r["replication"] for r in rows] == [0, 2, 3]
    emit(rep, "csv", tmp_path / "erg.csv")
    lines = (tmp_path / "erg.csv").read_text().strip().splitlines()
    assert lines[1].startswith("10,0,") and lines[3].startswith("10,3,")


def test_statistic_normalizer_identities():
    # proportional weights: H_n / (C sqrt(H_gamma,n)) == sqrt(Gamma_n)
    st = StepSchedule("power_law", 1.0, 1.0 / 3.0)
    from ergostep.schedules import WeightSchedule

    clock = WeightSchedule("power", st, r=1.0)
    prop = WeightSchedule("proportional", st, c=2.2)
    trap = WeightSchedule("trapezoidal", st, c=2.2)
    ratio_prev = 0.0
    for n in (10, 1000, 100_000):
        root_gamma = math.sqrt(st.big_gamma(n))
        norm_prop = prop.big_h(n) / (2.2 * math.sqrt(clock.big_h(n)))
        assert norm_prop == pytest.approx(root_gamma, rel=1e-12)
        norm_trap = trap.big_h(n) / (2.2 * math.sqrt(clock.big_h(n)))
        expected = (st.big_gamma(n) + st.big_gamma(n - 1)) / (2.0 * root_gamma)
        assert norm_trap == pytest.approx(expected, rel=1e-12)
        ratio = norm_trap / root_gamma
        assert ratio < 1.0
        assert ratio > ratio_prev  # the factor increases towards 1
        ratio_prev = ratio


def test_clt_regime_c_normalization():
    cfg = ExperimentConfig(scheme="euler", xi=0.2, n_steps=1500, replications=4,
                           seed=6, checkpoints=(1500,))
    with pytest.warns(UserWarning, match="regime C at xi"):
        rep = run_clt_experiment(cfg)
    assert rep.regime == "C_bias"
    st = cfg.steps()
    from ergostep.schedules import order_weights

    aux = order_weights(st, 1)
    expected = st.big_gamma(1500) / aux.big_h(1500)  # H_n/(C H_aux) with C=1, eta=gamma
    assert rep.normalizers[1500] == pytest.approx(expected, rel=1e-12)
    # the limit of the regime-C statistic is nu(M1 f) = -1 for the reference model
    assert rep.predicted_shift[1500] == pytest.approx(-1.0, rel=1e-9)


def test_clt_regime_c_ks_tests_the_shrinking_spread():
    # the regime-C statistic is about nu(Mf) + l_hat_n N(0, nu(Vf)); with
    # gamma1 = 1/2 the O(gamma_n) next-order bias, which the limit law
    # leaves out, is small against that spread (their ratio scales like
    # gamma1^{5/2})
    n = 20_000
    cfg = ExperimentConfig(scheme="euler", xi=0.25, gamma1=0.5, n_steps=n, replications=100,
                           seed=0, checkpoints=(n,))
    rep = run_clt_experiment(cfg)
    assert rep.regime == "C_bias"
    assert rep.predicted_variance == pytest.approx(8.0, rel=1e-10)
    assert rep.l_hat[n] ** 2 * 8.0 < 2.0
    d, ok = rep.ks[n]
    assert ok, d
    assert (d, ok) == ks_normality(rep.statistics[n], rep.l_hat[n] ** 2 * rep.predicted_variance,
                                   rep.predicted_shift[n])


@pytest.mark.parametrize("xi,warns", [(0.2, True), (0.25, False)])
def test_clt_regime_c_warns_when_the_next_bias_term_is_not_small(xi, warns):
    # Euler (q = 1): the next bias term ~ n^-xi outgrows l_hat_n once xi <= 1/5
    cfg = ExperimentConfig(scheme="euler", xi=xi, n_steps=200, replications=2, checkpoints=(200,))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run_clt_experiment(cfg)
    assert rep.regime == "C_bias"
    assert [w.category for w in caught] == ([UserWarning] if warns else [])
    if warns:
        assert "xi = 0.2" in str(caught[0].message) and "1/5" in str(caught[0].message)


# ---------------------------------------------------------------------------
# decreasing-step exact oracle: the 1-d OU (theta = 1, sigma = sqrt 2) and x^2


def _ou_affine_kernel(scheme, gamma):
    """(a, c) of the OU kernel x -> a x + c u of ``scheme`` at step gamma."""
    if scheme == "euler":
        return 1.0 - gamma, np.sqrt(2.0 * gamma)
    return 1.0 - gamma + gamma * gamma / 2.0, math.sqrt(2.0) * (np.sqrt(gamma) - gamma**1.5 / 2.0)


def _exact_mean_statistic(cfg, ns):
    """E[statistic] at each n of ``ns`` from x0 = 0: E X_k^2 = a_k^2 E X_{k-1}^2
    + c_k^2, and Af = 2 - 2x^2, so E[statistic] = sum_{k<=n} eta_k (2 - 2 E
    X_{k-1}^2) / (C sqrt(Gamma_n))."""
    steps = cfg.steps()
    n = max(ns)
    a, c = _ou_affine_kernel(cfg.scheme, steps.gamma_block(1, n + 1))
    moments, m = [], 0.0
    for a2, c2 in zip((a * a).tolist(), (c * c).tolist()):
        moments.append(m)
        m = a2 * m + c2
    sums = np.cumsum(cfg.weights(steps).eta_block(1, n + 1) * (2.0 - 2.0 * np.array(moments)))
    return [sums[k - 1] / (cfg.weight_c * math.sqrt(steps.big_gamma(k))) for k in ns]


def _regime_b_shift(cfg, nu_m, n):
    """predicted_shift in regime B, nu(Mf) / l_hat_n."""
    steps = cfg.steps()
    return nu_m * order_weights(steps, cfg.scheme_order()).big_h(n) / math.sqrt(steps.big_gamma(n))


@pytest.mark.parametrize("scheme", ["euler", "talay2"])
def test_ou_kernel_is_the_affine_map_of_the_exact_oracle(scheme):
    step = make_stepper(scheme, ou1d())
    xs = np.array([[-1.3], [0.0], [0.4], [2.5]])
    us = np.array([[1.7], [-1.7], [0.0], [1.0]])
    for gamma in (0.5, 0.01, 2.0**-9):
        a, c = _ou_affine_kernel(scheme, gamma)
        assert step(xs, gamma, us, None) == pytest.approx(a * xs + c * us, rel=1e-13, abs=1e-13)


def test_regime_b_shift_against_the_exact_decreasing_step_mean():
    # nu(Mf) = 1/2 for talay2 and -1 for Euler; each run's predicted shift
    # at n = 1e3 ties them to the harness
    ns = (10**3, 10**4, 10**5)
    talay = ExperimentConfig(scheme="talay2", weight_kind="trapezoidal", xi=0.2,
                             n_steps=10**3, replications=200, checkpoints=(10**3,))
    euler = ExperimentConfig(scheme="euler", weight_kind="proportional", xi=1.0 / 3.0,
                             n_steps=10**3, replications=2, checkpoints=(10**3,))
    rep = run_clt_experiment(talay)
    assert rep.regime == "B_mixed"
    assert rep.predicted_shift[10**3] == pytest.approx(_regime_b_shift(talay, 0.5, 10**3), rel=1e-12)
    exact = _exact_mean_statistic(talay, ns)
    stats = rep.statistics[10**3]
    assert exact[0] == pytest.approx(1.3467, abs=1e-4)
    assert abs(stats.mean() - exact[0]) <= 4.0 * stats.std(ddof=1) / math.sqrt(len(stats))

    gaps = [abs(e / _regime_b_shift(talay, 0.5, n) - 1.0) for e, n in zip(exact, ns)]
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.11, gaps
    rep = run_clt_experiment(euler)
    assert rep.predicted_shift[10**3] == pytest.approx(_regime_b_shift(euler, -1.0, 10**3), rel=1e-12)
    exact = _exact_mean_statistic(euler, ns)
    assert abs(exact[2] / _regime_b_shift(euler, -1.0, 10**5) - 1.0) < 0.04


def test_known_law_takes_nu_mf_from_quadrature_alone(tmp_path):
    # ou1d has a known law: no per-state Mf, and the shift is nu(Mf) / l_hat
    for cfg, nu_m in ((ExperimentConfig(scheme="euler", xi=1.0 / 3.0, n_steps=2000, replications=4,
                                        checkpoints=(2000,)), -1.0),
                      (ExperimentConfig(scheme="talay2", weight_kind="trapezoidal", xi=0.2,
                                        n_steps=2000, replications=4, checkpoints=(2000,)), 0.5)):
        rep = run_clt_experiment(cfg)
        assert rep.regime == "B_mixed"
        assert rep.predicted_shift[2000] == pytest.approx(_regime_b_shift(cfg, nu_m, 2000), rel=1e-12)


@pytest.mark.parametrize("mapping", [
    {"model.id": "ou_nd", "model.dim": "2", "f": "x1^2"},
    {"model.id": "double_well", "step.gamma1": "0.25"},
], ids=["ou_nd", "double_well"])
def test_shift_is_the_quadrature_nu_mf_over_l_hat(mapping, monkeypatch):
    shapes = []

    def m1(model, f, xs, innovation):
        shapes.append(np.shape(xs))
        return m1_euler(model, f, xs, innovation)

    monkeypatch.setattr(harness, "m1_euler", m1)
    cfg = ExperimentConfig.from_mapping({**mapping, "scheme": "euler", "step.xi": "0.3333333333333333",
                                         "n_steps": "2000", "replications": "4",
                                         "checkpoints": "2000"})
    rep = run_clt_experiment(cfg)
    assert rep.regime == "B_mixed"
    # Mf sees only the rule's nodes, never a tile of states
    model = cfg.model()
    nodes = model.law.rule()[0]
    assert shapes == [nodes.shape]
    nu_m = model.law.expect(lambda xs: m1_euler(model, cfg.observable(model), xs, cfg.innovation(model)))
    assert rep.predicted_shift[2000] == nu_m / rep.l_hat[2000]


@pytest.mark.parametrize("model_id", ["ou1d", "double_well"])
def test_clt_measures_keep_no_buffer(model_id, monkeypatch):
    # the CLT statistics read only the measures' values, so a buffer
    # capacity in the config must not make them store states
    built = []

    class Spy(WeightedEmpiricalMeasure):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(harness, "WeightedEmpiricalMeasure", Spy)
    cfg = ExperimentConfig.from_mapping({"model.id": model_id, "scheme": "euler", "step.gamma1": "0.25",
                                         "n_steps": "500", "replications": "2", "checkpoints": "500",
                                         "buffer_capacity": "100"})
    run_clt_experiment(cfg)
    assert built
    for measure in built:
        with pytest.raises(ValueError, match="empty or disabled"):
            measure.buffer()


@pytest.mark.parametrize("mapping", [
    {"model.id": "ou1d"},
    {"model.id": "ou_nd", "model.dim": "2", "f": "x1^2"},
    {"model.id": "double_well", "step.gamma1": "0.25"},
], ids=["ou1d", "ou_nd", "double_well"])
def test_known_law_evaluates_no_vf_per_state(mapping, monkeypatch, tmp_path):
    shapes = []

    def vf(model, f, xs):
        shapes.append(np.shape(xs))
        return vf_operator(model, f, xs)

    monkeypatch.setattr(harness, "vf_operator", vf)
    cfg = ExperimentConfig.from_mapping({**mapping, "scheme": "euler", "step.xi": "0.3333333333333333",
                                         "n_steps": "2000", "replications": "4",
                                         "checkpoints": "2000"})
    rep = run_clt_experiment(cfg)
    # nu(Vf) by quadrature: Vf sees the rule's nodes (64 Gauss-Hermite nodes
    # for ou1d, 6 x 6 for ou_nd, 256 Gauss-Legendre nodes for double_well),
    # never a tile of states
    assert shapes == [{"ou1d": (64, 1), "ou_nd": (36, 2), "double_well": (256, 1)}[mapping["model.id"]]]
    want = {"ou1d": 8.0, "ou_nd": 8.0, "double_well": 8.334378371897248}[mapping["model.id"]]
    assert rep.predicted_variance == pytest.approx(want, rel=1e-12)
    emit(rep, "json", tmp_path / "clt.json")
    assert "ergodic_variance" not in json.loads((tmp_path / "clt.json").read_text())


def test_ks_distance_matches_scipy():
    from scipy import stats

    rng, _ = trajectory_generators(23, 0)
    samples = 1.5 + 2.0 * rng.standard_normal(173)
    d, _ = ks_normality(samples, variance=4.0, mean=1.5)
    ref = stats.kstest(samples, "norm", args=(1.5, 2.0)).statistic
    assert d == pytest.approx(ref, abs=1e-12)
