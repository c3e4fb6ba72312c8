from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import linear_combination, poly1d_model
from ergostep.catalog import (
    coordinate_monomial,
    double_well,
    model_from_config,
    monomial1d,
    ou1d,
    ou_nd,
    quadratic_lyapunov,
)
from ergostep.diagnostics import (
    default_grid,
    moment_match_report,
    recursive_control_probe,
    weak_order_probe,
)
from ergostep.harness import emit
from ergostep.innovations import InnovationDist, joint_outcomes
from ergostep.model import generator_apply, generator_observable
from ergostep.schemes import DivergenceError, make_stepper

OU = ou1d(1.0, math.sqrt(2.0))
OU_ND2 = model_from_config({"model.id": "ou_nd", "model.dim": 2})
TP = InnovationDist("three_point", 1)
GRID = np.linspace(-5.0, 5.0, 21)[:, None]


# ---------------------------------------------------------------------------
# recursive control


def test_recursive_control_ou_passes():
    lyap = quadratic_lyapunov(alpha=2.0, beta=4.0)
    report = recursive_control_probe("euler", OU, lyap, gamma=2.0**-8, grid=GRID)
    assert report.verdict == "pass"
    assert np.all(report.margins >= -0.1)
    assert report.metadata["lambda_p_is_grid_max_not_supremum"] is True
    assert report.metadata["lambda_p_grid_max"] == pytest.approx(2.0, rel=1e-12)


def test_recursive_control_talay_passes():
    lyap = quadratic_lyapunov(alpha=2.0, beta=4.0)
    report = recursive_control_probe("talay2", OU, lyap, gamma=2.0**-8, grid=GRID)
    assert report.verdict == "pass"


def test_recursive_control_overtight_alpha_fails():
    lyap = quadratic_lyapunov(alpha=10.0, beta=4.0)
    report = recursive_control_probe("euler", OU, lyap, gamma=2.0**-8, grid=GRID)
    assert report.verdict == "fail"
    assert abs(report.worst_point[0]) >= 2.0


def test_recursive_control_frozen_dynamics(zero_model):
    lyap = quadratic_lyapunov(alpha=1.0, beta=10.0)
    report = recursive_control_probe("euler", zero_model, lyap, gamma=0.1, grid=GRID)
    v = 1.0 + GRID[:, 0] ** 2
    rhs = 10.0 - 1.0 * v
    assert np.allclose(report.margins, rhs, rtol=0, atol=1e-12)


def test_recursive_control_divergence_raises():
    cubic = poly1d_model([0.0, 0.0, 0.0, 1.0], [0.0])  # b = x^3 overflows at 1e120
    with pytest.raises(DivergenceError):
        recursive_control_probe("euler", cubic, quadratic_lyapunov(alpha=2.0, beta=4.0),
                                gamma=0.1, grid=np.array([[1e120]]))


def test_recursive_control_report_json(tmp_path):
    lyap = quadratic_lyapunov(alpha=2.0, beta=4.0)
    report = recursive_control_probe("euler", OU, lyap, gamma=2.0**-6, grid=GRID)
    path = tmp_path / "probe.json"
    emit(report, "json", path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"grid", "margins", "verdict", "worst_point", "metadata"}
    assert len(payload["margins"]) == len(GRID)


def test_default_grid_shapes():
    assert default_grid(1).shape == (21, 1)
    assert default_grid(2).shape == (441, 2)
    assert default_grid(3).shape == (200, 3)
    assert np.array_equal(default_grid(3), default_grid(3))


# ---------------------------------------------------------------------------
# moment matching


def test_three_point_matches_through_five():
    report = moment_match_report(InnovationDist("three_point", 1), 5)
    for q in range(1, 6):
        assert report.max_abs_deviation(q) == 0
    assert report.matched_through() == 5


def test_rademacher_deviates_at_four():
    report = moment_match_report(InnovationDist("rademacher", 1), 4)
    for q in range(1, 4):
        assert report.max_abs_deviation(q) == 0
    assert report.deviations[4][(0, 0, 0, 0)] == Fraction(-2)
    assert abs(report.deviations[4][(0, 0, 0, 0)]) == 2


def test_gaussian_matches_everything():
    report = moment_match_report(InnovationDist("gaussian", 2), 6)
    for q in range(1, 7):
        assert report.max_abs_deviation(q) == 0


def test_mixed_indices_multidimensional():
    report = moment_match_report(InnovationDist("rademacher", 2), 4)
    # E[u1^2 u2^2] = 1 matches the normal's product moment
    assert report.deviations[4][(0, 0, 1, 1)] == 0
    assert report.deviations[4][(0, 0, 0, 0)] == Fraction(-2)
    assert report.deviations[4][(1, 1, 1, 1)] == Fraction(-2)


def test_three_point_sixth_order_gap():
    report = moment_match_report(InnovationDist("three_point", 1), 6)
    assert report.deviations[6][(0,) * 6] == Fraction(9 - 15)
    assert report.matched_through() == 5


# ---------------------------------------------------------------------------
# weak order probe


def test_weak_order_euler_ratio():
    res = weak_order_probe("euler", OU, monomial1d(4), np.array([1.0]),
                           [2.0**-6, 2.0**-7], TP)
    assert 3.2 <= res.ratios[0] <= 4.8


def test_weak_order_talay_ratio():
    res = weak_order_probe("talay2", OU, monomial1d(4), np.array([1.0]),
                           [2.0**-6, 2.0**-7], TP)
    assert 6.0 <= res.ratios[0] <= 10.0


def test_weak_order_linear_observable_exact_euler():
    # E[X_gamma] = x + gamma b matches the linear target up to rounding
    f = monomial1d(1)
    res = weak_order_probe("euler", OU, f, np.array([0.7]), [2.0**-4, 2.0**-5], TP)
    assert all(abs(e) <= 1e-15 for e in res.errors)


def test_weak_order_zero_function():
    zero = linear_combination([0.0], [monomial1d(4)])
    res = weak_order_probe("euler", OU, zero, np.array([1.0]), [2.0**-4], TP)
    assert res.errors == (0.0,)


def test_weak_order_ratio_over_a_zero_error_is_none():
    # at x = 1 the double well's drift vanishes, so Euler is exact on x^2
    res = weak_order_probe("euler", double_well(), monomial1d(2), np.array([1.0]),
                           [2.0**-6, 2.0**-7], TP)
    assert res.errors == (0.0, 0.0)
    assert res.ratios == (None,)


def test_weak_order_needs_finite_support():
    with pytest.raises(ValueError):
        weak_order_probe("euler", OU, monomial1d(4), np.array([1.0]),
                         [0.1], InnovationDist("gaussian", 1))


def test_weak_order_rejects_nonpositive_gamma():
    for scheme in ("euler", "talay2"):
        for gamma in (0.0, -0.1):
            with pytest.raises(ValueError):
                weak_order_probe(scheme, OU, monomial1d(4), np.array([0.0]), [gamma], TP)


def test_weak_order_divergence_raises():
    cubic = poly1d_model([0.0, 0.0, 0.0, 1.0], [0.0])
    with pytest.raises(DivergenceError):
        weak_order_probe("euler", cubic, monomial1d(4), np.array([1e120]), [0.1], TP)


@pytest.mark.parametrize("scheme", ["euler", "talay2"])
@pytest.mark.parametrize("model,x0", [(OU, [0.5]), (OU_ND2, [0.5, -0.4])], ids=["ou1d", "ou_nd2"])
def test_probe_one_step_mean_is_driver_kernel_mean(model, x0, scheme):
    # The probe reports mean - target; mean and target agree to within a
    # factor two, so the subtraction is exact and equal errors mean equal
    # one-step means.  With g = x_i, the probe's mean must be the driver
    # kernel's enumerated mean bit for bit (1-d talay2 at x = 0.5,
    # gamma = 2^-6 once differed in the last bit).
    gamma = 2.0**-6
    x0 = np.array(x0)
    inn = InnovationDist("three_point", model.noise_dim)
    step = make_stepper(scheme, model)
    mean = 0.0
    for u, kap, p in joint_outcomes(inn, with_kappa=scheme == "talay2"):
        mean = mean + p * step(x0, gamma, u, kap)
    for i in range(model.dim):
        f = coordinate_monomial(np.eye(model.dim, dtype=int)[i])
        target = f.fn(x0) + gamma * generator_apply(model, f, x0)
        if scheme == "talay2":
            target = target + 0.5 * gamma * gamma * generator_apply(
                model, generator_observable(model, f), x0)
        res = weak_order_probe(scheme, model, f, x0, [gamma], inn)
        assert res.errors[0] == float(mean[i] - target)


def test_weak_order_deterministic(tmp_path):
    a = weak_order_probe("talay2", OU, monomial1d(4), np.array([1.0]), [2.0**-6, 2.0**-7], TP)
    b = weak_order_probe("talay2", OU, monomial1d(4), np.array([1.0]), [2.0**-6, 2.0**-7], TP)
    emit(a, "json", tmp_path / "a.json")
    emit(b, "json", tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_weak_order_state_dependent_diffusion_talay():
    # sigma(x) = 1 + x^2/4: exercises the surrogate and coupling increments
    m = poly1d_model([0.2, -1.0], [1.0, 0.0, 0.25])
    res = weak_order_probe("talay2", m, monomial1d(4), np.array([0.8]),
                           [2.0**-8, 2.0**-9], TP)
    assert 6.0 <= res.ratios[0] <= 10.0


def test_recursive_control_double_well():
    m = double_well(math.sqrt(2.0))
    good = recursive_control_probe("euler", m, quadratic_lyapunov(alpha=0.5, beta=4.0),
                                   gamma=2.0**-8, grid=GRID)
    assert good.verdict == "pass"


# ---------------------------------------------------------------------------
# the catalog's Lyapunov constants


CATALOG_MODELS = [ou1d(th, sg) for th in (0.05, 0.25, 0.5, 1.0, 5.0, 30.0)
                  for sg in (0.0, 0.3, math.sqrt(2.0), 3.0)]
CATALOG_MODELS += [double_well(sg) for sg in (0.0, 0.5, math.sqrt(2.0), 3.0)]
CATALOG_MODELS += [OU_ND2, model_from_config({"model.id": "ou_nd", "model.dim": 3, "model.theta": 0.5}),
                   ou_nd([[1.0, 0.5], [-0.5, 2.0]], [[1.0, 0.2], [0.0, 0.7]])]


@pytest.mark.parametrize("scheme", ["euler", "talay2"])
def test_catalog_lyapunov_constants_hold_at_the_cli_probe_step(scheme):
    # the constants each constructor sets hold with no slack to spare: the
    # default probe grid, at the step the probe subcommand uses
    for m in CATALOG_MODELS:
        report = recursive_control_probe(scheme, m, m.lyapunov, gamma=2.0**-6)
        assert report.verdict == "pass", m.name
        assert report.margins.min() >= -1e-8, m.name


def test_ou_lyapunov_constants_and_law():
    m = ou1d(2.5, 0.7)
    assert (m.lyapunov.alpha, m.lyapunov.beta) == (2.5, 2.5 + 0.7**2)
    assert m.law.mean == 0.0 and m.law.variance == pytest.approx(0.7**2 / 5.0, rel=1e-15)
    nd = ou_nd(np.diag([0.5, 2.0]), np.eye(2))
    assert (nd.lyapunov.alpha, nd.lyapunov.beta) == (0.5, 2.5)
    assert nd.law is None and double_well().law is None


@pytest.mark.parametrize("theta", [0.0, -1.0])
def test_nonpositive_theta_is_refused(theta):
    with pytest.raises(ValueError, match="model.theta"):
        ou1d(theta)
    with pytest.raises(ValueError, match="model.theta"):
        model_from_config({"model.id": "ou_nd", "model.theta": theta})


def test_ou_nd_without_mean_reversion_has_no_lyapunov_constants():
    assert ou_nd([[1.0, 0.0], [0.0, -0.5]], np.eye(2)).lyapunov is None
    # a rotation has no symmetric part: AV = tr(sigma sigma^T) > 0
    assert ou_nd([[0.0, 1.0], [-1.0, 0.0]], np.eye(2)).lyapunov is None
