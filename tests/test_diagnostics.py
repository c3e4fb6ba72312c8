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
    ou1d,
    ou_nd,
)
from ergostep.diagnostics import default_grid, recursive_control_probe, weak_order_probe
from ergostep.harness import emit
from ergostep.innovations import InnovationDist, gaussian_moment, joint_outcomes
from ergostep.model import LyapunovSpec, generator_apply, generator_observable
from ergostep.schemes import DivergenceError, make_stepper

OU = ou1d(1.0, math.sqrt(2.0))
OU_ND2 = model_from_config({"model.id": "ou_nd", "model.dim": 2})
TP = InnovationDist("three_point", 1)
GRID = np.linspace(-5.0, 5.0, 21)[:, None]


# ---------------------------------------------------------------------------
# recursive control


def test_recursive_control_ou_passes():
    lyap = LyapunovSpec(alpha=2.0, beta=4.0)
    report = recursive_control_probe("euler", OU, lyap, 2.0**-8, TP, grid=GRID)
    assert report.verdict == "pass"
    assert np.all(report.margins >= -0.1)
    assert set(report.metadata) == {"gamma", "scheme", "alpha", "beta"}


def test_recursive_control_talay_passes():
    lyap = LyapunovSpec(alpha=2.0, beta=4.0)
    report = recursive_control_probe("talay2", OU, lyap, 2.0**-8, TP, grid=GRID)
    assert report.verdict == "pass"


def test_recursive_control_overtight_alpha_fails():
    lyap = LyapunovSpec(alpha=10.0, beta=4.0)
    report = recursive_control_probe("euler", OU, lyap, 2.0**-8, TP, grid=GRID)
    assert report.verdict == "fail"
    assert abs(report.worst_point[0]) >= 2.0


def test_recursive_control_frozen_dynamics(zero_model):
    lyap = LyapunovSpec(alpha=1.0, beta=10.0)
    report = recursive_control_probe("euler", zero_model, lyap, 0.1, TP, grid=GRID)
    v = 1.0 + GRID[:, 0] ** 2
    rhs = 10.0 - 1.0 * v
    assert np.allclose(report.margins, rhs, rtol=0, atol=1e-12)


def test_recursive_control_divergence_raises():
    cubic = poly1d_model([0.0, 0.0, 0.0, 1.0], [0.0])  # b = x^3 overflows at 1e120
    with pytest.raises(DivergenceError):
        recursive_control_probe("euler", cubic, LyapunovSpec(alpha=2.0, beta=4.0),
                                0.1, TP, grid=np.array([[1e120]]))


def test_recursive_control_report_json(tmp_path):
    lyap = LyapunovSpec(alpha=2.0, beta=4.0)
    report = recursive_control_probe("euler", OU, lyap, 2.0**-6, TP, grid=GRID)
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


# sigma(x) = 1 + x^2/4: the talay2 step carries u^2 through the surrogate W,
# so E V(X_gamma) reads the fourth moment, 3 for three-point and 1 for
# rademacher innovations
STATE_SIGMA = poly1d_model([0.0, -1.0], [1.0, 0.0, 0.25])


@pytest.mark.parametrize("model", [OU, STATE_SIGMA], ids=["ou1d", "state_sigma"])
def test_recursive_control_enumerates_the_given_innovation(model):
    # the driver's talay2 kernel under rademacher innovations, enumerated by
    # hand over u = -1 and u = +1 at probability 1/2 each
    lyap = LyapunovSpec(alpha=1.0, beta=3.0)
    gamma = 2.0**-6
    rad = InnovationDist("rademacher", 1)
    step = make_stepper("talay2", model)

    def v_of(x):
        return 1.0 + x[:, 0] ** 2

    v = v_of(GRID)
    ev = sum(0.5 * v_of(step(GRID, gamma, np.array([u]), np.zeros(0))) for u in (-1.0, 1.0))
    expected = (3.0 - v) - (ev - v) / gamma
    report = recursive_control_probe("talay2", model, lyap, gamma, rad, grid=GRID)
    assert np.array_equal(report.margins, expected)
    three_point = recursive_control_probe("talay2", model, lyap, gamma, TP, grid=GRID)
    assert not np.array_equal(three_point.margins, expected)


def test_recursive_control_needs_finite_support():
    with pytest.raises(ValueError, match="finite-support"):
        recursive_control_probe("talay2", OU, OU.lyapunov, 2.0**-6, InnovationDist("gaussian", 1))


# ---------------------------------------------------------------------------
# moment matching


def test_three_point_matches_through_five():
    dist = InnovationDist("three_point", 1)
    assert all(dist.moment(q) == gaussian_moment(q) for q in range(1, 6))
    assert dist.matching_order == 5


def test_three_point_sixth_order_gap():
    dist = InnovationDist("three_point", 1)
    assert dist.moment(6) - gaussian_moment(6) == Fraction(9 - 15)
    assert dist.matching_order == 5


@pytest.mark.parametrize("kind,order,gap", [
    ("rademacher", 3, Fraction(1 - 3)),
    ("gaussian", None, None),
], ids=["rademacher", "gaussian"])
def test_matching_order_is_read_off_the_moment_table(kind, order, gap):
    dist = InnovationDist(kind, 1)
    assert dist.matching_order == order
    assert all(dist.moment(k) == gaussian_moment(k) for k in range(1, (order or 12) + 1))
    if order is not None:
        assert dist.moment(order + 1) - gaussian_moment(order + 1) == gap


# ---------------------------------------------------------------------------
# weak order probe


def test_weak_order_euler_ratio():
    res = weak_order_probe("euler", OU, coordinate_monomial((4,)), np.array([1.0]),
                           [2.0**-6, 2.0**-7], TP)
    assert 3.2 <= res.ratios[0] <= 4.8


def test_weak_order_talay_ratio():
    res = weak_order_probe("talay2", OU, coordinate_monomial((4,)), np.array([1.0]),
                           [2.0**-6, 2.0**-7], TP)
    assert 6.0 <= res.ratios[0] <= 10.0


def test_weak_order_linear_observable_exact_euler():
    # E[X_gamma] = x + gamma b matches the linear target up to rounding
    f = coordinate_monomial((1,))
    res = weak_order_probe("euler", OU, f, np.array([0.7]), [2.0**-4, 2.0**-5], TP)
    assert all(abs(e) <= 1e-15 for e in res.errors)


def test_weak_order_zero_function():
    zero = linear_combination([0.0], [coordinate_monomial((4,))])
    res = weak_order_probe("euler", OU, zero, np.array([1.0]), [2.0**-4], TP)
    assert res.errors == (0.0,)


def test_weak_order_ratio_over_a_zero_error_is_none():
    # at x = 1 the double well's drift vanishes, so Euler is exact on x^2
    res = weak_order_probe("euler", double_well(), coordinate_monomial((2,)), np.array([1.0]),
                           [2.0**-6, 2.0**-7], TP)
    assert res.errors == (0.0, 0.0)
    assert res.ratios == (None,)


def test_weak_order_needs_finite_support():
    with pytest.raises(ValueError):
        weak_order_probe("euler", OU, coordinate_monomial((4,)), np.array([1.0]),
                         [0.1], InnovationDist("gaussian", 1))


def test_weak_order_rejects_nonpositive_gamma():
    for scheme in ("euler", "talay2"):
        for gamma in (0.0, -0.1):
            with pytest.raises(ValueError):
                weak_order_probe(scheme, OU, coordinate_monomial((4,)), np.array([0.0]), [gamma], TP)


def test_weak_order_divergence_raises():
    cubic = poly1d_model([0.0, 0.0, 0.0, 1.0], [0.0])
    with pytest.raises(DivergenceError):
        weak_order_probe("euler", cubic, coordinate_monomial((4,)), np.array([1e120]), [0.1], TP)


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
    a = weak_order_probe("talay2", OU, coordinate_monomial((4,)), np.array([1.0]), [2.0**-6, 2.0**-7], TP)
    b = weak_order_probe("talay2", OU, coordinate_monomial((4,)), np.array([1.0]), [2.0**-6, 2.0**-7], TP)
    emit(a, "json", tmp_path / "a.json")
    emit(b, "json", tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_weak_order_state_dependent_diffusion_talay():
    # sigma(x) = 1 + x^2/4: exercises the surrogate and coupling increments
    m = poly1d_model([0.2, -1.0], [1.0, 0.0, 0.25])
    res = weak_order_probe("talay2", m, coordinate_monomial((4,)), np.array([0.8]),
                           [2.0**-8, 2.0**-9], TP)
    assert 6.0 <= res.ratios[0] <= 10.0


def test_recursive_control_double_well():
    m = double_well(math.sqrt(2.0))
    good = recursive_control_probe("euler", m, LyapunovSpec(alpha=0.5, beta=4.0),
                                   2.0**-8, TP, grid=GRID)
    assert good.verdict == "pass"


# ---------------------------------------------------------------------------
# the catalog's Lyapunov constants


CATALOG_MODELS = [ou1d(th, sg) for th in (0.05, 0.25, 0.5, 1.0, 5.0, 30.0)
                  for sg in (0.0, 0.3, math.sqrt(2.0), 3.0)]
CATALOG_MODELS += [double_well(sg) for sg in (0.0, 0.5, math.sqrt(2.0), 3.0)]
CATALOG_MODELS += [OU_ND2, model_from_config({"model.id": "ou_nd", "model.dim": 3, "model.theta": 0.5}),
                   ou_nd([[1.0, 0.5], [-0.5, 2.0]], [[1.0, 0.2], [0.0, 0.7]])]


@pytest.mark.parametrize("scheme,kind", [
    ("euler", "three_point"), ("talay2", "three_point"),
    ("euler", "rademacher"), ("talay2", "rademacher"),
], ids=["euler", "talay2", "euler-rademacher", "talay2-rademacher"])
def test_catalog_lyapunov_constants_hold_at_the_cli_probe_step(scheme, kind):
    # the constants each constructor sets hold with no slack to spare: the
    # default probe grid, at the step the probe subcommand uses, for the
    # kernel that each finite-support innovation drives
    for m in CATALOG_MODELS:
        innovation = InnovationDist(kind, m.noise_dim)
        report = recursive_control_probe(scheme, m, m.lyapunov, 2.0**-6, innovation)
        assert report.verdict == "pass", m.name
        assert report.margins.min() >= -1e-8, m.name


def test_ou_lyapunov_constants_and_law():
    m = ou1d(2.5, 0.7)
    assert (m.lyapunov.alpha, m.lyapunov.beta) == (2.5, 2.5 + 0.7**2)
    assert m.law.normal.mean == 0.0 and m.law.normal.variance == pytest.approx(0.7**2 / 5.0, rel=1e-15)
    nd = ou_nd(np.diag([0.5, 2.0]), np.eye(2))
    assert (nd.lyapunov.alpha, nd.lyapunov.beta) == (0.5, 2.5)
    # every catalog model carries its law; only a 1-d normal one has a NormalDist
    assert nd.law.normal is None and double_well().law.normal is None
    assert nd.law.expect(lambda xs: xs[:, 0] ** 2) == pytest.approx(1.0, rel=1e-14)
    assert nd.law.expect(lambda xs: xs[:, 1] ** 2) == pytest.approx(0.25, rel=1e-14)


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


@pytest.mark.parametrize("probe", ["recursive_control", "weak_order"])
def test_probes_refuse_an_innovation_of_another_dimension(probe):
    # a 1-d innovation on 2-d noise would broadcast one draw across both
    # noise columns: perfectly correlated noise, not the model's
    model = ou_nd(np.eye(2), math.sqrt(2.0) * np.eye(2))
    one = InnovationDist("three_point", 1)
    with pytest.raises(ValueError, match="innovation dimension"):
        if probe == "recursive_control":
            recursive_control_probe("euler", model, model.lyapunov, 2.0**-6, one)
        else:
            weak_order_probe("euler", model, coordinate_monomial((2, 0)), np.ones(2), [2.0**-6, 2.0**-7], one)
