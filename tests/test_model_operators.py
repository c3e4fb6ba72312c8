from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import broadcast_ou, directional_fd, linear_combination, poly1d_model
from ergostep.catalog import coordinate_monomial, double_well, gauss_hermite_expectation, monomial1d, ou1d, ou_nd
from ergostep.cli import TALAY_RATIO_WINDOW
from ergostep.diagnostics import weak_order_probe
from ergostep.innovations import InnovationDist
from ergostep.model import (
    DiffusionModel,
    Enumerate,
    InsufficientDerivativesError,
    InsufficientOrderError,
    MonteCarlo,
    Observable,
    _expansion_coefficient,
    generator_apply,
    generator_observable,
    m1_euler,
    m1_talay,
    m2_talay,
    increments,
    vf_operator,
)
from ergostep.schedules import StepSchedule
from ergostep.schemes import make_stepper, simulate_batch

OU = ou1d(1.0, math.sqrt(2.0))
TP = InnovationDist("three_point", 1)
X2 = monomial1d(2)


def x(v: float) -> np.ndarray:
    return np.array([v])


# ---------------------------------------------------------------------------
# generator and variance density


def test_generator_ou_quadratic():
    assert generator_apply(OU, X2, x(0.0)) == pytest.approx(2.0, abs=1e-14)
    assert generator_apply(OU, X2, x(1.0)) == pytest.approx(0.0, abs=1e-12)


def test_generator_constant_observable():
    const = monomial1d(0)
    assert generator_apply(OU, const, x(1.7)) == 0.0


def test_generator_requires_order_two():
    low = linear_combination([1.0], [monomial1d(1)])
    lowered = type(low)(fn=low.fn, dirderiv=low.dirderiv, max_order=1)
    with pytest.raises(InsufficientOrderError):
        generator_apply(OU, lowered, x(0.0))


def test_vf_operator_values():
    assert vf_operator(OU, X2, x(1.0)) == pytest.approx(8.0, rel=1e-14)
    assert vf_operator(OU, X2, x(0.0)) == 0.0
    assert vf_operator(OU, monomial1d(0), x(2.0)) == 0.0


# ---------------------------------------------------------------------------
# derived fields


def sigma_tilde(model: DiffusionModel, xs: np.ndarray) -> np.ndarray:
    """The coupling field, column n read as 2 delta_3(e_n) off the talay2
    increment list."""
    [coupling] = [delta for j, _, delta in increments("talay2", model, xs) if j == 3]
    return np.stack([2.0 * coupling(e, None) for e in np.eye(model.noise_dim)], axis=-1)


def drift_generator(model: DiffusionModel, xs: np.ndarray) -> np.ndarray:
    """Ab, read as 2 delta_4 off the talay2 increment list."""
    [ab_half] = [delta for j, _, delta in increments("talay2", model, xs) if j == 4]
    return 2.0 * ab_half


def test_sigma_tilde_ou_constant():
    for v in (-2.0, 0.0, 3.5):
        assert sigma_tilde(OU, x(v))[0, 0] == pytest.approx(-math.sqrt(2.0), rel=1e-14)


def test_sigma_tilde_constant_coefficients():
    m = poly1d_model([0.7], [1.3])
    assert sigma_tilde(m, x(2.0))[0, 0] == 0.0


def test_sigma_tilde_linear_diffusion_zero_drift():
    m = poly1d_model([0.0], [0.0, 1.0])  # b = 0, sigma = x
    assert sigma_tilde(m, x(1.0))[0, 0] == 0.0


def test_sigma_tilde_quadratic_diffusion():
    m = poly1d_model([0.0], [0.0, 0.0, 1.0])  # b = 0, sigma = x^2
    for v in (0.5, 1.0, 2.0):
        # only the Hessian contraction survives: 1/2 (sigma sigma) * sigma'' = x^4
        assert sigma_tilde(m, x(v))[0, 0] == pytest.approx(v**4, rel=1e-13)


def test_sigma_tilde_fd_fallback_matches_analytic():
    analytic = poly1d_model([0.3, -1.0], [0.5, 0.2, 0.4])
    fd = poly1d_model([0.3, -1.0], [0.5, 0.2, 0.4], fd_only=True)
    for v in (-1.2, 0.4, 2.0):
        a = sigma_tilde(analytic, x(v))[0, 0]
        b = sigma_tilde(fd, x(v))[0, 0]
        assert b == pytest.approx(a, rel=2e-4, abs=2e-4)


def test_sigma_tilde_columns_of_a_matrix_diffusion():
    # for ou_nd, D sigma = D^2 sigma = 0 and D^2 b = 0, so sigma_tilde = Db sigma
    # and Ab = Db b
    th = np.array([[1.0, 0.3], [-0.2, 0.8]])
    sg = np.array([[1.1, 0.2, 0.5], [-0.4, 0.9, 0.0]])
    m = ou_nd(th, sg)
    xs = np.array([[0.3, -1.2], [2.0, 0.5]])
    assert sigma_tilde(m, xs) == pytest.approx(np.broadcast_to(-th @ sg, (2, 2, 3)), abs=1e-15)
    assert drift_generator(m, xs) == pytest.approx(xs @ (th @ th).T, abs=1e-15)


def test_talay_coupling_halves_hessian_weight():
    m = poly1d_model([0.0], [0.0, 0.0, 1.0])
    # sigma_tilde has 1/2 (sigma sigma^T : D^2 sigma); the step coupling,
    # 1/2 sigma_tilde U, carries 1/4
    assert sigma_tilde(m, x(1.0))[0, 0] == pytest.approx(1.0, rel=1e-13)
    [(_, draw, coupling)] = [inc for inc in increments("talay2", m, x(1.0)) if inc[0] == 3]
    assert draw and coupling(np.ones(1), None)[0] == pytest.approx(0.5, rel=1e-13)


def test_drift_generator_values():
    assert drift_generator(OU, x(2.0))[0] == pytest.approx(2.0, rel=1e-14)
    assert drift_generator(poly1d_model([4.2], [1.0]), x(3.0))[0] == 0.0
    lin = poly1d_model([-1.0, 2.0], [0.7])  # b = 2x - 1, sigma const
    for v in (-1.0, 0.0, 2.5):
        assert drift_generator(lin, x(v))[0] == pytest.approx(2.0 * (2.0 * v - 1.0), rel=1e-14)


# ---------------------------------------------------------------------------
# correction operators


def test_m1_euler_ou_quadratic():
    for v in (1.0, 0.0, -2.0):
        got = m1_euler(OU, X2, x(v), TP)
        assert got.value == pytest.approx(-v * v, abs=1e-13)
        assert got.stderr == 0.0


def test_m1_euler_linear_observable():
    assert m1_euler(OU, monomial1d(1), x(1.5), TP).value == 0.0


def test_m1_talay_ou_quadratic():
    # -C_2 x^2 = -1/2 A^2 x^2 = 2 - 2x^2, whose invariant average is 0
    for v in (1.0, 0.0, -1.7):
        got = m1_talay(OU, X2, x(v), TP)
        assert got.value == pytest.approx(2.0 - 2.0 * v * v, abs=1e-12)


def test_m1_talay_constant_coefficients_closed_form():
    m = poly1d_model([0.8], [1.1])  # constant b and sigma: Ab = 0, Theta = 0
    f = linear_combination([2.0, -0.7], [monomial1d(2), monomial1d(1)])  # quadratic
    for v in (0.0, 1.0, -2.0):
        closed = -0.5 * float(f.d(x(v), 2, (m.b(x(v)), m.b(x(v)))))
        got = m1_talay(m, f, x(v), TP).value
        assert got == pytest.approx(closed, abs=1e-15)
        # the Euler defect coincides when every correction field vanishes
        assert m1_euler(m, f, x(v), TP).value == pytest.approx(closed, abs=1e-15)


def test_m2_talay_ou_quadratic_symbolic_cross_check():
    # the kernel is x -> a x + c u with a = 1 - g + g^2/2 and
    # c = sqrt(2) (sqrt(g) - g^{3/2}/2), so E f(X_g) = a^2 x^2 + c^2 and its
    # g^3 coefficient is C_3 x^2 = 1/2 - x^2
    for v in (0.0, 1.0, -1.3, 2.2):
        got = m2_talay(OU, X2, x(v), TP)
        assert got.value == pytest.approx(v * v - 0.5, abs=1e-12)


def test_m2_talay_constant_observable():
    assert m2_talay(OU, monomial1d(0), x(1.0), TP).value == 0.0


def test_m2_talay_linear_observable():
    # f = x: only (Df; delta_6) could contribute, and the kernel is a
    # polynomial of degree 4 in sqrt(gamma)
    for v in (0.5, -2.0):
        got = m2_talay(OU, monomial1d(1), x(v), TP)
        assert got.value == pytest.approx(0.0, abs=1e-13)


def test_operator_linearity():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=2)
    f = linear_combination(rng.normal(size=3), [monomial1d(k) for k in (2, 3, 4)])
    g = linear_combination(rng.normal(size=3), [monomial1d(k) for k in (1, 2, 6)])
    comb = linear_combination([a, b], [f, g])
    pt = x(0.8)
    for op in (
        lambda h: generator_apply(OU, h, pt),
        lambda h: m1_euler(OU, h, pt, TP).value,
        lambda h: m1_talay(OU, h, pt, TP).value,
        lambda h: m2_talay(OU, h, pt, TP).value,
    ):
        assert op(comb) == pytest.approx(a * op(f) + b * op(g), rel=1e-10, abs=1e-10)


def test_mc_quadrature_within_four_se_of_enumeration():
    f = monomial1d(4)
    en = m1_euler(OU, f, x(1.3), TP).value
    mc = m1_euler(OU, f, x(1.3), TP, MonteCarlo(10**6, seed=11))
    assert mc.stderr > 0
    assert abs(mc.value - en) <= 4.0 * mc.stderr

    en2 = m2_talay(OU, f, x(0.7), TP).value
    mc2 = m2_talay(OU, f, x(0.7), TP, MonteCarlo(10**6, seed=12))
    assert abs(mc2.value - en2) <= 4.0 * mc2.stderr


@pytest.mark.parametrize("op", [m1_talay, m2_talay])
def test_mc_quadrature_serves_a_grid_of_states(op):
    # the draws are shared across states and reduced per state, so each
    # grid row matches the single-state estimate from the same seed
    f = monomial1d(6)
    grid = np.array([[-0.8], [0.3], [1.3]])
    mc = op(OU, f, grid, TP, MonteCarlo(4000, seed=5))
    assert mc.value.shape == (3,) and mc.stderr.shape == (3,)
    for i, row in enumerate(grid):
        one = op(OU, f, row, TP, MonteCarlo(4000, seed=5))
        assert mc.value[i] == pytest.approx(one.value, rel=1e-12)
        assert mc.stderr[i] == pytest.approx(one.stderr, rel=1e-9)


def test_mc_zero_samples_rejected():
    with pytest.raises(ValueError):
        MonteCarlo(0)


def test_m1_requires_order_four():
    low = monomial1d(2)
    lowered = type(low)(fn=low.fn, dirderiv=low.dirderiv, max_order=3)
    with pytest.raises(InsufficientOrderError):
        m1_euler(OU, lowered, x(1.0), TP)


# ---------------------------------------------------------------------------
# expansion coefficients read off the increment lists


@pytest.mark.parametrize("model", [
    OU, double_well(math.sqrt(2.0)), poly1d_model([0.3, -1.0, 0.0, -0.2], [0.9, 0.1, 0.2]),
], ids=["ou1d", "double_well", "poly1d"])
def test_expansion_coefficients_have_the_weak_order_property(model):
    # C_1 f = Af for both kernels and C_2 f = 1/2 A^2 f for talay2
    rng = np.random.default_rng(8)
    xs = rng.uniform(-2.0, 2.0, size=(16, 1))
    for degree in range(7):
        f = linear_combination(rng.normal(size=degree + 1), [monomial1d(k) for k in range(degree + 1)])
        af = generator_apply(model, f, xs)
        for scheme in ("euler", "talay2"):
            c1 = _expansion_coefficient(scheme, 1, model, f, xs, TP, Enumerate()).value
            np.testing.assert_allclose(c1, af, rtol=1e-12, atol=1e-12)
        a2f = generator_apply(model, generator_observable(model, f), xs)
        c2 = _expansion_coefficient("talay2", 2, model, f, xs, TP, Enumerate()).value
        np.testing.assert_allclose(c2, 0.5 * a2f, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("op, scheme, q, limit", [
    (m1_euler, "euler", 1, -1.0), (m1_talay, "talay2", 1, 0.0), (m2_talay, "talay2", 2, 0.5),
])
def test_bias_average_matches_the_constant_step_oracle(op, scheme, q, limit):
    # the driver's OU kernel is x -> a x + c u; its invariant law nu_gamma has
    # second moment m = c^2 / (1 - a^2), so nu_gamma(A x^2) / gamma^q
    # = (2 - 2m) / gamma^q, which tends to nu(Mf)
    gamma = 1e-3
    step = make_stepper(scheme, OU)
    a = step(np.ones((1, 1)), gamma, np.zeros((1, 1)), None)[0, 0]
    c = step(np.zeros((1, 1)), gamma, np.ones((1, 1)), None)[0, 0]
    oracle = (2.0 - 2.0 * c * c / (1.0 - a * a)) / gamma**q
    nu_m = gauss_hermite_expectation(lambda xs: op(OU, X2, xs, TP).value)
    assert nu_m == pytest.approx(limit, abs=1e-12)
    assert abs(nu_m - oracle) <= gamma


def test_euler_bias_operator_evaluates_fields_once():
    # the benchmarked Euler path: one draw-independent derivative, two per
    # three-point outcome, and one call of each model field
    calls = {"dirderiv": 0, "b": 0, "sigma": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    f = Observable(fn=X2.fn, dirderiv=counted("dirderiv", X2.dirderiv), max_order=X2.max_order)
    model = DiffusionModel(dim=1, noise_dim=1, b=counted("b", OU.b), sigma=counted("sigma", OU.sigma))
    xs = np.random.default_rng(2).normal(size=(1024, 8, 1))
    value = m1_euler(model, f, xs, TP).value
    assert np.array_equal(value, -xs[..., 0] ** 2)
    assert calls["dirderiv"] <= 7
    assert calls["b"] == 1 and calls["sigma"] == 1


# ---------------------------------------------------------------------------
# invariance identity and derivative consistency


@pytest.mark.parametrize("k", range(7))
def test_invariant_average_of_generator_vanishes(k):
    # Gauss-Hermite integral of A f under N(0, 1) for polynomial f
    f = monomial1d(k)
    val = gauss_hermite_expectation(lambda xs: generator_apply(OU, f, xs))
    assert abs(val) <= 1e-8


@pytest.mark.parametrize("k", range(1, 7))
def test_dirderiv_matches_finite_differences(k):
    rng = np.random.default_rng(99)
    f = monomial1d(k)
    for _ in range(5):
        pt = rng.uniform(-3, 3, size=1)
        v = rng.normal(size=1)
        analytic = f.d(pt, 1, (v,))
        fd = directional_fd(f.fn, pt, (v,), h=1e-4)
        assert fd == pytest.approx(analytic, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("k", range(7))
def test_monomial_dirderiv_at_degree_is_an_unbatched_constant(k):
    # against k!/(k-m)! x^(k-m) v_1 ... v_m multiplied left to right; the
    # value has no batch axes exactly when m = k and no direction has them
    rng = np.random.default_rng(k)
    f = monomial1d(k)
    xs = rng.normal(size=(3, 7, 1))
    for m in range(k + 1):
        for batched in itertools.product((False, True), repeat=m):
            dirs = [rng.normal(size=(3, 7, 1) if b else (1,)) for b in batched]
            want = math.perm(k, m) * xs[..., 0] ** (k - m)
            for v in dirs:
                want = want * v[..., 0]
            got = f.d(xs, m, dirs)
            unbatched = m == k and not any(batched)
            assert np.shape(got) == (() if unbatched else (3, 7)), (m, batched)
            assert np.array_equal(np.broadcast_to(got, want.shape), want), (m, batched)


@settings(max_examples=30, deadline=None)
@given(order=st.integers(2, 4), seed=st.integers(0, 10**6))
def test_dirderiv_symmetric_in_directions(order, seed):
    rng = np.random.default_rng(seed)
    f = monomial1d(6)
    pt = rng.uniform(-2, 2, size=1)
    dirs = [rng.normal(size=1) for _ in range(order)]
    base = f.d(pt, order, tuple(dirs))
    perm = rng.permutation(order)
    assert f.d(pt, order, tuple(dirs[i] for i in perm)) == pytest.approx(base, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the generator as an observable


def test_generator_observable_values_and_derivatives():
    f = monomial1d(4)
    af = generator_observable(OU, f)
    pt = x(1.0)
    # A x^4 = -4x^4 + 12 x^2
    assert af.fn(pt) == pytest.approx(8.0, rel=1e-13)
    # A^2 x^4 = 16x^4 - 72x^2 + 24
    assert generator_apply(OU, af, pt) == pytest.approx(-32.0, rel=1e-12)
    v = np.array([1.0])
    fd = directional_fd(af.fn, pt, (v,), h=1e-5)
    assert af.d(pt, 1, (v,)) == pytest.approx(fd, rel=1e-6)


def test_generator_observable_max_order():
    # A^2 f needs Af through order two, and nothing reads further
    af = generator_observable(OU, monomial1d(6))
    assert af.max_order == 2
    with pytest.raises(InsufficientOrderError):
        af.d(x(0.0), 3, tuple(np.ones((3, 1))))


def test_talay2_probe_needs_model_derivatives_through_order_two_only():
    # a model with analytic data through order two and nothing above
    m = dataclasses.replace(poly1d_model([0.2, -1.0], [1.0, 0.0, 0.25]),
                            db_higher=None, dsigma_higher=None)
    res = weak_order_probe("talay2", m, monomial1d(4), [0.7], [2.0**-6, 2.0**-7], TP)
    lo, hi = TALAY_RATIO_WINDOW
    assert lo <= res.ratios[0] <= hi


def test_generator_observable_refuses_fd_models():
    fd_model = poly1d_model([0.0, -1.0], [1.0], fd_only=True)
    with pytest.raises(InsufficientDerivativesError):
        generator_observable(fd_model, monomial1d(4))


def test_analytic_derivatives_match_finite_differences():
    analytic = poly1d_model([0.4, -1.2, 0.3], [0.9, 0.1, 0.2])
    fd = poly1d_model([0.4, -1.2, 0.3], [0.9, 0.1, 0.2], fd_only=True)
    for v in (-2.0, 0.3, 1.7):
        pt = x(v)
        assert fd.drift_jacobian(pt) == pytest.approx(analytic.drift_jacobian(pt), rel=1e-6, abs=1e-8)
        assert fd.drift_hessian(pt) == pytest.approx(analytic.drift_hessian(pt), rel=1e-4, abs=1e-5)
        assert fd.diffusion_jacobian(pt) == pytest.approx(analytic.diffusion_jacobian(pt), rel=1e-6, abs=1e-8)
        assert fd.diffusion_hessian(pt) == pytest.approx(analytic.diffusion_hessian(pt), rel=1e-4, abs=1e-5)


def test_m2_talay_double_well_quadrature_consistency():
    # a drift with a nonzero second derivative, through enumeration and Monte Carlo
    from ergostep.catalog import double_well

    m = double_well(math.sqrt(2.0))
    f = monomial1d(2)
    en = m2_talay(m, f, x(0.6), TP).value
    mc = m2_talay(m, f, x(0.6), TP, MonteCarlo(200_000, seed=21))
    assert mc.stderr > 0
    assert abs(mc.value - en) <= 4.0 * mc.stderr
    # linearity holds on the double-well generator too
    g = linear_combination([0.5, 1.5], [monomial1d(2), monomial1d(1)])
    lhs = m2_talay(m, g, x(0.6), TP).value
    rhs = 0.5 * en + 1.5 * m2_talay(m, monomial1d(1), x(0.6), TP).value
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# state-independent fields: unbatched values, batch-shaped operator results


OU_2D = ou_nd(np.eye(2), math.sqrt(2.0) * np.eye(2))
TP_2D = InnovationDist("three_point", 2)
BOUNDARY_OPS = {
    "generator_apply": lambda m, f, xs, inn, q: generator_apply(m, f, xs),
    "vf_operator": lambda m, f, xs, inn, q: vf_operator(m, f, xs),
    "m1_euler": lambda m, f, xs, inn, q: m1_euler(m, f, xs, inn, q).value,
    "m1_talay": lambda m, f, xs, inn, q: m1_talay(m, f, xs, inn, q).value,
    "m2_talay": lambda m, f, xs, inn, q: m2_talay(m, f, xs, inn, q).value,
}


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("dim", [1, 2])
def test_operators_return_batch_shape(dim, degree):
    # x^0 and x^1 make every operator state-independent, and the catalog
    # OU fields are unbatched constants; the operators still return one
    # value per state
    if dim == 1:
        model, f, inn = OU, monomial1d(degree), TP
    else:
        model, f, inn = OU_2D, coordinate_monomial((degree - degree // 2, degree // 2)), TP_2D
    rng = np.random.default_rng(degree)
    for batch in [(), (5,), (2, 3)]:
        xs = rng.normal(size=batch + (dim,))
        for name, op in BOUNDARY_OPS.items():
            for quad in (Enumerate(), MonteCarlo(8, seed=1)):
                if name in ("generator_apply", "vf_operator") and isinstance(quad, MonteCarlo):
                    continue
                val = op(model, f, xs, inn, quad)
                assert np.shape(val) == batch, (name, quad, batch)
                assert np.all(np.isfinite(val))


def test_unbatched_fields_are_bit_identical_to_broadcast_fields():
    hoisted = ou1d(1.0, math.sqrt(2.0))
    ref = broadcast_ou(1.0, math.sqrt(2.0))
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(64, 1))
    us = TP.sample(rng, size=64)
    for scheme in ("euler", "talay2"):
        got = make_stepper(scheme, hoisted)(xs, 0.05, us, None)
        want = make_stepper(scheme, ref)(xs, 0.05, us, None)
        assert got.shape == want.shape and np.array_equal(got, want)
    for k in range(5):
        f = monomial1d(k)
        for name, op in BOUNDARY_OPS.items():
            got, want = op(hoisted, f, xs, TP, Enumerate()), op(ref, f, xs, TP, Enumerate())
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want), (name, k)
    steps = StepSchedule("power_law", 0.5, 1.0 / 3.0)
    for scheme in ("euler", "talay2"):
        got = simulate_batch(scheme, hoisted, steps, TP, 2000, [0.5], 9, 8).final_states
        want = simulate_batch(scheme, ref, steps, TP, 2000, [0.5], 9, 8).final_states
        assert np.array_equal(got, want)
