from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import broadcast_ou, directional_fd, linear_combination, poly1d_model
from ergostep.catalog import (
    coordinate_monomial,
    double_well,
    model_from_config,
    normal_law,
    observable_from_name,
    ou1d,
    ou_nd,
)
from ergostep.cli import TALAY_RATIO_WINDOW
from ergostep.diagnostics import weak_order_probe
from ergostep.innovations import InnovationDist
from ergostep.model import (
    DiffusionModel,
    InsufficientDerivativesError,
    InsufficientOrderError,
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
X2 = coordinate_monomial((2,))


def x(v: float) -> np.ndarray:
    return np.array([v])


# ---------------------------------------------------------------------------
# generator and variance density


def test_generator_ou_quadratic():
    assert generator_apply(OU, X2, x(0.0)) == pytest.approx(2.0, abs=1e-14)
    assert generator_apply(OU, X2, x(1.0)) == pytest.approx(0.0, abs=1e-12)


def test_generator_constant_observable():
    const = coordinate_monomial((0,))
    assert generator_apply(OU, const, x(1.7)) == 0.0


def test_generator_requires_order_two():
    low = linear_combination([1.0], [coordinate_monomial((1,))])
    lowered = type(low)(fn=low.fn, dirderiv=low.dirderiv, max_order=1)
    with pytest.raises(InsufficientOrderError):
        generator_apply(OU, lowered, x(0.0))


def test_vf_operator_values():
    assert vf_operator(OU, X2, x(1.0)) == pytest.approx(8.0, rel=1e-14)
    assert vf_operator(OU, X2, x(0.0)) == 0.0
    assert vf_operator(OU, coordinate_monomial((0,)), x(2.0)) == 0.0


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
        assert m1_euler(OU, X2, x(v), TP) == pytest.approx(-v * v, abs=1e-13)


def test_m1_euler_linear_observable():
    assert m1_euler(OU, coordinate_monomial((1,)), x(1.5), TP) == 0.0


def test_m1_talay_ou_quadratic():
    # -C_2 x^2 = -1/2 A^2 x^2 = 2 - 2x^2, whose invariant average is 0
    for v in (1.0, 0.0, -1.7):
        assert m1_talay(OU, X2, x(v), TP) == pytest.approx(2.0 - 2.0 * v * v, abs=1e-12)


def test_m1_talay_constant_coefficients_closed_form():
    m = poly1d_model([0.8], [1.1])  # constant b and sigma: Ab = 0, Theta = 0
    f = linear_combination([2.0, -0.7], [coordinate_monomial((2,)), coordinate_monomial((1,))])  # quadratic
    for v in (0.0, 1.0, -2.0):
        closed = -0.5 * float(f.d(x(v), 2, (m.b(x(v)), m.b(x(v)))))
        got = m1_talay(m, f, x(v), TP)
        assert got == pytest.approx(closed, abs=1e-15)
        # the Euler defect coincides when every correction field vanishes
        assert m1_euler(m, f, x(v), TP) == pytest.approx(closed, abs=1e-15)


def test_m2_talay_ou_quadratic_symbolic_cross_check():
    # the kernel is x -> a x + c u with a = 1 - g + g^2/2 and
    # c = sqrt(2) (sqrt(g) - g^{3/2}/2), so E f(X_g) = a^2 x^2 + c^2 and its
    # g^3 coefficient is C_3 x^2 = 1/2 - x^2
    for v in (0.0, 1.0, -1.3, 2.2):
        assert m2_talay(OU, X2, x(v), TP) == pytest.approx(v * v - 0.5, abs=1e-12)


def test_m2_talay_constant_observable():
    assert m2_talay(OU, coordinate_monomial((0,)), x(1.0), TP) == 0.0


def test_m2_talay_linear_observable():
    # f = x: only (Df; delta_6) could contribute, and the kernel is a
    # polynomial of degree 4 in sqrt(gamma)
    for v in (0.5, -2.0):
        assert m2_talay(OU, coordinate_monomial((1,)), x(v), TP) == pytest.approx(0.0, abs=1e-13)


def test_operator_linearity():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=2)
    f = linear_combination(rng.normal(size=3), [coordinate_monomial((k,)) for k in (2, 3, 4)])
    g = linear_combination(rng.normal(size=3), [coordinate_monomial((k,)) for k in (1, 2, 6)])
    comb = linear_combination([a, b], [f, g])
    pt = x(0.8)
    for op in (
        lambda h: generator_apply(OU, h, pt),
        lambda h: m1_euler(OU, h, pt, TP),
        lambda h: m1_talay(OU, h, pt, TP),
        lambda h: m2_talay(OU, h, pt, TP),
    ):
        assert op(comb) == pytest.approx(a * op(f) + b * op(g), rel=1e-10, abs=1e-10)


def test_m1_requires_order_four():
    low = coordinate_monomial((2,))
    lowered = type(low)(fn=low.fn, dirderiv=low.dirderiv, max_order=3)
    with pytest.raises(InsufficientOrderError):
        m1_euler(OU, lowered, x(1.0), TP)


@pytest.mark.parametrize("apply,order", [
    (lambda f: vf_operator(OU, f, x(1.0)), 0),
    (lambda f: m2_talay(OU, f, x(1.0), TP), 5),
    (lambda f: weak_order_probe("talay2", OU, f, x(1.0), [2.0**-6, 2.0**-7], TP), 3),
    (lambda f: weak_order_probe("euler", OU, f, x(1.0), [2.0**-6, 2.0**-7], TP), 1),
], ids=["vf_operator", "m2_talay", "talay2_probe", "euler_probe"])
def test_observable_below_the_needed_order_is_refused(apply, order):
    # Observable.d is the one order check every operator reaches
    with pytest.raises(InsufficientOrderError):
        apply(dataclasses.replace(coordinate_monomial((6,)), max_order=order))


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
        f = linear_combination(rng.normal(size=degree + 1), [coordinate_monomial((k,)) for k in range(degree + 1)])
        af = generator_apply(model, f, xs)
        for scheme in ("euler", "talay2"):
            c1 = _expansion_coefficient(scheme, 1, model, f, xs, TP)
            np.testing.assert_allclose(c1, af, rtol=1e-12, atol=1e-12)
        a2f = generator_apply(model, generator_observable(model, f), xs)
        c2 = _expansion_coefficient("talay2", 2, model, f, xs, TP)
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
    nu_m = OU.law.expect(lambda xs: op(OU, X2, xs, TP))
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
    value = m1_euler(model, f, xs, TP)
    assert np.array_equal(value, -xs[..., 0] ** 2)
    assert calls["dirderiv"] <= 7
    assert calls["b"] == 1 and calls["sigma"] == 1


# ---------------------------------------------------------------------------
# invariance identity and derivative consistency


@pytest.mark.parametrize("k", range(7))
def test_invariant_average_of_generator_vanishes(k):
    # Gauss-Hermite integral of A f under N(0, 1) for polynomial f
    f = coordinate_monomial((k,))
    val = OU.law.expect(lambda xs: generator_apply(OU, f, xs))
    assert abs(val) <= 1e-8


@pytest.mark.parametrize("k", range(1, 7))
def test_dirderiv_matches_finite_differences(k):
    rng = np.random.default_rng(99)
    f = coordinate_monomial((k,))
    for _ in range(5):
        pt = rng.uniform(-3, 3, size=1)
        v = rng.normal(size=1)
        analytic = f.d(pt, 1, (v,))
        fd = directional_fd(f.fn, pt, (v,), h=1e-4)
        assert fd == pytest.approx(analytic, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("exps", [(k,) for k in range(7)] + [(2, 1), (0, 3), (1, 1)],
                         ids=lambda exps: "-".join(map(str, exps)))
def test_monomial_dirderiv_at_degree_is_an_unbatched_constant(exps):
    # against the sum, over the assignments of the directions to coordinates,
    # of prod_i a_i!/(a_i-c_i)! x_i^(a_i-c_i) times v_1 ... v_m multiplied
    # left to right; the value has no batch axes exactly when m is the degree
    # and no direction has them, and past the degree it is the float 0.0
    d, deg = len(exps), sum(exps)
    rng = np.random.default_rng(deg)
    f = coordinate_monomial(exps)
    xs = rng.normal(size=(3, 7, d))
    for m in range(min(deg + 1, f.max_order) + 1):
        for batched in itertools.product((False, True), repeat=m):
            dirs = [rng.normal(size=(3, 7, d) if b else (d,)) for b in batched]
            want = None
            for assign in itertools.product(range(d), repeat=m):
                counts = [assign.count(i) for i in range(d)]
                if any(c > a for a, c in zip(exps, counts)):
                    continue
                term = math.prod(math.perm(a, c) * xs[..., i] ** (a - c)
                                 for i, (a, c) in enumerate(zip(exps, counts)))
                for t, c in enumerate(assign):
                    term = term * dirs[t][..., c]
                want = term if want is None else want + term
            got = f.d(xs, m, dirs)
            if want is None:
                assert type(got) is float and got == 0.0, (m, batched)
                continue
            unbatched = m == deg and not any(batched)
            assert np.shape(got) == (() if unbatched else (3, 7)), (m, batched)
            assert np.array_equal(np.broadcast_to(got, want.shape), want), (m, batched)


@settings(max_examples=30, deadline=None)
@given(order=st.integers(2, 4), seed=st.integers(0, 10**6))
def test_dirderiv_symmetric_in_directions(order, seed):
    rng = np.random.default_rng(seed)
    f = coordinate_monomial((6,))
    pt = rng.uniform(-2, 2, size=1)
    dirs = [rng.normal(size=1) for _ in range(order)]
    base = f.d(pt, order, tuple(dirs))
    perm = rng.permutation(order)
    assert f.d(pt, order, tuple(dirs[i] for i in perm)) == pytest.approx(base, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the generator as an observable


def test_generator_observable_values_and_derivatives():
    f = coordinate_monomial((4,))
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
    af = generator_observable(OU, coordinate_monomial((6,)))
    assert af.max_order == 2
    with pytest.raises(InsufficientOrderError):
        af.d(x(0.0), 3, tuple(np.ones((3, 1))))


def test_talay2_probe_needs_model_derivatives_through_order_two_only():
    # a model with analytic data through order two and nothing above
    m = dataclasses.replace(poly1d_model([0.2, -1.0], [1.0, 0.0, 0.25]),
                            db_higher=None, dsigma_higher=None)
    res = weak_order_probe("talay2", m, coordinate_monomial((4,)), [0.7], [2.0**-6, 2.0**-7], TP)
    lo, hi = TALAY_RATIO_WINDOW
    assert lo <= res.ratios[0] <= hi


def test_generator_observable_refuses_fd_models():
    fd_model = poly1d_model([0.0, -1.0], [1.0], fd_only=True)
    with pytest.raises(InsufficientDerivativesError):
        generator_observable(fd_model, coordinate_monomial((4,)))


@pytest.mark.parametrize("model, missing", [
    (poly1d_model([0.0, -1.0], [1.0], fd_only=True), "db"),
    (dataclasses.replace(ou_nd(np.eye(2), np.eye(2)), dsigma=None), "dsigma"),
], ids=["d1_fd_only", "d2_without_dsigma"])
def test_talay2_refuses_models_without_analytic_derivatives(model, missing):
    xs = np.zeros((3, model.dim))
    inn = InnovationDist("three_point", model.noise_dim)
    f = coordinate_monomial((2,) + (0,) * (model.dim - 1))
    with pytest.raises(InsufficientDerivativesError, match=repr(missing)):
        make_stepper("talay2", model)
    with pytest.raises(InsufficientDerivativesError, match=repr(missing)):
        m2_talay(model, f, xs, inn)
    # the Euler kernel and its bias operator read only b and sigma
    assert make_stepper("euler", model)(xs, 0.1, np.zeros((3, model.noise_dim)), None).shape == xs.shape
    assert m1_euler(model, f, xs, inn).shape == (3,)


def test_m2_talay_double_well_quadrature_consistency():
    # linearity holds on a drift with a nonzero second derivative too
    m = double_well(math.sqrt(2.0))
    en = m2_talay(m, coordinate_monomial((2,)), x(0.6), TP)
    g = linear_combination([0.5, 1.5], [coordinate_monomial((2,)), coordinate_monomial((1,))])
    lhs = m2_talay(m, g, x(0.6), TP)
    rhs = 0.5 * en + 1.5 * m2_talay(m, coordinate_monomial((1,)), x(0.6), TP)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# state-independent fields: unbatched values, batch-shaped operator results


OU_2D = ou_nd(np.eye(2), math.sqrt(2.0) * np.eye(2))
TP_2D = InnovationDist("three_point", 2)
BOUNDARY_OPS = {
    "generator_apply": lambda m, f, xs, inn: generator_apply(m, f, xs),
    "vf_operator": lambda m, f, xs, inn: vf_operator(m, f, xs),
    "m1_euler": m1_euler,
    "m1_talay": m1_talay,
    "m2_talay": m2_talay,
}


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("dim", [1, 2])
def test_operators_return_batch_shape(dim, degree):
    # x^0 and x^1 make every operator state-independent, and the catalog
    # OU fields are unbatched constants; the operators still return one
    # value per state
    if dim == 1:
        model, f, inn = OU, coordinate_monomial((degree,)), TP
    else:
        model, f, inn = OU_2D, coordinate_monomial((degree - degree // 2, degree // 2)), TP_2D
    rng = np.random.default_rng(degree)
    for batch in [(), (5,), (2, 3)]:
        xs = rng.normal(size=batch + (dim,))
        for name, op in BOUNDARY_OPS.items():
            val = op(model, f, xs, inn)
            assert np.shape(val) == batch, (name, batch)
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
        f = coordinate_monomial((k,))
        for name, op in BOUNDARY_OPS.items():
            got, want = op(hoisted, f, xs, TP), op(ref, f, xs, TP)
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want), (name, k)
    steps = StepSchedule("power_law", 0.5, 1.0 / 3.0)
    for scheme in ("euler", "talay2"):
        got = simulate_batch(scheme, hoisted, steps, TP, 2000, [0.5], 9, 8).final_states
        want = simulate_batch(scheme, ref, steps, TP, 2000, [0.5], 9, 8).final_states
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# invariant laws of the catalog models

# a non-diagonal, non-normal Theta with correlated noise
THETA_2D = np.array([[1.0, 0.6], [-0.4, 2.0]])
SIGMA_2D = np.array([[1.0, 0.3], [0.0, 0.8]])


def _covariance(law, d):
    return np.array([[law.expect(lambda xs: xs[:, i] * xs[:, j]) for j in range(d)] for i in range(d)])


@pytest.mark.parametrize("sigma", [0.01, 0.02, 0.05, 0.5, math.sqrt(2.0), 3.0])
def test_double_well_gibbs_rule_matches_adaptive_quadrature(sigma):
    from scipy import integrate

    model = double_well(sigma)

    def gibbs_mean(op):
        # density exp(-2U / sigma^2) up to a constant, U = x^4/4 - x^2/2
        def dens(x):
            return math.exp(-0.5 * ((x * x - 1.0) / sigma) ** 2)

        def quad(g):
            return integrate.quad(g, -6.0, 6.0, points=(-1.0, 0.0, 1.0), epsabs=0.0,
                                  epsrel=1e-13, limit=500)[0]

        return quad(lambda x: float(op(np.array([[x]]))[0]) * dens(x)) / quad(dens)

    for op in (lambda xs: vf_operator(model, X2, xs), lambda xs: m1_euler(model, X2, xs, TP)):
        assert model.law.expect(op) == pytest.approx(gibbs_mean(op), rel=1e-12)


def test_double_well_gibbs_rule_refuses_sigma_below_its_floor():
    # the rule is built on first use, so the model itself still builds
    law = double_well(0.005).law
    with pytest.raises(ValueError, match="0.01"):
        law.expect(lambda xs: xs[:, 0])


def test_isotropic_ou_nd_law_gives_the_variance_of_each_observable():
    model = model_from_config({"model.id": "ou_nd", "model.dim": 2})
    for name, want in (("x1^2", 8.0), ("x1*x2", 4.0)):
        f = observable_from_name(name, 2)
        assert model.law.expect(lambda xs: vf_operator(model, f, xs)) == pytest.approx(want, rel=1e-14)


def test_ou_nd_in_one_dimension_is_ou1d():
    one = model_from_config({"model.id": "ou_nd", "model.dim": 1})
    for k in range(1, 7):
        f = coordinate_monomial((k,))
        assert (one.law.expect(lambda xs: vf_operator(one, f, xs))
                == pytest.approx(OU.law.expect(lambda xs: vf_operator(OU, f, xs)), rel=1e-15))
    for k in (2, 4):
        f = coordinate_monomial((k,))
        assert (one.law.expect(lambda xs: m2_talay(one, f, xs, TP))
                == pytest.approx(OU.law.expect(lambda xs: m2_talay(OU, f, xs, TP)), rel=1e-15))
    assert one.law.normal == OU.law.normal


def test_ou_nd_law_solves_the_lyapunov_equation():
    cov = _covariance(ou_nd(THETA_2D, SIGMA_2D).law, 2)
    residual = THETA_2D @ cov + cov @ THETA_2D.T - SIGMA_2D @ SIGMA_2D.T
    assert np.abs(residual).max() <= 1e-14


def test_ou_nd_rule_is_exact_for_the_variance_of_a_degree_six_observable():
    # Vf of x1^6 has degree 10: 6 nodes per axis integrate it exactly, 4 do not
    model = ou_nd(THETA_2D, SIGMA_2D)
    cov = _covariance(model.law, 2)
    f = coordinate_monomial((6, 0))

    def vf(xs):
        return vf_operator(model, f, xs)

    wide = normal_law(cov, 8).expect(vf)
    assert model.law.expect(vf) == pytest.approx(wide, rel=1e-13)
    assert abs(normal_law(cov, 4).expect(vf) / wide - 1.0) > 0.1


def test_ou_nd_without_mean_reversion_has_no_law():
    assert ou_nd([[1.0, 0.0], [0.0, -0.5]], np.eye(2)).law is None
    assert ou_nd([[0.0, 1.0], [-1.0, 0.0]], np.eye(2)).law is None


def test_bias_operator_refuses_an_innovation_of_another_dimension():
    model = ou_nd(np.eye(2), math.sqrt(2.0) * np.eye(2))
    with pytest.raises(ValueError, match="innovation dimension"):
        m1_euler(model, coordinate_monomial((2, 0)), np.zeros((3, 2)), TP)
