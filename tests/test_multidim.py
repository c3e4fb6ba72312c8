"""Two-dimensional checks of the operator machinery and steppers: the
generator-as-observable Leibniz assembly, the correction operators, and the
weak-order behaviour of both kernels with matrix diffusion.

Frozen expected values come from an independent symbolic evaluation of the
same quantities (generator compositions and innovation-moment expectations
computed termwise on polynomials).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import directional_fd
from ergostep.catalog import coordinate_monomial, ou_nd
from ergostep.innovations import InnovationDist, joint_outcomes
from ergostep.model import (
    DiffusionModel,
    generator_apply,
    generator_observable,
    m1_euler,
    vf_operator,
)
from ergostep.diagnostics import weak_order_probe
from ergostep.schemes import make_stepper, simulate
from ergostep.schedules import StepSchedule

THETA = np.array([[1.0, 0.5], [0.0, 2.0]])
SIG = np.array([[1.0, 0.3], [0.2, 1.1]])
MODEL = ou_nd(THETA, SIG)
F = coordinate_monomial((2, 2))
PT = np.array([0.7, -1.2])
TP2 = InnovationDist("three_point", 2)


def test_generator_value_2d():
    assert generator_apply(MODEL, F, PT) == pytest.approx(-2.6227, abs=1e-12)


def test_generator_observable_2d_value_and_composition():
    af = generator_observable(MODEL, F)
    assert af.fn(PT) == pytest.approx(-2.6227, abs=1e-12)
    assert generator_apply(MODEL, af, PT) == pytest.approx(10.3774, abs=1e-10)


def test_generator_observable_2d_gradient():
    af = generator_observable(MODEL, F)
    e1, e2 = np.eye(2)
    assert af.d(PT, 1, (e1,)) == pytest.approx(-11.162, abs=1e-10)
    assert af.d(PT, 1, (e2,)) == pytest.approx(2.9, abs=1e-10)
    for v in (e1, np.array([0.4, -0.8])):
        fd = directional_fd(af.fn, PT, (v,), h=1e-6)
        assert af.d(PT, 1, (v,)) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_m1_euler_2d_against_symbolic():
    assert m1_euler(MODEL, F, PT, TP2) == pytest.approx(-2.9301, abs=1e-10)


def test_vf_operator_2d():
    # |S^T grad f|^2 with grad f = (2 x1 x2^2, 2 x1^2 x2)
    g = np.array([2 * 0.7 * 1.44, 2 * 0.49 * -1.2])
    expected = float(np.sum((SIG.T @ g) ** 2))
    assert vf_operator(MODEL, F, PT) == pytest.approx(expected, rel=1e-12)


def test_weak_order_euler_2d():
    res = weak_order_probe("euler", MODEL, F, PT, [2.0**-6, 2.0**-7], TP2)
    assert 3.2 <= res.ratios[0] <= 4.8


def _diag_poly_2d() -> DiffusionModel:
    """Diagonal state-dependent diffusion (no off-diagonal coupling):
    b = -x, sigma = diag(1 + x1^2/8, 1 + x2^2/10)."""

    def b(x):
        return -x

    def sigma(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + x[..., 0] ** 2 / 8.0
        out[..., 1, 1] = 1.0 + x[..., 1] ** 2 / 10.0
        return out

    def db(x):
        return np.broadcast_to(-np.eye(2), x.shape[:-1] + (2, 2))

    def d2b(x):
        return np.broadcast_to(np.zeros((2, 2, 2)), x.shape[:-1] + (2, 2, 2))

    def dsigma(x):
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = x[..., 0] / 4.0
        out[..., 1, 1, 1] = x[..., 1] / 5.0
        return out

    def d2sigma(x):
        out = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
        out[..., 0, 0, 0, 0] = 0.25
        out[..., 1, 1, 1, 1] = 0.2
        return out

    return DiffusionModel(dim=2, noise_dim=2, b=b, sigma=sigma, db=db, d2b=d2b,
                          dsigma=dsigma, d2sigma=d2sigma)


def test_weak_order_talay_2d_diagonal_noise():
    # diagonal noise has no off-diagonal surrogate terms: order two holds
    model = _diag_poly_2d()
    res = weak_order_probe("talay2", model, F, np.array([0.5, -0.4]),
                           [2.0**-8, 2.0**-9], TP2)
    assert 6.0 <= res.ratios[0] <= 10.0


def test_talay_2d_surrogate_centering_in_mean():
    # with the symmetric sign surrogate, the one-step mean keeps the exact
    # drift expansion: E[X_gamma] = x + gamma b + gamma^2/2 Ab
    model = _diag_poly_2d()
    g = 2.0**-6
    step = make_stepper("talay2", model)
    total = np.zeros(2)
    for u, kap, p in joint_outcomes(TP2, with_kappa=True):
        total = total + p * step(np.array([0.5, -0.4]), g, u, kap)
    x0 = np.array([0.5, -0.4])
    # Ab = (Db) b = x for b = -x
    expected = x0 + g * model.b(x0) + 0.5 * g * g * x0
    assert total == pytest.approx(expected, abs=1e-13)


def test_simulate_2d_measures_match_serial():
    from ergostep.empirical import WeightedEmpiricalMeasure
    from ergostep.schedules import WeightSchedule
    from ergostep.schemes import simulate_batch

    st = StepSchedule("power_law", 0.4, 0.4)
    w = WeightSchedule("proportional", st, c=1.0)
    serial = []
    for r in range(3):
        meas = WeightedEmpiricalMeasure(weights=w, fn=F.fn)
        simulate("talay2", MODEL, st, TP2, 1500, [0.2, 0.2], rng_seed=31,
                 sinks=[meas], replication=r)
        serial.append(meas.value())
    bm = WeightedEmpiricalMeasure(weights=w, batch_shape=(3,), fn=F.fn)
    simulate_batch("talay2", MODEL, st, TP2, 1500, [0.2, 0.2], master_seed=31,
                   replications=3, sinks=[bm])
    assert np.array_equal(bm.value(), np.array(serial))
