from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pytest

from ergostep.empirical import WeightedEmpiricalMeasure
from ergostep.model import DiffusionModel, Observable
from ergostep.schemes import simulate_batch


def broadcast_ou(theta: float, sigma: float) -> DiffusionModel:
    """The catalog OU with every constant field broadcast to the batch shape."""

    def const(value):
        value = np.asarray(value, dtype=np.float64)
        return lambda xs: np.broadcast_to(value, np.asarray(xs).shape[:-1] + value.shape)

    return DiffusionModel(
        dim=1, noise_dim=1, b=lambda xs: -theta * xs,
        sigma=const([[sigma]]),
        db=const([[-theta]]),
        d2b=const(np.zeros((1, 1, 1))),
        dsigma=const(np.zeros((1, 1, 1))),
        d2sigma=const(np.zeros((1, 1, 1, 1))),
    )


def poly1d_model(b_coeffs, s_coeffs, fd_only: bool = False) -> DiffusionModel:
    """1-d model with polynomial drift/diffusion and exact derivatives.

    Coefficients follow numpy's Polynomial convention (coeffs[k] * x^k).
    ``fd_only`` drops the analytic derivative callbacks, leaving b and sigma
    alone: enough for the Euler kernel, refused by whatever reads a
    derivative.
    """
    P = np.polynomial.Polynomial
    bp, sp_ = P(list(b_coeffs)), P(list(s_coeffs))

    def shape(val, rank):
        out = np.asarray(val, dtype=np.float64)
        return out.reshape(out.shape + (1,) * rank)

    def b(x):
        return shape(bp(x[..., 0]), 1)

    def sigma(x):
        return shape(sp_(x[..., 0]), 2)

    if fd_only:
        return DiffusionModel(dim=1, noise_dim=1, b=b, sigma=sigma)
    return DiffusionModel(
        dim=1, noise_dim=1, b=b, sigma=sigma,
        db=lambda x: shape(bp.deriv(1)(x[..., 0]), 2),
        d2b=lambda x: shape(bp.deriv(2)(x[..., 0]), 3),
        dsigma=lambda x: shape(sp_.deriv(1)(x[..., 0]), 3),
        d2sigma=lambda x: shape(sp_.deriv(2)(x[..., 0]), 4),
    )


def linear_combination(coeffs: Sequence[float], observables: Sequence[Observable]) -> Observable:
    """a_1 f_1 + ... + a_m f_m as an Observable (derivatives combine linearly)."""
    cs = [float(c) for c in coeffs]

    def fn(x):
        return sum(c * o.fn(x) for c, o in zip(cs, observables))

    def dd(x, k, dirs):
        return sum(c * o.d(x, k, dirs) for c, o in zip(cs, observables))

    return Observable(fn=fn, dirderiv=dd, max_order=min(o.max_order for o in observables))


def partitioned_batch(scheme, model, steps, innovation, n, x0, seed, parts, weights, fn):
    """One ``simulate_batch`` per replication range [lo, hi) in ``parts``,
    each feeding a fresh measure of ``fn`` under ``weights``: the final
    states and nu_n(fn), concatenated in replication order."""
    finals, values = [], []
    for lo, hi in parts:
        meas = WeightedEmpiricalMeasure(weights=weights, batch_shape=(hi - lo,))
        meas.register("f", fn)
        res = simulate_batch(scheme, model, steps, innovation, n, x0, master_seed=seed,
                             replications=hi - lo, sinks=[meas], replication_offset=lo)
        finals.append(res.final_states)
        values.append(meas.value("f"))
    return np.concatenate(finals), np.concatenate(values)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process or a Python thread running.
    The simulation driver's kernel worker must end with its call on every
    exit path, and a leaked thread would send every later run down the
    driver's inline path, so the worker path would lose its coverage."""
    yield
    import multiprocessing
    import threading

    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"child processes left running: {left}"
    assert threading.active_count() == 1, f"threads left running: {threading.enumerate()}"


@pytest.fixture
def zero_model() -> DiffusionModel:
    return poly1d_model([0.0], [0.0])


def directional_fd(f: Callable, x: np.ndarray, dirs: Sequence[np.ndarray], h: float) -> np.ndarray:
    """Central-difference directional derivative of plain callable ``f``.

    Supports order one and two; used to cross-check analytic ``dirderiv``
    callbacks.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(dirs) == 1:
        v = dirs[0]
        return (f(x + h * v) - f(x - h * v)) / (2.0 * h)
    if len(dirs) == 2:
        v, w = dirs
        return (
            f(x + h * v + h * w) - f(x + h * v - h * w)
            - f(x - h * v + h * w) + f(x - h * v - h * w)
        ) / (4.0 * h * h)
    raise ValueError("finite-difference check supports orders 1 and 2 only")
