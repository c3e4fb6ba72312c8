from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergostep.innovations import (
    InnovationDist,
    assemble_w,
    gaussian_moment,
    joint_outcomes,
    sample_kappa,
)
from ergostep.schemes import trajectory_generators

SQ3 = math.sqrt(3.0)


@pytest.mark.parametrize("kind,order,expected", [
    ("three_point", 2, Fraction(1)),
    ("three_point", 4, Fraction(3)),
    ("three_point", 6, Fraction(9)),
    ("rademacher", 4, Fraction(1)),
    ("gaussian", 4, Fraction(3)),
    ("gaussian", 6, Fraction(15)),
])
def test_analytic_moments(kind, order, expected):
    assert InnovationDist(kind, 1).moment(order) == expected


@pytest.mark.parametrize("kind", ["three_point", "rademacher"])
def test_enumeration_moments_exact(kind):
    dist = InnovationDist(kind, 1)
    for order in range(1, 7):
        emp = math.fsum(p * u[0] ** order for u, _, p in joint_outcomes(dist))
        assert abs(emp - float(dist.moment(order))) <= 1e-14


def test_outcome_probabilities_sum_to_one():
    for kind in ("three_point", "rademacher"):
        for dim in (1, 2, 3):
            dist = InnovationDist(kind, dim)
            assert abs(math.fsum(p for _, _, p in joint_outcomes(dist)) - 1.0) <= 1e-14
            assert abs(math.fsum(p for _, _, p in joint_outcomes(dist, with_kappa=True)) - 1.0) <= 1e-14


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "three_point"])
def test_empirical_moments_within_five_se(kind):
    dist = InnovationDist(kind, 1)
    rng, _ = trajectory_generators(321, 0)
    draws = dist.sample(rng, size=10**6)[:, 0]
    for order in (1, 2, 3, 4):
        analytic = float(dist.moment(order))
        powers = draws**order
        se = powers.std(ddof=1) / math.sqrt(powers.size)
        if se == 0.0:
            assert powers.mean() == analytic
        else:
            assert abs(powers.mean() - analytic) <= 5 * se


def test_matching_orders():
    assert InnovationDist("rademacher", 1).matching_order == 3
    assert InnovationDist("three_point", 1).matching_order == 5
    assert InnovationDist("gaussian", 1).matching_order is None


def test_gaussian_moment_table():
    assert [gaussian_moment(k) for k in range(7)] == [1, 0, 1, 0, 3, 0, 15]


def test_sample_determinism():
    dist = InnovationDist("three_point", 2)
    a, _ = trajectory_generators(7, 3)
    b, _ = trajectory_generators(7, 3)
    assert np.array_equal(dist.sample(a, size=100), dist.sample(b, size=100))
    c, _ = trajectory_generators(7, 4)
    assert not np.array_equal(dist.sample(a, size=10), dist.sample(c, size=10))


def test_three_point_draws_match_cut_point_formula():
    # the draws are -sqrt(3), 0, sqrt(3) as u < 1/6, u < 5/6, else, on the
    # uniform stream the sampler consumes
    dist = InnovationDist("three_point", 2)
    rng, _ = trajectory_generators(11, 5)
    ref, _ = trajectory_generators(11, 5)
    got = dist.sample(rng, size=(300, 4))
    u = ref.random((300, 4, 2))
    want = np.where(u < 1.0 / 6.0, -SQ3, np.where(u < 5.0 / 6.0, 0.0, SQ3))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not np.any(np.signbit(got[got == 0.0]))  # the middle value is +0.0


@pytest.mark.parametrize("kind", ["three_point", "rademacher", "gaussian"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("streams", [1, 5])
def test_block_draw_is_per_stream_draw(kind, dim, streams):
    dist = InnovationDist(kind, dim)
    for m in (1, 37, 1024):
        gens = [trajectory_generators(13, r)[0] for r in range(streams)]
        got = dist.sample(gens, m)
        gens = [trajectory_generators(13, r)[0] for r in range(streams)]
        want = np.stack([dist.sample(g, m) for g in gens], axis=1)
        assert got.shape == (m, streams, dim) and got.dtype == np.float64
        assert got.flags.c_contiguous
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("kind", ["three_point", "rademacher", "gaussian"])
def test_draws_share_no_memory(kind):
    dist = InnovationDist(kind, 1)
    gens = [trajectory_generators(29, r)[0] for r in range(4)]
    a, b = dist.sample(gens, 64), dist.sample(gens, 64)
    assert not np.shares_memory(a, b)
    rng, _ = trajectory_generators(29, 9)
    a, b = dist.sample(rng, 64), dist.sample(rng, 64)
    assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kind", ["three_point", "rademacher", "gaussian"])
def test_block_draw_into_out_is_the_allocated_draw(kind):
    dist = InnovationDist(kind, 2)
    want = dist.sample([trajectory_generators(31, r)[0] for r in range(3)], 40)
    out = np.full((40, 3, 2), np.nan)
    got = dist.sample([trajectory_generators(31, r)[0] for r in range(3)], 40, out=out)
    assert got is out and np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    with pytest.raises(ValueError):
        dist.sample([trajectory_generators(31, 0)[0]], 40, out=out)


@pytest.mark.parametrize("kind", ["three_point", "rademacher"])
def test_block_draw_holds_one_float64_block(kind):
    # the values go over the raw draws' memory: one 1.56 MiB block of
    # 1024 x 200 values plus uint8 masks, not a second float64 block
    import tracemalloc

    dist = InnovationDist(kind, 1)
    gens = [trajectory_generators(3, r)[0] for r in range(200)]
    tracemalloc.start()
    try:
        dist.sample(gens, 1024)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 2.1, peak


def test_sample_innovation_shape():
    dist = InnovationDist("gaussian", 3)
    rng, _ = trajectory_generators(0, 0)
    assert dist.sample(rng).shape == (3,)


def test_surrogate_example_n2():
    w = assemble_w(np.array([1.0, 2.0]), np.array([0.5]))
    assert np.array_equal(w, np.array([[0.0, 1.5], [1.5, 3.0]]))


def test_surrogate_example_n1():
    w = assemble_w(np.array([1.0]), np.zeros(0))
    assert np.array_equal(w, np.array([[0.0]]))


def test_surrogate_example_zero_u():
    w = assemble_w(np.array([0.0, 0.0]), np.array([-0.5]))
    assert np.array_equal(w, np.array([[-1.0, 0.5], [0.5, -1.0]]))


def test_surrogate_kappa_shape_validation():
    with pytest.raises(ValueError):
        assemble_w(np.array([1.0, 2.0]), np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=4))
def test_surrogate_symmetry(us):
    u = np.array(us)
    k = u.size * (u.size - 1) // 2
    w = assemble_w(u, np.full(k, 0.5))
    assert np.array_equal(w, w.T)


def _enumeration_mean_w(dist: InnovationDist) -> np.ndarray:
    n = dist.dimension
    entries = {(i, j): [] for i in range(n) for j in range(n)}
    for u, kap, p in joint_outcomes(dist, with_kappa=True):
        w = assemble_w(u, kap)
        for key in entries:
            entries[key].append(p * w[key])
    out = np.empty((n, n))
    for (i, j), vals in entries.items():
        out[i, j] = math.fsum(vals)
    return out


def test_surrogate_exact_centering_rademacher():
    # u^2 = 1 exactly, so every entry cancels exactly in the enumeration
    mean = _enumeration_mean_w(InnovationDist("rademacher", 2))
    assert np.array_equal(mean, np.zeros((2, 2)))


def test_surrogate_centering_three_point():
    # off-diagonals cancel exactly; the diagonal carries one ulp because
    # fl(sqrt(3))^2 is not exactly 3
    mean = _enumeration_mean_w(InnovationDist("three_point", 2))
    assert mean[0, 1] == 0.0 and mean[1, 0] == 0.0
    assert np.all(np.abs(mean) <= 4 * np.finfo(np.float64).eps)


def test_sample_kappa_values():
    _, rng = trajectory_generators(11, 0)
    draws = sample_kappa(rng, 3, size=1000)
    assert draws.shape == (1000, 3)
    assert set(np.unique(draws)) == {-0.5, 0.5}


def test_kappa_outcomes_count():
    # one empty sign pattern per u without signs, 2^(N(N-1)/2) with them
    assert len(joint_outcomes(InnovationDist("rademacher", 1), with_kappa=True)) == 2
    assert len(joint_outcomes(InnovationDist("rademacher", 3), with_kappa=True)) == 8 * 8
    assert joint_outcomes(InnovationDist("three_point", 1), with_kappa=True)[0][1].shape == (0,)


def test_enumeration_cap():
    big = InnovationDist("three_point", 13)
    with pytest.raises(ValueError, match="blow-up"):
        joint_outcomes(big)


def test_gaussian_has_no_support():
    with pytest.raises(ValueError):
        joint_outcomes(InnovationDist("gaussian", 1))


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        InnovationDist("uniform", 1)


def test_assemble_w_with_sampled_kappa():
    _, rng = trajectory_generators(4, 0)
    u = np.array([1.0, 2.0])
    w = assemble_w(u, sample_kappa(rng, 2))
    assert w.shape == (2, 2)
    assert np.array_equal(w, w.T)
    assert w[0, 0] == 0.0 and w[1, 1] == 3.0
    assert w[0, 1] in (1.5, 2.5)  # u1 u2 -/+ 1/2
