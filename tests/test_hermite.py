"""Spline correctness against two independent oracles.

The first oracle evaluates segments through the textbook Hermite basis
(h00, h10, h01, h11) instead of the power form the implementation stores.
The second is scipy's monotone interpolant, which implements the same
published slope rule with an unrelated code path.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from fleetchain.hermite import (
    HermiteSpline,
    JointHermite,
    SplineSegment,
    fit_hermite,
    shape_preserving_slopes,
)


def hermite_basis_eval(p0, p1, m0, m1, t0, t1, t):
    """Oracle: f(t) on one segment via the Hermite basis on u in [0, 1]."""
    h = t1 - t0
    u = (t - t0) / h
    h00 = 2 * u**3 - 3 * u**2 + 1
    h10 = u**3 - 2 * u**2 + u
    h01 = -2 * u**3 + 3 * u**2
    h11 = u**3 - u**2
    return h00 * p0 + h10 * h * m0 + h01 * p1 + h11 * h * m1


def random_knot_set(rng, n=None):
    n = n if n is not None else rng.randint(3, 50)
    gaps = [rng.uniform(0.5, 60.0) for _ in range(n - 1)]
    knots = [0.0]
    for g in gaps:
        knots.append(knots[-1] + g)
    values = [rng.uniform(-1e3, 1e3) for _ in range(n)]
    return knots, values


# --- power form vs Hermite basis -------------------------------------------

def test_power_form_matches_basis_form():
    rng = random.Random(20)
    for _ in range(50):
        knots, values = random_knot_set(rng, n=rng.randint(2, 12))
        spline = fit_hermite(knots, values)
        for i, seg in enumerate(spline.segments):
            p0, p1 = values[i], values[i + 1]
            m0, m1 = spline.slopes[i], spline.slopes[i + 1]
            for frac in (0.1, 0.25, 0.5, 0.75, 0.9):
                t = knots[i] + frac * (knots[i + 1] - knots[i])
                want = hermite_basis_eval(p0, p1, m0, m1, knots[i], knots[i + 1], t)
                assert math.isclose(seg.value(t), want, rel_tol=1e-12, abs_tol=1e-9)


def test_frozen_segment_midpoint():
    # p0 = p1 = 0, m0 = m1 = 1 on [0, 1] gives f(s) = 2s^3 - 3s^2 + s,
    # so f(0.5) = 0.25 - 0.75 + 0.5 = 0 and f'(0.5) = 1.5 - 3 + 1 = -0.5
    spline = fit_hermite([0.0, 1.0], [0.0, 0.0], slopes=[1.0, 1.0])
    assert math.isclose(spline.eval(0.5), 0.0, abs_tol=1e-15)
    assert math.isclose(spline.derivative(0.5), -0.5, rel_tol=1e-15)


@given(
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_explicit_slope_segment_matches_basis(p0, p1, m0, m1, frac):
    spline = fit_hermite([2.0, 5.0], [p0, p1], slopes=[m0, m1])
    t = 2.0 + 3.0 * frac
    want = hermite_basis_eval(p0, p1, m0, m1, 2.0, 5.0, t)
    assert math.isclose(spline.eval(t), want, rel_tol=1e-10, abs_tol=1e-9)


# --- slope rule vs scipy ----------------------------------------------------

def test_slopes_match_scipy():
    rng = random.Random(99)
    for _ in range(30):
        knots, values = random_knot_set(rng)
        ours = shape_preserving_slopes(knots, values)
        theirs = PchipInterpolator(knots, values).derivative()(knots)
        np.testing.assert_allclose(ours, theirs, rtol=1e-10, atol=1e-9)


def test_values_match_scipy_on_dense_grid():
    rng = random.Random(7)
    for _ in range(20):
        knots, values = random_knot_set(rng)
        spline = fit_hermite(knots, values)
        ref = PchipInterpolator(knots, values)
        ts = np.linspace(knots[0], knots[-1], 400)
        np.testing.assert_allclose(spline.sample(ts), ref(ts), rtol=1e-10, atol=1e-9)


# --- structural guarantees --------------------------------------------------

def test_knot_values_reproduced_exactly():
    rng = random.Random(3)
    knots, values = random_knot_set(rng)
    spline = fit_hermite(knots, values)
    for k, v in zip(knots, values):
        assert spline.eval(k) == v


def test_c1_continuity_at_interior_knots():
    rng = random.Random(11)
    for _ in range(20):
        knots, values = random_knot_set(rng)
        spline = fit_hermite(knots, values)
        for i in range(1, len(knots) - 1):
            k = knots[i]
            left = spline.segments[i - 1]
            right = spline.segments[i]
            assert abs(left.value(k) - right.value(k)) <= 1e-9
            assert abs(left.derivative(k) - right.derivative(k)) <= 1e-9


def test_monotone_data_no_overshoot():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(3, 20)
        knots = sorted(rng.uniform(0, 100) for _ in range(n))
        knots = [k + i * 1e-3 for i, k in enumerate(knots)]  # enforce strict order
        steps = [rng.uniform(0.0, 10.0) for _ in range(n - 1)]
        values = [0.0]
        for s in steps:
            values.append(values[-1] + s)
        spline = fit_hermite(knots, values)
        ts = np.linspace(knots[0], knots[-1], 600)
        ys = spline.sample(ts)
        assert ys.min() >= values[0] - 1e-9
        assert ys.max() <= values[-1] + 1e-9
        assert np.all(np.diff(ys) >= -1e-9)  # monotone data -> monotone fit


def test_flat_data_stays_flat():
    spline = fit_hermite([0.0, 1.0, 2.5, 4.0], [5.0, 5.0, 5.0, 5.0])
    ts = np.linspace(0.0, 4.0, 50)
    np.testing.assert_allclose(spline.sample(ts), 5.0, atol=1e-15)


def test_two_knots_give_the_straight_line():
    spline = fit_hermite([1.0, 3.0], [10.0, 20.0])
    assert spline.slopes == (5.0, 5.0)
    assert math.isclose(spline.eval(2.0), 15.0, rel_tol=1e-15)


def test_local_extremum_gets_zero_slope():
    # secants change sign at the middle knot
    slopes = shape_preserving_slopes([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert slopes[1] == 0.0


def test_derivative_matches_finite_difference():
    rng = random.Random(5)
    knots, values = random_knot_set(rng, n=12)
    spline = fit_hermite(knots, values)
    eps = 1e-6
    for frac in np.linspace(0.05, 0.95, 19):
        t = knots[0] + frac * (knots[-1] - knots[0])
        fd = (spline.eval(t + eps) - spline.eval(t - eps)) / (2 * eps)
        assert math.isclose(spline.derivative(t), fd, rel_tol=1e-4, abs_tol=1e-4)


def test_derivative_at_knots_is_assigned_slope():
    spline = fit_hermite([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
    for k, m in zip(spline.knots, spline.slopes):
        assert spline.derivative(k) == m


def test_sample_agrees_with_scalar_eval():
    rng = random.Random(77)
    knots, values = random_knot_set(rng, n=9)
    spline = fit_hermite(knots, values)
    ts = np.linspace(knots[0], knots[-1], 101)
    scalar = np.array([spline.eval(t) for t in ts])
    np.testing.assert_allclose(spline.sample(ts), scalar, rtol=0, atol=1e-12)


# --- joint evaluation of fits on shared knots ------------------------------

def three_fits(rng, n):
    knots, values = random_knot_set(rng, n=n)
    others = [[rng.uniform(-1e3, 1e3) for _ in knots] for _ in range(2)]
    return [fit_hermite(knots, vs, channel=name)
            for name, vs in zip(("lat", "lon", "speed_kmh"), [values, *others])]


def assert_bitwise(a, b):
    assert [v.hex() for v in a] == [v.hex() for v in b]


def test_joint_eval_matches_each_fit_bit_for_bit():
    rng = random.Random(2024)
    for n in (2, 3, 17):
        fits = three_fits(rng, n)
        joint = JointHermite(*fits)
        knots = fits[0].knots
        mids = [0.5 * (a + b) for a, b in zip(knots, knots[1:])]
        draws = [rng.uniform(knots[0], knots[-1]) for _ in range(1000)]
        # the last knot is t_max, the one time the right-end short-cut serves
        for t in [*knots, *mids, *draws]:
            assert_bitwise(joint.eval(t), [f.eval(t) for f in fits])


def test_joint_eval_refuses_extrapolation_like_the_fits():
    fits = three_fits(random.Random(8), 6)
    joint = JointHermite(*fits)
    for t in (fits[0].t_min - 1e-9, fits[0].t_max + 1e-9, -1e9, 1e9):
        with pytest.raises(ValueError) as want:
            fits[0].eval(t)
        with pytest.raises(ValueError) as got:
            joint.eval(t)
        assert str(got.value) == str(want.value)


def test_joint_eval_refuses_fits_on_different_knots():
    fit = fit_hermite([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    shifted = fit_hermite([0.0, 1.5, 2.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="same knots"):
        JointHermite(fit, fit, shifted)
    with pytest.raises(ValueError, match="same knots"):
        JointHermite(shifted, fit, fit)


# --- domain and validation --------------------------------------------------

def test_extrapolation_refused():
    spline = fit_hermite([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="extrapolation"):
        spline.eval(-0.001)
    with pytest.raises(ValueError, match="extrapolation"):
        spline.eval(1.001)
    with pytest.raises(ValueError, match="domain"):
        spline.sample(np.array([0.5, 1.5]))


def test_fit_validation():
    with pytest.raises(ValueError, match="at least 2"):
        fit_hermite([0.0], [1.0])
    with pytest.raises(ValueError, match="knots vs"):
        fit_hermite([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        fit_hermite([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        fit_hermite([0.0, float("inf")], [1.0, 2.0])
    with pytest.raises(ValueError, match="slopes vs"):
        fit_hermite([0.0, 1.0], [1.0, 2.0], slopes=[0.0])


def test_segment_rejects_empty_interval():
    with pytest.raises(ValueError, match="t1 > t0"):
        SplineSegment(a=0, b=0, c=0, d=0, t0=1.0, t1=1.0)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_interpolation_property(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    gaps = data.draw(
        st.lists(st.floats(min_value=0.5, max_value=60.0), min_size=n - 1, max_size=n - 1)
    )
    values = data.draw(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=n, max_size=n)
    )
    knots = [0.0]
    for g in gaps:
        knots.append(knots[-1] + g)
    spline = fit_hermite(knots, values)
    for k, v in zip(knots, values):
        assert abs(spline.eval(k) - v) <= 1e-9
    mid = data.draw(st.floats(min_value=knots[0], max_value=knots[-1]))
    assert min(values) - 1e-6 <= spline.eval(mid) <= max(values) + 1e-6
