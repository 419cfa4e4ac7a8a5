"""Adaptive integrator (scalar and vector-valued integrands) and
cumulative Chebyshev antiderivative checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniwkb.quadrature import (
    CumulativeCheb,
    QuadratureError,
    QuadratureSpec,
    integrate,
)


def test_integrate_known_values():
    assert abs(integrate(np.sin, 0.0, np.pi) - 2.0) < 1e-13
    assert abs(integrate(lambda x: x ** 7, -1.0, 3.0) - (3.0 ** 8 - 1.0) / 8) < 1e-10
    # sharply peaked but smooth
    f = lambda x: np.exp(-50.0 * x * x)
    assert abs(integrate(f, -10.0, 10.0) - np.sqrt(np.pi / 50.0)) < 1e-12
    assert integrate(np.cos, 2.0, 2.0) == 0.0


def test_integrate_oscillatory():
    f = lambda x: np.cos(40.0 * x)
    exact = np.sin(40.0 * 3.0) / 40.0
    assert abs(integrate(f, 0.0, 3.0) - exact) < 1e-12


def test_integrate_nonconvergence():
    spec = QuadratureSpec(rel_tol=1e-11, max_depth=2)
    f = lambda x: np.cos(400.0 * x)
    with pytest.raises(QuadratureError):
        integrate(f, 0.0, 3.0, spec)


def test_scalar_integrand_returns_python_float():
    assert type(integrate(np.sin, 0.0, 1.0)) is float
    assert type(integrate(lambda x: np.exp(-x * x), -3.0, 3.0)) is float


# ---- vector-valued integrands ----

@st.composite
def stacked_components(draw):
    """(integrand, closed-form integral) pairs: shifted Gaussians and cosines."""
    comps = []
    for _ in range(draw(st.integers(1, 5))):
        amp = draw(st.floats(0.1, 10.0))
        if draw(st.booleans()):
            c = draw(st.floats(0.5, 40.0))
            x0 = draw(st.floats(-2.0, 3.0))
            f = (lambda x, amp=amp, c=c, x0=x0:
                 amp * np.exp(-c * (x - x0) ** 2))
            r = math.sqrt(c)
            exact = (amp * 0.5 * math.sqrt(math.pi / c)
                     * (math.erf(r * (3.0 - x0)) - math.erf(r * (-2.0 - x0))))
        else:
            w = draw(st.floats(0.5, 30.0))
            phi = draw(st.floats(0.0, 2.0 * math.pi))
            f = lambda x, amp=amp, w=w, phi=phi: amp * np.cos(w * x + phi)
            exact = amp * (math.sin(3.0 * w + phi) - math.sin(-2.0 * w + phi)) / w
        comps.append((f, exact))
    return comps


@settings(max_examples=40, deadline=None)
@given(stacked_components())
def test_vector_components_match_scalar_and_closed_form(comps):
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
    a, b = -2.0, 3.0
    got = integrate(lambda x: np.stack([f(x) for f, _ in comps]), a, b, spec)
    assert isinstance(got, np.ndarray) and got.shape == (len(comps),)
    xs = np.linspace(a, b, 20001)
    for (f, exact), value in zip(comps, got):
        # the spec tolerance, relative to the component's own size
        scale = np.mean(np.abs(f(xs))) * (b - a)
        tol = max(spec.abs_tol, spec.rel_tol * scale)
        assert abs(value - exact) <= tol
        assert abs(value - integrate(f, a, b, spec)) <= tol


def test_tiny_component_meets_its_own_relative_budget():
    # the small component oscillates and needs the finer panels; a shared
    # absolute budget taken from the large one would accept it far too early
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)

    def f(x):
        return np.stack([np.exp(-x * x), 1e-12 * np.cos(25.0 * x)])

    big, tiny = integrate(f, -4.0, 4.0, spec)
    assert abs(big - math.sqrt(math.pi) * math.erf(4.0)) <= 1e-10 * big
    want = 1e-12 * 2.0 * math.sin(100.0) / 25.0
    assert abs(tiny - want) <= 1e-10 * abs(want)


def test_vector_nonconvergence_names_component():
    spec = QuadratureSpec(rel_tol=1e-11, max_depth=2)

    def f(x):
        return np.stack([np.exp(-x), np.cos(400.0 * x)])

    with pytest.raises(QuadratureError, match="component 1 of 2"):
        integrate(f, 0.0, 3.0, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-14)


def test_cumulative_matches_antiderivative():
    F = CumulativeCheb(np.cos, [0.0, 1.0, 2.5, 7.0])
    xs = np.linspace(0.0, 7.0, 113)
    assert np.max(np.abs(F(xs) - np.sin(xs))) < 1e-12
    assert abs(F.total() - np.sin(7.0)) < 1e-12
    assert abs(F(2.5) - np.sin(2.5)) < 1e-13  # panel edge
    # scalar call and clamping
    assert isinstance(F(3.0), float)
    assert F(-5.0) == F(0.0)
    assert abs(F(99.0) - F.total()) < 1e-15


def test_cumulative_offset_and_kink():
    # |x| has a kink at 0; a breakpoint there keeps panels analytic.  F is
    # anchored at the first breakpoint, F(-2) = 0.
    F = CumulativeCheb(np.abs, [-2.0, 0.0, 2.0])
    xs = np.linspace(-2.0, 2.0, 41)
    want = 0.5 * xs * np.abs(xs) - 0.5 * (-2.0) * 2.0
    assert np.max(np.abs(F(xs) - want)) < 1e-13


def test_cumulative_validation():
    with pytest.raises(ValueError):
        CumulativeCheb(np.cos, [0.0])
    with pytest.raises(ValueError):
        CumulativeCheb(np.cos, [1.0, 1.0])
