"""Adaptive integrator (scalar and vector-valued integrands) and
cumulative Chebyshev antiderivative checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniwkb.quadrature import (
    _NODES,
    _WFULL,
    _WGAUSS,
    MAX_LEVEL_PANELS,
    CumulativeCheb,
    QuadratureError,
    QuadratureSpec,
    _antiderivative_coeffs,
    integrate,
)


def test_integrate_known_values():
    assert abs(integrate(np.sin, [0.0, np.pi]) - 2.0) < 1e-13
    assert abs(integrate(lambda x: x ** 7, [-1.0, 3.0]) - (3.0 ** 8 - 1.0) / 8) < 1e-10
    # sharply peaked but smooth
    f = lambda x: np.exp(-50.0 * x * x)
    assert abs(integrate(f, [-10.0, 10.0]) - np.sqrt(np.pi / 50.0)) < 1e-12
    assert integrate(np.cos, [2.0, 2.0]) == 0.0


def test_integrate_oscillatory():
    f = lambda x: np.cos(40.0 * x)
    exact = np.sin(40.0 * 3.0) / 40.0
    assert abs(integrate(f, [0.0, 3.0]) - exact) < 1e-12


def test_integrate_nonconvergence():
    spec = QuadratureSpec(rel_tol=1e-11, max_depth=2)
    f = lambda x: np.cos(400.0 * x)
    with pytest.raises(QuadratureError):
        integrate(f, [0.0, 3.0], spec)


class _SampledTooMuch(Exception):
    """The integrand was asked for more nodes than any test should need."""


def test_noise_floor_fails_fast():
    """An integrand whose noise never meets its budget doubles the pending
    level at each depth; integrate must give up long before max_depth."""
    nodes = 0

    def noisy(x):
        nonlocal nodes
        nodes += x.size
        if nodes > 10 ** 6:
            raise _SampledTooMuch(nodes)
        return np.cos(1e9 * x)

    with pytest.raises(QuadratureError,
                       match=r"on \[0, 1\]: more than \d+ panels pending"):
        integrate(noisy, [0.0, 1.0, 2.0])


def test_scalar_integrand_returns_python_float():
    assert type(integrate(np.sin, [0.0, 1.0])) is float
    assert type(integrate(lambda x: np.exp(-x * x), [-3.0, 3.0])) is float
    assert type(integrate(np.sin, [0.0, 0.5, 0.5, 1.0])) is float


# ---- edge rules ----

@pytest.mark.parametrize("edges", [
    [1.0, 0.0],
    [0.0, 2.0, 1.0],
    [0.0, math.nan],
    [-math.inf, 0.0],
    [0.0, 1.0, math.inf],
    [0.0],
    [],
])
def test_bad_edges_rejected(edges):
    with pytest.raises(ValueError):
        integrate(np.cos, edges)


def test_zero_length_intervals_add_nothing_and_sample_nothing():
    def never(x):
        raise AssertionError("sampled a zero-length interval")

    assert integrate(never, [1.5, 1.5]) == 0.0
    assert integrate(never, [1.5, 1.5, 1.5], QuadratureSpec()) == 0.0

    seen = []

    def f(x):
        seen.append(np.size(x))
        return np.exp(-x * x)

    plain = integrate(f, [-1.0, 0.5, 2.0])
    nodes = sum(seen)
    seen.clear()
    repeated = integrate(f, [-1.0, -1.0, 0.5, 0.5, 2.0, 2.0])
    assert repeated == plain
    assert sum(seen) == nodes


# ---- the depth-first reference ----

def _dfs_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = f(mid + half * _NODES)
    if np.ndim(y) == 1:
        k = half * float(_WFULL @ y)
        g = half * float(_WGAUSS @ y)
        return k, abs(k - g)
    k = half * (y @ _WFULL)
    g = half * (y @ _WGAUSS)
    return k, np.abs(k - g)


def _budget(spec, k0):
    """A tree's first-panel budget, max(abs_tol, rel_tol*|K0|)."""
    if np.ndim(k0) == 1:
        return np.maximum(np.maximum(spec.abs_tol, spec.rel_tol * np.abs(k0)),
                          1e-300)
    return max(spec.abs_tol, spec.rel_tol * abs(k0), 1e-300)


def _passes(k, err, tol):
    if np.ndim(k) == 1:
        return bool(np.all((err <= tol) | (err <= 1e-16 * np.abs(k))))
    return err <= tol or err <= 1e-16 * abs(k)


def _dfs_interval(f, a, b, spec):
    """One interval on a right-first depth-first stack."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    k0, e0 = _dfs_panel(f, a, b)
    vector = np.ndim(k0) == 1
    stack = [(a, b, k0, e0, _budget(spec, k0), 0)]
    total = 0.0
    while stack:
        lo, hi, k, err, tol, depth = stack.pop()
        if _passes(k, err, tol):
            total += k
            continue
        if depth >= spec.max_depth:
            if vector:
                i = int(np.argmax(err / tol))
                raise QuadratureError(
                    "no convergence on [%g, %g] in component %d of %d "
                    "(err %.2e, tol %.2e)" % (lo, hi, i, len(k), err[i], tol[i]))
            raise QuadratureError(
                "no convergence on [%g, %g] (err %.2e, tol %.2e)" % (lo, hi, err, tol))
        mid = 0.5 * (lo + hi)
        kl, el = _dfs_panel(f, lo, mid)
        kr, er = _dfs_panel(f, mid, hi)
        stack.append((lo, mid, kl, el, 0.5 * tol, depth + 1))
        stack.append((mid, hi, kr, er, 0.5 * tol, depth + 1))
    return total


def _dfs_integrate(f, edges, spec):
    return sum(_dfs_interval(f, a, b, spec) for a, b in zip(edges[:-1], edges[1:]))


def _crowded_level(f, edges, spec):
    """The error for the first depth at which the depth-first trees of all
    intervals hold more than MAX_LEVEL_PANELS panels together, naming the
    interval with most of them (lowest on a tie); None when every depth up
    to max_depth fits.  Panels are sampled one by one, and a crowded level
    is counted before it is sampled."""
    level = []
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if a != b:
            k, err = _dfs_panel(f, a, b)
            level.append((i, a, b, k, err, _budget(spec, k)))
    for depth in range(spec.max_depth):
        split = [(i, lo, hi, tol) for i, lo, hi, k, err, tol in level
                 if not _passes(k, err, tol)]
        if 2 * len(split) > MAX_LEVEL_PANELS:
            count = {}
            for i, *_ in split:
                count[i] = count.get(i, 0) + 2
            i = max(count, key=lambda j: (count[j], -j))
            return ("no convergence on [%g, %g]: more than %d panels pending at "
                    "depth %d" % (edges[i], edges[i + 1], MAX_LEVEL_PANELS, depth + 1))
        level = []
        for i, lo, hi, tol in split:
            mid = 0.5 * (lo + hi)
            for a, b in ((lo, mid), (mid, hi)):
                k, err = _dfs_panel(f, a, b)
                level.append((i, a, b, k, err, 0.5 * tol))
    return None


def _recorded(f):
    seen = []

    def g(x):
        seen.append(np.array(x))
        return f(x)
    return g, seen


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _assert_same_as_dfs(f, edges, spec):
    """integrate equals the depth-first reference bit for bit (or raises the
    same error), having sampled the same nodes.  A tree level too crowded
    for integrate must raise integrate's own error instead."""
    g, seen = _recorded(f)
    h, ref_seen = _recorded(f)
    crowded = _crowded_level(f, edges, spec)
    if crowded is not None:
        with pytest.raises(QuadratureError) as info:
            integrate(g, edges, spec)
        assert str(info.value) == crowded
        return
    try:
        want = _dfs_integrate(h, edges, spec)
    except QuadratureError as exc:
        with pytest.raises(QuadratureError) as info:
            integrate(g, edges, spec)
        assert str(info.value) == str(exc)
        return
    got = integrate(g, edges, spec)
    assert type(got) is type(want)
    assert _bits(got) == _bits(want)
    # sorted by bit pattern: a value sort leaves -0.0 and 0.0 in either order
    nodes = np.sort(np.concatenate(seen).view(np.int64)) if seen else np.empty(0)
    ref_nodes = (np.sort(np.concatenate(ref_seen).view(np.int64)) if ref_seen
                 else np.empty(0))
    assert nodes.tobytes() == ref_nodes.tobytes()


@st.composite
def break_edges(draw):
    """Non-decreasing edges in [-2, 3], repeated points included."""
    cuts = draw(st.lists(st.floats(-2.0, 3.0), min_size=0, max_size=5))
    repeats = draw(st.lists(st.sampled_from([-2.0, 0.0, 0.7, 3.0]), max_size=2))
    return sorted([-2.0, 3.0] + cuts + repeats)


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


@settings(max_examples=60, deadline=None)
@given(stacked_components(), break_edges(), st.floats(1e-13, 1e-6), st.booleans())
def test_level_synchronous_equals_depth_first(comps, edges, rel_tol, stacked):
    spec = QuadratureSpec(rel_tol=rel_tol)
    if stacked:
        f = lambda x: np.stack([g(x) for g, _ in comps])
    else:
        f = comps[0][0]
    _assert_same_as_dfs(f, edges, spec)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("edges", [[0.0, 3.0], [0.0, 1.0, 3.0], [0.0, 0.0, 2.5, 3.0],
                                   [-1.0, 0.0, 0.5, 3.0]])
def test_depth_limit_names_the_panel_depth_first_meets(edges, stacked):
    spec = QuadratureSpec(rel_tol=1e-11, max_depth=2)
    if stacked:
        f = lambda x: np.stack([np.exp(-x), np.cos(400.0 * x), np.cos(300.0 * x)])
    else:
        f = lambda x: np.cos(400.0 * x)
    with pytest.raises(QuadratureError):
        _dfs_integrate(f, edges, spec)
    _assert_same_as_dfs(f, edges, spec)


@settings(max_examples=40, deadline=None)
@given(stacked_components())
def test_vector_components_match_scalar_and_closed_form(comps):
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
    a, b = -2.0, 3.0
    got = integrate(lambda x: np.stack([f(x) for f, _ in comps]), [a, b], spec)
    assert isinstance(got, np.ndarray) and got.shape == (len(comps),)
    xs = np.linspace(a, b, 20001)
    for (f, exact), value in zip(comps, got):
        # the spec tolerance, relative to the component's own size
        scale = np.mean(np.abs(f(xs))) * (b - a)
        tol = max(spec.abs_tol, spec.rel_tol * scale)
        assert abs(value - exact) <= tol
        assert abs(value - integrate(f, [a, b], spec)) <= tol


def test_tiny_component_meets_its_own_relative_budget():
    # the small component oscillates and needs the finer panels; a shared
    # absolute budget taken from the large one would accept it far too early
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)

    def f(x):
        return np.stack([np.exp(-x * x), 1e-12 * np.cos(25.0 * x)])

    big, tiny = integrate(f, [-4.0, 4.0], spec)
    assert abs(big - math.sqrt(math.pi) * math.erf(4.0)) <= 1e-10 * big
    want = 1e-12 * 2.0 * math.sin(100.0) / 25.0
    assert abs(tiny - want) <= 1e-10 * abs(want)


def test_vector_nonconvergence_names_component():
    spec = QuadratureSpec(rel_tol=1e-11, max_depth=2)

    def f(x):
        return np.stack([np.exp(-x), np.cos(400.0 * x)])

    with pytest.raises(QuadratureError, match="component 1 of 2"):
        integrate(f, [0.0, 3.0], spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-14)


# ---- cumulative Chebyshev antiderivative ----

CHEB_CASES = [
    (np.cos, [0.0, 0.3, 1.0, 2.5, 7.0, 19.0]),
    (lambda x: np.cos(9.0 * x) * np.exp(-x), [0.0, 1e-3, 0.4, 6.0]),
    (np.abs, [-2.0, 0.0, 2.0]),
]


def _panel_fit(f, a, b, spec, n_max=1024):
    """One panel's Chebyshev coefficients, fitted on its own."""
    n = 16
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    while True:
        theta = np.pi * np.arange(n + 1) / n
        vals = f(mid + half * np.cos(theta))
        ext = np.concatenate([vals, vals[-2:0:-1]])
        c = np.fft.rfft(ext).real[: n + 1] / n
        c[0] *= 0.5
        c[n] *= 0.5
        scale = np.max(np.abs(c)) + 1e-300
        tail = np.max(np.abs(c[-3:]))
        if tail <= max(spec.rel_tol * scale, spec.abs_tol):
            return c
        if n >= n_max:
            raise QuadratureError(
                "Chebyshev fit on [%g, %g] stalled at degree %d" % (a, b, n))
        n *= 2


@pytest.mark.parametrize("f,edges", CHEB_CASES)
def test_cumulative_coefficients_equal_per_panel_fits(f, edges):
    spec = QuadratureSpec(rel_tol=1e-12)
    F = CumulativeCheb(f, edges, spec)
    assert len(F.coeffs) == len(edges) - 1
    for a, b, got in zip(edges[:-1], edges[1:], F.coeffs):
        want = _antiderivative_coeffs(_panel_fit(f, a, b, spec), 0.5 * (b - a))
        assert got.tobytes() == want.tobytes()


def test_cumulative_two_rows_match_antiderivatives():
    F = CumulativeCheb(lambda x: np.stack([np.cos(x), np.sin(x)]),
                       [0.0, 1.0, 2.5, 7.0])
    xs = np.linspace(0.0, 7.0, 113)
    got = F(xs)
    assert got.shape == (2, 113)
    assert np.max(np.abs(got[0] - np.sin(xs))) < 1e-12
    assert np.max(np.abs(got[1] - (1.0 - np.cos(xs)))) < 1e-12
    assert F.total().shape == (2,) and F(3.0).shape == (2,)
    assert np.max(np.abs(F.total() - [np.sin(7.0), 1.0 - np.cos(7.0)])) < 1e-12


@pytest.mark.parametrize("f,edges", CHEB_CASES)
def test_cumulative_zero_row_leaves_first_row_bit_equal(f, edges):
    """A row that is identically zero changes neither the shared degrees nor
    any bit of the other row's fit, sums or values."""
    one = CumulativeCheb(f, edges)
    two = CumulativeCheb(lambda x: np.stack([f(x), np.zeros_like(x)]), edges)
    for c1, c2 in zip(one.coeffs, two.coeffs):
        assert c2[0].tobytes() == c1.tobytes()
        assert not np.any(c2[1])
    xs = np.linspace(edges[0], edges[-1], 97)
    assert two(xs)[0].tobytes() == one(xs).tobytes()
    assert two.total()[0] == one.total()


def test_cumulative_stall_names_first_stalling_panel():
    # jumps inside the first and last panels never converge in Chebyshev
    f = lambda x: np.where(x < 0.3, 0.0, 1.0) + np.where(x < 2.7, 0.0, 1.0)
    with pytest.raises(QuadratureError, match=r"\[0, 1\] stalled at degree 1024"):
        CumulativeCheb(f, [0.0, 1.0, 2.0, 3.0])


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
