"""Per-panel Chebyshev integrals (scalar and vector-valued integrands) and
cumulative Chebyshev antiderivative checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_refs import derivative_coeffs_loop_ref
from quadrature_refs import (PerPanelCheb, antiderivative_coeffs,
                             cheb_fits_loop_ref, clenshaw, per_row)
from uniwkb import quadrature
from uniwkb.quadrature import (
    CHOP_FRACTION,
    CLENSHAW_BUDGET,
    FIRST_DEGREE,
    CumulativeCheb,
    QuadratureError,
    QuadratureSpec,
    _cheb_fits,
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
    # a jump inside a panel: no degree fits it, and panels are never split
    f = lambda x: np.where(x < 1.3, 0.0, 1.0)
    with pytest.raises(QuadratureError,
                       match=r"on \[0, 3\] stalled at degree 1024 \(tail"):
        integrate(f, [0.0, 3.0])


class _SampledTooMuch(Exception):
    """The integrand was asked for more nodes than any test should need."""


def test_noise_floor_fails_fast():
    """An integrand whose noise never meets its budget grows every panel's
    degree; integrate must give up at the degree cap, naming the first
    panel, after about 2,000 nodes per panel."""
    nodes = 0

    def noisy(x):
        nonlocal nodes
        nodes += x.size
        if nodes > 10 ** 6:
            raise _SampledTooMuch(nodes)
        return np.cos(1e9 * x)

    with pytest.raises(QuadratureError,
                       match=r"on \[0, 1\] stalled at degree 1024"):
        integrate(noisy, [0.0, 1.0, 2.0])


def test_non_finite_samples_fail_at_the_first_degree():
    """A panel with NaN samples has a NaN coefficient tail, which no degree
    can bring under budget: the fit names the panel and raises after one
    integrand call, where it used to sample up to the degree cap and report
    a nan tail."""
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return np.where(x < 0.5, math.nan, np.exp(-x))

    with pytest.raises(QuadratureError, match=re.escape(
            "Chebyshev fit on [0, 1]: samples are not finite at degree %d"
            % FIRST_DEGREE)):
        integrate(f, [0.0, 1.0, 2.0])
    assert calls == 1


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


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _panels(F):
    """F's antiderivative coefficients per panel, rows + (terms,), cut from
    its table at each panel's own length."""
    return [F.coeffs[i, :, :n].reshape(F.rows + (n,)) for i, n in enumerate(F.terms)]


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
def test_integrate_equals_cumulative_total(comps, edges, rel_tol, stacked):
    """integrate returns CumulativeCheb's total on the same breaks bit for
    bit, repeated edges dropped, and meets the closed form."""
    spec = QuadratureSpec(rel_tol=rel_tol)
    if stacked:
        f = lambda x: np.stack([g(x) for g, _ in comps])
        exact = np.array([e for _, e in comps])
    else:
        f, exact = comps[0]
    got = integrate(f, edges, spec)
    total = CumulativeCheb(f, sorted(set(edges)), spec).total()
    assert _bits(got) == _bits(total)
    assert type(got) is (np.ndarray if stacked else float)
    # each panel's fit is within rel_tol of the row's size, over a width of 5
    size = np.max(np.abs(f(np.linspace(-2.0, 3.0, 2001))), axis=-1)
    assert np.all(np.abs(got - exact) <= 10.0 * rel_tol * 5.0 * size + 1e-12)


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
    # both rows jump inside the panel; row 1 is furthest over its budget
    def f(x):
        jump = np.where(x < 1.3, 0.0, 1.0)
        return np.stack([np.exp(-x) + 1e-6 * jump, jump])

    with pytest.raises(QuadratureError,
                       match=r"on \[0, 3\] stalled at degree 1024 in component 1 of 2"):
        integrate(f, [0.0, 3.0])


def _step(x, at):
    return np.where(x < at, 0.0, 1.0)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("edges", [[0.0, 3.0], [0.0, 1.0, 3.0], [0.0, 0.0, 2.5, 3.0],
                                   [-1.0, 0.0, 0.5, 3.0]])
def test_integrate_stall_names_the_first_stalling_panel(edges, stacked):
    """Steps at 0.2 and 2.7 stall every panel holding one; the error names
    the lowest such panel and, for rows, the row furthest over its budget:
    the unit step at 2.7 over the 1e-6 one at 0.2 where a panel holds both."""
    a, b = next((a, b) for a, b in zip(edges, edges[1:]) if a < 0.2 < b)
    want = "Chebyshev fit on [%g, %g] stalled at degree 1024" % (a, b)
    if stacked:
        f = lambda x: np.stack([np.exp(-x), _step(x, 2.7),
                                np.exp(-x) + 1e-6 * _step(x, 0.2)])
        want += " in component %d of 3" % (1 if b > 2.7 else 2)
    else:
        f = lambda x: _step(x, 0.2) + _step(x, 2.7)
    with pytest.raises(QuadratureError) as info:
        integrate(f, edges)
    assert want in str(info.value)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-14)


# ---- cumulative Chebyshev antiderivative ----

CHEB_CASES = [
    (np.cos, [0.0, 0.3, 1.0, 2.5, 7.0, 19.0]),
    (lambda x: np.cos(9.0 * x) * np.exp(-x), [0.0, 1e-3, 0.4, 6.0]),
    (np.abs, [-2.0, 0.0, 2.0]),
]


def _cosine_sum_coeffs(vals):
    """Chebyshev coefficients, along the last axis, of the interpolant
    through vals at the N first-kind points, by the explicit cosine sum.
    Each angle k*pi*(j + 1/2)/N is reduced exactly, in integers, below 2*pi
    before its cosine is taken: rounding k*theta instead would put an error
    of about k ulps into every term."""
    N = vals.shape[-1]
    j = np.arange(N)
    cos = np.cos(np.pi * (np.outer(j, 2 * j + 1) % (4 * N)) / (2 * N))  # [k, j]
    c = 2.0 / N * np.moveaxis(np.stack([per_row(lambda r: np.sum(r * ck), vals)
                                        for ck in cos]), 0, -1)
    c[..., 0] *= 0.5
    return c


def _panel_fit(f, a, b, spec, n_max=1024):
    """One panel's Chebyshev coefficients, fitted on its own at the N
    first-kind points by the explicit cosine sum, then chopped to the
    shortest head whose dropped terms sum to CHOP_FRACTION of the budget."""
    n = FIRST_DEGREE
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    while True:
        N = n + 1
        c = _cosine_sum_coeffs(f(mid + half * np.cos(np.pi * (np.arange(N) + 0.5) / N)))
        scale = np.max(np.abs(c)) + 1e-300
        tail = np.max(np.abs(c[-3:]))
        tol = max(spec.rel_tol * scale, spec.abs_tol)
        if tail <= tol:
            k = next(k for k in range(1, N + 1)
                     if np.sum(np.abs(c[k:])) <= CHOP_FRACTION * tol)
            return c[:k]
        if n >= n_max:
            raise QuadratureError(
                "Chebyshev fit on [%g, %g] stalled at degree %d" % (a, b, n))
        n *= 2


@pytest.mark.parametrize("f,edges", CHEB_CASES)
def test_cumulative_coefficients_equal_per_panel_fits(f, edges):
    """The FFT fit of all panels at once agrees with each panel's direct
    cosine sum: same degree, and coefficients within a few ulps of the
    largest, which is what summing N terms in two orders allows."""
    spec = QuadratureSpec(rel_tol=1e-12)
    F = CumulativeCheb(f, edges, spec)
    assert len(F.terms) == len(edges) - 1
    for a, b, got in zip(edges[:-1], edges[1:], _panels(F)):
        want = antiderivative_coeffs(_panel_fit(f, a, b, spec), 0.5 * (b - a))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * np.max(np.abs(want))


def test_fit_converged_by_first_degree_takes_one_call():
    """Panels that converge by degree 64 are all fitted from one call of
    the integrand, at 65 nodes each, and keep fewer coefficients."""
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.exp(-x) * np.cos(x)

    F = CumulativeCheb(f, [0.0, 1.0, 2.5, 4.0])
    assert sizes == [3 * (FIRST_DEGREE + 1)]
    # an antiderivative has one coefficient more than the fit it integrates
    assert all(c.shape[-1] - 1 < FIRST_DEGREE + 1 for c in _panels(F))


@settings(max_examples=40, deadline=None)
@given(stacked_components(), st.floats(-2.0, 2.5), st.floats(0.1, 5.0),
       st.floats(1e-10, 1e-6), st.booleans())
def test_chopped_series_stays_within_budget_of_full_interpolant(
        comps, a, width, rel_tol, stacked):
    """The kept head of a converged panel's series differs from the full
    interpolant through its samples (by the direct cosine sum) by at most
    CHOP_FRACTION of each row's budget, plus the rounding of N-term sums."""
    b = min(a + width, 3.0)
    spec = QuadratureSpec(rel_tol=rel_tol)
    if stacked:
        f = lambda x: np.stack([g(x) for g, _ in comps])
    else:
        f = comps[0][0]
    sizes = []

    def spy(x):
        sizes.append(x.size)
        return f(x)

    (chopped,) = _cheb_fits(spy, [a, b], spec)
    N = sizes[-1]   # one panel: the last call is the converged degree
    theta = np.pi * (np.arange(N) + 0.5) / N
    full = _cosine_sum_coeffs(np.asarray(f(0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta))))
    assert chopped.shape[:-1] == full.shape[:-1] and chopped.shape[-1] <= N
    size = np.max(np.abs(full), axis=-1)
    tol = np.maximum(spec.rel_tol * size, spec.abs_tol)
    t = np.linspace(-1.0, 1.0, 201)
    T = np.cos(np.outer(np.arange(N), np.arccos(t)))    # T_j(t), j < N
    gap = chopped @ T[:chopped.shape[-1]] - full @ T
    rounding = 4 * N * np.finfo(float).eps * size
    assert np.all(np.max(np.abs(gap), axis=-1) <= CHOP_FRACTION * tol + rounding)


def test_value_at_a_break_is_never_sampled():
    """A jump exactly at a break, whose value at the break belongs to the
    left piece (as in a stitched state), integrates to its tolerance: fit
    points never include a panel end, where the right panel would see the
    left piece's value."""
    f = lambda x: np.where(x <= 1.0, np.cos(x), 5.0 + np.sin(x))
    exact = np.sin(1.0) + 5.0 - np.cos(2.0) + np.cos(1.0)
    spec = QuadratureSpec()
    assert abs(integrate(f, [0.0, 1.0, 2.0], spec) - exact) <= 1e-11 * exact
    F = CumulativeCheb(f, [0.0, 1.0, 2.0], spec)
    assert abs(F.total() - exact) <= 1e-11 * exact
    assert abs(F(1.5) - (np.sin(1.0) + 2.5 - np.cos(1.5) + np.cos(1.0))) <= 1e-11 * exact


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
    for c1, c2 in zip(_panels(one), _panels(two)):
        assert c2[0].tobytes() == c1.tobytes()
        assert not np.any(c2[1])
    xs = np.linspace(edges[0], edges[-1], 97)
    assert two(xs)[0].tobytes() == one(xs).tobytes()
    assert two.total()[0] == one.total()


def _live_rows_call(budget, monkeypatch):
    """F(xs) of three rows on two panels, row 1 zero on both and row 2 on
    the first, under a block budget: checks that it equals summing every
    row on each panel, bit for bit, and returns the (rows, panels) shapes
    that _clenshaw saw."""
    f = lambda x: np.stack([np.cos(x), np.zeros_like(x),
                            np.where(x < 1.0, 0.0, np.sin(x))])
    F = CumulativeCheb(f, [0.0, 1.0, 2.0])
    xs = np.linspace(0.0, 2.0, 41)
    want = np.empty((3, xs.size))   # every row summed, as if none were skipped
    for i, m in enumerate([xs < 1.0, xs >= 1.0]):
        a, b = F.edges[i], F.edges[i + 1]
        t = (2.0 * xs[m] - (a + b)) / (b - a)
        want[:, m] = F.base[i][:, None] + clenshaw(_panels(F)[i], t)
    seen = []
    inner = quadrature._clenshaw

    def spy(coeffs, t):
        seen.append(coeffs.shape[1:])
        return inner(coeffs, t)

    monkeypatch.setattr(quadrature, "_clenshaw", spy)
    monkeypatch.setattr(quadrature, "CLENSHAW_BUDGET", budget)
    got = F(xs)
    assert got.tobytes() == want.tobytes()
    assert not np.any(got[1])
    assert np.all(got[2][xs < 1.0] == 0.0)
    return seen


def test_clenshaw_runs_only_on_live_rows(monkeypatch):
    """A row whose coefficients are all zero on a panel, as the phase row of
    an assembled state is on every tail panel, has the panel base as its
    values there, bit for bit the values of summing every row.  A call
    that fits one block sums both panels and all rows in one recurrence."""
    assert _live_rows_call(CLENSHAW_BUDGET, monkeypatch) == [(3, 2)]


def test_large_calls_sum_each_panel_on_its_live_rows(monkeypatch):
    """A call of more rows x points than one block sums each panel alone,
    on the rows that are not all zero there: row 0 on [0, 1], rows 0 and 2
    on [1, 2].  The values are those of summing every row, to the bit."""
    assert _live_rows_call(3 * 41 - 1, monkeypatch) == [(1, 1), (2, 1)]


# the first row is zero on [0, 1], so it is dead on that panel in every fit
_BLOCK_ROWS = (lambda x: np.where(x < 1.0, 0.0, np.sin(x)), np.cos,
               lambda x: np.exp(-x), lambda x: np.sin(3.0 * x))


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_clenshaw_blocks_change_no_bit(rows, monkeypatch):
    """F(x) and F.jet(x) on a shuffled call that spans several Clenshaw
    blocks per panel, with panel edges and points outside the range among
    them, equal one-point calls bit for bit and equal one call with the
    default block budget; a row dead on a panel is covered too."""
    fs = _BLOCK_ROWS[:rows]
    F = CumulativeCheb(lambda x: np.stack([f(x) for f in fs]), [0.0, 1.0, 2.0, 3.5])
    rng = np.random.default_rng(rows)
    xs = np.concatenate([np.linspace(-0.5, 4.0, 601), F.edges, [-2.0, 9.0]])
    rng.shuffle(xs)
    whole = (F(xs),) + F.jet(xs)
    # blocks of 40 points for F's rows and of about 13 for the jet table's
    monkeypatch.setattr(quadrature, "CLENSHAW_BUDGET", 40 * rows)
    blocked = (F(xs),) + F.jet(xs)
    for got, want in zip(blocked, whole, strict=True):
        assert got.tobytes() == want.tobytes()
    for i, x in enumerate(xs):
        for one, many in zip((F(x),) + F.jet(x), blocked, strict=True):
            assert one.tobytes() == many[:, i].tobytes(), x


def test_jet_order_one_is_its_leading_rows_bit_for_bit():
    """jet(x, 1) is (F, f) of jet(x) to the bit on a shuffled call, on a
    2-D call and past both ends, so the points that come out of panel
    order take the sorted path; F(x) keeps x's shape."""
    F = CumulativeCheb(lambda x: np.stack([f(x) for f in _BLOCK_ROWS]),
                       [0.0, 1.0, 2.0, 3.5])
    xs = np.concatenate([np.linspace(-0.5, 4.0, 361), F.edges, [-2.0, 9.0]])
    np.random.default_rng(5).shuffle(xs)
    for x in (xs, xs[:360].reshape(18, 20), 9.0, 1.0):
        full, lead = F.jet(x), F.jet(x, 1)
        assert len(lead) == 2
        for got, want in zip(lead, full[:2], strict=True):
            assert got.shape == (4,) + np.shape(x)
            assert got.tobytes() == want.tobytes()
        assert F(x).tobytes() == full[0].tobytes()


def test_cumulative_stall_names_first_stalling_panel():
    # jumps inside the first and last panels never converge in Chebyshev
    f = lambda x: np.where(x < 0.3, 0.0, 1.0) + np.where(x < 2.7, 0.0, 1.0)
    with pytest.raises(QuadratureError, match=r"\[0, 1\] stalled at degree 1024"):
        CumulativeCheb(f, [0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("nan_at, step_at", [(0.5, 2.5), (2.5, 0.5), (0.5, 0.7)])
def test_fit_errors_name_the_first_failing_panel(nan_at, step_at, stacked):
    """Samples that are not finite on one panel and a step that stalls
    another: the error is the per-panel loop's, word for word.  A panel
    that is not finite raises at the first degree, before a stall can, and
    where both are in one panel the samples are named."""
    def f(x):
        v = np.where(np.abs(x - nan_at) < 0.1, math.nan, np.cos(x)) + _step(x, step_at)
        return np.stack([np.exp(-x), v]) if stacked else v

    edges = [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(QuadratureError) as want:
        cheb_fits_loop_ref(f, edges, QuadratureSpec())
    assert "samples are not finite at degree %d" % FIRST_DEGREE in str(want.value)
    a = math.floor(nan_at)
    assert str(want.value).startswith("Chebyshev fit on [%g, %g]" % (a, a + 1))
    with pytest.raises(QuadratureError) as got:
        CumulativeCheb(f, edges)
    assert str(got.value) == str(want.value)


@st.composite
def panel_calls(draw):
    """(f, edges, spec, x): 1-6 rows on 1-6 panels, each row zero on some
    panels, and points with unequal counts per panel, out of order or not,
    on and past the edges, a NaN or not, and as many as fill the block
    budget of F's rows or of the jet table's, or one more, or few."""
    panels, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.05, 2.0), min_size=panels, max_size=panels))
    edges = draw(st.floats(-3.0, 1.0)) + np.cumsum([0.0] + widths)
    waves = [(draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 6.0)),
              draw(st.floats(0.0, 6.3)),
              list(draw(st.sets(st.integers(0, panels - 1), max_size=panels))))
             for _ in range(rows)]
    flat = rows == 1 and draw(st.booleans())

    def f(x):
        panel = np.searchsorted(edges, x, side="right") - 1
        v = np.stack([np.where(np.isin(panel, dead), 0.0,
                               a * np.cos(w * x + p) * np.exp(-0.1 * x * x))
                      for a, w, p, dead in waves])
        return v[0] if flat else v

    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = draw(st.lists(st.integers(0, 30), min_size=panels, max_size=panels))
    x = [a + (b - a) * rng.random(n) for a, b, n in zip(edges, edges[1:], counts)]
    if draw(st.booleans()):
        x.append(np.concatenate([edges, [edges[0] - 1.0, edges[-1] + 0.5]]))
    if draw(st.booleans()):
        x.append([math.nan])
    x = np.concatenate(x + [[edges[0] + 0.5 * widths[0]]])
    fill = draw(st.sampled_from([0, 1, 3])) * rows
    if fill:
        more = CLENSHAW_BUDGET // fill + draw(st.integers(0, 1)) - x.size
        x = np.concatenate([x, rng.uniform(edges[0] - 0.5, edges[-1] + 0.5, max(more, 0))])
    if draw(st.booleans()):
        rng.shuffle(x)
    spec = QuadratureSpec(rel_tol=draw(st.sampled_from([1e-11, 1e-8])))
    return f, edges, spec, x


@settings(max_examples=40, deadline=None)
@given(panel_calls())
def test_across_panels_equals_per_panel_bit_for_bit(call):
    """Fits, antiderivatives, bases, F(x) and jet at orders 1 and 2 equal
    the per-panel engine's to the bit, on calls that take one recurrence
    across panels and on calls too large for one block, which sum each
    panel alone."""
    f, edges, spec, x = call
    F, ref = CumulativeCheb(f, edges, spec), PerPanelCheb(f, edges, spec)
    assert _bits(F.base) == _bits(ref.base)
    for i, (got, want, fit) in enumerate(zip(_panels(F), ref.coeffs, ref.fits,
                                             strict=True)):
        assert got.tobytes() == want.tobytes()
        assert F.fits[i, :, :fit.shape[-1]].tobytes() == fit.tobytes()
        assert not np.any(F.fits[i, :, fit.shape[-1]:])
    assert F(x).tobytes() == ref(x).tobytes()
    assert _bits(F(x[0])) == _bits(ref(x[0]))
    for order in (1, 2):
        for got, want in zip(F.jet(x, order), ref.jet(x, order), strict=True):
            assert got.tobytes() == want.tobytes()


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


JOINT_CASES = [
    (lambda x: np.exp(-x) * np.cos(3.0 * x), [0.0, 1.0, 2.5, 4.0]),
    (lambda x: np.stack([np.cos(x), 1.0 / (1.0 + x * x)]), [-3.0, -1.0, 0.5, 2.0, 7.0]),
    (lambda x: np.stack([np.exp(-x * x), np.sin(5.0 * x)]), [-2.0, 0.0, 3.0]),
]


@pytest.mark.parametrize("f,edges", JOINT_CASES)
@pytest.mark.parametrize("rel_tol", [1e-11, 1e-8])
def test_jet_gives_the_fit_beside_bit_equal_values(f, edges, rel_tol):
    """jet gives F bit for bit as F(x) does, and the fitted integrand
    within 10*rel_tol of its panel maximum inside the covered range; past
    either end, where F clamps, the integrand and its derivative are
    exactly 0."""
    F = CumulativeCheb(f, edges, QuadratureSpec(rel_tol=rel_tol))
    xs = np.linspace(edges[0] - 1.0, edges[-1] + 1.0, 2001)
    values, fitted, slope = F.jet(xs)
    assert values.tobytes() == F(xs).tobytes()
    assert fitted.shape == slope.shape == values.shape
    outside = (xs < edges[0]) | (xs > edges[-1])
    assert np.all(fitted[..., outside] == 0.0)
    assert np.all(slope[..., outside] == 0.0)
    for a, b in zip(edges[:-1], edges[1:]):
        x = xs[(xs >= a) & (xs <= b)]
        want = np.asarray(f(x))
        size = np.max(np.abs(want), axis=-1, keepdims=True)
        got = F.jet(x)[1]
        assert np.all(np.abs(got - want) <= 10.0 * rel_tol * size), (a, b)
    # a scalar point gives F's scalar shape for all three
    value, fit, slope = F.jet(edges[1])
    assert np.shape(value) == np.shape(fit) == np.shape(slope) == np.shape(F(edges[1]))
    assert np.asarray(value).tobytes() == np.asarray(F(edges[1])).tobytes()


@pytest.mark.parametrize("degree", [0, 1, 2, 7, 40])
def test_derivative_coeffs_differentiate_the_series(degree):
    """The derivative recurrence gives, on a panel [a, b], the coefficients
    of d/dx of a random Chebyshev series of each degree, rows alike, to
    rounding of its largest term."""
    rng = np.random.default_rng(degree)
    c = rng.standard_normal((2, degree + 1))
    a, b = -0.7, 2.3
    d = quadrature._derivative_coeffs(c, 0.5 * (b - a))
    assert d.shape == c.shape and not np.any(d[:, -1])
    x = np.linspace(a, b, 57)
    t = (2.0 * x - (a + b)) / (b - a)
    want = np.polynomial.chebyshev.chebder(c.T, axis=0).T * 2.0 / (b - a)
    for row_d, row_w in zip(d, want, strict=True):
        got = np.polynomial.chebyshev.chebval(t, row_d)
        ref = np.polynomial.chebyshev.chebval(t, row_w)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("rows", [(), (2,), (3, 2)])
@pytest.mark.parametrize("degree", [0, 1, 2, 7, 40, 1025])
def test_derivative_coeffs_match_the_loop_bit_for_bit(degree, rows):
    """One cumsum per parity chain adds the terms in the loop's order, so
    the coefficients are the term-by-term loop's bit for bit, signed zeros
    included: with a -0.0 top coefficient (as a zero-padded fit can have)
    and with -0.0 terms inside the chains."""
    rng = np.random.default_rng(degree)
    c = rng.standard_normal(rows + (degree + 1,))
    c[..., -1] = -0.0
    c[..., 1:-1:3] = -0.0
    for hw in (1.0, 0.37):
        got = quadrature._derivative_coeffs(c, hw)
        want = derivative_coeffs_loop_ref(c, hw)
        assert got.shape == want.shape == c.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("f,df,edges", [
    (lambda x: np.exp(-x) * np.cos(3.0 * x),
     lambda x: -np.exp(-x) * (np.cos(3.0 * x) + 3.0 * np.sin(3.0 * x)),
     [0.0, 1.0, 2.5, 4.0]),
    (lambda x: np.stack([np.cos(x), 1.0 / (1.0 + x * x)]),
     lambda x: np.stack([-np.sin(x), -2.0 * x / (1.0 + x * x) ** 2]),
     [-3.0, -1.0, 0.5, 2.0, 7.0]),
])
def test_jet_derivative_is_the_integrand_derivative(f, df, edges):
    """The third part of jet, the derivative of the fitted integrand,
    agrees with the integrand's derivative inside the covered range within
    1e-9 of its panel maximum at the default budget."""
    F = CumulativeCheb(f, edges)
    for a, b in zip(edges[:-1], edges[1:]):
        x = np.linspace(a, b, 301)
        want = np.asarray(df(x))
        size = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(F.jet(x)[2] - want) <= 1e-9 * size), (a, b)


def test_cumulative_validation():
    with pytest.raises(ValueError):
        CumulativeCheb(np.cos, [0.0])
    with pytest.raises(ValueError):
        CumulativeCheb(np.cos, [1.0, 1.0])


@pytest.mark.parametrize("edges", [
    [0.0, math.nan],
    [math.nan, 1.0],
    [0.0, math.inf],
    [1.0, 0.0],
    [0.0, 2.0, 1.0],
])
def test_bad_edges_rejected_before_sampling(edges):
    """Both entry points share one edge check, which runs before the
    integrand is ever called."""
    def never(x):
        raise AssertionError("sampled an integrand on bad edges")

    with pytest.raises(ValueError):
        CumulativeCheb(never, edges)
    with pytest.raises(ValueError):
        integrate(never, edges)
