"""Potential construction, expression parsing with jet derivatives, Q
bundles, and turning-point location."""

import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniwkb import exprparse, potentials, reference, spectral
from uniwkb.exprparse import EvalDomainError, ExprError
from uniwkb.potentials import (
    MAX_WINDOW_MOVES,
    SEARCH_HALF_WIDTH,
    TP_REL_TOL,
    NoBoundRegionError,
    ParameterError,
    TurningPoints,
    WellShapeError,
    find_minimum,
    find_turning_points,
    make_builtin,
    march_tail,
    parse_potential,
    q_bundle,
    q_bundle_many,
)
from uniwkb.rootfind import BracketError, hybrid_root


def test_builtin_values():
    h = make_builtin("harmonic", {"k": 0.5})
    assert h.eval(2.0) == (2.0, 2.0, 1.0)
    m = make_builtin("morse", {"gamma": 4.5, "alpha": 1.0})
    V, V1, V2 = m.eval(0.0)
    assert abs(V - (-10.125)) < 1e-14
    assert abs(V1) < 1e-14  # q = 0 is the Morse minimum
    p = make_builtin("poschl_teller", {"lambda": 5.0, "alpha": 1.0})
    V, V1, V2 = p.eval(0.0)
    assert abs(V - (-10.0)) < 1e-14
    assert abs(V1) < 1e-14


def test_builtin_derivative_consistency():
    """Analytic V', V'' must match finite differences of V."""
    pots = [
        make_builtin("harmonic", {"k": 0.8}),
        make_builtin("morse", {"gamma": 4.5, "alpha": 1.0}),
        make_builtin("morse", {"gamma": 3.0, "alpha": 0.7}, hbar=2.0, mass=1.5),
        make_builtin("poschl_teller", {"lambda": 5.0, "alpha": 1.0}),
        make_builtin("poschl_teller", {"lambda": 3.3, "alpha": 1.4}),
    ]
    h = 0.02
    w1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60 * h)
    w2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180 * h * h)
    for pot in pots:
        for q in (-1.3, -0.4, 0.35, 1.1):
            vals = np.array([pot.eval(q + k * h)[0] for k in range(-3, 4)])
            V, V1, V2 = pot.eval(q)
            scale = max(1.0, abs(V1), abs(V2))
            assert abs(w1 @ vals - V1) < 1e-7 * scale
            assert abs(w2 @ vals - V2) < 1e-6 * scale


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make_builtin("harmonic", {"k": -1.0})
    with pytest.raises(ParameterError):
        make_builtin("morse", {"gamma": 0.4})
    with pytest.raises(ParameterError):
        make_builtin("poschl_teller", {"lambda": 1.0})
    with pytest.raises(ParameterError):
        make_builtin("coulomb", {})


@pytest.mark.parametrize("name,value", [("hbar", 0.0), ("hbar", -1.0),
                                        ("hbar", math.inf), ("mass", 0.0),
                                        ("mass", math.nan), ("mass", -2.0)])
def test_constructors_check_the_units(name, value):
    # hbar = 0 used to end as a quadrature stall, hbar = -1 as a well with
    # -1800 levels, and mass = 0 as a ZeroDivisionError in the Morse depth
    units = {name: value}
    for build in (lambda: make_builtin("morse", {"gamma": 4.5}, **units),
                  lambda: make_builtin("harmonic", {}, **units),
                  lambda: parse_potential("q^2", {}, **units)):
        with pytest.raises(ParameterError, match=name):
            build()


def test_param_aliases():
    m = make_builtin("morse", {"g": 4.5})
    assert m.params["gamma"] == 4.5
    p = make_builtin("poschl_teller", {"lam": 5.0})
    assert p.params["lambda"] == 5.0


def test_expression_matches_builtin_morse():
    m = make_builtin("morse", {"gamma": 4.5, "alpha": 1.0})
    e = parse_potential("g^2/2*(exp(-2*q) - 2*exp(-q))", {"g": 4.5})
    for q in (-1.0, 0.0, 2.0):
        for a, b in zip(m.eval(q), e.eval(q)):
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


def test_expression_basics():
    f = parse_potential("0.5*q^2", {}).eval
    assert f(1.0) == (0.5, 1.0, 1.0)
    # integer powers must accept negative bases
    assert f(-2.0) == (2.0, -2.0, 1.0)
    g = parse_potential("q^4/4 - q^2 + 3", {}).eval
    V, V1, V2 = g(-1.5)
    assert abs(V - (1.5 ** 4 / 4 - 1.5 ** 2 + 3)) < 1e-14
    assert abs(V1 - (4 * (-1.5) ** 3 / 4 - 2 * (-1.5))) < 1e-14


def test_expression_errors_carry_positions():
    with pytest.raises(ExprError) as err:
        exprparse.parse("q^")
    assert err.value.column == 3
    with pytest.raises(ExprError):
        exprparse.parse("(q + 1")
    with pytest.raises(ExprError) as err:
        exprparse.parse("q + $")
    assert err.value.column == 5
    with pytest.raises(ExprError) as err:
        exprparse.compile_expr("k*q^2 + zz", {"k": 1.0})
    assert err.value.column == 9
    with pytest.raises(exprparse.EvalDomainError):
        exprparse.compile_expr("ln(q)", {})(-1.0)
    with pytest.raises(exprparse.EvalDomainError):
        exprparse.compile_expr("1/q", {})(0.0)
    # a constant exponent that overflows is no integer: a domain error for a
    # negative base, not an escaped float-pow OverflowError
    with pytest.raises(exprparse.EvalDomainError, match="non-positive base"):
        exprparse.compile_expr("q^(2^2000)", {})(-1.0)
    # nor is one too large to raise by repeated products, which must come
    # back at once for a positive base
    huge = exprparse.compile_expr("q^(10^15)", {})
    with pytest.raises(exprparse.EvalDomainError, match="non-positive base"):
        huge(-1.0)
    assert huge(0.5) == (0.0, 0.0, 0.0)
    # up to that size an integer exponent takes any base
    assert exprparse.compile_expr("q^1024", {})(-1.0)[0] == 1.0
    with pytest.raises(exprparse.EvalDomainError, match="non-positive base"):
        exprparse.compile_expr("q^1025", {})(-1.0)


# expression fragments combined at random; all total functions of q
_FRAGMENTS = [
    "sin({c1}*q + {c2})",
    "cos({c1}*q)",
    "tanh({c1}*q + {c2})",
    "sinh({c1}*q)",
    "exp({c1}*q)",
    "exp(-q^2/{d})",
    "q^2*{c1}",
    "q^3/{d}",
    "({c1} + q^2)",
    "sqrt({d} + q^2)",
    "ln({d} + q^2)",
    "1/({d} + q^2)",
    "cosh({c1}*q)",
]


def _random_expr(rng):
    parts = []
    for _ in range(rng.integers(1, 4)):
        frag = _FRAGMENTS[rng.integers(0, len(_FRAGMENTS))]
        parts.append(frag.format(c1=round(rng.uniform(-1.5, 1.5), 3),
                                 c2=round(rng.uniform(-1.0, 1.0), 3),
                                 d=round(rng.uniform(1.5, 4.0), 3)))
    ops = [" + ", " * ", " - "]
    s = parts[0]
    for p in parts[1:]:
        s += ops[rng.integers(0, 3)] + p
    return s


def test_jet_derivatives_against_finite_differences():
    """100 random expression/point pairs, derivatives to 2nd order."""
    rng = np.random.default_rng(20250814)
    h = 0.01
    w1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60 * h)
    w2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180 * h * h)
    checked = 0
    while checked < 100:
        src = _random_expr(rng)
        q = float(rng.uniform(-2.0, 2.0))
        f = exprparse.compile_expr(src, {})
        vals = np.array([f(q + k * h)[0] for k in range(-3, 4)])
        V, V1, V2 = f(q)
        for fd, an in ((w1 @ vals, V1), (w2 @ vals, V2)):
            assert abs(fd - an) < 1e-6 * max(1.0, abs(an), abs(V)), (src, q)
        checked += 1


def test_q_bundle():
    h = make_builtin("harmonic", {"k": 0.5})
    b = q_bundle(h, 0.0, 0.5, 1.0)
    assert [f.name for f in dataclasses.fields(b)] == ["Q", "dQ", "d2Q"]
    assert (b.Q, b.dQ, b.d2Q) == (-1.0, 0.0, 2.0)
    assert q_bundle(h, 1.0, 0.5, 1.0).Q == 0.0
    m = make_builtin("morse", {"gamma": 4.5, "alpha": 1.0})
    assert abs(q_bundle(m, 40.0, -8.0, 1.0).Q - 16.0) < 1e-12


def test_find_minimum():
    assert abs(find_minimum(make_builtin("harmonic", {"k": 0.5}))) < 1e-12
    assert abs(find_minimum(make_builtin("morse", {"gamma": 4.5}))) < 1e-12
    assert abs(find_minimum(make_builtin("poschl_teller", {"lambda": 5.0}))) < 1e-12
    shifted = parse_potential("(q - 1.25)^2", {})
    assert abs(find_minimum(shifted) - 1.25) < 1e-10
    # double wells, the second with tails that underflow to 0
    for expr in ("(q^2 - 4)^2", "-exp(-(q-3)^2) - exp(-(q+3)^2)"):
        with pytest.raises(WellShapeError, match="multiple local minima"):
            find_minimum(parse_potential(expr, {}))


def test_find_minimum_moves_its_window_downhill():
    """A minimum outside the first window -/+SEARCH_HALF_WIDTH/alpha is
    found by moving the window downhill, one half-width at a time, while
    its lowest sample sits on an edge."""
    for centre in (40.0, -75.0):
        pot = parse_potential("(q - c)^2/2", {"c": centre})
        assert abs(find_minimum(pot) - centre) < 1e-10


class _CountingModel:
    """A potential whose eval calls are recorded."""

    def __init__(self, model):
        self.model, self.alpha, self.calls = model, model.alpha, 0

    def eval(self, q):
        self.calls += 1
        return self.model.eval(q)


def test_find_minimum_gives_up_after_its_last_move():
    """-q has no minimum: the window moves downhill MAX_WINDOW_MOVES times,
    one grid scan each, and the error names the windows searched."""
    pot = _CountingModel(parse_potential("-q", {}))
    with pytest.raises(WellShapeError, match=re.escape(
            "no interior minimum in the search window [210, 270] (moved "
            "downhill 8 times from [-30, 30])")):
        find_minimum(pot)
    assert MAX_WINDOW_MOVES == 8
    assert pot.calls == MAX_WINDOW_MOVES + 1
    with pytest.raises(WellShapeError, match=re.escape(
            "multiple local minima in the search window [-30, 30]")):
        find_minimum(parse_potential("(q^2 - 4)^2", {}))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 4]), st.floats(0.5, 10.0), st.floats(-20.0, 20.0),
       st.floats(0.3, 3.0))
def test_find_minimum_of_gaussian_wells(p, A, c, w):
    """-A*exp(-((q-c)/w)^p) has its one minimum at c.  Most draws have tails
    that underflow to exact zeros inside the window; those runs of equal
    samples end on a window edge, so they are no candidates.  V' changes
    sign exactly at q = c, so q_m lies within the root polish's bracket
    tolerance, 1e-14*(30 + |q_m|) <= 5e-13, taken twice."""
    pot = parse_potential("-A*exp(-((q-c)/w)^%d)" % p, {"A": A, "c": c, "w": w})
    assert abs(find_minimum(pot) - c) <= 1e-12


def test_find_minimum_admits_a_flat_shelf_on_a_flank():
    """A run of equal samples with a lower sample beside it is a shelf, not
    a minimum: (q - 1.5)^2/2, held at its value 10.125 on [-6, -3] and
    rising again to the left of -6, has its minimum at 1.5."""
    base = parse_potential("(q - 1.5)^2/2", {})

    def ev(q):
        q = np.asarray(q, dtype=float)
        left, shelf = q < -6.0, (q >= -6.0) & (q <= -3.0)
        x = np.where(left, q + 6.0, q - 1.5)
        V = np.where(shelf, 10.125, np.where(left, 10.125, 0.0) + x * x / 2)
        return V, np.where(shelf, 0.0, x), np.where(shelf, 0.0, 1.0)

    model = dataclasses.replace(base, eval=ev)
    vs = ev(np.linspace(-30.0, 30.0, 1201))[0]
    assert np.count_nonzero(vs == 10.125) > 50   # the shelf spans many samples
    assert abs(find_minimum(model) - 1.5) <= 1e-12
    assert model.well.q_m == find_minimum(model)
    assert model.well.v_min == ev(model.well.q_m)[0]


def test_find_turning_points():
    h = make_builtin("harmonic", {"k": 0.5})
    tp = find_turning_points(h, 0.5)
    assert abs(tp.q_minus + 1.0) < 1e-12
    assert abs(tp.q_plus - 1.0) < 1e-12
    assert abs(tp.q_m) < 1e-12
    m = make_builtin("morse", {"gamma": 4.5, "alpha": 1.0})
    tp = find_turning_points(m, -8.0)
    y = 1.0 + math.sqrt(1.0 - 16.0 / 20.25)
    assert abs(tp.q_minus - (-math.log(y))) < 1e-10
    y = 1.0 - math.sqrt(1.0 - 16.0 / 20.25)
    assert abs(tp.q_plus - (-math.log(y))) < 1e-10
    assert tp.q_minus < tp.q_m < tp.q_plus
    # exp(q^2/2) overflows past |q| = 37.7, inside the search limit; the
    # walk must stop at the sign change before it evaluates there
    tp = find_turning_points(parse_potential("exp(q^2/2)", {}), 2.0)
    q_t = math.sqrt(2.0 * math.log(2.0))
    assert abs(tp.q_minus + q_t) < 1e-12 and abs(tp.q_plus - q_t) < 1e-12


def test_turning_point_residual_bound():
    for pot, E in [
        (make_builtin("harmonic", {"k": 0.5}), 3.5),
        (make_builtin("morse", {"gamma": 4.5}), -0.504),
        (make_builtin("poschl_teller", {"lambda": 5.0}), -0.495),
    ]:
        tp = find_turning_points(pot, E)
        q_cap = max(abs(q_bundle(pot, tp.q_m, E, 1.0).Q), 2.0 * abs(E))
        assert abs(q_bundle(pot, tp.q_minus, E, 1.0).Q) <= 1e-10 * q_cap
        assert abs(q_bundle(pot, tp.q_plus, E, 1.0).Q) <= 1e-10 * q_cap


def test_turning_points_found_up_to_the_energy_ceiling():
    # the reach of q^2/2 is +/-60: at the ceiling the walk lands its last
    # step on the reach's end, and just above V there it finds no sign change
    pot = parse_potential("q^2/2", {})
    E = pot.well.ceiling
    assert E == 1800.0 - 1e-9 * 1800.0
    tp = find_turning_points(pot, E)
    assert abs(tp.q_minus + 60.0) < 1e-6 and abs(tp.q_plus - 60.0) < 1e-6
    with pytest.raises(BracketError):
        find_turning_points(pot, 1800.0 * (1.0 + 1e-9))


@pytest.mark.parametrize("src", [
    "q^2/2 - q^3/100",     # turns down beyond a barrier at q = 33.3
    "q^2/2 - ln(q + 50)",  # undefined left of q = -50
    "exp(q^2/2)",          # overflows before the reach's ends
    "exp(q-25) - (q-25)",  # minimum at q = 25, shallow to its left
])
def test_turning_points_found_at_the_energy_ceiling(src):
    """Wherever the walk stops short of V at the reach's ends, the ceiling
    stops with it: both turning points are found at the ceiling itself."""
    pot = parse_potential(src, {})
    q_m = find_minimum(pot)
    v_min = pot.eval(q_m)[0]
    assert (pot.well.q_m, pot.well.v_min) == (q_m, v_min)
    E = pot.well.ceiling
    assert v_min < E < math.inf
    tp = find_turning_points(pot, E)
    assert tp.q_minus < q_m < tp.q_plus


def test_energy_ceiling_bounds():
    # below the barrier of q^2/2 - q^3/100 (185.2 at q = 100/3), not at
    # V(60) = -360, which lies below the well minimum
    pot = parse_potential("q^2/2 - q^3/100", {})
    assert 150.0 < pot.well.ceiling < 185.2
    # the reach is -/+(|q_m| + 60), not q_m -/+ 60: left of q_m = 25 the
    # walk lands on -85, where V = 110; the sliver is taken above the
    # minimum V(25) = 1
    pot = parse_potential("exp(q-25) - (q-25)", {})
    v_edge = pot.eval(-85.0)[0]
    assert pot.well.v_min == 1.0
    assert pot.well.ceiling == v_edge - 1e-9 * (v_edge - 1.0)


def test_energy_ceiling_stops_where_the_scan_stops():
    """The walk of exp(q^2/2) stops at the walk point |q| = 39.4, where V
    overflows, with mass 1e155, and at |q| = 26.2, where 2m(V - v_min) is
    finite but 2m V'' is not, with mass 1e157.  The ceiling is taken over
    the points before the stop, so the turning points are found at the
    ceiling itself instead of the scan overflowing on its way out."""
    for mass in (1e155, 1e157):
        pot = parse_potential("exp(q^2/2)", {}, mass=mass)
        ceiling, m2 = pot.well.ceiling, 2.0 * mass
        for points, vs in pot.well.sides:
            assert len(vs) < len(points) and ceiling < max(vs)
            stop = points[len(vs)]
            if mass == 1e155:
                with pytest.raises(OverflowError):
                    pot.eval(stop)
            else:
                V, _, V2 = map(float, pot.eval(stop))
                assert math.isfinite(m2 * (V - pot.well.v_min))
                assert not math.isfinite(m2 * V2)
        tp = find_turning_points(pot, ceiling)
        assert tp.q_minus < 0.0 < tp.q_plus
        assert q_bundle(pot, tp.q_plus, ceiling, pot.mass).Q == pytest.approx(
            0.0, abs=1e-10 * 2.0 * pot.mass * ceiling)
    # where 2m V'' overflows at the minimum itself, no scan can start
    steep = parse_potential("1e300*q^2", {}, mass=1e10)
    with pytest.raises(OverflowError, match=r"at q = 0\.0$"):
        find_turning_points(steep, 1.0)


def test_turning_points_evaluate_only_inside_the_root_polish(monkeypatch):
    """The scan reads Q at q_m from the well record's v_min: every eval a
    turning-point search makes is one of Brent's, none at q_m."""
    model = parse_potential("q^4/4 + q^2/2", {})
    calls, polish = [], []

    def counted(q):
        calls.append(q)
        return model.eval(q)

    def root(f, *args, **kwargs):
        def g(q):
            polish.append(q)
            return f(q)
        return hybrid_root(g, *args, **kwargs)

    twin = dataclasses.replace(model, eval=counted)
    well = twin.well
    monkeypatch.setattr(potentials, "hybrid_root", root)
    for E in np.linspace(well.v_min, well.ceiling, 7)[1:].tolist():
        calls.clear()
        polish.clear()
        find_turning_points(twin, E)
        assert calls == polish and well.q_m not in calls


def test_turning_point_errors():
    h = make_builtin("harmonic", {"k": 0.5})
    with pytest.raises(NoBoundRegionError):
        find_turning_points(h, 0.0)  # E = V_min
    m = make_builtin("morse", {"gamma": 4.5})
    with pytest.raises(BracketError):
        find_turning_points(m, 0.5)  # above dissociation, right side open


# ---- array evaluation ----

def assert_array_matches_scalar(ev, qs):
    """Array eval equals the elementwise scalar eval bit for bit."""
    vec = [np.broadcast_to(v, qs.shape) for v in ev(qs)]
    for i, q in enumerate(qs.tolist()):
        assert [v[i] for v in vec] == list(ev(q)), q


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)
_GRID = st.lists(_UNIT, min_size=1, max_size=40)


@st.composite
def builtin_models(draw):
    kind = draw(st.sampled_from(["harmonic", "morse", "poschl_teller"]))
    if kind == "harmonic":
        params = {"k": draw(st.floats(1e-3, 50.0))}
    else:
        name, low = ("gamma", 0.5) if kind == "morse" else ("lambda", 1.0)
        params = {name: low + draw(st.floats(1e-3, 30.0)),
                  "alpha": draw(st.floats(0.05, 5.0))}
    return make_builtin(kind, params, hbar=draw(st.floats(0.2, 3.0)),
                        mass=draw(st.floats(0.2, 3.0)))


@settings(max_examples=60, deadline=None)
@given(builtin_models(), _GRID)
def test_builtin_array_eval_equals_scalar(model, unit):
    # the whole search window, where find_minimum evaluates
    half = SEARCH_HALF_WIDTH / model.alpha
    assert_array_matches_scalar(model.eval, half * np.array(unit))


# one fragment per function in FUNCS; arguments stay inside the real domain
# and away from tan's poles for |q| <= 2
_FUNC_FRAGMENTS = {
    "exp": "exp({c}*q)",
    "ln": "ln({d} + q^2)",
    "sqrt": "sqrt({d} + q^2)",
    "sin": "sin({c}*q + {c})",
    "cos": "cos({c}*q)",
    "tan": "tan({c}*q/4)",
    "sinh": "sinh({c}*q)",
    "cosh": "cosh({c}*q + {c})",
    "tanh": "tanh({c}*q)",
}
# the other operators: division, a real power and an integer power
_EXTRA_FRAGMENTS = ["1/({d} + q^2)", "({d} + q^2)^{c}", "(q - {c})^3"]


@st.composite
def every_function_exprs(draw):
    frags = draw(st.permutations(sorted(_FUNC_FRAGMENTS)))
    parts = [_FUNC_FRAGMENTS[f] for f in frags] + _EXTRA_FRAGMENTS
    coef = st.floats(-1.5, 1.5).map(lambda x: round(x, 3))
    dist = st.floats(1.5, 4.0).map(lambda x: round(x, 3))
    src = ""
    for k, part in enumerate(parts):
        if k:
            src += draw(st.sampled_from([" + ", " - ", " * "]))
        src += part.replace("{c}", "(%r)" % draw(coef), 1).replace(
            "{c}", "(%r)" % draw(coef)).replace("{d}", repr(draw(dist)))
    return src


def test_function_fragments_cover_funcs():
    assert set(_FUNC_FRAGMENTS) == set(exprparse.FUNCS)


@settings(max_examples=60, deadline=None)
@given(every_function_exprs(), _GRID)
def test_expression_array_eval_equals_scalar(src, unit):
    assert_array_matches_scalar(parse_potential(src, {}).eval,
                                2.0 * np.array(unit))


def test_q_bundle_many_keeps_2d_shape():
    q = np.linspace(-1.5, 2.5, 12).reshape(3, 4)
    for pot in (make_builtin("harmonic", {"k": 0.5}),
                make_builtin("morse", {"gamma": 4.5}),
                parse_potential("q^4/4 + q^2/2", {})):
        b = q_bundle_many(pot, q, 0.7, 1.3)
        flat = q_bundle_many(pot, q.ravel(), 0.7, 1.3)
        for name in ("Q", "dQ", "d2Q"):
            field = getattr(b, name)
            assert field.shape == (3, 4)
            assert np.array_equal(field, getattr(flat, name).reshape(3, 4))
            assert field[1, 2] == getattr(q_bundle(pot, q[1, 2], 0.7, 1.3), name)


def test_q_bundle_many_makes_one_eval_call():
    for pot in (make_builtin("poschl_teller", {"lambda": 5.0}),
                parse_potential("-10/cosh(q)^2", {})):
        calls = []

        def ev(q, _ev=pot.eval):
            calls.append(np.shape(q))
            return _ev(q)

        counted = dataclasses.replace(pot, eval=ev)
        q_bundle_many(counted, np.linspace(-3.0, 3.0, 1001), -2.0, 1.0)
        assert calls == [(1001,)]


def test_one_bad_element_raises_domain_error():
    q = np.array([0.5, 1.0, 2.0, 3.0])
    for src, bad in (("ln(q)", -1.0), ("1/q", 0.0), ("sqrt(q)", -2.0),
                     ("q^0.5", 0.0), ("q/tan(q)", 0.0)):
        ev = exprparse.compile_expr(src, {})
        ev(q)
        with pytest.raises(EvalDomainError):
            ev(np.where(np.arange(4) == 2, bad, q))


def test_overflow_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cases = [(make_builtin("morse", {"gamma": 4.5}), -800.0),
                 (parse_potential("exp(q^2)", {}), 30.0),
                 (parse_potential("q^2*cosh(q)", {}), -720.0)]
        for pot, q_bad in cases:
            pot.eval(0.5)
            with pytest.raises(OverflowError):
                pot.eval(q_bad)
            with pytest.raises(OverflowError):
                pot.eval(np.array([0.0, 1.0, q_bad, 2.0]))
        # the harmonic V'' = 2k is a scalar beside array V and V'
        with pytest.raises(OverflowError):
            make_builtin("harmonic", {"k": 1e308}).eval(np.array([0.0, 1.0]))
        # cosh overflow inside the sech of a far tail is a true zero
        pt = make_builtin("poschl_teller", {"lambda": 5.0})
        assert pt.eval(np.array([800.0]))[0][0] == 0.0


def test_q_bundle_overflow_raises_without_warnings():
    # Morse V, V', V'' are finite on both sides of q = -352.69, and so is
    # 2m*V'' inside it; outside, 2m*V'' is not
    morse = make_builtin("morse", {"gamma": 4.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (-352.6, -352.8):
            assert np.all(np.isfinite(morse.eval(q)))
        assert not math.isfinite(2.0 * float(morse.eval(-352.8)[2]))
        for b in (q_bundle(morse, -352.6, -5.0, 1.0),
                  q_bundle_many(morse, np.array([-352.6, 0.0]), -5.0, 1.0)):
            assert np.all(np.isfinite([b.Q, b.dQ, b.d2Q]))
        with pytest.raises(OverflowError):
            q_bundle(morse, -352.8, -5.0, 1.0)
        with pytest.raises(OverflowError):
            q_bundle_many(morse, np.array([0.0, -352.8, 1.0]), -5.0, 1.0)


# ---- turning-point walk ----

def _scalar_turning_points(potential, E):
    """Turning points from a walk of one scalar q_bundle per step, with
    steps growing by 1.5 from 1e-3 of the search half-width and the last
    step cut short at -/+(|q_m| + twice the half-width), then Brent.
    Kept independent of find_turning_points, so that any rewrite of its
    walk (in blocks, say) has to reproduce these bits."""
    q_m = find_minimum(potential)
    if not E > potential.eval(q_m)[0]:
        raise NoBoundRegionError("no allowed region")
    half = SEARCH_HALF_WIDTH / potential.alpha
    Qf = lambda q: q_bundle(potential, q, E, potential.mass).Q
    f0 = Qf(q_m)

    def walk(h):
        end = math.copysign(abs(q_m) + 2 * half, h)
        a, fa = q_m, f0
        while f0 != 0.0:
            if a == end:
                raise BracketError("left the window")
            b = a + h
            if b > end if h > 0 else b < end:
                b = end
            fb = Qf(b)
            if fb == 0.0 or (fb > 0) != (f0 > 0):
                return a, b, fa, fb
            a, fa, h = b, fb, h * 1.5
        return a, a, fa, fa

    step = max(1e-3 * half, 1e-6)
    a, b, fa, fb = walk(-step)
    q_minus = hybrid_root(Qf, b, a, flo=fb, fhi=fa, rel_tol=TP_REL_TOL)
    a, b, fa, fb = walk(step)
    q_plus = hybrid_root(Qf, a, b, flo=fa, fhi=fb, rel_tol=TP_REL_TOL)
    return TurningPoints(q_minus, q_plus, q_m)


def _turning_outcome(search, *args):
    """The turning points as exact hex, or the name of the error raised."""
    try:
        found = search(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__
    return [float(q).hex() for q in (found.q_minus, found.q_plus, found.q_m)]


@settings(max_examples=60, deadline=None)
@given(builtin_models(), st.floats(-0.1, 2.0))
def test_turning_points_equal_scalar_walk(model, e_frac):
    v_min = model.eval(find_minimum(model))[0]
    E = v_min + e_frac * max(abs(v_min), 1.0)
    want = _turning_outcome(_scalar_turning_points, model, E)
    got = _turning_outcome(find_turning_points, model, E)
    assert got == want


# expression wells whose walk or ceiling stops short of V at the reach's
# ends, as (source, parameters, mass).  With mass 1e157, 2m V'' overflows
# at the walk point |q| = 26.2, where 2m(V - v_min) is finite (asserted in
# test_energy_ceiling_stops_where_the_scan_stops).  With A = 1e300 and
# mass 2.8e5, just above V(17.5) Q = 2m(V - E) is finite at q_m but not at
# the next walk point, q = 26.2.  Where q_bundle raises, so must the walk.
SHORT_WALKS = [
    ("exp(q^2/2)", {}, 1.0),
    ("q^2/2 - ln(q + 50)", {}, 1.0),
    ("q^2/2 - q^3/100", {}, 1.0),
    ("exp(q-25) - (q-25)", {}, 1.0),
    ("exp(q^2/2)", {}, 1e157),
    ("A*q^2", {"A": 1e300}, 2.8e5),
]
SHORT_MODELS = [parse_potential(src, params, mass=mass)
                for src, params, mass in SHORT_WALKS]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(SHORT_WALKS))),
       st.one_of(st.floats(-0.1, 1.5), st.floats(1e-160, 1e-3)))
def test_turning_points_equal_scalar_walk_where_it_stops_short(i, frac):
    model = SHORT_MODELS[i]
    v_min, ceiling = model.well.v_min, model.well.ceiling
    E = v_min + frac * (ceiling - v_min)
    want = _turning_outcome(_scalar_turning_points, model, E)
    assert _turning_outcome(find_turning_points, model, E) == want


@pytest.mark.parametrize("model", SHORT_MODELS, ids=[
    "%s-m%g" % (src, mass) for src, _, mass in SHORT_WALKS])
def test_turning_points_equal_scalar_walk_at_the_walk_points(model):
    """Energies at and just above V at each walk point the table holds, and
    around the ceiling."""
    ceiling = model.well.ceiling
    energies = [math.nextafter(ceiling, -math.inf), ceiling,
                math.nextafter(ceiling, math.inf), 2.0 * abs(ceiling), 1e308]
    for _, vs in model.well.sides:
        for v, v_next in zip(vs, vs[1:] + (2.0 * vs[-1],)):
            energies += [v, math.nextafter(v, math.inf), v + 1e-3 * (v_next - v)]
    for E in energies:
        want = _turning_outcome(_scalar_turning_points, model, E)
        assert _turning_outcome(find_turning_points, model, E) == want, E


def test_well_is_worked_out_once_per_model(monkeypatch):
    """One model's quantization, assembly, exact state and Numerov oracle
    share one minimum search, and the walk table evaluates its points once:
    the turning-point searches after it evaluate none of them again.  A
    copy with another eval builds its own well through that eval."""
    searches = []
    real = potentials.find_minimum

    def minimum(potential):
        searches.append(potential)
        return real(potential)

    monkeypatch.setattr(potentials, "find_minimum", minimum)
    monkeypatch.setattr(spectral, "find_minimum", minimum)
    model = make_builtin("morse", {"gamma": 4.5})
    e_sp = spectral.solve_quantization(model, 1)
    spectral.assemble(model, e_sp, 1)
    reference.exact_wavefunction(model, 1)
    reference.numerov_solve(model, 1)
    assert searches == [model]

    seen = []

    def counted(q):
        seen.append(q)
        return model.eval(q)

    twin = dataclasses.replace(model, eval=counted)
    well = twin.well
    assert searches == [model, twin] and twin.well is well
    assert well == model.well and well is not model.well
    walk = set(well.sides[0][0] + well.sides[1][0])
    assert walk <= {q for q in seen if np.ndim(q) == 0}
    seen.clear()
    for E in np.linspace(well.v_min, well.ceiling, 12)[1:].tolist():
        find_turning_points(twin, E)
    assert seen and not walk & {q for q in seen if np.ndim(q) == 0}


# ---- forbidden-tail march ----

def _scalar_steps(potential, E, q_start, direction, step):
    """(q, running kappa integral) after each step, one scalar q_bundle per
    step: the loop that march_tail replaced."""
    kappa_int = 0.0
    q = q_start
    k_prev = 0.0
    while True:
        q += direction * step
        Q = q_bundle(potential, q, E, potential.mass).Q
        k = math.sqrt(max(Q, 0.0)) / potential.hbar
        kappa_int += 0.5 * (k + k_prev) * step
        k_prev = k
        yield q, kappa_int


def _scalar_march(potential, E, q_start, direction, step, target, cap):
    """The loop's stop point: where the integral reaches target or the
    distance reaches cap, else the last point before one whose Q bundle
    raises."""
    steps = _scalar_steps(potential, E, q_start, direction, step)
    q = q_start
    try:
        for q, kappa_int in steps:
            if kappa_int >= target or abs(q - q_start) >= cap:
                return q
    except (ArithmeticError, ValueError):
        return q


@settings(max_examples=60, deadline=None)
@given(builtin_models(), st.floats(0.0, 2.0), st.floats(-1.0, 1.0),
       st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 0.5),
       st.floats(0.5, 80.0), st.floats(0.5, 200.0),
       st.one_of(st.none(), st.integers(1, 3000)),
       st.one_of(st.none(), st.integers(1, 400)))
def test_march_tail_equals_scalar_loop(model, e_frac, u0, direction, step,
                                       target, cap, cap_steps, tie_step):
    q_m = find_minimum(model)
    v_min = model.eval(q_m)[0]
    E = v_min + e_frac * max(abs(v_min), 1.0)
    q_start = q_m + u0 * 5.0 / model.alpha
    step /= model.alpha
    cap /= model.alpha
    if cap_steps is not None:
        # a cap of whole steps, as tail_cut sets it: which step reaches it
        # depends on the rounding of the summed positions
        cap = cap_steps * step
    if tie_step is not None:
        # a target equal to the loop's running integral at some step stops
        # there only if the integral is summed in the same order
        steps = _scalar_steps(model, E, q_start, direction, step)
        try:
            _, target = next(itertools.islice(steps, tie_step - 1, None))
        except OverflowError:
            pass
    args = (model, E, q_start, direction, step, target, cap)
    want = _scalar_march(*args)
    got = march_tail(*args)
    assert got.hex() == want.hex()


def test_march_tail_does_not_raise_beyond_its_stop():
    # blocks reach past q = -352.69, where the Morse 2m*V'' overflows, but
    # the march stops at q = -340 first
    morse = make_builtin("morse", {"gamma": 4.5})
    args = (morse, -1.0, -330.0, -1.0, 2.0, math.inf, 10.0)
    assert march_tail(*args) == _scalar_march(*args) == -340.0
    # with its cap past the overflow, the march stops at the last point it
    # can evaluate, as the well record's walk does
    args = (morse, -1.0, -330.0, -1.0, 2.0, math.inf, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert march_tail(*args) == _scalar_march(*args) == -352.0
