"""Potential construction, expression parsing with jet derivatives, Q
bundles, and turning-point location."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniwkb import exprparse
from uniwkb.exprparse import EvalDomainError, ExprError
from uniwkb.potentials import (
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
    assert h.eval(2.0) == (2.0, 2.0, 1.0, 0.0)
    m = make_builtin("morse", {"gamma": 4.5, "alpha": 1.0})
    V, V1, V2, V3 = m.eval(0.0)
    assert abs(V - (-10.125)) < 1e-14
    assert abs(V1) < 1e-14  # q = 0 is the Morse minimum
    p = make_builtin("poschl_teller", {"lambda": 5.0, "alpha": 1.0})
    V, V1, V2, V3 = p.eval(0.0)
    assert abs(V - (-10.0)) < 1e-14
    assert abs(V1) < 1e-14


def test_builtin_derivative_consistency():
    """Analytic V', V'', V''' must match finite differences of V."""
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
    w3 = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / (8 * h ** 3)
    for pot in pots:
        for q in (-1.3, -0.4, 0.35, 1.1):
            vals = np.array([pot.eval(q + k * h)[0] for k in range(-3, 4)])
            V, V1, V2, V3 = pot.eval(q)
            scale = max(1.0, abs(V1), abs(V2), abs(V3))
            assert abs(w1 @ vals - V1) < 1e-7 * scale
            assert abs(w2 @ vals - V2) < 1e-6 * scale
            assert abs(w3 @ vals - V3) < 1e-5 * scale


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make_builtin("harmonic", {"k": -1.0})
    with pytest.raises(ParameterError):
        make_builtin("morse", {"gamma": 0.4})
    with pytest.raises(ParameterError):
        make_builtin("poschl_teller", {"lambda": 1.0})
    with pytest.raises(ParameterError):
        make_builtin("coulomb", {})


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
    assert f(1.0) == (0.5, 1.0, 1.0, 0.0)
    # integer powers must accept negative bases
    V, V1, V2, V3 = f(-2.0)
    assert (V, V1, V2, V3) == (2.0, -2.0, 1.0, 0.0)
    g = parse_potential("q^4/4 - q^2 + 3", {}).eval
    V, V1, V2, V3 = g(-1.5)
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
    """100 random expression/point pairs, derivatives to 3rd order."""
    rng = np.random.default_rng(20250814)
    h = 0.01
    w1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60 * h)
    w2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180 * h * h)
    w3 = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / (8 * h ** 3)
    checked = 0
    while checked < 100:
        src = _random_expr(rng)
        q = float(rng.uniform(-2.0, 2.0))
        f = exprparse.compile_expr(src, {})
        vals = np.array([f(q + k * h)[0] for k in range(-3, 4)])
        V, V1, V2, V3 = f(q)
        for fd, an in ((w1 @ vals, V1), (w2 @ vals, V2), (w3 @ vals, V3)):
            assert abs(fd - an) < 1e-6 * max(1.0, abs(an), abs(V)), (src, q)
        checked += 1


def test_q_bundle():
    h = make_builtin("harmonic", {"k": 0.5})
    b = q_bundle(h, 0.0, 0.5, 1.0)
    assert (b.Q, b.dQ, b.d2Q, b.d3Q) == (-1.0, 0.0, 2.0, 0.0)
    assert q_bundle(h, 1.0, 0.5, 1.0).Q == 0.0
    m = make_builtin("morse", {"gamma": 4.5, "alpha": 1.0})
    assert abs(q_bundle(m, 40.0, -8.0, 1.0).Q - 16.0) < 1e-12


def test_find_minimum():
    assert abs(find_minimum(make_builtin("harmonic", {"k": 0.5}))) < 1e-12
    assert abs(find_minimum(make_builtin("morse", {"gamma": 4.5}))) < 1e-12
    assert abs(find_minimum(make_builtin("poschl_teller", {"lambda": 5.0}))) < 1e-12
    shifted = parse_potential("(q - 1.25)^2", {})
    assert abs(find_minimum(shifted) - 1.25) < 1e-10
    with pytest.raises(WellShapeError):
        find_minimum(parse_potential("(q^2 - 4)^2", {}))  # double well


def test_find_turning_points():
    h = make_builtin("harmonic", {"k": 0.5})
    tp = find_turning_points(h, 0.5, 1.0)
    assert abs(tp.q_minus + 1.0) < 1e-12
    assert abs(tp.q_plus - 1.0) < 1e-12
    assert abs(tp.q_m) < 1e-12
    m = make_builtin("morse", {"gamma": 4.5, "alpha": 1.0})
    tp = find_turning_points(m, -8.0, 1.0)
    y = 1.0 + math.sqrt(1.0 - 16.0 / 20.25)
    assert abs(tp.q_minus - (-math.log(y))) < 1e-10
    y = 1.0 - math.sqrt(1.0 - 16.0 / 20.25)
    assert abs(tp.q_plus - (-math.log(y))) < 1e-10
    assert tp.q_minus < tp.q_m < tp.q_plus
    # exp(q^2/2) overflows past |q| = 37.7, inside the search limit; the
    # walk must stop at the sign change before it evaluates there
    tp = find_turning_points(parse_potential("exp(q^2/2)", {}), 2.0, 1.0)
    q_t = math.sqrt(2.0 * math.log(2.0))
    assert abs(tp.q_minus + q_t) < 1e-12 and abs(tp.q_plus - q_t) < 1e-12


def test_turning_point_residual_bound():
    for pot, E in [
        (make_builtin("harmonic", {"k": 0.5}), 3.5),
        (make_builtin("morse", {"gamma": 4.5}), -0.504),
        (make_builtin("poschl_teller", {"lambda": 5.0}), -0.495),
    ]:
        tp = find_turning_points(pot, E, 1.0)
        q_cap = max(abs(q_bundle(pot, tp.q_m, E, 1.0).Q), 2.0 * abs(E))
        assert abs(q_bundle(pot, tp.q_minus, E, 1.0).Q) <= 1e-10 * q_cap
        assert abs(q_bundle(pot, tp.q_plus, E, 1.0).Q) <= 1e-10 * q_cap


def test_turning_point_errors():
    h = make_builtin("harmonic", {"k": 0.5})
    with pytest.raises(NoBoundRegionError):
        find_turning_points(h, 0.0, 1.0)  # E = V_min
    m = make_builtin("morse", {"gamma": 4.5})
    with pytest.raises(BracketError):
        find_turning_points(m, 0.5, 1.0)  # above dissociation, right side open


# ---- array evaluation ----

def assert_array_matches_scalar(ev, qs):
    """Array eval equals the elementwise scalar eval bit for bit."""
    vec = [np.broadcast_to(v, qs.shape) for v in ev(qs)]
    for i, q in enumerate(qs.tolist()):
        assert [vec[j][i] for j in range(4)] == list(ev(q)), q


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
        for name in ("Q", "dQ", "d2Q", "d3Q"):
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
    # Morse V..V''' are finite at q = -352.5, but 2m*V''' is not
    morse = make_builtin("morse", {"gamma": 4.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (q_bundle(morse, -352.3, -5.0, 1.0),
                  q_bundle_many(morse, np.array([-352.3, 0.0]), -5.0, 1.0)):
            assert np.all(np.isfinite([b.Q, b.dQ, b.d2Q, b.d3Q]))
        with pytest.raises(OverflowError):
            q_bundle(morse, -352.5, -5.0, 1.0)
        with pytest.raises(OverflowError):
            q_bundle_many(morse, np.array([0.0, -352.5, 1.0]), -5.0, 1.0)


# ---- turning-point walk ----

def _scalar_turning_points(potential, E, mass):
    """Turning points from a walk of one scalar q_bundle per step, with
    steps growing by 1.5 from 1e-3 of the search half-width, then Brent.
    Kept independent of find_turning_points, so that any rewrite of its
    walk (in blocks, say) has to reproduce these bits."""
    q_m = find_minimum(potential)
    if not E > potential.eval(q_m)[0]:
        raise NoBoundRegionError("no allowed region")
    half = SEARCH_HALF_WIDTH / potential.alpha
    limit = abs(q_m) + 2 * half
    Qf = lambda q: q_bundle(potential, q, E, mass).Q
    f0 = Qf(q_m)

    def walk(h):
        a, fa = q_m, f0
        while f0 != 0.0:
            b = a + h
            if abs(b) > limit:
                raise BracketError("left the window")
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
    except (BracketError, NoBoundRegionError, ArithmeticError) as exc:
        return type(exc).__name__
    return [float(q).hex() for q in (found.q_minus, found.q_plus, found.q_m)]


@settings(max_examples=60, deadline=None)
@given(builtin_models(), st.floats(-0.1, 2.0))
def test_turning_points_equal_scalar_walk(model, e_frac):
    v_min = model.eval(find_minimum(model))[0]
    E = v_min + e_frac * max(abs(v_min), 1.0)
    want = _turning_outcome(_scalar_turning_points, model, E, model.mass)
    got = _turning_outcome(find_turning_points, model, E, model.mass)
    assert got == want


# ---- forbidden-tail march ----

def _scalar_steps(potential, E, mass, hbar, q_start, direction, step):
    """(q, running kappa integral) after each step, one scalar q_bundle per
    step: the loop that march_tail replaced."""
    kappa_int = 0.0
    q = q_start
    k_prev = 0.0
    while True:
        q += direction * step
        k = math.sqrt(max(q_bundle(potential, q, E, mass).Q, 0.0)) / hbar
        kappa_int += 0.5 * (k + k_prev) * step
        k_prev = k
        yield q, kappa_int


def _scalar_march(potential, E, mass, hbar, q_start, direction, step, target,
                  cap, max_steps):
    steps = _scalar_steps(potential, E, mass, hbar, q_start, direction, step)
    for q, kappa_int in itertools.islice(steps, max_steps):
        if kappa_int >= target or abs(q - q_start) >= cap:
            return q
    return None


def _march_outcome(march, *args):
    """The stop point as exact hex (or None), or the overflow raised."""
    try:
        q = march(*args)
    except OverflowError:
        return "OverflowError"
    return None if q is None else float(q).hex()


@settings(max_examples=60, deadline=None)
@given(builtin_models(), st.floats(0.0, 2.0), st.floats(-1.0, 1.0),
       st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 0.5),
       st.floats(0.5, 80.0), st.one_of(st.none(), st.integers(1, 3000)),
       st.one_of(st.just(math.inf), st.floats(0.5, 200.0)),
       st.one_of(st.none(), st.integers(1, 400)))
def test_march_tail_equals_scalar_loop(model, e_frac, u0, direction, step,
                                       target, max_steps, cap, tie_step):
    q_m = find_minimum(model)
    v_min = model.eval(q_m)[0]
    E = v_min + e_frac * max(abs(v_min), 1.0)
    q_start = q_m + u0 * 5.0 / model.alpha
    step /= model.alpha
    cap /= model.alpha
    if max_steps is None and cap == math.inf:
        max_steps = 3000
    if tie_step is not None:
        # a target equal to the loop's running integral at some step stops
        # there only if the integral is summed in the same order
        steps = _scalar_steps(model, E, model.mass, model.hbar, q_start,
                              direction, step)
        try:
            _, target = next(itertools.islice(steps, tie_step - 1, None))
        except OverflowError:
            pass
    args = (model, E, model.mass, model.hbar, q_start, direction, step,
            target, cap, max_steps)
    want = _march_outcome(_scalar_march, *args)
    got = _march_outcome(march_tail, *args)
    assert got == want


def test_march_tail_does_not_raise_beyond_its_stop():
    # blocks reach past q = -354.9, where the Morse exp(-2q) overflows, but
    # the march stops at q = -340 first
    morse = make_builtin("morse", {"gamma": 4.5})
    args = (morse, -1.0, 1.0, 1.0, -330.0, -1.0, 2.0, math.inf, 10.0, None)
    assert march_tail(*args) == _scalar_march(*args) == -340.0
    with pytest.raises(OverflowError):
        march_tail(morse, -1.0, 1.0, 1.0, -330.0, -1.0, 2.0, math.inf, 30.0)
