"""The compiled expression program against the tree walk it replaced.

`reference_expr` below is the evaluator `exprparse.compile_expr` used to
return: a walk of the parse tree on every call, forming every term of the
degree-2 Taylor recurrences.  The compiled program folds constants, drops
terms with a structural zero and deletes registers after their last read;
these tests hold it to the walk's values, exceptions and memory.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniwkb import exprparse, jetprog, potentials, spectral
from uniwkb.exprparse import EvalDomainError, finite_eval, free_names, parse


# ---- the reference: the tree walk, as exprparse had it ----

def _jmul(a, b):
    return (a[0] * b[0],
            a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + a[1] * b[1] + a[2] * b[0])


def _jdiv(a, b):
    if np.any(b[0] == 0.0):
        raise EvalDomainError("division by zero")
    d0 = a[0] / b[0]
    d1 = (a[1] - d0 * b[1]) / b[0]
    d2 = (a[2] - d0 * b[2] - d1 * b[1]) / b[0]
    return (d0, d1, d2)


def _jexp(f):
    e0 = np.exp(f[0])
    e1 = f[1] * e0
    e2 = (2 * f[2] * e0 + f[1] * e1) / 2
    return (e0, e1, e2)


def _jln(f):
    if np.any(f[0] <= 0.0):
        raise EvalDomainError("ln of non-positive value")
    l1 = f[1] / f[0]
    l2 = (2 * f[2] - l1 * f[1]) / (2 * f[0])
    return (np.log(f[0]), l1, l2)


def _jsqrt(f):
    if np.any(f[0] < 0.0):
        raise EvalDomainError("sqrt of negative value")
    if np.any(f[0] == 0.0):
        raise EvalDomainError("sqrt derivative singular at zero")
    s0 = np.sqrt(f[0])
    s1 = f[1] / (2 * s0)
    s2 = (f[2] - s1 * s1) / (2 * s0)
    return (s0, s1, s2)


def _jsincos(f, hyper=False):
    if hyper:
        s0, c0 = np.sinh(f[0]), np.cosh(f[0])
        sgn = 1.0
    else:
        s0, c0 = np.sin(f[0]), np.cos(f[0])
        sgn = -1.0
    s1 = f[1] * c0
    c1 = sgn * f[1] * s0
    s2 = (2 * f[2] * c0 + f[1] * c1) / 2
    c2 = sgn * (2 * f[2] * s0 + f[1] * s1) / 2
    return (s0, s1, s2), (c0, c1, c2)


def _jpow(f, g, g_const):
    if (g_const is not None and abs(g_const) <= jetprog.MAX_INT_EXPONENT
            and abs(g_const - round(g_const)) < 1e-12):
        k = int(round(g_const))
        if k == 0:
            return (1.0, 0.0, 0.0)
        acc = (1.0, 0.0, 0.0)
        for _ in range(abs(k)):
            acc = _jmul(acc, f)
        if k < 0:
            acc = _jdiv((1.0, 0.0, 0.0), acc)
        return acc
    if np.any(f[0] <= 0.0):
        raise EvalDomainError("power of non-positive base")
    return _jexp(_jmul(g, _jln(f)))


def _eval_jet(node, qjet, params):
    kind = node[0]
    if kind == "num":
        return (node[1], 0.0, 0.0)
    if kind == "var":
        if node[1] == "q":
            return qjet
        return (params[node[1]], 0.0, 0.0)
    if kind == "neg":
        a = _eval_jet(node[1], qjet, params)
        return (-a[0], -a[1], -a[2])
    if kind == "+":
        a = _eval_jet(node[1], qjet, params)
        b = _eval_jet(node[2], qjet, params)
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    if kind == "-":
        a = _eval_jet(node[1], qjet, params)
        b = _eval_jet(node[2], qjet, params)
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])
    if kind == "*":
        return _jmul(_eval_jet(node[1], qjet, params),
                     _eval_jet(node[2], qjet, params))
    if kind == "/":
        return _jdiv(_eval_jet(node[1], qjet, params),
                     _eval_jet(node[2], qjet, params))
    if kind == "^":
        base = _eval_jet(node[1], qjet, params)
        expo = _eval_jet(node[2], qjet, params)
        return _jpow(base, expo, None if node[3] else float(expo[0]))
    if kind == "call":
        a = _eval_jet(node[2], qjet, params)
        fn = node[1]
        if fn == "exp":
            return _jexp(a)
        if fn == "ln":
            return _jln(a)
        if fn == "sqrt":
            return _jsqrt(a)
        if fn in ("sin", "cos", "tan"):
            s, c = _jsincos(a, hyper=False)
            return s if fn == "sin" else c if fn == "cos" else _jdiv(s, c)
        s, c = _jsincos(a, hyper=True)
        return s if fn == "sinh" else c if fn == "cosh" else _jdiv(s, c)
    raise AssertionError("unhandled node %r" % (kind,))


def reference_expr(src, params):
    """The tree-walk evaluator f(q) -> (V, V', V'')."""
    node = parse(src)
    params = dict(params)
    assert all(n == "q" or n in params for n, _ in free_names(node))

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        c = _eval_jet(node, (q if q.ndim else float(q), 1.0, 0.0), params)
        return (c[0], c[1], 2.0 * c[2])

    return finite_eval(evaluate)


# ---- expressions covering every node kind ----

_PARAMS = {"a": 0.75, "b": -1.25}
_NUMBERS = st.sampled_from(["0", "0.5", "1", "2", "3", "1.5", "0.25", "7",
                            "1e-3", "2.5e1"])
# integer, negative, non-integer and over-MAX_INT_EXPONENT constant
# exponents; q-dependent ones come from the tree
_EXPONENTS = st.sampled_from(["2", "3", "0", "1", "(-1)", "(-2)", "0.5",
                              "(-0.5)", "1.5", "1025", "2000", "(2^11)",
                              "1024", "(10^15)", "(3*a)", "b"])


def _grow(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: "(%s %s %s)" % t)
    power = st.tuples(children, st.one_of(_EXPONENTS, children)).map(
        lambda t: "(%s)^(%s)" % t)
    call = st.tuples(st.sampled_from(exprparse.FUNCS), children).map(
        lambda t: "%s(%s)" % t)
    neg = children.map(lambda s: "-%s" % s)
    return st.one_of(binary, power, call, neg)


EXPRESSIONS = st.recursive(
    st.one_of(st.just("q"), st.sampled_from(sorted(_PARAMS)), _NUMBERS),
    _grow, max_leaves=8)
_Q = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
POINTS = st.one_of(_Q, st.lists(_Q, min_size=1, max_size=5).map(np.array))


def _outcome(f, q):
    try:
        return f(q)
    except (ArithmeticError, ValueError) as exc:
        return exc


def assert_same_outcome(src, q):
    got = _outcome(exprparse.compile_expr(src, _PARAMS), q)
    want = _outcome(reference_expr(src, _PARAMS), q)
    if isinstance(want, Exception):
        assert type(got) is type(want), (src, q, got, want)
        if isinstance(want, EvalDomainError):
            assert str(got) == str(want), (src, q)
        return
    assert not isinstance(got, Exception), (src, q, got)
    shape = np.shape(q)
    for k, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(np.broadcast_to(g, shape),
                              np.broadcast_to(w, shape), equal_nan=True), (
            src, q, k, g, w)
    # V never meets a structural zero: its zeros keep their sign
    assert np.array_equal(np.signbit(got[0]), np.signbit(want[0])), (src, q)


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS, POINTS)
def test_compiled_program_equals_the_tree_walk(src, q):
    assert_same_outcome(src, q)


@pytest.mark.parametrize("src", [
    "1/0 + q", "q + 1/0", "ln(q) + 1/0", "sqrt(0)*q", "ln(-1) + q^2",
    "(-2)^0.5 + q", "q/tan(0)", "q^(2^2000)", "2^2000*q", "exp(1000)*q",
    "0*exp(1000*q)", "(1 + q)^(-3)", "q^1024", "q^(-1024)", "q^1025",
    "q^(10^15)", "(2 + q)^q", "q^q", "tanh(q)/q", "2^1024 + q",
    "exp(-2*(2^1024 + q))", "1/(2*(2^1024 + q))"])
@pytest.mark.parametrize("q", [0.0, -0.0, 1.5, -2.0,
                               np.array([0.0, -0.0, 0.5, -1.5, 3.0])])
def test_constant_checks_and_overflow_match_the_tree_walk(src, q):
    """Folded domain checks still raise at evaluation time, in the tree's
    order and with its message; a non-finite constant keeps every term."""
    assert_same_outcome(src, q)


def test_program_names_only_registers_and_the_fixed_table():
    """The program is written from register names, float literals and the
    fixed numpy table; no name from the expression reaches it."""
    program, finite = jetprog._build(
        parse("weird_name*exp(-q) + tanh(q)/q"), {"weird_name": 2.0},
        skip_zeros=True)
    code = program.__code__
    assert finite and set(code.co_names) <= set(jetprog._NAMESPACE) | {
        "float", "ndim", "dtype"}
    assert all(name == "q" or name[0] == "r" and name[1:].isdigit()
               for name in code.co_varnames)


QUARTIC = "q^4/4 + q^2/2"


def _peak_bytes(f, q):
    f(q[:4])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        f(q)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("src,params", [
    (QUARTIC, {}), ("-B/cosh(q)^2", {"B": 10.0}),
    ("A*(exp(-2*q)-2*exp(-q))", {"A": 10.125})])
def test_program_peak_memory_is_no_higher_than_the_tree_walk(src, params):
    """Registers are deleted after their last read, so a 100,001-point
    call allocates no more at its peak than the tree walk did."""
    q = np.linspace(-3.0, 3.0, 100_001)
    compiled = _peak_bytes(exprparse.compile_expr(src, params), q)
    reference = _peak_bytes(reference_expr(src, params), q)
    assert compiled <= reference, (compiled, reference)


# the four wells of the expr-solve benchmark workload
EXPR_WELLS = (("k*q^2", {"k": 0.5}),
              ("A*(exp(-2*q)-2*exp(-q))", {"A": 10.125}),
              ("-B/cosh(q)^2", {"B": 10.0}),
              (QUARTIC, {}))


@pytest.mark.parametrize("src,params", EXPR_WELLS)
def test_expr_wells_solve_the_same_on_the_program_and_the_tree_walk(
        src, params):
    compiled = potentials.parse_potential(src, params)
    walked = dataclasses.replace(compiled, eval=reference_expr(src, params))
    assert compiled.well == walked.well
    for n in range(4):
        a, b = (spectral.assemble(pot, spectral.solve_quantization(pot, n), n)
                for pot in (compiled, walked))
        assert (a.e_sp, a.e_bar, a.breaks) == (b.e_sp, b.e_bar, b.breaks)
