"""Bracketed root finding: tolerance, early exit, bracket errors, the
step rule at the ulp level, and arrays of brackets in lockstep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniwkb.rootfind import BracketError, hybrid_root

# (f, lo, hi, root)
CASES = [
    (lambda x: x ** 3 - 2.0, 0.0, 2.0, 2.0 ** (1.0 / 3.0)),
    (lambda x: math.exp(x) - 5.0, -3.0, 4.0, math.log(5.0)),
    (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
    (lambda x: math.atan(x - 0.7), -3.0, 5.0, 0.7),
    (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0, 0.3),
]
# a root of high multiplicity: interpolation converges only linearly, so
# the solver leans on bisection
FLAT = (lambda x: (x - 1.0) ** 9, 0.0, 3.0, 1.0)


def counting(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("f, lo, hi, root", CASES + [FLAT])
@pytest.mark.parametrize("rel_tol, abs_tol", [(1e-12, 0.0), (1e-8, 1e-10)])
def test_converges_within_tolerance(f, lo, hi, root, rel_tol, abs_tol):
    for a, b in ((lo, hi), (hi, lo)):
        x = hybrid_root(f, a, b, rel_tol=rel_tol, abs_tol=abs_tol)
        # the final bracket is at most the tolerance wide and holds the root
        assert abs(x - root) <= abs_tol + rel_tol * abs(root) + 4 * math.ulp(root)


def test_f_tol_exits_early():
    f = lambda x: x ** 3 - 2.0
    g, calls = counting(f)
    x = hybrid_root(g, 0.0, 2.0, rel_tol=1e-15, f_tol=1e-3)
    assert abs(f(x)) <= 1e-3
    assert calls[-1] == x   # returned the first point inside f_tol
    g_full, calls_full = counting(f)
    hybrid_root(g_full, 0.0, 2.0, rel_tol=1e-15)
    assert len(calls) < len(calls_full)


def test_supplied_end_values_are_used():
    f = lambda x: x ** 3 - 2.0
    g, calls = counting(f)
    hybrid_root(g, 0.0, 2.0, flo=f(0.0), fhi=f(2.0))
    assert 0.0 not in calls and 2.0 not in calls
    assert hybrid_root(f, 0.0, 2.0, flo=0.0) == 0.0
    assert hybrid_root(f, 1.0, 2.0 ** (1.0 / 3.0), fhi=0.0) == 2.0 ** (1.0 / 3.0)


def test_no_sign_change_raises():
    with pytest.raises(BracketError):
        hybrid_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(BracketError):
        hybrid_root(lambda x: x - 5.0, 0.0, 1.0)
    # one bracket of an array without a sign change fails the whole call
    with pytest.raises(BracketError, match=r"\[3, 4\]"):
        hybrid_root(lambda x: x - 2.5, np.array([0.0, 3.0]), np.array([4.0, 4.0]))


@pytest.mark.parametrize("f, lo, hi, root", CASES)
def test_ulp_level_refinement_terminates(f, lo, hi, root):
    """rel_tol below two ulps still ends, in few evaluations, within ulps."""
    g, calls = counting(f)
    x = hybrid_root(g, lo, hi, rel_tol=5e-16, abs_tol=1e-300)
    assert len(calls) < 80
    assert abs(x - root) <= 4 * math.ulp(root)
    g, calls = counting(f)
    hybrid_root(g, lo, hi, rel_tol=0.0, abs_tol=0.0)
    assert len(calls) < 80


@pytest.mark.parametrize("f, lo, hi, root", CASES)
def test_iteration_count_stable_under_ulp_moves(f, lo, hi, root):
    """Moving a bracket end by one ulp does not flip secant/bisection choices."""
    counts = set()
    for a in (lo, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf)):
        for b in (hi, math.nextafter(hi, math.inf), math.nextafter(hi, -math.inf)):
            g, calls = counting(f)
            hybrid_root(g, a, b, rel_tol=1e-12)
            counts.add(len(calls))
    assert len(counts) == 1, counts


def _cheb9(x):
    """T_9 by its recurrence: only +, - and *, so a float and an array
    element round alike.  T_9 is odd, so T_9(0) is 0 exactly."""
    t_prev, t = 1.0 + 0.0 * x, x
    for _ in range(8):
        t_prev, t = t, 2.0 * x * t - t_prev
    return t


# the roots of T_9 lie at least 0.11 apart, so a bracket reaching 0.05 to
# either side of one holds that root alone
_T9_ROOTS = [math.cos((2 * j + 1) * math.pi / 18) for j in range(9)]
_WIDTHS = st.floats(1e-9, 0.05)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), _WIDTHS, _WIDTHS,
                          st.sampled_from([None, "lo", "hi"])),
                min_size=1, max_size=10),
       st.booleans(),
       st.sampled_from([(1e-12, 0.0, 0.0), (5e-16, 1e-300, 0.0),
                        (1e-8, 1e-10, 1e-6)]))
def test_lockstep_brackets_match_their_scalar_calls(draws, given_ends, tols):
    """On arrays of brackets every root is bit for bit its scalar call's,
    with f called once per round for the brackets still open, as many
    rounds as the slowest bracket's scalar evaluations.  A bracket ending
    at 0, where T_9 is exactly 0, takes the f(lo) == 0 or f(hi) == 0
    shortcut, with its end values supplied or not."""
    lo, hi = [], []
    for j, left, right, zero_end in draws:
        a, b = _T9_ROOTS[j] - left, _T9_ROOTS[j] + right
        if zero_end == "lo":
            a, b = 0.0, right
        elif zero_end == "hi":
            a, b = -left, 0.0
        lo.append(a)
        hi.append(b)
    rel_tol, abs_tol, f_tol = tols
    tol = dict(rel_tol=rel_tol, abs_tol=abs_tol, f_tol=f_tol)
    ends = [[_cheb9(x) for x in xs] if given_ends else [None] * len(xs)
            for xs in (lo, hi)]
    scalar, evals = [], []
    for a, b, fa, fb in zip(lo, hi, *ends):
        g, calls = counting(_cheb9)
        scalar.append(hybrid_root(g, a, b, flo=fa, fhi=fb, **tol))
        evals.append(len(calls))
    g, calls = counting(_cheb9)
    arr = hybrid_root(g, np.array(lo), np.array(hi),
                      flo=np.array(ends[0]) if given_ends else None,
                      fhi=np.array(ends[1]) if given_ends else None, **tol)
    assert arr.shape == (len(lo),)
    assert [x.hex() for x in arr.tolist()] == [x.hex() for x in scalar]
    assert len(calls) == max(evals)
    assert [len(x) for x in calls] == [sum(e > r for e in evals)
                                       for r in range(len(calls))]
