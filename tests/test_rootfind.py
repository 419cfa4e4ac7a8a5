"""Bracketed root finding: tolerance, early exit, bracket errors and the
step rule at the ulp level."""

import math

import pytest

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
