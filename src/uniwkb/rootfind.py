"""Bracketed scalar root finding.

One solver covers every root problem in the package: Brent's zeroin, which
interpolates (secant or inverse quadratic) while that shrinks the bracket
fast enough and bisects otherwise.  No derivatives required, deterministic,
and safe on functions that are merely continuous.
"""

import math


class BracketError(ValueError):
    """No sign change in the supplied or searched interval."""


def hybrid_root(f, lo, hi, flo=None, fhi=None, rel_tol=1e-12, abs_tol=0.0,
                max_iter=200, f_tol=0.0):
    """Root of f in [lo, hi] with f(lo), f(hi) of opposite sign.

    Brent's zeroin (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): the bracket [b, c] always holds the root
    and b is the iterate with the smaller |f|.  An interpolation step is
    taken only if it lands well inside the bracket and is less than half
    the step before last; otherwise the step bisects.  No step is shorter
    than half the tolerance or one ulp of b, so a tolerance at the ulp level
    still terminates.
    Terminates when the bracket is at most abs_tol + rel_tol*|x| wide (or
    when it is one ulp wide), or earlier when |f| drops to f_tol (for
    residual-controlled solves).  Returns the end with the smaller |f|.
    """
    a, b = float(lo), float(hi)
    fa = f(a) if flo is None else flo
    if fa == 0.0:
        return a
    fb = f(b) if fhi is None else fhi
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise BracketError("no sign change on [%g, %g]" % (lo, hi))
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = abs_tol + rel_tol * max(abs(b), abs(c), 1e-300)
        step_min = max(0.5 * tol, math.ulp(b))
        if abs(c - b) <= max(tol, math.ulp(b)):
            break
        m = 0.5 * (c - b)
        if abs(e) >= step_min and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant through b and the other bracket end
                p, q = 2.0 * m * s, 1.0 - s
            else:
                # inverse quadratic through a, b and c
                r, t = fa / fc, fb / fc
                p = s * (2.0 * m * r * (r - t) - (b - a) * (t - 1.0))
                q = (r - 1.0) * (t - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(step_min * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > step_min else math.copysign(step_min, m)
        fb = f(b)
        if abs(fb) <= f_tol:
            return b
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    return b if abs(fb) <= abs(fc) else c

