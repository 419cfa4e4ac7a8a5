"""Integration over break panels: one adaptive Chebyshev fit per panel
between consecutive edges, which gives definite integrals (`integrate`)
and antiderivatives evaluated as functions of their upper limit
(`CumulativeCheb`, which also evaluates the fitted integrand and its
derivative) alike.

Each panel's integrand is interpolated at the N = n + 1 first-kind
Chebyshev points mid + half*cos(pi*(j + 1/2)/N), for degrees n = 64, 128,
..., 1024, until the last three coefficients of every row are at most
max(abs_tol, rel_tol*max|c|) of that row, its budget.  One FFT gives the
coefficients (a DCT-II after Makhoul's even/odd reordering).  The schedule
starts at 64 because an integrand call costs mostly fixed numpy overhead,
whatever its number of nodes, and nearly every panel the solver fits has
converged by then, so most integrals take one call.  A converged panel then
drops the trailing coefficients whose absolute sum is at most 1/100 of each
row's budget (chopping, as in Aurentz & Trefethen, ACM TOMS 43 (2017) 33),
so antiderivatives evaluate at the degree the panel needs, within a
hundredth of the budget of the full interpolant.  Panels are never split: a
panel still over its budget at degree 1024 raises QuadratureError, which
names the panel and, for several rows, the row furthest over its budget.
The points never include a panel end, so a value that an integrand takes
only at a break, such as one end of a stitched piece, is never sampled.
On smooth panels a Chebyshev rule is as accurate as Gauss for the same
number of points (Clenshaw & Curtis, Numer. Math. 2 (1960) 197; Trefethen,
SIAM Review 50 (2008) 67-87); place breaks at every known kink.  A jump
far below the budget, such as a switch between two evaluation routes that
agree to about 1e-12, is not one: the fit converges across it.

Integrands take numpy arrays of nodes and must be elementwise: a node's
value may not depend on which other nodes share the call.  Every panel
still growing at a trial degree is sampled in one call.  Called with n
nodes, f may return shape (m, n) instead of (n,); the m rows then share
each panel's degree.  A panel's integral is its antiderivative at the
right edge, and `integrate` returns the sum that `CumulativeCheb.total`
returns for the same panels.

`CumulativeCheb` finds each call's panels once, as one slice of points
per panel (stably sorted when out of panel order), and runs Clenshaw's
recurrence (Math. Tables Aids Comput. 9 (1955) 118) on each, skipping rows
that are all zero there, in cache-sized blocks.  Rows recur independently,
and a point goes through the same operations whatever its block or order,
so F(x) at a point is bit for bit its one-point call, and `jet` evaluates
only the rows its caller reads.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# smallest relative tolerance a double-precision quadrature can meet
MIN_REL_TOL = 1e-13
# first trial degree: most fits then take one call, where 16 took two to four
FIRST_DEGREE = 64
MAX_DEGREE = 1024   # a panel still over its budget at this degree fails
# a converged panel's dropped terms sum to at most this fraction of a row's budget
CHOP_FRACTION = 1e-2
# Clenshaw's work arrays hold at most this many float64 elements (256 KB
# each), so a (rows, points) recurrence stays in a core's L2 cache
CLENSHAW_BUDGET = 2 ** 15


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


@contextmanager
def stage(what):
    """Re-raise a QuadratureError from inside with the stage named first,
    chained from the original and keeping its text."""
    try:
        yield
    except QuadratureError as exc:
        raise QuadratureError("%s: %s" % (what, exc)) from exc


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14

    def __post_init__(self):
        if self.rel_tol < MIN_REL_TOL:
            raise ValueError("rel_tol below %g is not attainable in double"
                             % MIN_REL_TOL)


def _per_row(fn, a):
    """fn of each last-axis row of a: a stacked reduction may sum in another order."""
    return np.reshape([fn(r) for r in a.reshape(-1, a.shape[-1])], a.shape[:-1])


def _cheb_coeffs(v):
    """Chebyshev coefficients, along the last axis, of the interpolant through
    the values v at the first-kind points cos(pi*(j + 1/2)/N), j < N: the
    DCT-II by one FFT of v reordered as v[0], v[2], ..., v[3], v[1]."""
    N = v.shape[-1]
    w = np.concatenate([v[..., ::2], v[..., 1::2][..., ::-1]], axis=-1)
    c = (np.fft.fft(w, axis=-1) * np.exp(-0.5j * np.pi * np.arange(N) / N)).real
    c *= 2.0 / N
    c[..., 0] *= 0.5
    return c


def _cheb_fits(f, edges, spec):
    """Chebyshev coefficients of f on each panel between edges, shape
    rows + (degree + 1,) for f returning rows + (n,) on n nodes.

    All rows of a panel share its degree, grown until the tail of every
    row's coefficient sequence is negligible.  Every panel still growing at
    a trial degree is sampled in one call of f.  A growing panel whose tail
    is not finite (a sample of f was not) raises at that degree, since no
    higher degree can fit it.
    """
    coeffs = [None] * (len(edges) - 1)
    growing = list(range(len(edges) - 1))
    n = FIRST_DEGREE
    while growing:
        t = np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
        x = [0.5 * (edges[i] + edges[i + 1]) + 0.5 * (edges[i + 1] - edges[i]) * t
             for i in growing]      # mid + half*t per panel
        y = np.asarray(f(np.concatenate(x)))    # rows + (panels * (n + 1),)
        c_all = _cheb_coeffs(y.reshape(y.shape[:-1] + (len(growing), n + 1)))
        still = []
        for i, c in zip(growing, np.moveaxis(c_all, -2, 0)):
            scale = np.max(np.abs(c), axis=-1) + 1e-300
            tail = np.max(np.abs(c[..., -3:]), axis=-1)
            tol = np.maximum(spec.rel_tol * scale, spec.abs_tol)
            if np.all(tail <= tol):
                coeffs[i] = _chop(c, tol)
            elif not np.all(np.isfinite(tail)):
                raise QuadratureError(
                    "Chebyshev fit on [%g, %g]: samples are not finite at "
                    "degree %d" % (edges[i], edges[i + 1], n))
            elif n >= MAX_DEGREE:
                where = ""
                if tail.ndim:   # name the row furthest over its budget
                    r = int(np.argmax((tail / tol).ravel()))
                    where = " in component %d of %d" % (r, tail.size)
                    tail, tol = tail.ravel()[r], tol.ravel()[r]
                raise QuadratureError(
                    "Chebyshev fit on [%g, %g] stalled at degree %d%s "
                    "(tail %.2e, tol %.2e)" % (edges[i], edges[i + 1], n, where,
                                               tail, tol))
            else:
                still.append(i)
        growing = still
        n *= 2
    return coeffs


def _chop(c, tol):
    """c[..., :k] for the smallest k >= 1 at which every row's dropped
    coefficients sum, in absolute value, to at most CHOP_FRACTION of its tol."""
    dropped = np.cumsum(np.abs(c[..., ::-1]), axis=-1)[..., ::-1]  # sum_{j>=k}|c_j|
    ok = (dropped <= CHOP_FRACTION * tol[..., None]).reshape(-1, c.shape[-1])
    # dropped never grows with k, so the k that pass form a suffix
    k = c.shape[-1] - int(np.sum(np.all(ok, axis=0)))
    return c[..., :max(k, 1)]


def _antiderivative_coeffs(c, half_width):
    """Coefficients of the antiderivative vanishing at the left panel edge,
    along the last axis of c."""
    n = c.shape[-1] - 1
    cp = np.concatenate([c, np.zeros(c.shape[:-1] + (2,))], axis=-1)
    b = np.zeros(c.shape[:-1] + (n + 2,))
    k = np.arange(1, n + 2)
    b[..., 1:] = half_width * (cp[..., 0:n + 1] - cp[..., 2:n + 3]) / (2 * k)
    b[..., 1] = half_width * (2 * cp[..., 0] - cp[..., 2]) / 2.0  # T_0 -> T_1 whole
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    b[..., 0] = -_per_row(lambda r: signs @ r, b[..., 1:])
    return b


def _derivative_coeffs(c, half_width):
    """Coefficients of the x-derivative of the series c on a panel of
    half-width half_width, along the last axis of c and as long (the last
    is 0): d_(k-1) = d_(k+1) + 2k c_k from the top down, d_0 halved (Mason
    & Handscomb, Chebyshev Polynomials, CRC 2003, section 2.4).

    Each parity chain of the recurrence is one cumsum, which adds in order
    from the top; the prepended 0.0 makes its first step 0.0 + 2k c_k, so
    the sums, signed zeros included, are those of the term-by-term loop.
    """
    n = c.shape[-1] - 1
    terms = 2 * np.arange(1, n + 1) * c[..., 1:]    # 2k c_k, feeding d_(k-1)
    zero = np.zeros(c.shape[:-1] + (1,))
    d = np.zeros(c.shape)
    for p in (0, 1):
        chain = np.concatenate([zero, terms[..., p::2][..., ::-1]], axis=-1)
        d[..., p:n:2] = np.cumsum(chain, axis=-1)[..., :0:-1]
    d[..., 0] *= 0.5
    return d / half_width


def _clenshaw(coeffs, t):
    """Chebyshev series, one per row of the 2-D coeffs, at the 1-D points
    t: shape (rows, len(t)), on blocks of CLENSHAW_BUDGET // rows points."""
    rows = coeffs.shape[0]
    out = np.empty((rows, t.size))
    block = max(CLENSHAW_BUDGET // max(rows, 1), 1)
    b1, b2, tmp = (np.empty((rows, min(block, t.size))) for _ in range(3))
    for s in range(0, t.size, block):
        tb = t[s:s + block]
        x1, x2, w = (v[:, :tb.size] for v in (b1, b2, tmp))
        x1.fill(0.0)
        x2.fill(0.0)
        t2 = 2.0 * tb
        # x1, x2 = 2t*x1 - x2 + ck, x1 in place: fresh temporaries cost more
        for ck in coeffs[:, :0:-1].T:
            np.subtract(np.multiply(t2, x1, out=w), x2, out=x2)
            x2 += ck[:, None]
            x1, x2 = x2, x1
        o = out[:, s:s + tb.size]
        np.subtract(np.multiply(tb, x1, out=w), x2, out=o)
        o += coeffs[:, :1]
    return out


def _edges(points):
    """Finite, non-decreasing points (two or more), zero-length spans dropped."""
    edges = [float(x) for x in points]
    if (len(edges) < 2 or not all(map(math.isfinite, edges))
            or any(b < a for a, b in zip(edges, edges[1:]))):
        raise ValueError("edges must be finite and non-decreasing, >= 2")
    return edges[:1] + [b for a, b in zip(edges, edges[1:]) if b > a]


def integrate(f, edges, spec=QuadratureSpec()):
    """Integral of f from edges[0] to edges[-1], with a break at every edge:
    `CumulativeCheb(f, edges, spec).total()`.

    Returns a float for a 1-D integrand and an array of m integrals for an
    (m, n) one.  A zero-length interval adds 0.0 without sampling f.
    """
    if len(_edges(edges)) < 2:
        return 0.0
    total = CumulativeCheb(f, edges, spec).total()
    return float(total) if total.ndim == 0 else total


class CumulativeCheb:
    """F(x) = integral of f from the first breakpoint to x.

    f may return shape (m, n) for n nodes, as in `integrate`; F(x) then has
    shape (m,) + x.shape and total() shape (m,).  The integrand is fitted
    per panel between the supplied breakpoints, so callers should place
    breakpoints at every known kink of f; at least one interval must have
    positive length.  Evaluation outside the covered range clamps to the
    nearest endpoint.

    Each panel keeps its chopped fit of f (`fits`) beside the antiderivative
    (`coeffs`), so `jet` gives the fitted f, the exact derivative of F
    inside the covered range, and f', its exact derivative, along with F
    in one pass.
    """

    def __init__(self, f, breakpoints, spec=QuadratureSpec()):
        edges = _edges(breakpoints)
        if len(edges) < 2:
            raise ValueError("breakpoints span no interval")
        self.edges = np.array(edges)
        self.fits = _cheb_fits(f, edges, spec)
        # per panel, the antiderivative vanishing at its left edge; base holds
        # the integrals from edges[0] to every edge, with panel integral F(+1)
        self.coeffs = [_antiderivative_coeffs(c, 0.5 * (b - a)) for a, b, c in
                       zip(edges[:-1], edges[1:], self.fits)]
        self.rows = self.coeffs[0].shape[:-1]
        self.base = np.cumsum([np.zeros(self.rows)] + [
            _per_row(np.sum, bc[..., 1:]) + bc[..., 0] for bc in self.coeffs], axis=0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self._evaluate(x, self.coeffs, self.base)
        return out.reshape(self.rows + x.shape)[()]

    def jet(self, x, order=2):
        """(F(x), f(x), f'(x)) with f the fitted integrand and f' its
        derivative, from one Clenshaw pass per panel over those rows of
        `_jet_table`; order 1 evaluates and returns (F, f) only, the same
        bits.  F is bit for bit F(x); f and f' are 0 outside the covered
        range, where F clamps."""
        x = np.asarray(x, dtype=float)
        coeffs, base = self._jet_table
        k = base.shape[1] // 3
        r = (order + 1) * k
        out = self._evaluate(x, [c[:r] for c in coeffs], base[:, :r])
        out[k:, np.ravel((x < self.edges[0]) | (x > self.edges[-1]))] = 0.0
        return tuple(v[()] for v in out.reshape((order + 1,) + self.rows + x.shape))

    @cached_property
    def _jet_table(self):
        """Per panel, F's rows over f's over f''s, the fit zero-padded to the
        antiderivative's length, and the base widened by zero rows for f
        and f': built on the first `jet` call and kept."""
        k = int(np.prod(self.rows))
        coeffs = []
        for a, b, bc, c in zip(self.edges[:-1], self.edges[1:], self.coeffs,
                               self.fits):
            c = np.pad(c.reshape(k, -1), ((0, 0), (0, 1)))  # one term short of F's
            coeffs.append(np.concatenate([bc.reshape(k, -1), c,
                                          _derivative_coeffs(c, 0.5 * (b - a))]))
        base = np.concatenate([self.base.reshape(-1, k),
                               np.zeros((len(self.base), 2 * k))], axis=1)
        return coeffs, base

    def _evaluate(self, x, coeffs, base):
        """Rows (flattened) of base[i] plus the series coeffs[i] of the panel
        holding each point of the flattened x, clamped to the covered range."""
        xf = np.clip(np.ravel(x), self.edges[0], self.edges[-1])
        idx = np.clip(np.searchsorted(self.edges, xf, side="right") - 1,
                      0, len(coeffs) - 1)
        perm = None
        if np.any(idx[1:] < idx[:-1]):
            perm = np.argsort(idx, kind="stable")
            xf, idx = xf[perm], idx[perm]
        ends = np.searchsorted(idx, np.arange(len(coeffs) + 1))
        out = np.empty((base[0].size, xf.size))
        # only the panels that hold a point: one fit may span many panels
        for i in np.flatnonzero(np.diff(ends)):
            a, b = self.edges[i], self.edges[i + 1]
            s = slice(ends[i], ends[i + 1])
            t = (2.0 * xf[s] - (a + b)) / (b - a)
            # a row that is all zero on this panel stays at its base there
            c = coeffs[i].reshape(-1, coeffs[i].shape[-1])
            live = np.any(c, axis=-1)
            if live.all():
                v = _clenshaw(c, t)
            else:
                v = np.zeros((len(c), t.size))
                v[live] = _clenshaw(c[live], t)
            np.add(v, base[i].reshape(-1, 1), out=out[:, s])
        if perm is None:
            return out
        back = np.empty_like(out)
        back[:, perm] = out
        return back

    def total(self):
        return self.base[-1]
