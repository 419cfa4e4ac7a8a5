"""Integration over break panels: one adaptive Chebyshev fit per panel
between consecutive edges gives definite integrals (`integrate`) and
antiderivatives evaluated as functions of their upper limit
(`CumulativeCheb`, which also evaluates the fitted integrand and its
derivative).  README, "Library entry points", states the rules in full.

A panel's integrand is interpolated at the n + 1 first-kind Chebyshev
points, never at a panel end, for n = 64, 128, ..., 1024 until the last
three coefficients of every row are within its budget
max(abs_tol, rel_tol*max|c|), then chopped (Aurentz & Trefethen, ACM TOMS
43 (2017) 33); Clenshaw & Curtis, Numer. Math. 2 (1960) 197.  Integrands
must be elementwise: every panel still growing is sampled in one call.

The work runs on all panels at once.  The fit test and the chop reduce
along the coefficient axis (max, cumsum), which adds in a panel's own
order; the sums whose order depends on length (b_0, the panel integrals)
are taken per row at the exact length.  A call on several panels whose
rows x points fit one CLENSHAW_BUDGET block runs one Clenshaw recurrence
(Math. Tables Aids Comput. 9 (1955) 118) across them, each padded with
zero terms on top, which keep the recurrence at +0.0; other calls run
each panel at its own length on its live rows.  A point goes through the
same operations either way, so F(x) at a point is bit for bit its
one-point call.
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
    """Chebyshev coefficients of f on each panel between edges, one array
    rows + (degree + 1,) per panel for f returning rows + (n,) on n nodes.

    All rows of a panel share its degree, grown until the tail of every
    row's coefficients is within its budget; a converged panel keeps the
    shortest head whose dropped terms sum, in absolute value, to at most
    CHOP_FRACTION of every row's budget.  The first panel that is still
    growing at MAX_DEGREE, or whose tail is not finite (a sample of f was
    not, so no degree can fit it), raises.
    """
    e = np.array(edges)
    mid, half = 0.5 * (e[:-1] + e[1:]), 0.5 * (e[1:] - e[:-1])
    coeffs = [None] * len(mid)
    growing = np.arange(len(mid))
    n = FIRST_DEGREE
    while growing.size:
        t = np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
        y = np.asarray(f(np.ravel(mid[growing, None] + half[growing, None] * t)))
        # (panels, rows flattened, n + 1)
        c = _cheb_coeffs(y.reshape(-1, growing.size, n + 1)).transpose(1, 0, 2)
        ac = np.abs(c)
        tol = np.maximum(spec.rel_tol * (ac.max(axis=-1) + 1e-300), spec.abs_tol)
        tail = ac[..., -3:].max(axis=-1)
        done = (tail <= tol).all(axis=1)
        finite = np.isfinite(tail).all(axis=1)
        bad = np.flatnonzero(~done & (~finite | (n >= MAX_DEGREE)))
        if bad.size:
            j = bad[0]
            a, b = edges[growing[j]], edges[growing[j] + 1]
            if not finite[j]:
                raise QuadratureError(
                    "Chebyshev fit on [%g, %g]: samples are not finite at "
                    "degree %d" % (a, b, n))
            r = int(np.argmax(tail[j] / tol[j]))   # the row furthest over its budget
            where = " in component %d of %d" % (r, tail.shape[1]) if y.ndim > 1 else ""
            raise QuadratureError(
                "Chebyshev fit on [%g, %g] stalled at degree %d%s "
                "(tail %.2e, tol %.2e)" % (a, b, n, where, tail[j, r], tol[j, r]))
        dropped = np.cumsum(ac[..., ::-1], axis=-1)[..., ::-1]  # sum_{j>=k}|c_j|
        # dropped never grows with k, so the k that pass form a suffix
        keep = n + 1 - (dropped <= CHOP_FRACTION * tol[..., None]).all(axis=1).sum(axis=1)
        for j in np.flatnonzero(done):
            coeffs[growing[j]] = c[j, :, :max(keep[j], 1)].reshape(y.shape[:-1] + (-1,))
        growing = growing[~done]
        n *= 2
    return coeffs


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
    """Chebyshev series, one per row and panel of coeffs (terms, rows,
    panels), at each panel's points t (panels, points): shape (rows,
    panels, points), on blocks of CLENSHAW_BUDGET // (rows * panels) points."""
    _, rows, panels = coeffs.shape
    size = t.shape[-1]
    out = np.empty((rows, panels, size))
    block = max(CLENSHAW_BUDGET // max(rows * panels, 1), 1)
    b1, b2 = (np.empty((rows, panels, min(block, size))) for _ in range(2))
    for s in range(0, size, block):
        tb = t[:, s:s + block]
        w = out[..., s:s + tb.shape[-1]]    # the block's result, scratch until then
        x1, x2 = (v[..., :tb.shape[-1]] for v in (b1, b2))
        x1.fill(0.0)
        x2.fill(0.0)
        t2 = 2.0 * tb
        # x1, x2 = 2t*x1 - x2 + ck, x1 in place: fresh temporaries cost more
        for ck in coeffs[:0:-1]:
            np.subtract(np.multiply(t2, x1, out=w), x2, out=x2)
            x2 += ck[..., None]
            x1, x2 = x2, x1
        np.subtract(np.multiply(tb, x1, out=w), x2, out=w)
        w += coeffs[0][..., None]
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

    `coeffs` (panels, rows, terms) holds every panel's antiderivative,
    vanishing at its left edge and zero-padded on top to the longest,
    `terms` their lengths, and `base` the integrals from the first edge to
    every edge.  `fits` keeps each chopped fit of f, padded alike, so `jet`
    gives the fitted f, the exact derivative of F inside the covered range,
    and f', its exact derivative, along with F.
    """

    def __init__(self, f, breakpoints, spec=QuadratureSpec()):
        edges = _edges(breakpoints)
        if len(edges) < 2:
            raise ValueError("breakpoints span no interval")
        self.edges = np.array(edges)
        fits = _cheb_fits(f, edges, spec)
        self.rows = fits[0].shape[:-1]
        self.terms = np.array([c.shape[-1] + 1 for c in fits])
        size = self.terms.max()
        # the fits, zero-padded past the two terms the antiderivative reads on top
        c = np.zeros((len(fits), math.prod(self.rows), size + 1))
        for ci, fit in zip(c, fits):
            ci[:, :fit.shape[-1]] = fit.reshape(len(ci), -1)
        half = 0.5 * np.diff(self.edges)[:, None, None]
        k = np.arange(1, size)
        b = np.zeros(c.shape[:-1] + (size,))
        b[..., 1:] = half * (c[..., :-2] - c[..., 2:]) / (2 * k)
        b[..., 1] = half[..., 0] * (2 * c[..., 0] - c[..., 2]) / 2.0  # T_0 -> T_1 whole
        signs = (-1.0) ** k
        # b_0 by one dot per row and each panel's integral F(+1) by one
        # pairwise sum per row, both at the exact length: padded, or as one
        # matrix product, they would add in another order
        base = np.zeros((len(b) + 1, b.shape[1]))
        for bi, total, n in zip(b, base[1:], self.terms):
            for row in bi:
                row[0] = -(signs[:n - 1] @ row[1:n])
            np.add(np.add.reduce(bi[:, 1:n], axis=-1), bi[:, 0], out=total)
        self.coeffs, self.fits = b, c[..., :size]
        self.base = np.cumsum(base, axis=0).reshape((len(base),) + self.rows)

    def __call__(self, x):
        return self.jet(x, 0)[0]

    def jet(self, x, order=2):
        """(F(x), f(x), f'(x)) with f the fitted integrand and f' its
        derivative, from one Clenshaw pass over those rows of `_jet_table`;
        order 1 evaluates and returns (F, f) only and order 0 (F,), the
        same bits.  f and f' are 0 outside the covered range, where F
        clamps."""
        x = np.asarray(x, dtype=float)
        coeffs, base = self._jet_table
        k = base.shape[1] // 3
        r = (order + 1) * k
        out = self._evaluate(x, coeffs[:, :r], base[:, :r])
        out[k:, np.ravel((x < self.edges[0]) | (x > self.edges[-1]))] = 0.0
        return tuple(v[()] for v in out.reshape((order + 1,) + self.rows + x.shape))

    @cached_property
    def _jet_table(self):
        """F's rows over f's over f''s (terms, rows, panels), and the base
        widened by zero rows for f and f': built on the first `jet` call
        and kept."""
        d = _derivative_coeffs(self.fits, 0.5 * np.diff(self.edges)[:, None, None])
        coeffs = np.concatenate([self.coeffs, self.fits, d], axis=1).transpose(2, 1, 0)
        base = self.base.reshape(len(self.base), -1)
        base = np.concatenate([base, np.zeros((len(base), 2 * base.shape[1]))], axis=1)
        return np.ascontiguousarray(coeffs), base

    def _evaluate(self, x, coeffs, base):
        """Rows of base[i] plus the series coeffs[:, :, i] of the panel i
        holding each point of the flattened x, clamped to the covered range;
        a row all zero on a panel is its base there."""
        e = self.edges
        xf = np.clip(np.ravel(x), e[0], e[-1])
        idx = np.clip(np.searchsorted(e, xf, side="right") - 1, 0, len(e) - 2)
        perm = None
        if np.any(idx[1:] < idx[:-1]):
            perm = np.argsort(idx, kind="stable")
            xf, idx = xf[perm], idx[perm]
        ends = np.searchsorted(idx, np.arange(len(e)))
        # only the panels that hold a point: one fit may span many panels
        held = np.flatnonzero(np.diff(ends))
        rows = coeffs.shape[1]
        base = base.reshape(len(base), rows)
        if held.size > 1 and rows * xf.size <= CLENSHAW_BUDGET:
            # one recurrence over (rows, panels, slots); a panel's spare
            # slots repeat its first point
            width = np.diff(ends)[held].max()
            pos = np.searchsorted(held, idx) * width + np.arange(xf.size) - ends[idx]
            xs = np.repeat(xf[ends[held]], width)
            xs[pos] = xf
            a, b = e[held, None], e[held + 1, None]
            c = coeffs[:self.terms[held].max(), :, held]
            v = _clenshaw(c, (2.0 * xs.reshape(held.size, width) - (a + b)) / (b - a))
            v[~np.any(c, axis=0)] = 0.0
            out = (v + base[held].T[:, :, None]).reshape(rows, -1)[:, pos]
        else:
            out = np.empty((rows, xf.size))
            for i in held:
                s = slice(ends[i], ends[i + 1])
                t = (2.0 * xf[s] - (e[i] + e[i + 1])) / (e[i + 1] - e[i])
                c = coeffs[:self.terms[i], :, i, None]
                live = np.any(c, axis=(0, 2))
                if live.all():
                    v = _clenshaw(c, t[None])
                else:
                    v = np.zeros((rows, 1, t.size))
                    v[live] = _clenshaw(c[:, live], t[None])
                np.add(v[:, 0], base[i][:, None], out=out[:, s])
        if perm is None:
            return out
        back = np.empty_like(out)
        back[:, perm] = out
        return back

    def total(self):
        return self.base[-1]
