"""The per-panel quadrature engine the tests check `uniwkb.quadrature` against.

Not collected by pytest (no test_ prefix).  The library does not call any
of these.  They are its fit test, chop, antiderivative and Clenshaw
evaluation as one loop over panels, as they were before that work ran
across all panels at once: `per_row`, `chop`, `antiderivative_coeffs` and
`clenshaw` are the library's former helpers, unchanged, `cheb_fits_loop_ref`
its former `_cheb_fits`, and `PerPanelCheb` its former `CumulativeCheb`,
which keeps one array per panel and sums each panel's slice of points on
the rows that are not all zero there.  The library must equal them bit for
bit.
"""

from functools import cached_property

import numpy as np

from uniwkb.quadrature import (CHOP_FRACTION, CLENSHAW_BUDGET, FIRST_DEGREE,
                               MAX_DEGREE, QuadratureError, QuadratureSpec,
                               _cheb_coeffs, _derivative_coeffs, _edges)


def per_row(fn, a):
    """fn of each last-axis row of a: a stacked reduction may sum in another order."""
    return np.reshape([fn(r) for r in a.reshape(-1, a.shape[-1])], a.shape[:-1])


def chop(c, tol):
    """c[..., :k] for the smallest k >= 1 at which every row's dropped
    coefficients sum, in absolute value, to at most CHOP_FRACTION of its tol."""
    dropped = np.cumsum(np.abs(c[..., ::-1]), axis=-1)[..., ::-1]  # sum_{j>=k}|c_j|
    ok = (dropped <= CHOP_FRACTION * tol[..., None]).reshape(-1, c.shape[-1])
    # dropped never grows with k, so the k that pass form a suffix
    k = c.shape[-1] - int(np.sum(np.all(ok, axis=0)))
    return c[..., :max(k, 1)]


def antiderivative_coeffs(c, half_width):
    """Coefficients of the antiderivative vanishing at the left panel edge,
    along the last axis of c."""
    n = c.shape[-1] - 1
    cp = np.concatenate([c, np.zeros(c.shape[:-1] + (2,))], axis=-1)
    b = np.zeros(c.shape[:-1] + (n + 2,))
    k = np.arange(1, n + 2)
    b[..., 1:] = half_width * (cp[..., 0:n + 1] - cp[..., 2:n + 3]) / (2 * k)
    b[..., 1] = half_width * (2 * cp[..., 0] - cp[..., 2]) / 2.0  # T_0 -> T_1 whole
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    b[..., 0] = -per_row(lambda r: signs @ r, b[..., 1:])
    return b


def clenshaw(coeffs, t):
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


def cheb_fits_loop_ref(f, edges, spec):
    """Chebyshev coefficients of f on each panel between edges, shape
    rows + (degree + 1,) for f returning rows + (n,) on n nodes, with the
    convergence test, the errors and the chop taken one panel at a time."""
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
                coeffs[i] = chop(c, tol)
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


class PerPanelCheb:
    """F(x) = integral of f from the first breakpoint to x, one fit, one
    antiderivative and one Clenshaw pass per panel."""

    def __init__(self, f, breakpoints, spec=QuadratureSpec()):
        edges = _edges(breakpoints)
        self.edges = np.array(edges)
        self.fits = cheb_fits_loop_ref(f, edges, spec)
        self.coeffs = [antiderivative_coeffs(c, 0.5 * (b - a)) for a, b, c in
                       zip(edges[:-1], edges[1:], self.fits)]
        self.rows = self.coeffs[0].shape[:-1]
        self.base = np.cumsum([np.zeros(self.rows)] + [
            per_row(np.sum, bc[..., 1:]) + bc[..., 0] for bc in self.coeffs], axis=0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self._evaluate(x, self.coeffs, self.base)
        return out.reshape(self.rows + x.shape)[()]

    def jet(self, x, order=2):
        x = np.asarray(x, dtype=float)
        coeffs, base = self._jet_table
        k = base.shape[1] // 3
        r = (order + 1) * k
        out = self._evaluate(x, [c[:r] for c in coeffs], base[:, :r])
        out[k:, np.ravel((x < self.edges[0]) | (x > self.edges[-1]))] = 0.0
        return tuple(v[()] for v in out.reshape((order + 1,) + self.rows + x.shape))

    @cached_property
    def _jet_table(self):
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
        xf = np.clip(np.ravel(x), self.edges[0], self.edges[-1])
        idx = np.clip(np.searchsorted(self.edges, xf, side="right") - 1,
                      0, len(coeffs) - 1)
        perm = None
        if np.any(idx[1:] < idx[:-1]):
            perm = np.argsort(idx, kind="stable")
            xf, idx = xf[perm], idx[perm]
        ends = np.searchsorted(idx, np.arange(len(coeffs) + 1))
        out = np.empty((base[0].size, xf.size))
        for i in np.flatnonzero(np.diff(ends)):
            a, b = self.edges[i], self.edges[i + 1]
            s = slice(ends[i], ends[i + 1])
            t = (2.0 * xf[s] - (a + b)) / (b - a)
            c = coeffs[i].reshape(-1, coeffs[i].shape[-1])
            live = np.any(c, axis=-1)
            if live.all():
                v = clenshaw(c, t)
            else:
                v = np.zeros((len(c), t.size))
                v[live] = clenshaw(c[live], t)
            np.add(v, base[i].reshape(-1, 1), out=out[:, s])
        if perm is None:
            return out
        back = np.empty_like(out)
        back[:, perm] = out
        return back
