"""Integration utilities: an adaptive Gauss-Kronrod rule over consecutive
break intervals and a piecewise Chebyshev antiderivative for integrals that
must be evaluated as functions of their upper limit.

Integrands take numpy arrays of nodes and must be elementwise: a node's
value may not depend on which other nodes share the call.  The integrands
here cost per call, not per node, so `integrate` walks the panel trees of
all its intervals level by level, sampling every pending panel of one
depth in one call (Shampine's vectorized quadgk, J. Comput. Appl. Math.
211 (2008) 131-140).  Each tree, and each total bit for bit, is that of a
right-first depth-first stack per interval: a panel's budget is
max(abs_tol, rel_tol*|K0|) from its interval's first panel, halved at each
split; its nodes are mid + half*_NODES; each interval sums its accepted
panels from 0.0 by descending position, as the stack accepts them, and the
interval sums are added in order.  The Kronrod and Gauss sums stay one dot
product per panel, because one (panels, 15) matrix product reduces in
another order and moves the last bit of most estimates.

Vector-valued integrands: called with n nodes, f may return shape (m, n)
instead of (n,).  The m integrals then share one panel tree per interval,
and each component keeps its own budget, max(abs_tol, rel_tol*|K0_i|),
halved at each split; a panel is accepted only when every component
passes.  A 1-D integrand returns a float, an (m, n) one an array of m.
"""

import math
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod extension of 7-point Gauss (positive half, standard values)
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full node vector on [-1, 1] and matching weight vectors
_NODES = np.concatenate([-_XK[:7], _XK[7:], _XK[6::-1]])
_WFULL = np.concatenate([_WK[:7], _WK[7:], _WK[6::-1]])
_WGAUSS = np.zeros(15)
_WGAUSS[1:14:2] = np.concatenate([_WG[:3], _WG[3:], _WG[2::-1]])


# smallest relative tolerance a double-precision quadrature can meet
MIN_REL_TOL = 1e-13


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14
    max_depth: int = 48

    def __post_init__(self):
        if self.rel_tol < MIN_REL_TOL:
            raise ValueError("rel_tol below %g is not attainable in double"
                             % MIN_REL_TOL)


def _panel(half, y):
    """Kronrod estimate and |Kronrod - Gauss| of one panel from its samples
    y, shape (15,) or (m, 15): floats for the first, arrays of m for the
    second."""
    if y.ndim == 1:
        k = half * float(_WFULL @ y)
        g = half * float(_WGAUSS @ y)
        return k, abs(k - g)
    k = half * (y @ _WFULL)
    g = half * (y @ _WGAUSS)
    return k, np.abs(k - g)


def integrate(f, edges, spec=QuadratureSpec()):
    """Adaptive Gauss-Kronrod integral of f from edges[0] to edges[-1], with
    a break at every edge.

    Returns a float for a 1-D integrand and an array of m integrals for an
    (m, n) one.  A zero-length interval adds 0.0 without sampling f.
    """
    edges = [float(x) for x in edges]
    if (len(edges) < 2 or not all(map(math.isfinite, edges))
            or any(b < a for a, b in zip(edges, edges[1:]))):
        raise ValueError("edges must be finite and non-decreasing, >= 2")
    accepted = [[] for _ in edges[1:]]    # (tree position, estimate) per interval
    # pending panels of the current depth: (interval, lo, hi, position, budget)
    level = [(i, a, b, 0, None)
             for i, (a, b) in enumerate(zip(edges, edges[1:])) if a != b]
    depth = 0
    while level:
        lo, hi = np.array([p[1:3] for p in level]).T
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        y = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
        vector = y.ndim == 2
        # per panel a (15,) or contiguous (m, 15) block, as one call per panel gives
        ys = (np.ascontiguousarray(y.reshape(len(y), -1, 15).transpose(1, 0, 2))
              if vector else y.reshape(-1, 15))
        pending, failed = [], None
        for (i, a, b, pos, tol), m, h, yp in zip(level, mid.tolist(),
                                                half.tolist(), ys):
            k, err = _panel(h, yp)
            if tol is None:
                tol = np.maximum(np.maximum(spec.abs_tol, spec.rel_tol * np.abs(k)),
                                 1e-300)
            if np.all((err <= tol) | (err <= 1e-16 * np.abs(k))):
                accepted[i].append((pos << (spec.max_depth - depth), k))
            elif depth < spec.max_depth:
                pending.append((i, a, m, 2 * pos, 0.5 * tol))
                pending.append((i, m, b, 2 * pos + 1, 0.5 * tol))
            elif failed is None or failed[0] == i:
                # lowest interval, then rightmost panel: the failure a
                # depth-first traversal meets first
                failed = (i, a, b, k, err, tol)
        if failed:
            i, a, b, k, err, tol = failed
            where = ""
            if vector:      # name the component furthest over its budget
                c = int(np.argmax(err / tol))
                where, err, tol = " in component %d of %d" % (c, len(k)), err[c], tol[c]
            raise QuadratureError("no convergence on [%g, %g]%s (err %.2e, tol %.2e)"
                                  % (a, b, where, err, tol))
        level = pending
        depth += 1
    total = 0.0
    for panels in accepted:
        part = 0.0
        for _, k in sorted(panels, key=lambda p: p[0], reverse=True):
            part += k
        total += part
    return total


def _per_row(fn, a):
    """fn of each last-axis row of a: a stacked reduction may sum in another order."""
    return np.reshape([fn(r) for r in a.reshape(-1, a.shape[-1])], a.shape[:-1])


def _cheb_fits(f, edges, spec, n_max=1024):
    """Chebyshev coefficients of f on each panel between edges, shape
    rows + (degree + 1,) for f returning rows + (n,) on n nodes.

    All rows of a panel share its degree, grown until the tail of every
    row's coefficient sequence is negligible.  Every panel still growing at
    a trial degree is sampled in one call of f.
    """
    coeffs = [None] * (len(edges) - 1)
    growing = list(range(len(edges) - 1))
    n = 16
    while growing:
        t = np.cos(np.pi * np.arange(n + 1) / n)
        x = [0.5 * (edges[i] + edges[i + 1]) + 0.5 * (edges[i + 1] - edges[i]) * t
             for i in growing]      # mid + half*t per panel
        y = f(np.concatenate(x))    # rows + (panels * (n + 1),)
        vals = np.moveaxis(y.reshape(y.shape[:-1] + (len(growing), n + 1)), -2, 0)
        still = []
        for i, v in zip(growing, vals):
            ext = np.concatenate([v, v[..., -2:0:-1]], axis=-1)
            c = np.fft.rfft(ext, axis=-1).real[..., : n + 1] / n
            c[..., 0] *= 0.5
            c[..., n] *= 0.5
            scale = np.max(np.abs(c), axis=-1) + 1e-300
            tail = np.max(np.abs(c[..., -3:]), axis=-1)
            if np.all(tail <= np.maximum(spec.rel_tol * scale, spec.abs_tol)):
                coeffs[i] = c
            elif n >= n_max:
                raise QuadratureError(
                    "Chebyshev fit on [%g, %g] stalled at degree %d"
                    % (edges[i], edges[i + 1], n))
            else:
                still.append(i)
        growing = still
        n *= 2
    return coeffs


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


def _clenshaw(coeffs, t):
    """Chebyshev series along the last axis of coeffs at the points t."""
    t2 = 2.0 * t
    b1, b2, tmp = (np.zeros(coeffs.shape[:-1] + t.shape) for _ in range(3))
    # b1, b2 = 2t*b1 - b2 + ck, b1 in place: fresh temporaries cost more
    for ck in np.moveaxis(coeffs[..., :0:-1], -1, 0):
        np.subtract(np.multiply(t2, b1, out=tmp), b2, out=b2)
        b2 += ck[..., None]
        b1, b2 = b2, b1
    return t * b1 - b2 + coeffs[..., :1]


class CumulativeCheb:
    """F(x) = integral of f from the first breakpoint to x.

    f may return shape (m, n) for n nodes, as in `integrate`; F(x) then has
    shape (m,) + x.shape and total() shape (m,).  The integrand is fitted
    per panel between the supplied breakpoints, so callers should place
    breakpoints at every known kink of f.  Evaluation outside the covered
    range clamps to the nearest endpoint.
    """

    def __init__(self, f, breakpoints, spec=QuadratureSpec()):
        edges = [float(x) for x in breakpoints]
        if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("breakpoints must be strictly increasing, >= 2")
        self.edges = np.array(edges)
        self.coeffs = [_antiderivative_coeffs(c, 0.5 * (b - a)) for a, b, c in
                       zip(edges[:-1], edges[1:], _cheb_fits(f, edges, spec))]
        self.rows = self.coeffs[0].shape[:-1]
        # panel integral = F(+1) with F(-1) = 0
        self.base = np.cumsum([np.zeros(self.rows)] + [
            _per_row(np.sum, bc[..., 1:]) + bc[..., 0] for bc in self.coeffs], axis=0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xf = np.clip(np.atleast_1d(x), self.edges[0], self.edges[-1])
        idx = np.clip(np.searchsorted(self.edges, xf, side="right") - 1,
                      0, len(self.coeffs) - 1)
        out = np.empty(self.rows + xf.shape)
        for i in range(len(self.coeffs)):
            m = idx == i
            if not np.any(m):
                continue
            a, b = self.edges[i], self.edges[i + 1]
            t = (2.0 * xf[m] - (a + b)) / (b - a)
            out[..., m] = self.base[i][..., None] + _clenshaw(self.coeffs[i], t)
        return out.reshape(self.rows + x.shape)[()]

    def total(self):
        return self.base[-1]
