"""Integration utilities: an adaptive Gauss-Kronrod rule for one-off
integrals and a piecewise Chebyshev antiderivative for integrals that must
be evaluated as functions of their upper limit.

Integrands are called with numpy arrays of nodes (vectorized); everything
here is deterministic and stateless.

`integrate` also takes vector-valued integrands: called with n nodes, f may
return shape (m, n) instead of (n,).  The m integrals then share one
adaptive panel tree, so f is sampled once per node for all of them.  Each
component keeps its own error budget, max(abs_tol, rel_tol*|K0_i|) from
its first-panel estimate, halved at each split, and a panel is accepted
only when every component passes.  An integrand with a 1-D return takes
the scalar path, whose arithmetic does not depend on this.
"""

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


def _panel(f, a, b):
    """Kronrod estimate and |Kronrod - Gauss| on [a, b]: floats for a 1-D
    integrand, arrays of m for an (m, n) one."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = f(mid + half * _NODES)
    if np.ndim(y) == 1:
        k = half * float(_WFULL @ y)
        g = half * float(_WGAUSS @ y)
        return k, abs(k - g)
    k = half * (y @ _WFULL)
    g = half * (y @ _WGAUSS)
    return k, np.abs(k - g)


def integrate(f, a, b, spec=QuadratureSpec()):
    """Adaptive Gauss-Kronrod integral of a vectorized integrand.

    Returns a float for a 1-D integrand and an array of m integrals for an
    (m, n) one.  A zero-length interval returns 0.0 without sampling f.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    k0, e0 = _panel(f, a, b)
    vector = np.ndim(k0) == 1
    if vector:
        budget = np.maximum(np.maximum(spec.abs_tol, spec.rel_tol * np.abs(k0)),
                            1e-300)
    else:
        budget = max(spec.abs_tol, spec.rel_tol * abs(k0), 1e-300)
    stack = [(a, b, k0, e0, budget, 0)]
    total = 0.0
    while stack:
        lo, hi, k, err, tol, depth = stack.pop()
        if vector:
            ok = bool(np.all((err <= tol) | (err <= 1e-16 * np.abs(k))))
        else:
            ok = err <= tol or err <= 1e-16 * abs(k)
        if ok:
            total += k
            continue
        if depth >= spec.max_depth:
            if vector:
                # name the component furthest over its budget
                i = int(np.argmax(err / tol))
                raise QuadratureError(
                    "no convergence on [%g, %g] in component %d of %d "
                    "(err %.2e, tol %.2e)" % (lo, hi, i, len(k), err[i], tol[i]))
            raise QuadratureError(
                "no convergence on [%g, %g] (err %.2e, tol %.2e)" % (lo, hi, err, tol))
        mid = 0.5 * (lo + hi)
        kl, el = _panel(f, lo, mid)
        kr, er = _panel(f, mid, hi)
        stack.append((lo, mid, kl, el, 0.5 * tol, depth + 1))
        stack.append((mid, hi, kr, er, 0.5 * tol, depth + 1))
    return total


def _cheb_fit(f, a, b, spec, n_max=1024):
    """Chebyshev coefficients of f on [a, b], degree grown until the tail
    of the coefficient sequence is negligible."""
    n = 16
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    while True:
        theta = np.pi * np.arange(n + 1) / n
        x = mid + half * np.cos(theta)
        vals = f(x)
        ext = np.concatenate([vals, vals[-2:0:-1]])
        c = np.fft.rfft(ext).real[: n + 1] / n
        c[0] *= 0.5
        c[n] *= 0.5
        scale = np.max(np.abs(c)) + 1e-300
        tail = np.max(np.abs(c[-3:]))
        if tail <= max(spec.rel_tol * scale, spec.abs_tol):
            return c
        if n >= n_max:
            raise QuadratureError(
                "Chebyshev fit on [%g, %g] stalled at degree %d" % (a, b, n))
        n *= 2


def _antiderivative_coeffs(c, half_width):
    """Coefficients of the antiderivative vanishing at the left panel edge."""
    n = len(c) - 1
    cp = np.concatenate([c, [0.0, 0.0]])
    b = np.zeros(n + 2)
    k = np.arange(1, n + 2)
    b[1:] = half_width * (cp[0:n + 1] - cp[2:n + 3]) / (2 * k)
    b[1] = half_width * (2 * cp[0] - cp[2]) / 2.0  # T_0 integrates to T_1 whole
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    b[0] = -float(signs @ b[1:])
    return b


def _clenshaw(coeffs, t):
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for ck in coeffs[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + ck, b1
    return t * b1 - b2 + coeffs[0]


class CumulativeCheb:
    """F(x) = integral of f from the first breakpoint to x.

    The integrand is fitted per panel between the supplied breakpoints, so
    callers should place breakpoints at every known kink of f.  Evaluation
    outside the covered range clamps to the nearest endpoint.
    """

    def __init__(self, f, breakpoints, spec=QuadratureSpec()):
        edges = [float(x) for x in breakpoints]
        if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("breakpoints must be strictly increasing, >= 2")
        self.edges = np.array(edges)
        self.coeffs = []
        self.base = [0.0]
        for a, b in zip(edges[:-1], edges[1:]):
            c = _cheb_fit(f, a, b, spec)
            bc = _antiderivative_coeffs(c, 0.5 * (b - a))
            self.coeffs.append(bc)
            # panel integral = F(+1) with F(-1) = 0
            self.base.append(self.base[-1] + float(np.sum(bc[1:]) + bc[0]))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.clip(np.atleast_1d(x), self.edges[0], self.edges[-1])
        idx = np.clip(np.searchsorted(self.edges, xf, side="right") - 1,
                      0, len(self.coeffs) - 1)
        out = np.empty_like(xf)
        for i in range(len(self.coeffs)):
            m = idx == i
            if not np.any(m):
                continue
            a, b = self.edges[i], self.edges[i + 1]
            t = (2.0 * xf[m] - (a + b)) / (b - a)
            out[m] = self.base[i] + _clenshaw(self.coeffs[i], t)
        return float(out[0]) if scalar else out

    def total(self):
        return self.base[-1]
