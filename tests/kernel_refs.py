"""References the kernel tests check `uniwkb.wkb_core` against.

Not collected by pytest (no test_ prefix).  The library does not call any
of these: the a-variable series the Airy routes are compared with at the
switch radius, the growing branch (from `airy.eval_many`'s Bi pair) and
the decaying branch as the forbidden kernel wrote them before both sides
shared `_near_field`, the plain-double closed form of the companion, the
Riccati residual of the forbidden mean term, the Maclaurin series of the
Airy functions (`maclaurin_ref`), which the checkpoint route is compared
with near |a| = 4.5, and the checkpoint step at the length it had before
it was trimmed (`checkpoint_step_ref`), which the library's shorter sum
must equal bit for bit, and the asymptotic sums as one loop step per order
(`sums_loop_ref`), which the library's stacked sums must equal bit for bit,
and the Chebyshev derivative recurrence as a loop over the degrees
(`derivative_coeffs_loop_ref`), which `quadrature._derivative_coeffs`'
cumulative sums must equal bit for bit.
"""

import numpy as np

from uniwkb import airy
from uniwkb.airy import LD
from uniwkb.potentials import q_bundle_many
from uniwkb.wkb_core import (_B1M, _B2M, _BP1, _BP2, _GC, _HC, _UC, _WC,
                             NMAX_SERIES, terms_many)

# growing-branch (plus) series tables, as the library built them
_B1P = np.zeros(NMAX_SERIES + 1)
_B2P = np.zeros(NMAX_SERIES + 1)
for _n in range(1, NMAX_SERIES + 1):
    _B1P[_n] = float(_BP1[_n])
    if _n >= 2:
        _B2P[_n] = float(_BP2[_n])


def _allowed_series_many(a):
    """Truncated combination series at a <= -A_SWITCH (values only)."""
    x = -a
    sx = np.sqrt(x)
    p1 = 1 / x            # x^{(1-3n)/2} at n=1
    p2 = 1 / (sx * x)     # x^{(3-3n)/2} at n=2
    step = 1 / (x * sx)
    u = np.zeros_like(x)
    w = sx.copy()
    h2 = np.zeros_like(x)
    g2 = np.zeros_like(x)
    for n in range(1, NMAX_SERIES + 1):
        if _UC[n]:
            u = u + LD(_UC[n]) * p1
        if _WC[n]:
            w = w + LD(_WC[n]) * p1
        if n >= 2 and _HC[n]:
            h2 = h2 + LD(_HC[n]) * p2
        if n >= 2 and _GC[n]:
            g2 = g2 + LD(_GC[n]) * p2
        p1 = p1 * step
        if n >= 2:
            p2 = p2 * step
    return u, w, h2, g2


def _forbidden_series_many(a):
    """Truncated branch series at a >= A_SWITCH (values only)."""
    sa = np.sqrt(a)
    p1 = 1 / a
    p2 = 1 / (sa * a)
    step = 1 / (a * sa)
    y1m = -sa
    y1p = sa.copy()
    y2m = np.zeros_like(a)
    y2p = np.zeros_like(a)
    for n in range(1, NMAX_SERIES + 1):
        y1m = y1m + LD(_B1M[n]) * p1
        y1p = y1p + LD(_B1P[n]) * p1
        if n >= 2:
            y2m = y2m + LD(_B2M[n]) * p2
            y2p = y2p + LD(_B2P[n]) * p2
        p1 = p1 * step
        if n >= 2:
            p2 = p2 * step
    return y1m, y1p, y2m, y2p


def decaying_airy_ref(a):
    """(y1m, y2m) for 0 <= a < A_SWITCH, in the decaying-branch formulas
    the forbidden kernel used before it shared `_near_field`."""
    ai_s, dai_s, _ = airy.scaled_many(a)
    y1m = dai_s / ai_s
    d1m = a - y1m * y1m
    y2m = (8 * a * a * d1m - 4 * a * y1m - 3) / 30
    return y1m, y2m


def growing_airy_ref(a):
    """(y1p, y2p): the growing branch Bi'/Bi and its companion for
    0 <= a < A_SWITCH, by the same formulas on eval_many's Bi pair."""
    _, _, bi, dbi = airy.eval_many(a)
    y1p = dbi / bi
    d1p = a - y1p * y1p
    y2p = (8 * a * a * d1p - 4 * a * y1p - 3) / 30
    return y1p, y2p


N_MACLAURIN_REF = 30
N_TAYLOR_REF = 26

# Maclaurin running terms, rows (f, g, g', f') of the two standard solutions
# f = 1 + a^3/(2*3) + ..., g = a + a^4/(3*4) + ...: step k multiplies every
# row by a^3, the f' row also by k, and divides each row by _MAC_DEN[k - 1];
# f' has no k = 1 step, so rows 0-2 run alone there (its entry 0 is unused)
_MAC_K = np.arange(1, N_MACLAURIN_REF + 1)
_MAC_DEN = np.stack([(3 * _MAC_K - 1) * (3 * _MAC_K), (3 * _MAC_K) * (3 * _MAC_K + 1),
                     (3 * _MAC_K - 2) * (3 * _MAC_K),
                     (_MAC_K - 1) * (3 * _MAC_K - 1) * (3 * _MAC_K)],
                    axis=1).astype(LD)[:, :, None]
# Ai, Ai', Bi, Bi' = _MAC_C0 * (f, f', f, f') + _MAC_C1 * (g, g', g, g'), with
# Ai(0), Ai'(0), Bi(0), Bi'(0) to 25 significant digits
_AI0, _DAI0 = LD("0.3550280538878172392600632"), LD("-0.2588194037928067984051836")
_BI0, _DBI0 = LD("0.6149266274460007351509224"), LD("0.4482883573538263579148237")
_MAC_C0 = np.array([_AI0, _AI0, _BI0, _BI0], dtype=LD)[:, None]
_MAC_C1 = np.array([_DAI0, _DAI0, _DBI0, _DBI0], dtype=LD)[:, None]


def maclaurin_ref(a):
    """(Ai, Ai', Bi, Bi') at the longdouble array a from the two Maclaurin
    solutions of y'' = a y, summed to N_MACLAURIN_REF terms."""
    a3 = a * a * a
    t = np.stack([np.ones_like(a), a, np.ones_like(a), a * a / 2])
    s = t.copy()
    t3, s3 = t[:3], s[:3]
    t3 *= a3
    t3 /= _MAC_DEN[0, :3]
    s3 += t3
    uf = t[3]
    for k in range(2, N_MACLAURIN_REF + 1):
        t *= a3
        uf *= LD(k)
        t /= _MAC_DEN[k - 1]
        s += t
    return tuple(_MAC_C0 * s[[0, 3, 0, 3]] + _MAC_C1 * s[[1, 2, 1, 2]])


def checkpoint_step_ref(a, fn):
    """`airy._from_checkpoints` with the Taylor coefficients of every
    checkpoint taken to N_TAYLOR_REF orders: (values, derivatives)."""
    g = airy._grids()
    # the checkpoint abscissae, grid by grid, as _grids lays them out
    ts = g["origin"][:, None] + g["step"][:, None] * np.arange(g["y"].shape[1])
    c_all, d_all = airy._taylor_coeffs(ts, g["y"], g["dy"], N_TAYLOR_REF)
    origin = g["origin"][fn]
    step = g["step"][fn]
    idx = np.rint((a - origin) / step).astype(int)
    t0 = origin + step * idx
    coeffs = ((c[fn, idx], d[fn, idx]) for c, d in zip(c_all, d_all))
    return airy._taylor_sum(g["y"][fn, idx], g["dy"][fn, idx], a - t0, coeffs)


def sums_loop_ref(coef, y, truncate):
    """`airy._sums` as a loop over the orders k, one numpy step each: rows
    sum_k coef[r, k]*y^k, with truncate each (row, element) stopped before
    its first term that does not shrink."""
    s = coef[:, :1] + np.zeros_like(y)
    prev = np.abs(s)
    alive = np.ones(s.shape, dtype=bool)
    p = np.ones_like(y)
    for c in coef[:, 1:].T:
        p = p * y
        t = c[:, None] * p
        mag = np.abs(t)
        # once an entry dies its prev no longer matters, so prev is just mag
        alive &= (mag < prev) | (not truncate)
        s = np.where(alive, s + t, s)
        prev = mag
    return s


def derivative_coeffs_loop_ref(c, half_width):
    """`quadrature._derivative_coeffs` as one numpy step per degree:
    d_(k-1) = d_(k+1) + 2k c_k from the top down, d_0 halved."""
    d = np.zeros(c.shape[:-1] + (c.shape[-1] + 2,))
    for k in range(c.shape[-1] - 1, 0, -1):
        d[..., k - 1] = d[..., k + 1] + 2 * k * c[..., k]
    d[..., 0] *= 0.5
    return d[..., :-2] / half_width


def y2_closed_form(a: float, y1: float) -> float:
    """Raw closed form of the second-order companion.

    Kept deliberately in plain double precision: at large |a| the -8a^2 y1^2
    and +8a^3 contributions cancel to O(a^{-3/2}) and the result degrades,
    which the test suite documents by comparison with the series route.
    """
    return (-8.0 * a * a * y1 * y1 - 4.0 * a * y1 + 8.0 * a ** 3 - 3.0) / 30.0


def riccati_residual(q: float, E: float, potential) -> float:
    """|Y' + Y^2 - Q/hbar^2| / (|Q|/hbar^2) in the forbidden region.

    Y' comes from a five-point central difference of the mean term with the
    step tied to the local Airy length, so the residual reflects the method
    rather than differencing noise.
    """
    hbar, mass = potential.hbar, potential.mass
    b = q_bundle_many(potential, q, E, mass)
    Q, dQ, d2Q = float(b.Q), float(b.dQ), float(b.d2Q)
    if dQ != 0.0:
        ell = hbar ** (2.0 / 3.0) / abs(dQ) ** (1.0 / 3.0)
    else:
        ell = np.sqrt(hbar / np.sqrt(abs(d2Q))) if d2Q else 1.0
    h = 1e-3 * min(ell, np.sqrt(abs(Q / d2Q)) if d2Q else ell)
    bs = q_bundle_many(potential, q + np.arange(-2, 3) * h, E, mass)
    side = "right" if dQ >= 0 else "left"
    ys = terms_many(bs.Q, bs.dQ, bs.d2Q, None, hbar, side)[0]
    yprime = (ys[0] - 8 * ys[1] + 8 * ys[3] - ys[4]) / (12 * h)
    y = ys[2]
    return float(abs(yprime + y * y - Q / hbar ** 2) / (abs(Q) / hbar ** 2))
