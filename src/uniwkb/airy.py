"""Real-argument Airy functions built from scratch.

Three evaluation regimes, all carried out in numpy longdouble (80-bit extended
on x86), which buys the headroom needed by downstream cancellation-sensitive
combinations:

* |a| <= 4.5            Maclaurin series of the two standard ODE solutions.
* 4.5 < |a| < 9         one local Taylor step away from precomputed checkpoint
                        values; checkpoints are marched once per process along
                        the numerically stable direction for each function.
* |a| >= 9              large-argument asymptotic expansions (scaled forms on
                        the positive axis, phase/modulus form on the negative
                        axis), truncated per element at the smallest term.

The negative-axis modulus Ai^2 + Bi^2 additionally has its own smooth
asymptotic series so callers never square oscillatory values there.

The module's API is the three array functions eval_many, scaled_many and
modulus_many.  They take a float or an array of floats and return longdouble
arrays, so callers that combine values with large cancellation can defer
rounding.
"""

import numpy as np

LD = np.longdouble

# Zero-point values, 25 significant digits (enough to saturate longdouble).
AI0 = LD("0.3550280538878172392600632")
DAI0 = LD("-0.2588194037928067984051836")
BI0 = LD("0.6149266274460007351509224")
DBI0 = LD("0.4482883573538263579148237")

PI_L = LD("3.141592653589793238462643383279503")
SQRT_PI = LD("1.772453850905516027298167483341145")

SERIES_RADIUS = 4.5     # Maclaurin is used at or below this |a|
ASYM_RADIUS = 9.0       # asymptotic expansions at or beyond this |a|
SEED_POINT = 13.0       # asymptotic seed for the inward Ai march

N_MACLAURIN = 30
N_ASYM = 32
N_TAYLOR_QUERY = 26
N_TAYLOR_BUILD = 32
CHECKPOINT_STEP = 0.25


def _asym_coeffs(n):
    """Poles-at-infinity coefficient families u_k, v_k of the Airy expansions."""
    u = np.empty(n, LD)
    v = np.empty(n, LD)
    u[0] = 1
    v[0] = 1
    for k in range(n - 1):
        # ratio (6k+1)(6k+3)(6k+5)/(216 (k+1)(2k+1)), exact in small integers
        u[k + 1] = u[k] * LD((6 * k + 1) * (6 * k + 3) * (6 * k + 5)) \
            / LD(216 * (k + 1) * (2 * k + 1))
        v[k + 1] = u[k + 1] * LD(6 * k + 7) / LD(-(6 * k + 5))
    return u, v


_U, _V = _asym_coeffs(N_ASYM)
_ALT = np.where(np.arange(N_ASYM) % 2 == 0, LD(1), LD(-1))
_U_ALT = _U * _ALT
_V_ALT = _V * _ALT
# even/odd splits with (-1)^k folded in, for the oscillatory (negative-axis) form
_U_EVEN = _U[0::2] * _ALT[: len(_U[0::2])]
_U_ODD = _U[1::2] * _ALT[: len(_U[1::2])]
_V_EVEN = _V[0::2] * _ALT[: len(_V[0::2])]
_V_ODD = _V[1::2] * _ALT[: len(_V[1::2])]


def _m2_coeffs(n):
    """Coefficients of the smooth modulus series (Ai^2+Bi^2)(-x)*pi*sqrt(x) = sum c_k x^{-3k}.

    This is DLMF 9.8.20 with its alternating sign made explicit:
    c_k = (-1)^k * 1*3*5*...*(6k-1) / (k! 96^k), so c_1 = -5/32 and the
    scaled modulus approaches 1 from below as x -> +inf.
    """
    c = np.empty(n, LD)
    c[0] = 1
    for k in range(n - 1):
        c[k + 1] = -c[k] * LD((6 * k + 1) * (6 * k + 3) * (6 * k + 5)) / LD(96 * (k + 1))
    return c


_M2 = _m2_coeffs(N_ASYM)
_M2D = _M2 * (LD(6) * np.arange(N_ASYM, dtype=LD) + 1) / 2


def _asym_sum(coef, y):
    """sum coef[k]*y^k with per-element truncation where terms stop shrinking."""
    s = np.full(y.shape, coef[0], dtype=LD)
    p = np.ones(y.shape, dtype=LD)
    prev = np.full(y.shape, np.abs(coef[0]), dtype=LD)
    alive = np.ones(y.shape, dtype=bool)
    for c in coef[1:]:
        p = p * y
        t = c * p
        mag = np.abs(t)
        alive &= mag < prev
        s = np.where(alive, s + t, s)
        prev = np.where(alive, mag, prev)
    return s


def _maclaurin(a):
    """Ai, Ai', Bi, Bi' from the two Maclaurin solutions of y'' = a y."""
    a3 = a * a * a
    f = np.ones_like(a)
    g = a.copy()
    tf = np.ones_like(a)
    tg = a.copy()
    f1 = a * a / 2
    g1 = np.ones_like(a)
    uf = a * a / 2
    vg = np.ones_like(a)
    for k in range(1, N_MACLAURIN + 1):
        tf = tf * a3 / LD((3 * k - 1) * (3 * k))
        tg = tg * a3 / LD((3 * k) * (3 * k + 1))
        f = f + tf
        g = g + tg
        if k >= 2:
            uf = uf * a3 * LD(k) / LD((k - 1) * (3 * k - 1) * (3 * k))
            f1 = f1 + uf
        if k >= 1:
            vg = vg * a3 / LD((3 * k - 2) * (3 * k))
            g1 = g1 + vg
    ai = AI0 * f + DAI0 * g
    dai = AI0 * f1 + DAI0 * g1
    bi = BI0 * f + DBI0 * g
    dbi = BI0 * f1 + DBI0 * g1
    return ai, dai, bi, dbi


def _taylor_step(t0, y, dy, h, nterms):
    """One Taylor step for y'' = t*y from t0 to t0+h (vectorized over points)."""
    aprev = np.zeros_like(y)
    a0 = y
    a1 = dy
    val = y + dy * h
    der = dy.copy() if isinstance(dy, np.ndarray) else dy
    hp = h * np.ones_like(y)
    for k in range(nterms):
        a2 = (t0 * a0 + aprev) / LD((k + 2) * (k + 1))
        der = der + a2 * LD(k + 2) * hp
        hp = hp * h
        val = val + a2 * hp
        aprev, a0, a1 = a0, a1, a2
    return val, der


def _scaled_pos_ld(a):
    """Scaled positive-axis asymptotics; a is a longdouble array with a >= ASYM_RADIUS."""
    zeta = LD(2) / 3 * a * np.sqrt(a)
    yi = 1 / zeta
    su_m = _asym_sum(_U_ALT, yi)
    sv_m = _asym_sum(_V_ALT, yi)
    su_p = _asym_sum(_U, yi)
    sv_p = _asym_sum(_V, yi)
    q = np.sqrt(np.sqrt(a))
    ai_s = su_m / (2 * SQRT_PI * q)
    dai_s = -q * sv_m / (2 * SQRT_PI)
    bi_s = su_p / (SQRT_PI * q)
    dbi_s = q * sv_p / SQRT_PI
    return ai_s, dai_s, bi_s, dbi_s, zeta


def _asym_neg(a):
    """Oscillatory-form asymptotics for a <= -ASYM_RADIUS (longdouble arrays)."""
    x = -a
    xi = LD(2) / 3 * x * np.sqrt(x)
    om = xi - PI_L / 4
    c = np.cos(om)
    s = np.sin(om)
    y2 = 1 / (xi * xi)
    se_u = _asym_sum(_U_EVEN, y2)
    so_u = _asym_sum(_U_ODD, y2) / xi
    se_v = _asym_sum(_V_EVEN, y2)
    so_v = _asym_sum(_V_ODD, y2) / xi
    q = np.sqrt(np.sqrt(x))
    pre = 1 / (SQRT_PI * q)
    dpre = q / SQRT_PI
    ai = pre * (c * se_u + s * so_u)
    bi = pre * (-s * se_u + c * so_u)
    dai = dpre * (s * se_v - c * so_v)
    dbi = dpre * (c * se_v + s * so_v)
    return ai, dai, bi, dbi


def _m2_series_ld(x):
    """Smooth modulus series; x = -a >= ASYM_RADIUS. Returns (m2, dm2/da)."""
    y = 1 / (x * x * x)
    s0 = _asym_sum(_M2, y)
    s1 = _asym_sum(_M2D, y)
    rx = np.sqrt(x)
    m2 = s0 / (PI_L * rx)
    dm2 = s1 / (PI_L * x * rx)
    return m2, dm2


_GRIDS = {}


def _march(t_start, y, dy, t_stop, step):
    n = int(round((t_stop - t_start) / step))
    ts = LD(t_start) + LD(step) * np.arange(n + 1, dtype=LD)
    ys = np.empty(n + 1, LD)
    dys = np.empty(n + 1, LD)
    ys[0], dys[0] = y, dy
    for i in range(n):
        y, dy = _taylor_step(ts[i], np.asarray(y), np.asarray(dy), LD(step), N_TAYLOR_BUILD)
        ys[i + 1], dys[i + 1] = y, dy
    return ys, dys


def _grids():
    """Checkpoint tables for the midrange, built once per process.

    Positive axis: Ai marches inward from an asymptotic seed at SEED_POINT
    (inward is the direction in which Ai itself grows, so roundoff cannot
    excite the Bi mode); Bi marches outward from a Maclaurin seed at 4.25 for
    the mirrored reason.  The oscillatory negative axis is neutrally stable,
    so both functions march outward from 4.25 together.
    """
    if _GRIDS:
        return _GRIDS
    seed = np.array([SEED_POINT], dtype=LD)
    ai_s, dai_s, _, _, zeta = _scaled_pos_ld(seed)
    es = np.exp(-zeta)
    ai13, dai13 = ai_s[0] * es[0], dai_s[0] * es[0]
    _GRIDS["ai_pos"] = _march(SEED_POINT, ai13, dai13, 4.25, -CHECKPOINT_STEP)

    p = np.array([4.25], dtype=LD)
    _, _, bi, dbi = _maclaurin(p)
    _GRIDS["bi_pos"] = _march(4.25, bi[0], dbi[0], 9.25, CHECKPOINT_STEP)

    m = np.array([-4.25], dtype=LD)
    ai, dai, bi, dbi = _maclaurin(m)
    _GRIDS["ai_neg"] = _march(-4.25, ai[0], dai[0], -9.25, -CHECKPOINT_STEP)
    _GRIDS["bi_neg"] = _march(-4.25, bi[0], dbi[0], -9.25, -CHECKPOINT_STEP)
    return _GRIDS


def _midrange(a):
    """Checkpoint + one Taylor step, for 4.5 < |a| < 9 (longdouble array)."""
    g = _grids()
    ai = np.empty_like(a)
    dai = np.empty_like(a)
    bi = np.empty_like(a)
    dbi = np.empty_like(a)
    pos = a > 0
    if np.any(pos):
        ap = a[pos]
        idx = np.rint((LD(SEED_POINT) - ap) / LD(CHECKPOINT_STEP)).astype(int)
        t0 = LD(SEED_POINT) - LD(CHECKPOINT_STEP) * idx
        ys, dys = g["ai_pos"]
        ai[pos], dai[pos] = _taylor_step(t0, ys[idx], dys[idx], ap - t0, N_TAYLOR_QUERY)
        idx = np.rint((ap - LD(4.25)) / LD(CHECKPOINT_STEP)).astype(int)
        t0 = LD(4.25) + LD(CHECKPOINT_STEP) * idx
        ys, dys = g["bi_pos"]
        bi[pos], dbi[pos] = _taylor_step(t0, ys[idx], dys[idx], ap - t0, N_TAYLOR_QUERY)
    neg = ~pos
    if np.any(neg):
        an = a[neg]
        idx = np.rint((LD(-4.25) - an) / LD(CHECKPOINT_STEP)).astype(int)
        t0 = LD(-4.25) - LD(CHECKPOINT_STEP) * idx
        ys, dys = g["ai_neg"]
        ai[neg], dai[neg] = _taylor_step(t0, ys[idx], dys[idx], an - t0, N_TAYLOR_QUERY)
        ys, dys = g["bi_neg"]
        bi[neg], dbi[neg] = _taylor_step(t0, ys[idx], dys[idx], an - t0, N_TAYLOR_QUERY)
    return ai, dai, bi, dbi


def _as_ld(a):
    arr = np.atleast_1d(np.asarray(a, dtype=np.float64)).astype(LD)
    return arr


def eval_many(a):
    """Bulk Ai, Ai', Bi, Bi' as longdouble arrays (unscaled values)."""
    a = _as_ld(a)
    ai = np.empty_like(a)
    dai = np.empty_like(a)
    bi = np.empty_like(a)
    dbi = np.empty_like(a)
    mac = np.abs(a) <= SERIES_RADIUS
    asp = a >= ASYM_RADIUS
    asn = a <= -ASYM_RADIUS
    mid = ~(mac | asp | asn)
    if np.any(mac):
        ai[mac], dai[mac], bi[mac], dbi[mac] = _maclaurin(a[mac])
    if np.any(mid):
        ai[mid], dai[mid], bi[mid], dbi[mid] = _midrange(a[mid])
    if np.any(asp):
        ai_s, dai_s, bi_s, dbi_s, zeta = _scaled_pos_ld(a[asp])
        # one shared exp per point, so products like the Wronskian cancel its rounding
        em = np.exp(-zeta)
        ai[asp] = ai_s * em
        dai[asp] = dai_s * em
        bi[asp] = bi_s / em
        dbi[asp] = dbi_s / em
    if np.any(asn):
        ai[asn], dai[asn], bi[asn], dbi[asn] = _asym_neg(a[asn])
    return ai, dai, bi, dbi


def scaled_many(a):
    """Bulk scaled values (ai_s, dai_s, bi_s, dbi_s, zeta) for a >= 0, longdouble."""
    a = _as_ld(a)
    if np.any(a < 0):
        raise ValueError("scaled Airy evaluation requires a >= 0")
    zeta = LD(2) / 3 * a * np.sqrt(a)
    out = [np.empty_like(a) for _ in range(4)]
    big = a >= ASYM_RADIUS
    if np.any(big):
        r = _scaled_pos_ld(a[big])
        for dst, src in zip(out, r[:4]):
            dst[big] = src
    small = ~big
    if np.any(small):
        ai, dai, bi, dbi = eval_many(a[small])
        ez = np.exp(zeta[small])
        out[0][small] = ai * ez
        out[1][small] = dai * ez
        out[2][small] = bi / ez
        out[3][small] = dbi / ez
    return out[0], out[1], out[2], out[3], zeta


def modulus_many(a):
    """Bulk (m2, dm2/da) on the negative axis, longdouble."""
    a = _as_ld(a)
    if np.any(a > 0):
        raise ValueError("modulus evaluation requires a <= 0")
    m2 = np.empty_like(a)
    dm2 = np.empty_like(a)
    ser = a <= -ASYM_RADIUS
    if np.any(ser):
        m2[ser], dm2[ser] = _m2_series_ld(-a[ser])
    direct = ~ser
    if np.any(direct):
        ai, dai, bi, dbi = eval_many(a[direct])
        m2[direct] = ai * ai + bi * bi
        dm2[direct] = 2 * (ai * dai + bi * dbi)
    return m2, dm2

