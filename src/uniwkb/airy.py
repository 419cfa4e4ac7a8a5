"""Real-argument Airy functions built from scratch.

Two evaluation regimes, both carried out in numpy longdouble (80-bit
extended on x86), which buys the headroom needed by downstream
cancellation-sensitive combinations:

* |a| < 9       one local Taylor step from the nearest precomputed checkpoint
                of the function's grid.  Each grid is seeded once per process
                from the asymptotic forms and marched along the numerically
                stable direction of its function: Ai from a = 13 down to
                -9.25 (inward, the direction in which Ai grows), Bi from
                a = -13 up to 9.25 (outward, for the mirrored reason); the
                oscillatory negative axis is neutrally stable for both.
* |a| >= 9      large-argument asymptotic expansions (DLMF 9.7: scaled
                forms on the positive axis, phase/modulus form on the
                negative axis).

The negative-axis modulus Ai^2 + Bi^2 additionally has its own smooth
asymptotic series (DLMF 9.8.20) so callers never square oscillatory values
there.

scaled_many, the forbidden side's kernel, needs only the decaying pair
Ai, Ai' (times exp(zeta)) at a >= 0, so it steps the Ai grid alone below
ASYM_RADIUS and sums the decaying asymptotic rows at and beyond it.  At
run time eval_many is reached only through modulus_many, at -9 < a <= 0.

Quantization and assembly call these kernels on a few dozen points at a
time, where the cost is the numpy calls per call; the samplers call none.
Every element goes through the same operations in the same order as in
a loop per function and per point, so each value is bit for bit its
one-point call:

* Checkpoints: _grids tabulates each checkpoint's Taylor coefficients once;
  a query gathers them per order by one flat (grid, checkpoint) index and
  steps the Ai and Bi rows of every point, either sign, in place as one
  (2, n) block (scaled_many: the Ai row alone).
* Asymptotic: _sums stacks each family's terms over orders for blocks of
  ASYM_BLOCK points, from one cumprod of the powers, and adds them by one
  cumsum, which adds in order as a loop over k does (a reduction may not).
  The U/V families (Ai, Bi and derivatives) keep all N_ASYM terms: theirs
  shrink for k below about 2*zeta, which is 36 at |a| = ASYM_RADIUS and
  grows with |a|.  The modulus series' terms turn over inside N_ASYM below
  |a| of about 12.8, so each of its elements stops at its smallest term.

The module's API is the three array functions eval_many, scaled_many and
modulus_many.  They take a float or an array of floats and return longdouble
arrays, so callers that combine values with large cancellation can defer
rounding.  Each output element depends on its own input element only.
"""

import numpy as np


def _require_extended(finfo):
    """Raise ImportError unless finfo has x87 extended precision or more
    (nmant >= 63): where longdouble is double, results are silently wrong."""
    if finfo.nmant < 63:
        raise ImportError(
            "uniwkb needs an 80-bit-or-wider numpy longdouble; this platform's "
            "has a %d-bit significand" % (finfo.nmant + 1))


_require_extended(np.finfo(np.longdouble))

LD = np.longdouble

PI_L = LD("3.141592653589793238462643383279503")
SQRT_PI = LD("1.772453850905516027298167483341145")

# no route switches at SERIES_RADIUS; perfbench/tracer.py still reads it to
# split its Airy point counts
SERIES_RADIUS = 4.5
ASYM_RADIUS = 9.0       # asymptotic expansions at or beyond this |a|
SEED_POINT = 13.0       # asymptotic seeds of the Ai (+) and Bi (-) marches

# the query Taylor sums stop where further terms move no bit
# (tests/test_airy.py::test_trimmed_sums_change_no_bit)
N_ASYM = 32
N_TAYLOR_QUERY = 18
N_TAYLOR_BUILD = 32
CHECKPOINT_STEP = 0.25
ASYM_BLOCK = 256        # points per stacked block of the asymptotic sums


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
# one row per sum, one column per power of the row's variable
# positive axis, in 1/zeta: U and V with (-1)^k (Ai), then without (Bi)
_POS_FAMILIES = np.stack([_U * _ALT, _V * _ALT, _U, _V])
# negative axis, in 1/xi^2: even and odd halves of U, then of V, (-1)^k folded in
_NEG_FAMILIES = np.stack([f[s::2] * _ALT[: N_ASYM // 2]
                          for f in (_U, _V) for s in (0, 1)])


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
# rows: the modulus series and the series of its a-derivative
_MODULUS_FAMILIES = np.stack([_M2, _M2 * (LD(6) * np.arange(N_ASYM, dtype=LD) + 1) / 2])


def _sums(coef, y, truncate):
    """Rows sum_k coef[r, k]*y^k for every element of the 1-D y, stacked
    over k in blocks of ASYM_BLOCK points (see the module docstring); with
    truncate, each (row, element) stops before its first term that does
    not shrink.  Returns (rows, len(y))."""
    out = np.empty((len(coef),) + y.shape, LD)
    for s in range(0, y.size, ASYM_BLOCK):
        yb = y[s:s + ASYM_BLOCK]
        terms = np.empty(coef.shape[::-1] + yb.shape, LD)
        terms[0] = coef[:, :1]
        # y^k = y^(k-1)*y, in order, as a loop over k forms it
        p = np.cumprod(np.broadcast_to(yb, (len(terms) - 1,) + yb.shape), axis=0)
        np.multiply(coef.T[1:, :, None], p[:, None], out=terms[1:])
        if truncate:
            mag = np.abs(terms)
            terms[1:][~np.logical_and.accumulate(mag[1:] < mag[:-1], axis=0)] = 0
        out[:, s:s + ASYM_BLOCK] = np.cumsum(terms, axis=0)[-1]
    return out


def _taylor_coeffs(t0, y, dy, nterms):
    """Taylor coefficients c_k = y^(k+2)(t0)/(k+2)! of y'' = t*y about t0,
    and d_k = (k+2)*c_k, for k < nterms, each of shape (nterms,) + y.shape."""
    aprev = np.zeros_like(y)
    a0 = y
    a1 = dy
    c, d = [], []
    for k in range(nterms):
        a2 = (t0 * a0 + aprev) / LD((k + 2) * (k + 1))
        c.append(a2)
        d.append(a2 * LD(k + 2))
        aprev, a0, a1 = a0, a1, a2
    return np.array(c), np.array(d)


def _taylor_sum(y, dy, h, coeffs):
    """Value and derivative at t0+h from y, dy at t0 and the (c_k, d_k)
    pairs, accumulated in place: the pairs may be overwritten."""
    val = dy * h
    val += y
    der = dy.copy()
    hp = h.copy()
    for c, d in coeffs:
        d *= hp
        der += d
        hp *= h
        c *= hp
        val += c
    return val, der


def _scaled_ai_pos(a, zeta):
    """Scaled Ai, Ai' from the decaying rows of _POS_FAMILIES; a is a
    longdouble array with a >= ASYM_RADIUS and zeta = (2/3) a^(3/2)."""
    su_m, sv_m = _sums(_POS_FAMILIES[:2], 1 / zeta, False)
    q = np.sqrt(np.sqrt(a))
    return su_m / (2 * SQRT_PI * q), -q * sv_m / (2 * SQRT_PI)


def _scaled_pos_ld(a):
    """Scaled positive-axis asymptotics; a is a longdouble array with a >= ASYM_RADIUS."""
    zeta = LD(2) / 3 * a * np.sqrt(a)
    ai_s, dai_s = _scaled_ai_pos(a, zeta)
    su_p, sv_p = _sums(_POS_FAMILIES[2:], 1 / zeta, False)
    q = np.sqrt(np.sqrt(a))
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
    se_u, so_u, se_v, so_v = _sums(_NEG_FAMILIES, 1 / (xi * xi), False)
    so_u = so_u / xi
    so_v = so_v / xi
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
    s0, s1 = _sums(_MODULUS_FAMILIES, 1 / (x * x * x), True)
    rx = np.sqrt(x)
    m2 = s0 / (PI_L * rx)
    dm2 = s1 / (PI_L * x * rx)
    return m2, dm2


_GRIDS = {}


def _march(t_start, y, dy, t_stop, step):
    """Checkpoint abscissae, values and derivatives of y'' = t*y, marched
    from (t_start, y, dy) to t_stop by Taylor steps of length step."""
    n = int(round((t_stop - t_start) / step))
    ts = LD(t_start) + LD(step) * np.arange(n + 1, dtype=LD)
    ys = np.empty(n + 1, LD)
    dys = np.empty(n + 1, LD)
    ys[0], dys[0] = y, dy
    for i in range(n):
        c, d = _taylor_coeffs(ts[i], y, dy, N_TAYLOR_BUILD)
        y, dy = _taylor_sum(y, dy, LD(step), zip(c, d))
        ys[i + 1], dys[i + 1] = y, dy
    return ts, ys, dys


def _grids():
    """Checkpoint tables, built once per process.

    One grid per function, seeded from the asymptotic forms at |a| =
    SEED_POINT and marched CHECKPOINT_STEP at a time to one checkpoint past
    the far ASYM_RADIUS, in the direction in which its function grows or
    is neutral: Ai inward from SEED_POINT (so roundoff cannot excite the Bi
    mode), Bi outward from -SEED_POINT (for the mirrored reason); the
    oscillatory negative axis is neutrally stable for both.

    Row 0 of every table is Ai's grid and row 1 Bi's: "origin" and "step"
    hold each grid's first checkpoint and spacing, and "y", "dy", "c", "d"
    the values, derivatives and query Taylor coefficients
    (`_taylor_coeffs`) at its checkpoints, checkpoint i of row r lying at
    origin[r] + step[r] * i.
    """
    if _GRIDS:
        return _GRIDS
    seed = np.array([SEED_POINT], dtype=LD)
    ai_s, dai_s, _, _, zeta = _scaled_pos_ld(seed)
    _, _, bi, dbi = _asym_neg(-seed)
    es = np.exp(-zeta)
    stop = ASYM_RADIUS + CHECKPOINT_STEP
    grids = [  # (origin, seed value, seed derivative, stop, step)
        (SEED_POINT, (ai_s * es)[0], (dai_s * es)[0], -stop, -CHECKPOINT_STEP),
        (-SEED_POINT, bi[0], dbi[0], stop, CHECKPOINT_STEP),
    ]
    # one march per grid: each step runs on numpy scalars, more than twice
    # as fast as one march of both grids as a 2-element array
    t, y, dy = (np.stack(rows) for rows in zip(*(_march(*g) for g in grids)))
    c, d = _taylor_coeffs(t, y, dy, N_TAYLOR_QUERY)
    _GRIDS.update(origin=np.array([g[0] for g in grids], dtype=LD),
                  step=np.array([g[4] for g in grids], dtype=LD),
                  y=y, dy=dy, c=c, d=d)
    return _GRIDS


def _from_checkpoints(a, fn):
    """Value and derivative by one Taylor step from the nearest checkpoint of
    grid fn of `_grids` (0 for Ai, 1 for Bi); fn broadcasts against the
    longdouble array a.  One flat index into the (grid, checkpoint) tables
    gathers each order's Taylor coefficients."""
    g = _grids()
    origin = g["origin"][fn]
    step = g["step"][fn]
    idx = np.rint((a - origin) / step).astype(int)
    t0 = origin + step * idx
    flat = fn * g["y"].shape[1] + idx
    coeffs = ((c.take(flat), d.take(flat)) for c, d in zip(g["c"], g["d"]))
    return _taylor_sum(g["y"].take(flat), g["dy"].take(flat), a - t0, coeffs)


_AI_BI = np.array([[0], [1]])


def _checkpoint_step(a):
    """Ai, Ai', Bi, Bi' for |a| < ASYM_RADIUS (longdouble array): one
    (2, n) block, rows Ai and Bi, each stepped from its own grid."""
    (ai, bi), (dai, dbi) = _from_checkpoints(a, _AI_BI)
    return ai, dai, bi, dbi


def _as_ld(a):
    arr = np.atleast_1d(np.asarray(a, dtype=np.float64)).astype(LD)
    return arr


def eval_many(a):
    """Bulk Ai, Ai', Bi, Bi' as longdouble arrays (unscaled values).

    At a = +inf they are their limits 0, 0, +inf, +inf; at a = -inf, Ai
    and Bi are 0 and Ai', Bi', whose amplitude grows without limit, NaN.
    """
    a = _as_ld(a)
    # a NaN falls in no regime and stays NaN in every row
    ai = np.full_like(a, np.nan)
    dai = ai.copy()
    bi = ai.copy()
    dbi = ai.copy()
    pinf, ninf = a == np.inf, a == -np.inf
    small = np.abs(a) < ASYM_RADIUS
    asp = (a >= ASYM_RADIUS) & ~pinf
    asn = (a <= -ASYM_RADIUS) & ~ninf
    if np.any(small):
        ai[small], dai[small], bi[small], dbi[small] = _checkpoint_step(a[small])
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
    ai[pinf | ninf] = dai[pinf] = bi[ninf] = 0
    bi[pinf] = dbi[pinf] = np.inf
    return ai, dai, bi, dbi


def scaled_many(a):
    """Bulk scaled decaying pair (ai_s, dai_s, zeta) for a >= 0, longdouble:
    ai_s = Ai(a)*exp(zeta), dai_s = Ai'(a)*exp(zeta), zeta = (2/3) a^(3/2).

    Below ASYM_RADIUS, one Taylor step from the nearest checkpoint of Ai's
    grid; at and beyond it, the decaying asymptotic rows.  At
    a = +inf they are their limits 0, -inf and +inf; a NaN stays NaN.
    """
    a = _as_ld(a)
    if np.any(a < 0):
        raise ValueError("scaled Airy evaluation requires a >= 0")
    zeta = LD(2) / 3 * a * np.sqrt(a)
    ai_s = np.full_like(a, np.nan)
    dai_s = ai_s.copy()
    big = a >= ASYM_RADIUS
    if np.any(big):
        ai_s[big], dai_s[big] = _scaled_ai_pos(a[big], zeta[big])
    # a NaN is in neither mask, so it never reaches the checkpoint index
    small = a < ASYM_RADIUS
    if np.any(small):
        ai, dai = _from_checkpoints(a[small], 0)
        ez = np.exp(zeta[small])
        ai_s[small] = ai * ez
        dai_s[small] = dai * ez
    return ai_s, dai_s, zeta


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

