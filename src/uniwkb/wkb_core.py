"""Second-order summation machinery.

Builds the dyadic coefficient tables of the two branch series, converts them
into real-arithmetic combination series, and evaluates the mean/phase parts of
the approximate logarithmic derivative (with q-derivatives) on either side of
a turning point.  Near the turning point everything is expressed through Airy
functions of the dimensionless variable a; far from it the truncated series
are evaluated directly in Q variables, which keeps the composite smooth
through stationary points of Q where a alone blows up.

The module's API is `terms_many`: it takes the Q bundle sampled on an
array of points and returns float64 arrays.  `riccati_residual` checks it
at one point, and `y2_closed_form` is the plain-double form the tests
compare the kernels against.  The a-variable kernels (the
`_allowed_*_many` and `_forbidden_*_many` pairs) take longdouble arrays.

Internal arithmetic is longdouble: the combination h2 sits under an O(a^3)
cancellation and the downstream consistency checks ask for 1e-9 agreement at
|a| = 30, which double precision cannot deliver.
"""

from fractions import Fraction

import numpy as np

from . import airy
from .airy import LD, PI_L

A_SWITCH = 10.0    # |a| at which evaluation switches from Airy forms to series
NMAX_SERIES = 20   # series truncation order (terms decay like |a|^{-3n/2})
EPS_DQNORM = 1e-8  # relative floor below which Q' counts as stationary


def _b_fractions(n_max):
    """Branch-series coefficients by their exact rational recursion.

    Index n runs 1..n_max in the j=1 lists and 2..n_max in the j=2 lists; the
    leading None entries keep indices aligned with n.
    """
    bp = [None] * (n_max + 1)
    bm = [None] * (n_max + 1)
    bp[1] = Fraction(-1, 4)
    bm[1] = Fraction(-1, 4)
    for n in range(1, n_max):
        sp = sum(bp[k] * bp[n + 1 - k] for k in range(1, n + 1))
        sm = sum(bm[k] * bm[n + 1 - k] for k in range(1, n + 1))
        bp[n + 1] = -(Fraction(1, 2) * sp + Fraction(1 - 3 * n, 4) * bp[n])
        bm[n + 1] = +(Fraction(1, 2) * sm + Fraction(1 - 3 * n, 4) * bm[n])
    b2p = [None, None] + [Fraction(-2 * n, 5) * bp[n] for n in range(2, n_max + 1)]
    b2m = [None, None] + [Fraction(-2 * n, 5) * bm[n] for n in range(2, n_max + 1)]
    return bp, bm, b2p, b2m


# module-level real-form tables: the plus-branch series at negative a has
# a^{1/2} = i|a|^{1/2}, so each order n contributes through Re/Im of i^{n+1}
_BP1, _BM1, _BP2, _BM2 = _b_fractions(NMAX_SERIES)
_RE_I = [1, 0, -1, 0]
_IM_I = [0, 1, 0, -1]
_UC = np.zeros(NMAX_SERIES + 1)
_WC = np.zeros(NMAX_SERIES + 1)
_HC = np.zeros(NMAX_SERIES + 1)
_GC = np.zeros(NMAX_SERIES + 1)
_B1M = np.zeros(NMAX_SERIES + 1)
_B2M = np.zeros(NMAX_SERIES + 1)
_B1P = np.zeros(NMAX_SERIES + 1)
_B2P = np.zeros(NMAX_SERIES + 1)
for _n in range(1, NMAX_SERIES + 1):
    _r = (_n + 1) % 4
    _UC[_n] = float(_BP1[_n]) * _RE_I[_r]
    _WC[_n] = float(_BP1[_n]) * _IM_I[_r]
    _B1M[_n] = float(_BM1[_n])
    _B1P[_n] = float(_BP1[_n])
    if _n >= 2:
        _HC[_n] = -float(_BP2[_n]) * _RE_I[_r]
        _GC[_n] = -float(_BP2[_n]) * _IM_I[_r]
        _B2M[_n] = float(_BM2[_n])
        _B2P[_n] = float(_BP2[_n])


def _allowed_airy_many(a):
    """u, w, h2, g2 and their a-derivatives from the modulus function.

    h2/g2 use the closed form with the branch ODE substituted (du = a-u^2+w^2,
    dw = -2uw), which removes the 8a^3-size cancellation of the raw expression.
    """
    m2, dm2 = airy.modulus_many(a)
    u = dm2 / (2 * m2)
    w = 1 / (PI_L * m2)
    du = a - u * u + w * w
    dw = -2 * u * w
    h2 = (8 * a * a * du - 4 * a * u - 3) / 30
    g2 = (8 * a * a * dw - 4 * a * w) / 30
    dh2 = (2 * a * du - u) / 3 - 2 * (u * h2 - w * g2)
    dg2 = (2 * a * dw - w) / 3 - 2 * (u * g2 + w * h2)
    return u, w, h2, g2, du, dw, dh2, dg2


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


def _forbidden_airy_many(a):
    """Both branch ratios and their second-order companions for 0 <= a < A_SWITCH."""
    ai_s, dai_s, bi_s, dbi_s, _ = airy.scaled_many(a)
    y1m = dai_s / ai_s
    y1p = dbi_s / bi_s
    d1m = a - y1m * y1m
    d1p = a - y1p * y1p
    y2m = (8 * a * a * d1m - 4 * a * y1m - 3) / 30
    y2p = (8 * a * a * d1p - 4 * a * y1p - 3) / 30
    d2m = (2 * a * d1m - y1m) / 3 - 2 * y1m * y2m
    d2p = (2 * a * d1p - y1p) / 3 - 2 * y1p * y2p
    return y1m, y1p, y2m, y2p, d1m, d1p, d2m, d2p


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


def y2_closed_form(a: float, y1: float) -> float:
    """Raw closed form of the second-order companion.

    Kept deliberately in plain double precision: at large |a| the -8a^2 y1^2
    and +8a^3 contributions cancel to O(a^{-3/2}) and the result degrades,
    which the test suite documents by comparison with the series route.
    """
    return (-8.0 * a * a * y1 * y1 - 4.0 * a * y1 + 8.0 * a ** 3 - 3.0) / 30.0


def terms_many(Q, dQ, d2Q, d3Q, hbar, region):
    """Vectorized (mean, phase, dmean, dphase) for one region.

    Arrays are the Q bundle sampled along q; region is 'allowed' or
    'forbidden' (anything else raises ValueError).  Returns float64 arrays;
    phase/dphase are zero in the forbidden region.
    """
    if region not in ("allowed", "forbidden"):
        raise ValueError("region must be 'allowed' or 'forbidden'")
    Q = np.atleast_1d(np.asarray(Q, dtype=np.float64)).astype(LD)
    dQ = np.atleast_1d(np.asarray(dQ, dtype=np.float64)).astype(LD)
    d2Q = np.atleast_1d(np.asarray(d2Q, dtype=np.float64)).astype(LD)
    d3Q = np.atleast_1d(np.asarray(d3Q, dtype=np.float64)).astype(LD)
    hbar = LD(hbar)
    s = np.where(dQ >= 0, LD(1), LD(-1))
    adQ = np.abs(dQ)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(adQ > 0, Q / (hbar * adQ) ** (LD(2) / 3), np.inf * np.sign(Q))
    a = np.where(Q == 0, LD(0), a)
    # turning points are located to finite precision, so points meant to sit
    # exactly on a matching edge can land a hair on the wrong side; the
    # combos are smooth through a = 0, so snap those to the limit
    if region == "allowed":
        a = np.where((a > 0) & (a < 1e-9), LD(0), a)
    else:
        a = np.where((a < 0) & (a > -1e-9), LD(0), a)
    stationary = adQ * adQ < (LD(EPS_DQNORM) ** 2) * np.abs(Q * d2Q)
    near = np.abs(a) < A_SWITCH
    if np.any(stationary & near):
        raise RuntimeError("Q' vanishes inside the Airy window; bundle inconsistent")
    far = ~near

    mean = np.zeros_like(Q)
    phase = np.zeros_like(Q)
    dmean = np.zeros_like(Q)
    dphase = np.zeros_like(Q)

    if np.any(near):
        an = a[near]
        Qn, Q1, Q2, Q3 = Q[near], dQ[near], d2Q[near], d3Q[near]
        sn = s[near]
        hm23 = hbar ** (-LD(2) / 3)
        F1 = hm23 * sn * np.abs(Q1) ** (LD(1) / 3)
        F2 = Q2 / Q1
        da = F1 * (1 - LD(2) / 3 * Qn * Q2 / (Q1 * Q1))
        dF1 = LD(1) / 3 * hm23 * Q2 * np.abs(Q1) ** (-LD(2) / 3)
        dF2 = Q3 / Q1 - (Q2 / Q1) ** 2
        if region == "allowed":
            u, w, h2, g2, du, dw, dh2, dg2 = _allowed_airy_many(an)
            mean[near] = F1 * u + F2 * h2
            phase[near] = sn * (F1 * w + F2 * g2)
            dmean[near] = dF1 * u + F1 * du * da + dF2 * h2 + F2 * dh2 * da
            dphase[near] = sn * (dF1 * w + F1 * dw * da + dF2 * g2 + F2 * dg2 * da)
        else:
            y1m, _, y2m, _, d1m, _, d2m, _ = _forbidden_airy_many(an)
            mean[near] = F1 * y1m + F2 * y2m
            dmean[near] = dF1 * y1m + F1 * d1m * da + dF2 * y2m + F2 * d2m * da

    if np.any(far):
        Qf, Q1, Q2, Q3 = Q[far], dQ[far], d2Q[far], d3Q[far]
        if region == "allowed":
            m, p, dm, dp = _series_terms_allowed(Qf, Q1, Q2, Q3, hbar)
            mean[far], phase[far], dmean[far], dphase[far] = m, p, dm, dp
        else:
            m, dm = _series_terms_forbidden(Qf, Q1, Q2, Q3, hbar, s[far])
            mean[far], dmean[far] = m, dm

    out = (np.asarray(mean, dtype=float), np.asarray(phase, dtype=float),
           np.asarray(dmean, dtype=float), np.asarray(dphase, dtype=float))
    return out


def _series_terms_allowed(Q, Q1, Q2, Q3, hbar):
    """Series in Q variables on the allowed side; smooth through Q' = 0."""
    T = -Q
    sT = np.sqrt(T)
    iT = 1 / T
    step = iT / sT  # T^{-3/2}
    mean = np.zeros_like(Q)
    dmean = np.zeros_like(Q)
    phase = sT / hbar
    dphase = -Q1 / (2 * hbar * sT)
    pa = iT          # T^{(1-3n)/2}, n = 1
    pb = iT / sT     # T^{(3-3n)/2}, n = 2
    q_m3 = None
    q_m2 = np.zeros_like(Q)  # Q1^{n-2}, valid from n = 2
    q_m1 = np.ones_like(Q)   # Q1^{n-1}
    q_n = Q1.copy()          # Q1^n
    hn = LD(1)
    for n in range(1, NMAX_SERIES + 1):
        pgrow = LD(3 * n - 1) / 2   # -d exponent of the first family
        c = _UC[n] if n % 2 == 1 else _WC[n]
        if c:
            c = LD(c)
            t = c * hn * q_n * pa
            dt = c * hn * (n * q_m1 * Q2 * pa + pgrow * q_n * Q1 * pa * iT)
            if n % 2 == 1:
                mean = mean + t
                dmean = dmean + dt
            else:
                phase = phase + t
                dphase = dphase + dt
        if n >= 2:
            c2 = _HC[n] if n % 2 == 1 else _GC[n]
            if c2:
                c2 = LD(c2)
                pg2 = LD(3 * n - 3) / 2
                t = c2 * hn * Q2 * q_m2 * pb
                dt = c2 * hn * (Q3 * q_m2 * pb + pg2 * Q2 * q_m2 * Q1 * pb * iT)
                if n > 2:
                    dt = dt + c2 * hn * (n - 2) * Q2 * Q2 * q_m3 * pb
                if n % 2 == 1:
                    mean = mean + t
                    dmean = dmean + dt
                else:
                    phase = phase + t
                    dphase = dphase + dt
            pb = pb * step
        pa = pa * step
        q_m3, q_m2, q_m1, q_n = q_m2, q_m1, q_n, q_n * Q1
        hn = hn * hbar
    return mean, phase, dmean, dphase


def _series_terms_forbidden(Q, Q1, Q2, Q3, hbar, s):
    """Decaying-branch series in Q variables on the forbidden side."""
    sQ = np.sqrt(Q)
    iQ = 1 / Q
    step = iQ / sQ
    aQ1 = np.abs(Q1)
    mean = -s * sQ / hbar
    dmean = -s * Q1 / (2 * hbar * sQ)
    pa = iQ
    pb = iQ / sQ
    q_m3 = None
    q_m2 = np.zeros_like(Q)
    q_m1 = np.ones_like(Q)
    q_n = aQ1.copy()
    hn = LD(1)
    for n in range(1, NMAX_SERIES + 1):
        c = LD(_B1M[n])
        pdrop = LD(1 - 3 * n) / 2
        t = c * hn * s * q_n * pa
        # d|Q'|/dq = s Q''
        dt = c * hn * s * (n * q_m1 * s * Q2 * pa + pdrop * q_n * Q1 * pa * iQ)
        mean = mean + t
        dmean = dmean + dt
        if n >= 2:
            c2 = LD(_B2M[n])
            pd2 = LD(3 - 3 * n) / 2
            t = c2 * hn * s * Q2 * q_m2 * pb
            dt = c2 * hn * s * (Q3 * q_m2 * pb + pd2 * Q2 * q_m2 * Q1 * pb * iQ)
            if n > 2:
                dt = dt + c2 * hn * s * (n - 2) * Q2 * Q2 * q_m3 * s * pb
            mean = mean + t
            dmean = dmean + dt
            pb = pb * step
        pa = pa * step
        q_m3, q_m2, q_m1, q_n = q_m2, q_m1, q_n, q_n * aQ1
        hn = hn * hbar
    return mean, dmean


def riccati_residual(q: float, E: float, potential, hbar: float, mass: float) -> float:
    """|Y' + Y^2 - Q/hbar^2| / (|Q|/hbar^2) in the forbidden region.

    Y' comes from a five-point central difference of the mean term with the
    step tied to the local Airy length, so the residual reflects the method
    rather than differencing noise.
    """
    from .potentials import q_bundle_many

    b = q_bundle_many(potential, q, E, mass)
    Q, dQ, d2Q = float(b.Q), float(b.dQ), float(b.d2Q)
    if dQ != 0.0:
        ell = hbar ** (2.0 / 3.0) / abs(dQ) ** (1.0 / 3.0)
    else:
        ell = np.sqrt(hbar / np.sqrt(abs(d2Q))) if d2Q else 1.0
    h = 1e-3 * min(ell, np.sqrt(abs(Q / d2Q)) if d2Q else ell)
    bs = q_bundle_many(potential, q + np.arange(-2, 3) * h, E, mass)
    ys = terms_many(bs.Q, bs.dQ, bs.d2Q, bs.d3Q, hbar, "forbidden")[0]
    yprime = (ys[0] - 8 * ys[1] + 8 * ys[3] - ys[4]) / (12 * h)
    y = ys[2]
    return float(abs(yprime + y * y - Q / hbar ** 2) / (abs(Q) / hbar ** 2))
