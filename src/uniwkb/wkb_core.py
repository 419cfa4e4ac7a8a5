"""Second-order summation machinery.

Builds the dyadic coefficient tables of the two branch series, converts them
into real-arithmetic combination series, and evaluates the mean/phase parts of
the approximate logarithmic derivative on either side of a turning point.
Near the turning point everything is expressed through Airy
functions of the dimensionless variable a (`airy_variable`), by one formula
on both sides, `_near_field` of the branch ratio u + i*w: on the allowed
side u + i*w = (Ai' + i*Bi')/(Ai + i*Bi), on the forbidden side the
decaying branch u = Ai'/Ai with w = 0.  Far from it the truncated
series in Q variables is, on each side, sqrt(X)/hbar * A(z) + w * B(z)
with z = hbar*P/X^(3/2) and w = hbar*Q''/X^(3/2), for fixed polynomials A
and B summed by Horner in `_series_terms`; working in Q rather than a
keeps the composite smooth through stationary points of Q, where a alone
blows up, and the forbidden side takes its orientation from its tail, left
or right, not from the sign of Q'.

The module's API is `terms_many`: it takes the Q bundle sampled on an
array of points and returns the float64 arrays (mean, phase).  No caller
needs their q-derivatives: the assembled state differentiates its own fit
of these terms (`spectral`).

Extended precision (longdouble) lives only in the a-variable kernels,
`_allowed_airy_many` and `_forbidden_airy_many`.  `terms_many` works in
float64 and casts only a to longdouble at the Airy kernels' input, rounding
their outputs to float64 once.  Inside them the combination h2 sits under an
O(a^3) cancellation and the downstream consistency checks ask for 1e-9
agreement at |a| = 30, which double precision cannot deliver.  The far
field needs no such headroom: |z| = |a|^(-3/2) <= A_SWITCH^(-3/2), so the
lead term dominates and float64 Horner is good to a few ulps.
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
for _n in range(1, NMAX_SERIES + 1):
    _r = (_n + 1) % 4
    _UC[_n] = float(_BP1[_n]) * _RE_I[_r]
    _WC[_n] = float(_BP1[_n]) * _IM_I[_r]
    _B1M[_n] = float(_BM1[_n])
    if _n >= 2:
        _HC[_n] = -float(_BP2[_n]) * _RE_I[_r]
        _GC[_n] = -float(_BP2[_n]) * _IM_I[_r]
        _B2M[_n] = float(_BM2[_n])


def _series_polys(leads, firsts, seconds):
    """Horner table of the far-field polynomials of one side: a column
    A(z) = lead + sum_n c1_n z^n per output, then a column
    B(z) = sum_n c2_n z^(n-2) per output, lowest order first."""
    cols = [np.concatenate(([lead], c1[1:])) for lead, c1 in zip(leads, firsts)]
    cols += [np.concatenate((c2[2:], [0.0, 0.0])) for c2 in seconds]
    return np.array(cols).T


# allowed side: (mean, phase); forbidden side: the decaying branch's mean
_ALLOWED_POLYS = _series_polys((0.0, 1.0), (_UC, _WC), (_HC, _GC))
_FORBIDDEN_POLYS = _series_polys((-1.0,), (_B1M,), (_B2M,))


def _near_field(a, u, w):
    """(u, w, h2, g2) from the branch ratio u + i*w at a.

    h2/g2 use the closed form with the branch ODE substituted (du = a-u^2+w^2,
    dw = -2uw), which removes the 8a^3-size cancellation of the raw expression.
    """
    du = a - u * u + w * w
    dw = -2 * u * w
    h2 = (8 * a * a * du - 4 * a * u - 3) / 30
    g2 = (8 * a * a * dw - 4 * a * w) / 30
    return u, w, h2, g2


def _allowed_airy_many(a):
    """`_near_field` at a <= 0, from the modulus function.

    a is a longdouble array and so are the results: this kernel and its
    forbidden-side twin are where `terms_many` keeps extended precision.
    """
    m2, dm2 = airy.modulus_many(a)
    return _near_field(a, dm2 / (2 * m2), 1 / (PI_L * m2))


def _forbidden_airy_many(a):
    """`_near_field` of the decaying branch at 0 <= a < A_SWITCH: rows 0
    and 2 are its ratio y1 = Ai'/Ai and companion y2, rows 1 and 3 are
    zero.  Longdouble in and out, like `_allowed_airy_many`: y2 carries the
    same O(a^3) cancellation.
    """
    ai_s, dai_s, _ = airy.scaled_many(a)
    return _near_field(a, dai_s / ai_s, np.zeros_like(a))


def airy_variable(Q, dQ, hbar):
    """The dimensionless turning-point coordinate a = Q/(hbar|Q'|)^(2/3).

    Zero where Q is, +/-inf where Q' vanishes away from it, in float64;
    `terms_many` splits near from far by it, and `spectral.airy_argument`
    returns it from the Q bundle, so the two agree by construction.
    """
    adQ = np.abs(dQ)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.where(adQ > 0, Q / (hbar * adQ) ** (2.0 / 3.0), np.inf * np.sign(Q))
    return np.where(Q == 0, 0.0, a)


def terms_many(Q, dQ, d2Q, d3Q, hbar, region):
    """Vectorized (mean, phase) for one region.

    Arrays are the Q bundle sampled along q; region is 'allowed', or
    'left'/'right' for the forbidden tail on that side of the well, which
    sets the decaying orientation (+kappa on the left, -kappa on the right)
    even where Q' is 0 (anything else raises ValueError).  Takes and
    returns float64 arrays; only a, at the Airy kernels' input, goes to
    longdouble.  phase is zero in the forbidden region.  The fourth slot,
    d3Q, is not read and callers pass None: it belongs to the benchmark
    tracer (perfbench/tracer.py), which wraps this function with six
    positional arguments.
    """
    if region not in ("allowed", "left", "right"):
        raise ValueError("region must be 'allowed', 'left' or 'right'")
    Q, dQ, d2Q = (np.atleast_1d(np.asarray(v, dtype=np.float64))
                  for v in (Q, dQ, d2Q))
    hbar = float(hbar)
    a = airy_variable(Q, dQ, hbar)
    # turning points are located to finite precision, so points meant to sit
    # exactly on a matching edge can land a hair on the wrong side; the
    # combos are smooth through a = 0, so snap those to the limit
    if region == "allowed":
        a = np.where((a > 0) & (a < 1e-9), 0.0, a)
    else:
        a = np.where((a < 0) & (a > -1e-9), 0.0, a)
    near = np.abs(a) < A_SWITCH
    far = ~near

    mean = np.zeros_like(Q)
    phase = np.zeros_like(Q)

    if np.any(near):
        Qn, Q1, Q2 = Q[near], dQ[near], d2Q[near]
        # |Q'| < EPS_DQNORM*sqrt|Q Q''|, with no product leaving double range
        if np.any(np.abs(Q1) < EPS_DQNORM * np.sqrt(np.abs(Qn)) * np.sqrt(np.abs(Q2))):
            raise RuntimeError("Q' vanishes inside the Airy window; bundle inconsistent")
        sn = np.where(Q1 >= 0, 1.0, -1.0)
        F1 = hbar ** (-2.0 / 3.0) * sn * np.cbrt(np.abs(Q1))
        F2 = Q2 / Q1
        an = a[near].astype(LD)
        kernel = _allowed_airy_many if region == "allowed" else _forbidden_airy_many
        u, w, h2, g2 = np.asarray(kernel(an), dtype=np.float64)
        if region == "allowed":
            phase[near] = sn * (F1 * w + F2 * g2)
        mean[near] = F1 * u + F2 * h2

    if np.any(far):
        Qf, Q1, Q2 = Q[far], dQ[far], d2Q[far]
        if region == "allowed":
            mean[far], phase[far] = _series_terms(-Qf, Q1, Q2, hbar, _ALLOWED_POLYS)
        else:
            side = -1.0 if region == "left" else 1.0
            (m,) = _series_terms(Qf, side * Q1, Q2, hbar, _FORBIDDEN_POLYS)
            mean[far] = side * m
    return mean, phase


def _series_terms(X, P, Q2, hbar, polys):
    """The truncated series in Q variables, smooth through Q' = 0.

    Order n contributes c1_n hbar^(n-1) P^n X^((1-3n)/2) and, from n = 2,
    c2_n hbar^(n-1) Q'' P^(n-2) X^((3-3n)/2), after the lead sqrt(X)/hbar.
    With z = hbar*P/X^(3/2) and w = hbar*Q''/X^(3/2) that is
    sqrt(X)/hbar * A(z) + w * B(z), for the polynomials of `polys`
    (`_series_polys`): the allowed side passes X = -Q, P = Q' and gets
    (mean, phase); the forbidden side passes X = Q and P = sigma*Q' for the
    tail side sigma (-1 left, +1 right) and gets the mean, which the caller
    multiplies by sigma.  z and w are formed as hbar*(P/X)/sqrt(X), so no
    intermediate overflows where the result does not.  Returns one row per
    output.
    """
    sX = np.sqrt(X)
    lead = sX / hbar
    z = hbar * (P / X) / sX
    w = hbar * (Q2 / X) / sX
    k = polys.shape[1] // 2
    p = _horner(polys, z)
    return lead * p[:k] + w * p[k:]


def _horner(coef, z):
    """Every column of coef (lowest order first) as a polynomial at the
    1-D array z, shape (columns, len(z)), in place."""
    p = np.empty((coef.shape[1], z.size))
    p[...] = coef[-1][:, None]
    for c in coef[-2::-1]:
        p *= z
        p += c[:, None]
    return p
