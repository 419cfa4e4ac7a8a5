"""Spectral solver: quantization condition, eigenenergy search, piecewise
wavefunction assembly with turning-point matching, and energy moments.

The allowed-region amplitude exponent and oscillation phase are accumulated
once per solution as piecewise Chebyshev antiderivatives; the samplers then
combine those with pointwise analytic mean/phase terms so psi, dpsi and
h_psi stay mutually consistent to quadrature accuracy.  All exponent
integrals are anchored at the turning points, which makes the amplitude
matching exact by construction and leaves only the phase condition to the
root solver.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import (NoBoundRegionError, TurningPoints, find_minimum,
                         find_turning_points, march_tail, q_bundle_many)
# unused here, kept importable: perfbench/tracer.py wraps spectral.q_bundle
from .potentials import q_bundle  # noqa: F401
from .quadrature import CumulativeCheb, QuadratureError, QuadratureSpec, integrate
from .rootfind import BracketError, hybrid_root
from .wkb_core import A_SWITCH, terms_many

# phase/normalization quadrature is tighter than the moment quadrature; the
# quantization root is resolved to 1e-10 in phase and everything downstream
# inherits that accuracy
PHASE_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
MOMENT_SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
PHASE_RESIDUAL_TOL = 1e-11
TAIL_DECAY = 45.0   # truncate forbidden tails once exp(-integral kappa) ~ 3e-20


class QuantizationError(RuntimeError):
    """No root of the quantization condition for the requested level."""


@dataclass(frozen=True)
class EigenSolution:
    """Assembled bound state at the spectral energy of level n.

    e_sp solves the phase condition; e_bar is the energy expectation of the
    assembled state and is the reported optimal energy.  psi/dpsi/h_psi are
    vectorized samplers over the whole line.
    """
    n: int
    e_sp: float
    e_bar: float
    norm_c: float
    turning: TurningPoints
    psi: Callable
    dpsi: Callable
    h_psi: Callable
    potential: object
    hbar: float
    mass: float
    q_lo: float
    q_hi: float
    breaks: tuple


def _terms_at(potential, q, E, hbar, mass, region):
    b = q_bundle_many(potential, q, E, mass)
    return terms_many(b.Q, b.dQ, b.d2Q, b.d3Q, hbar, region)


def airy_argument(potential, q, E, hbar, mass):
    """Dimensionless turning-point coordinate fed to the Airy-kernel terms.

    Zero at the turning points, +/-inf where the potential is stationary
    away from them.
    """
    b = q_bundle_many(potential, q, E, mass)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(np.abs(b.dQ) > 0,
                     b.Q / (hbar * np.abs(b.dQ)) ** (2.0 / 3.0),
                     np.inf * np.sign(b.Q))
    return np.where(b.Q == 0, 0.0, a)


def _a_crossings(potential, qa, qb, E, hbar, mass):
    """Points in (qa, qb) where |a| crosses the Airy/series switch."""
    if not qb > qa:
        return []
    qs = np.linspace(qa, qb, 257)
    g = np.abs(airy_argument(potential, qs, E, hbar, mass)) - A_SWITCH
    g = np.where(np.isnan(g), 1.0, g)

    def g_of(q):
        val = abs(float(airy_argument(potential, np.array([q]), E, hbar, mass)[0]))
        return (val if math.isfinite(val) else 1e12) - A_SWITCH

    out = []
    for i in range(len(qs) - 1):
        if (g[i] > 0) != (g[i + 1] > 0):
            # refine to the ulp so the evaluation-path switch lands exactly
            # on a quadrature panel edge instead of just inside one
            out.append(hybrid_root(g_of, qs[i], qs[i + 1],
                                   flo=float(g[i]), fhi=float(g[i + 1]),
                                   rel_tol=5e-16, abs_tol=1e-300))
    return out


def _tail_cut(potential, E, mass, hbar, q_start, direction, width):
    """Truncation point where the forbidden decay exponent reaches TAIL_DECAY."""
    q = march_tail(potential, E, mass, hbar, q_start, direction,
                   max(width / 50.0, 1e-4), TAIL_DECAY, max_steps=200000)
    if q is None:
        raise QuadratureError("forbidden tail failed to reach the decay target")
    return q


def phase_integral(potential, E, hbar=1.0, mass=1.0, q_m=None):
    """Accumulated oscillation phase across the classically allowed region.

    q_m, the well minimum, may be passed in when already known.
    """
    tp = find_turning_points(potential, E, mass, q_m=q_m)

    def f(q):
        return _terms_at(potential, q, E, hbar, mass, "allowed")[1]

    edges = ([tp.q_minus]
             + _a_crossings(potential, tp.q_minus, tp.q_m, E, hbar, mass)
             + [tp.q_m]
             + _a_crossings(potential, tp.q_m, tp.q_plus, E, hbar, mass)
             + [tp.q_plus])
    return float(sum(integrate(f, a, b, PHASE_SPEC)
                     for a, b in zip(edges[:-1], edges[1:])))


def solve_quantization(potential, n, hbar=1.0, mass=1.0):
    """Energy where the accumulated phase equals pi*(n + 2/3)."""
    if n < 0:
        raise ValueError("level index must be non-negative")
    if potential.kind in ("morse", "poschl_teller"):
        # the second-order phase grows without bound as E approaches the
        # dissociation threshold, so an unguarded search would return a
        # spurious root there; gate on the closed-form level count instead
        from .reference import bound_count

        cap = bound_count(potential.kind, potential.params)
        if n >= cap:
            raise QuantizationError(
                "the well supports %d levels; no quantization root for n=%d"
                % (cap, n))
    target = math.pi * (n + 2.0 / 3.0)
    q_m = find_minimum(potential)
    v_min, _, curv, _ = potential.eval(q_m)
    e_unit = hbar * math.sqrt(max(curv, 1e-12) / mass)

    def g(E):
        return phase_integral(potential, E, hbar, mass, q_m=q_m) - target

    # the second-order terms diverge at the well bottom, so the lower probe
    # starts a modest fraction of the level spacing above it and retreats
    # only if the target is somehow below that
    frac = 0.02
    lo = v_min + frac * e_unit
    g_lo = g(lo)
    while g_lo >= 0.0:
        frac *= 0.25
        if frac < 1e-9:
            raise QuantizationError(
                "phase at the well bottom already exceeds the level-%d target" % n)
        lo = v_min + frac * e_unit
        g_lo = g(lo)
    hi = g_hi = None
    span = 0.5 * e_unit * (n + 1.0)
    for _ in range(200):
        cand = lo + span
        try:
            g_c = g(cand)
        except (BracketError, NoBoundRegionError):
            # walked above the well top; creep toward it from the last good
            # energy until the phase target is met or the gap closes
            bad = cand
            while True:
                cand = 0.5 * (lo + bad)
                if not lo < cand < bad:
                    raise QuantizationError(
                        "level n=%d is not supported by the quantization "
                        "condition in this well" % n)
                try:
                    g_c = g(cand)
                except (BracketError, NoBoundRegionError):
                    bad = cand
                    continue
                if g_c >= 0.0:
                    break
                lo, g_lo = cand, g_c
            hi, g_hi = cand, g_c
            break
        if g_c >= 0.0:
            hi, g_hi = cand, g_c
            break
        lo, g_lo = cand, g_c
        span *= 2.0
    if hi is None:
        raise QuantizationError("could not bracket the level-%d root" % n)
    return float(hybrid_root(g, lo, hi, flo=g_lo, fhi=g_hi,
                             rel_tol=1e-13, f_tol=PHASE_RESIDUAL_TOL))


def _energy_moment(potential, e_sp, hbar, mass, psi, dpsi, breaks):
    """<H> in integration-by-parts form: (hbar^2/2m) int psi'^2 + int V psi^2."""
    pref = hbar * hbar / (2.0 * mass)

    def f(t):
        b = q_bundle_many(potential, t, e_sp, mass)
        V = b.Q / (2.0 * mass) + e_sp
        dp = dpsi(t)
        ps = psi(t)
        return pref * dp * dp + V * ps * ps

    return float(sum(integrate(f, a, b, MOMENT_SPEC)
                     for a, b in zip(breaks[:-1], breaks[1:])))


def assemble(potential, e_sp, n, hbar=1.0, mass=1.0):
    """Piecewise bound-state solution at energy e_sp for level n.

    Left of q- the state is half the decaying branch; between the turning
    points it is the cosine form with amplitude and phase integrals anchored
    at q-; right of q+ the decaying branch returns with the (-1)^n parity of
    the accumulated half-integer phase.
    """
    tp = find_turning_points(potential, e_sp, mass)
    width = tp.q_plus - tp.q_minus
    t_lo = _tail_cut(potential, e_sp, mass, hbar, tp.q_minus, -1.0, width)
    t_hi = _tail_cut(potential, e_sp, mass, hbar, tp.q_plus, +1.0, width)

    def mean_allowed(q):
        return _terms_at(potential, q, e_sp, hbar, mass, "allowed")[0]

    def phase_allowed(q):
        return _terms_at(potential, q, e_sp, hbar, mass, "allowed")[1]

    def mean_forbidden(q):
        return _terms_at(potential, q, e_sp, hbar, mass, "forbidden")[0]

    breaks2 = ([tp.q_minus]
               + _a_crossings(potential, tp.q_minus, tp.q_m, e_sp, hbar, mass)
               + [tp.q_m]
               + _a_crossings(potential, tp.q_m, tp.q_plus, e_sp, hbar, mass)
               + [tp.q_plus])
    breaks1 = ([t_lo]
               + _a_crossings(potential, t_lo, tp.q_minus, e_sp, hbar, mass)
               + [tp.q_minus])
    breaks3 = ([tp.q_plus]
               + _a_crossings(potential, tp.q_plus, t_hi, e_sp, hbar, mass)
               + [t_hi])

    amp_cheb = CumulativeCheb(mean_allowed, breaks2, PHASE_SPEC)
    ph_cheb = CumulativeCheb(phase_allowed, breaks2, PHASE_SPEC)
    left_cheb = CumulativeCheb(mean_forbidden, breaks1, PHASE_SPEC)
    right_cheb = CumulativeCheb(mean_forbidden, breaks3, PHASE_SPEC)
    amp_total = amp_cheb.total()
    left_total = left_cheb.total()
    sign_n = -1.0 if n % 2 else 1.0
    # log-slopes at the truncation points extend the tails linearly
    slope_lo = float(mean_forbidden(np.array([t_lo]))[0])
    slope_hi = float(mean_forbidden(np.array([t_hi]))[0])

    def _masked(q, f1, f2, f3):
        qf = np.atleast_1d(np.asarray(q, dtype=float))
        out = np.empty(qf.shape)
        m1 = qf < tp.q_minus
        m3 = qf > tp.q_plus
        m2 = ~(m1 | m3)
        for m, f in ((m1, f1), (m2, f2), (m3, f3)):
            if m.any():
                out[m] = f(qf[m])
        if np.ndim(q) == 0:
            return float(out[0])
        return out

    def _left_exponent(x):
        ex = left_cheb(x) - left_total
        below = x < t_lo
        if below.any():
            ex[below] += slope_lo * (x[below] - t_lo)
        return ex

    def _right_exponent(x):
        ex = right_cheb(x)
        above = x > t_hi
        if above.any():
            ex[above] += slope_hi * (x[above] - t_hi)
        return ex

    def _psi_pieces(c):
        def p1(x):
            return 0.5 * c * np.exp(_left_exponent(x))

        def p2(x):
            return c * np.exp(amp_cheb(x)) * np.cos(ph_cheb(x) - math.pi / 3.0)

        def p3(x):
            return sign_n * 0.5 * c * math.exp(amp_total) * np.exp(_right_exponent(x))

        return p1, p2, p3

    u1, u2, u3 = _psi_pieces(1.0)
    norm_edges = breaks1 + breaks2[1:] + breaks3[1:]
    norm2 = sum(integrate(lambda t: _masked(t, u1, u2, u3) ** 2, a, b, PHASE_SPEC)
                for a, b in zip(norm_edges[:-1], norm_edges[1:]))
    if not norm2 > 0.0:
        raise QuadratureError("normalization integral collapsed")
    c = 1.0 / math.sqrt(norm2)
    p1, p2, p3 = _psi_pieces(c)

    def psi(q):
        return _masked(q, p1, p2, p3)

    def d1(x):
        return mean_forbidden(x) * p1(x)

    def d2(x):
        mean, phase, _, _ = _terms_at(potential, x, e_sp, hbar, mass, "allowed")
        ph = ph_cheb(x) - math.pi / 3.0
        return c * np.exp(amp_cheb(x)) * (mean * np.cos(ph) - phase * np.sin(ph))

    def d3(x):
        return mean_forbidden(x) * p3(x)

    def dpsi(q):
        return _masked(q, d1, d2, d3)

    pref = hbar * hbar / (2.0 * mass)

    def h1(x, piece):
        b = q_bundle_many(potential, x, e_sp, mass)
        mean, _, dmean, _ = terms_many(b.Q, b.dQ, b.d2Q, b.d3Q, hbar, "forbidden")
        V = b.Q / (2.0 * mass) + e_sp
        return (V - pref * (dmean + mean * mean)) * piece(x)

    def h2(x):
        b = q_bundle_many(potential, x, e_sp, mass)
        mean, phase, dmean, dphase = terms_many(b.Q, b.dQ, b.d2Q, b.d3Q,
                                                hbar, "allowed")
        V = b.Q / (2.0 * mass) + e_sp
        ph = ph_cheb(x) - math.pi / 3.0
        amp = c * np.exp(amp_cheb(x))
        # complexified log-derivative: psi'' = Re[(Yc' + Yc^2) psi_c]
        re_part = dmean + mean * mean - phase * phase
        im_part = dphase + 2.0 * mean * phase
        d2psi = amp * (re_part * np.cos(ph) - im_part * np.sin(ph))
        return V * amp * np.cos(ph) - pref * d2psi

    def h_psi(q):
        return _masked(q, lambda x: h1(x, p1), h2, lambda x: h1(x, p3))

    breaks = tuple(norm_edges)
    e_bar = _energy_moment(potential, e_sp, hbar, mass, psi, dpsi, breaks)
    return EigenSolution(n=n, e_sp=float(e_sp), e_bar=e_bar, norm_c=c,
                         turning=tp, psi=psi, dpsi=dpsi, h_psi=h_psi,
                         potential=potential, hbar=hbar, mass=mass,
                         q_lo=t_lo, q_hi=t_hi, breaks=breaks)


def expectation_h2(solution, spec=None):
    """<H^2> = int (H psi)^2, split at the matching points."""
    spec = spec or MOMENT_SPEC
    f = solution.h_psi
    return float(sum(integrate(lambda t: f(t) ** 2, a, b, spec)
                     for a, b in zip(solution.breaks[:-1], solution.breaks[1:])))
