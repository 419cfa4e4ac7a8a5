"""Spectral solver: quantization condition, eigenenergy search, piecewise
wavefunction assembly with turning-point matching, and energy moments.

The assembled state is one formula on every region, unnormalized:
u = exp(F_mean + offset_mean)*cos(F_phase + offset_phase - pi/3), where F
is one two-row Chebyshev antiderivative of the (mean, phase) terms per
region.  All exponent integrals are anchored at the turning points, which
makes the amplitude matching exact by construction and leaves only the
phase condition to the root solver.  u' and Hu come from the same
amplitude and phase and one bundle of pointwise mean/phase terms, so psi,
dpsi and h_psi stay mutually consistent to quadrature accuracy.  <u|u> and
<u|H|u> come from one two-row quadrature, and the samplers return c*u, c*u'
and c*Hu with c = <u|u>^(-1/2).
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

# the phase and <u|u>, <u|H|u> quadratures are tighter than the <H^2>
# moment's; the quantization root is resolved to 1e-10 in phase and
# everything downstream inherits that accuracy
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


def _breaks(potential, anchors, E, hbar, mass):
    """The anchors with every point where |a| crosses the Airy/series switch
    inserted between consecutive anchors."""
    def g_of(q):
        val = abs(float(airy_argument(potential, np.array([q]), E, hbar, mass)[0]))
        return (val if math.isfinite(val) else 1e12) - A_SWITCH

    edges = [anchors[0]]
    for qa, qb in zip(anchors, anchors[1:]):
        if qb > qa:
            qs = np.linspace(qa, qb, 257)
            g = np.abs(airy_argument(potential, qs, E, hbar, mass)) - A_SWITCH
            g = np.where(np.isnan(g), 1.0, g)
            for i in np.flatnonzero((g[:-1] > 0) != (g[1:] > 0)).tolist():
                # refine to the ulp so the evaluation-path switch lands
                # exactly on a quadrature panel edge instead of just inside one
                edges.append(hybrid_root(g_of, qs[i], qs[i + 1],
                                         flo=float(g[i]), fhi=float(g[i + 1]),
                                         rel_tol=5e-16, abs_tol=1e-300))
        edges.append(qb)
    return edges


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

    edges = _breaks(potential, [tp.q_minus, tp.q_m, tp.q_plus], E, hbar, mass)
    return float(integrate(f, edges, PHASE_SPEC))


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


def assemble(potential, e_sp, n, hbar=1.0, mass=1.0):
    """Piecewise bound-state solution at energy e_sp for level n.

    On each region u = exp(F_mean + offset_mean)*cos(F_phase + offset_phase
    - pi/3), with F the region's (mean, phase) fit from its left edge.  The
    offsets are -F_left(q-) on the left tail, which cos(-pi/3) halves; zero
    between the turning points; and (F_mean(q+), pi*(n + 2/3)) on the right
    tail, whose target phase gives it (-1)^n/2.  One two-row quadrature gives
    <u|u> and <u|H|u> = (hbar^2/2m) int u'^2 + int V u^2.  Then psi = c*u,
    dpsi = c*u' and h_psi = c*Hu with c = <u|u>^(-1/2), and
    e_bar = <u|H|u>/<u|u>.
    """
    tp = find_turning_points(potential, e_sp, mass)
    width = tp.q_plus - tp.q_minus
    t_lo = _tail_cut(potential, e_sp, mass, hbar, tp.q_minus, -1.0, width)
    t_hi = _tail_cut(potential, e_sp, mass, hbar, tp.q_plus, +1.0, width)
    edges = _breaks(potential, [t_lo, tp.q_minus, tp.q_m, tp.q_plus, t_hi],
                    e_sp, hbar, mass)
    i_minus, i_plus = edges.index(tp.q_minus), edges.index(tp.q_plus)

    def exponents(region):
        return lambda q: np.stack(_terms_at(potential, q, e_sp, hbar, mass, region)[:2])

    # F = (amplitude exponent, phase) integrals of (mean, phase) per region
    left = CumulativeCheb(exponents("forbidden"), edges[:i_minus + 1], PHASE_SPEC)
    middle = CumulativeCheb(exponents("allowed"), edges[i_minus:i_plus + 1], PHASE_SPEC)
    right = CumulativeCheb(exponents("forbidden"), edges[i_plus:], PHASE_SPEC)
    # past a truncation point a tail goes on along its log-slope there
    slope_lo, slope_hi = _terms_at(potential, np.array([t_lo, t_hi]), e_sp, hbar,
                                   mass, "forbidden")[0]
    regions = ((left, -left.total(), slope_lo, "forbidden"),
               (middle, (0.0, 0.0), 0.0, "allowed"),
               (right, (middle.total()[0], math.pi * (n + 2.0 / 3.0)), slope_hi,
                "forbidden"))

    def stitch(q, f, rows=()):
        """f(x, amp, theta, region) on each region's share of q, joined into
        an array of shape rows + q's shape, where u = amp*cos(theta)."""
        qf = np.atleast_1d(np.asarray(q, dtype=float))
        out = np.empty(rows + qf.shape)
        m1 = qf < tp.q_minus
        m3 = qf > tp.q_plus
        for m, (fit, offset, slope, region) in zip((m1, ~(m1 | m3), m3), regions):
            if m.any():
                x = qf[m]
                mean, phase = fit(x)
                amp = np.exp(mean + offset[0]
                             + slope * (x - np.clip(x, fit.edges[0], fit.edges[-1])))
                out[..., m] = f(x, amp, phase + offset[1] - math.pi / 3.0, region)
        return out.reshape(rows + np.shape(q))

    def u_of(x, amp, theta, region):
        return amp * np.cos(theta)

    def jet(x, amp, theta, region):
        """u, u', u'' and V from one bundle: with the log-derivative
        Y = mean + i*phase, u' = Re[Y u_c] and u'' = Re[(Y' + Y^2) u_c] for
        u_c = amp*exp(i*theta)."""
        b = q_bundle_many(potential, x, e_sp, mass)
        mean, phase, dmean, dphase = terms_many(b.Q, b.dQ, b.d2Q, b.d3Q,
                                                hbar, region)
        cos, sin = np.cos(theta), np.sin(theta)
        re_part = dmean + mean * mean - phase * phase
        im_part = dphase + 2.0 * mean * phase
        return (amp * cos, amp * (mean * cos - phase * sin),
                amp * (re_part * cos - im_part * sin), b.Q / (2.0 * mass) + e_sp)

    pref = hbar * hbar / (2.0 * mass)

    def du_of(x, amp, theta, region):
        return jet(x, amp, theta, region)[1]

    def hu_of(x, amp, theta, region):
        u, _, d2u, V = jet(x, amp, theta, region)
        return V * u - pref * d2u

    def moments(x, amp, theta, region):
        u, du, _, V = jet(x, amp, theta, region)
        return u * u, pref * du * du + V * u * u

    norm2, u_h_u = integrate(lambda t: stitch(t, moments, (2,)), edges, PHASE_SPEC)
    if not norm2 > 0.0:
        raise QuadratureError("normalization integral collapsed")
    c = 1.0 / math.sqrt(norm2)

    def sampler(f):
        return lambda q: c * stitch(q, f)

    return EigenSolution(n=n, e_sp=float(e_sp), e_bar=float(u_h_u / norm2),
                         norm_c=c, turning=tp, psi=sampler(u_of),
                         dpsi=sampler(du_of), h_psi=sampler(hu_of),
                         potential=potential, hbar=hbar, mass=mass,
                         q_lo=t_lo, q_hi=t_hi, breaks=tuple(edges))


def expectation_h2(solution, spec=None):
    """<H^2> = int (H psi)^2, split at the matching points."""
    spec = spec or MOMENT_SPEC
    f = solution.h_psi
    return float(integrate(lambda t: f(t) ** 2, solution.breaks, spec))
