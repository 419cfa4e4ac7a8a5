"""Spectral solver: quantization condition, eigenenergy search, wavefunction
assembly through the turning points, and energy moments.

Level n solves the second-order phase condition, whose phase diverges
near a dissociation threshold; the first-order (Bohr-Sommerfeld) phase,
finite there, decides which levels exist below the well's energy ceiling
and seeds the search.

The assembled state is one formula on the whole line, unnormalized:
u = exp(F_mean(q) - F_mean(q-))*cos(F_phase(q) - pi/3), where F is one
two-row Chebyshev antiderivative of the (mean, phase) terms over the whole
support, each region contributing its own terms.  One fit makes u
continuous at both turning points by construction and leaves only the
phase condition to the root solver.  u' and u'' are the exact derivatives
of u, from the fitted terms F' and F'' of one `CumulativeCheb.jet`, so
neither u' nor Hu = V u - (hbar^2/2m) u'' runs an Airy kernel.  <u|u> and
<u|H|u> come from one two-row quadrature of u and u' from F and V from the
Q bundle, so e_bar is the Rayleigh quotient of the sampled state, and the
samplers return c*u, c*u' and c*Hu with c = <u|u>^(-1/2).  `state` returns
all three from one jet and one Q bundle; `psi` alone is a cheaper two-row
evaluation of F, and `dpsi` and the moments evaluate F and f only, with no
Q bundle for `dpsi`.  All four form u, u' and Hu with the same expressions,
so `state` is the three samplers bit for bit.  Their arithmetic raises no
floating-point warning: a sample that is not finite is refused where it
is read, by the metrics fit or `uniwkb dump`.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import (TurningPoints, find_turning_points, level_index,
                         q_bundle_many, tail_cut)
# unused here, kept importable: perfbench/tracer.py wraps both by name here
from .potentials import find_minimum, q_bundle  # noqa: F401
from .quadrature import (CumulativeCheb, QuadratureError, QuadratureSpec,
                         integrate, stage)
from .rootfind import hybrid_root
from .wkb_core import airy_variable, terms_many

# the phase and <u|u>, <u|H|u> quadratures are tighter than the metrics';
# the quantization root is resolved to 1e-10 in phase and everything
# downstream inherits that accuracy
PHASE_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
PHASE_RESIDUAL_TOL = 1e-11
# the samplers' arithmetic raises no floating-point warning: a sample that
# overflows is refused where it is read (the metrics fit, `dump`)
QUIET = np.errstate(over="ignore", invalid="ignore")


class QuantizationError(RuntimeError):
    """No root of the quantization condition for the requested level."""


class UnresolvedStateError(QuantizationError):
    """The quantization condition has a root below the energy ceiling, but
    the second-order state assembled there has its energy above it: the
    level may exist, too close to the threshold for the state to resolve."""


@dataclass(frozen=True)
class EigenSolution:
    """Assembled bound state at the spectral energy of level n.

    e_sp solves the phase condition; e_bar is the energy expectation of the
    assembled state and is the reported optimal energy.  psi/dpsi/h_psi are
    vectorized samplers over the whole line, and state(q) returns the tuple
    (psi, dpsi, h_psi) at q, bit for bit theirs, from one evaluation of the
    fit: the sampler for a caller that needs more than psi.  breaks is
    (q_lo, q-, q_m, q+, q_hi): the panel edges of the fit and of every
    integral over the state.  q_lo, q_hi (the tail cuts) and turning are
    read from it.
    """
    n: int
    e_sp: float
    e_bar: float
    psi: Callable
    dpsi: Callable
    h_psi: Callable
    state: Callable
    potential: object
    breaks: tuple
    hbar = property(lambda self: self.potential.hbar)
    mass = property(lambda self: self.potential.mass)
    q_lo = property(lambda self: self.breaks[0])
    q_hi = property(lambda self: self.breaks[-1])
    turning = property(lambda self: TurningPoints(
        q_minus=self.breaks[1], q_plus=self.breaks[3], q_m=self.breaks[2]))


def _terms_at(potential, q, E, region):
    b = q_bundle_many(potential, q, E, potential.mass)
    return terms_many(b.Q, b.dQ, b.d2Q, None, potential.hbar, region)


def airy_argument(potential, q, E, hbar, mass):
    """Dimensionless turning-point coordinate fed to the Airy-kernel terms:
    `wkb_core.airy_variable` of the Q bundle at q.

    Zero at the turning points, +/-inf where the potential is stationary
    away from them.  Callers pass the potential's own hbar and mass.
    """
    b = q_bundle_many(potential, q, E, mass)
    return airy_variable(b.Q, b.dQ, hbar)


def phase_integral(potential, E):
    """Accumulated oscillation phase across the classically allowed region."""
    tp = find_turning_points(potential, E)

    def f(q):
        return _terms_at(potential, q, E, "allowed")[1]

    return float(integrate(f, [tp.q_minus, tp.q_m, tp.q_plus], PHASE_SPEC))


def _first_order_phase(potential, E):
    """Bohr-Sommerfeld phase: the integral of sqrt(2m(E - V))/hbar between
    the turning points, each half over s with q = q-/+ +/- s^2 from the
    turning point (s = 0) to q_m, which takes out the square-root zeros."""
    tp = find_turning_points(potential, E)
    s_lo, s_hi = math.sqrt(tp.q_m - tp.q_minus), math.sqrt(tp.q_plus - tp.q_m)

    def f(x):   # x in [-s_lo, 0] covers the left half, [0, s_hi] the right
        s = np.where(x < 0.0, x + s_lo, s_hi - x)
        q = np.where(x < 0.0, tp.q_minus + s * s, tp.q_plus - s * s)
        Q = q_bundle_many(potential, q, E, potential.mass).Q
        return 2.0 * s * np.sqrt(np.maximum(-Q, 0.0)) / potential.hbar

    return float(integrate(f, [-s_lo, 0.0, s_hi], PHASE_SPEC))


def solve_quantization(potential, n):
    """Energy where the accumulated phase equals pi*(n + 2/3).

    A level index that is not a non-negative integer is refused with
    ValueError.  Level n is refused when the first-order phase Phi1 at the
    energy ceiling falls short of pi*(n + 1/2).  Otherwise steps out from
    the root of Phi1 = pi*(n + 1/2), doubling from a twentieth of its
    height above v_min per level and clamped inside (v_min, ceiling],
    bracket the root.
    A QuadratureError from inside is re-raised naming the level.
    """
    n = level_index(n)
    with stage("quantizing level n=%d" % n):
        # no energy above the ceiling has both turning points in the search reach
        v_min, ceiling = potential.well.v_min, potential.well.ceiling
        first, target = math.pi * (n + 0.5), math.pi * (n + 2.0 / 3.0)
        phi_top = _first_order_phase(potential, ceiling)
        if phi_top < first:
            raise QuantizationError(
                "level n=%d lies above the energy ceiling %.10g: below it the "
                "well supports %d levels"
                % (n, ceiling, math.floor(phi_top / math.pi + 0.5)))
        lo = hybrid_root(lambda E: _first_order_phase(potential, E) - first,
                         v_min, ceiling, flo=-first, fhi=phi_top - first,
                         rel_tol=1e-8)
        g = lambda E: phase_integral(potential, E) - target
        g_lo = g(lo)
        step = math.copysign(0.05 * (lo - v_min) / (n + 0.5), -g_lo)
        for _ in range(100):
            hi = min(max(lo + step, 0.5 * (v_min + lo)), ceiling)
            g_hi = g(hi)
            if (g_hi >= 0.0) != (g_lo >= 0.0):
                return float(hybrid_root(g, lo, hi, flo=g_lo, fhi=g_hi,
                                         rel_tol=1e-13, f_tol=PHASE_RESIDUAL_TOL))
            if hi == ceiling:
                raise QuantizationError(
                    "level n=%d is not supported by this well: at its energy "
                    "ceiling %.10g the phase falls %.4g short of the target"
                    % (n, ceiling, -g_hi))
            lo, g_lo, step = hi, g_hi, 2.0 * step
        raise QuantizationError("could not bracket the level-%d root" % n)


def assemble(potential, e_sp, n):
    """Bound-state solution at energy e_sp for level n.

    u = exp(F_mean(q) - F_mean(q-))*cos(F_phase(q) - pi/3) on the whole
    line, F being one (mean, phase) fit from the left truncation point,
    each region (left tail, allowed, right tail) giving its own terms.  The
    forbidden phase is zero: F_phase is 0 up to q- and the whole allowed
    phase from q+ on, so u is continuous at both turning points and the
    phase condition gives the right tail (-1)^n/2.  F's panels end only at
    (t_lo, q-, q_m, q+, t_hi): the switch from the Airy kernels to the
    far-field series inside a panel is a jump far below the budget, which
    the fit converges across.  Past a cut the mean exponent goes on along
    its log-slope there.  With F' = (mean, phase), the fitted terms, and
    their derivatives (mean', phase') from F's panel fits (past the cuts
    mean is the slope there and the rest 0), u' = amp*(mean cos(theta) -
    phase sin(theta)) and u'' = amp*((mean' + mean^2 - phase^2) cos(theta)
    - (phase' + 2 mean phase) sin(theta)) are the exact derivatives of the
    sampled u, and Hu = V u - (hbar^2/2m) u''.  One two-row quadrature on
    the same panels gives <u|u> and <u|H|u> = (hbar^2/2m) int u'^2 + int V
    u^2.  Then psi = c*u, dpsi = c*u' and h_psi = c*Hu with
    c = <u|u>^(-1/2), state gives the three at once, and e_bar =
    <u|H|u>/<u|u>, the Rayleigh quotient of the sampled state.  A
    QuadratureError from inside is re-raised naming the level and e_sp.
    """
    with stage("assembling level n=%d at E=%.10g" % (n, e_sp)):
        hbar, mass = potential.hbar, potential.mass
        tp = find_turning_points(potential, e_sp)
        width = tp.q_plus - tp.q_minus
        t_lo = tail_cut(potential, e_sp, tp.q_minus, -1.0, width)
        t_hi = tail_cut(potential, e_sp, tp.q_plus, +1.0, width)
        edges = [t_lo, tp.q_minus, tp.q_m, tp.q_plus, t_hi]

        def exponents(q):
            """(mean, phase) at q, shape (2,) + q's shape, each region
            (q < q-, [q-, q+], q > q+) giving its own terms on its share."""
            qf = np.atleast_1d(np.asarray(q, dtype=float))
            out = np.empty((2,) + qf.shape)
            left, right = qf < tp.q_minus, qf > tp.q_plus
            for m, region in ((left, "left"), (~(left | right), "allowed"),
                              (right, "right")):
                if m.any():
                    out[:, m] = _terms_at(potential, qf[m], e_sp, region)
            return out.reshape((2,) + np.shape(q))

        F = CumulativeCheb(exponents, edges, PHASE_SPEC)
        mean_minus = F(tp.q_minus)[0]
        # past a truncation point the exponent goes on along its log-slope there
        slope_lo, slope_hi = exponents(np.array([t_lo, t_hi]))[0]

        def polar(x, mean, phase):
            """amp and theta at x from F's rows there."""
            amp = np.exp(mean - mean_minus + slope_lo * np.minimum(x - t_lo, 0.0)
                         + slope_hi * np.maximum(x - t_hi, 0.0))
            return amp, phase - math.pi / 3.0

        def local(q, order=2):
            """x, amp, cos(theta), sin(theta), mean, phase at q from one
            F.jet of this order, with mean the slope past a cut; order 2
            adds mean' and phase'."""
            x = np.asarray(q, dtype=float)
            rows = F.jet(x, order)
            values, (mean, phase) = rows[:2]
            amp, theta = polar(x, *values)
            mean = np.where(x < t_lo, slope_lo, np.where(x > t_hi, slope_hi, mean))
            out = (x, amp, np.cos(theta), np.sin(theta), mean, phase)
            return out + tuple(rows[2]) if order == 2 else out

        # u, u' and Hu from local's outputs: every sampler and `state` form
        # them here, so state's rows are the samplers' values bit for bit
        def u(amp, cos):
            return amp * cos

        def du(amp, cos, sin, mean, phase):
            """u' = amp*(mean cos(theta) - phase sin(theta))."""
            return amp * (mean * cos - phase * sin)

        pref = hbar * hbar / (2.0 * mass)

        def potential_at(x):
            return q_bundle_many(potential, x, e_sp, mass).Q / (2.0 * mass) + e_sp

        def hu(x, amp, cos, sin, mean, phase, dmean, dphase):
            """Hu = V u - pref*u'', u'' = Re[(Y' + Y^2) amp exp(i theta)]."""
            V = potential_at(x)
            re_part = dmean + mean * mean - phase * phase
            im_part = dphase + 2.0 * mean * phase
            return V * u(amp, cos) - pref * (amp * (re_part * cos - im_part * sin))

        @QUIET
        def moments(q):
            x, amp, cos, sin, mean, phase = local(q, 1)
            uq, duq = u(amp, cos), du(amp, cos, sin, mean, phase)
            return np.stack([uq * uq, pref * duq * duq + potential_at(x) * uq * uq])

        norm2, u_h_u = integrate(moments, edges, PHASE_SPEC)
        if not norm2 > 0.0:
            raise QuadratureError("normalization integral collapsed")
        c = 1.0 / math.sqrt(norm2)
        e_bar = float(u_h_u / norm2)
        # near the threshold the second-order phase can return a spurious root
        # below the ceiling whose state's energy lies above it
        ceiling = potential.well.ceiling
        if e_bar >= ceiling:
            raise UnresolvedStateError(
                "level n=%d: its assembled energy %.10g is at or "
                "above the energy ceiling %.10g" % (n, e_bar, ceiling))

        @QUIET
        def psi(q):
            """c*u from F alone: a two-row Clenshaw pass, no jet."""
            x = np.asarray(q, dtype=float)
            amp, theta = polar(x, *F(x))
            return c * u(amp, np.cos(theta))

        @QUIET
        def dpsi(q):
            _, amp, cos, sin, mean, phase = local(q, 1)
            return c * du(amp, cos, sin, mean, phase)

        @QUIET
        def h_psi(q):
            return c * hu(*local(q))

        @QUIET
        def state(q):
            """(psi, dpsi, h_psi) at q from one F.jet and one Q bundle."""
            at = local(q)
            _, amp, cos, sin, mean, phase, _, _ = at
            return (c * u(amp, cos), c * du(amp, cos, sin, mean, phase),
                    c * hu(*at))

        return EigenSolution(n=n, e_sp=float(e_sp), e_bar=e_bar, psi=psi,
                             dpsi=dpsi, h_psi=h_psi, state=state,
                             potential=potential, breaks=tuple(edges))


def expectation_h2(solution, spec):
    """<H^2> = int (H psi)^2 of the unit-norm state with <H> = e_bar, in
    residual form: e_bar^2 + int ((H - e_bar) psi)^2 over solution.breaks,
    so <H^2> - e_bar^2, the integral of a square, is never negative.  Each
    node samples one `state`.  `metrics.level_metrics` integrates the same
    residual row within its one pass and does not call this."""
    e = solution.e_bar

    def residual(t):
        psi, _, h_psi = solution.state(t)
        return (h_psi - e * psi) ** 2

    return e * e + float(integrate(residual, solution.breaks, spec))
