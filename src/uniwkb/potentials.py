"""Potential models: built-in wells, parsed expressions, Q bundles, the
well record each model works out once (`PotentialModel.well`), and
turning-point location.

Every model evaluates V together with its first two derivatives, since the
second-order mean/phase terms read Q, Q' and Q'' at a point.  Built-ins
carry analytic derivatives; expressions get theirs from the degree-2
Taylor program jetprog compiles for each.  Evaluation is elementwise:
`PotentialModel.eval` takes a scalar or a numpy array of any shape, so a
whole grid costs one call, and an array gives the same values as its
elements one at a time.
"""

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import exprparse
from .quadrature import QuadratureError
from .rootfind import BracketError, hybrid_root

BUILTIN_KINDS = ("harmonic", "morse", "poschl_teller")
_PARAM_ALIASES = {"g": "gamma", "lam": "lambda", "l": "lambda"}

# search window half-width for minima, divided by the potential's inverse
# length scale alpha; turning points are searched out to |q_m| plus twice it
SEARCH_HALF_WIDTH = 30.0
# find_minimum moves its window downhill at most this many times
MAX_WINDOW_MOVES = 8
TP_REL_TOL = 1e-12
TAIL_DECAY = 45.0   # truncate forbidden tails once exp(-integral kappa) ~ 3e-20


@dataclass(frozen=True)
class Well:
    """What the solvers need to know about a well at no particular energy:
    its minimum q_m, v_min = V(q_m), the energy ceiling, and for each side,
    left first, the turning-point walk's points with V at a prefix of them."""
    q_m: float
    v_min: float
    ceiling: float
    sides: tuple


@dataclass(frozen=True)
class PotentialModel:
    """A well V(q) and the units of its problem, which every solver reads."""
    kind: str
    params: dict
    hbar: float
    mass: float
    eval: Callable  # q (scalar or array) -> (V, V', V'')
    alpha: float = field(default=1.0)  # inverse length scale for windows

    @functools.cached_property
    def well(self):
        """The Well, built on first use (a dataclasses.replace copy builds
        its own).  The walk's steps grow by 1.5 from 1e-3 of the search
        half-width, the last cut short at the reach -/+(|q_m| + twice it),
        and a side keeps V up to the first point where eval raises or 2m
        times V - v_min, V' or V'' is not finite: the prefix that
        find_turning_points scans.  The ceiling is the lower of the sides'
        largest V on that prefix, less 1e-9 of its height above v_min.
        Where 2m times V' or V'' overflows at q_m itself no scan can
        start, and OverflowError names q_m."""
        q_m = find_minimum(self)
        v_min, *dV = map(float, self.eval(q_m))
        m2 = 2.0 * self.mass
        exprparse.check_finite(q_m, [m2 * d for d in dV])
        half = SEARCH_HALF_WIDTH / self.alpha
        step = max(1e-3 * half, 1e-6)
        reach = abs(q_m) + 2 * half
        tops, sides = [], []
        for h, end in ((-step, -reach), (step, reach)):
            points, b = [], q_m
            while b != end:
                b = b + h
                if (b - end) * h > 0:
                    b = end
                points.append(b)
                h *= 1.5
            vs = []
            for q in points:
                try:
                    V, *dV = map(float, self.eval(q))
                    exprparse.check_finite(q, [m2 * d for d in [V - v_min] + dV])
                except (ArithmeticError, ValueError):
                    break
                vs.append(V)
            tops.append(max(vs, default=-math.inf))
            sides.append((tuple(points), tuple(vs)))
        v_top = min(tops)
        ceiling = v_top - 1e-9 * (v_top - v_min) if v_top > v_min else v_top
        return Well(q_m, v_min, ceiling, tuple(sides))


@dataclass(frozen=True)
class QBundle:
    Q: float
    dQ: float
    d2Q: float


@dataclass(frozen=True)
class TurningPoints:
    q_minus: float
    q_plus: float
    q_m: float


class ParameterError(ValueError):
    """Potential parameters outside their admissible domain."""


class WellShapeError(ValueError):
    """The potential is not a single well in the search window."""


class NoBoundRegionError(ValueError):
    """Energy at or below the well minimum; no classically allowed region."""


def _normalize_params(params):
    out = {}
    for name, value in params.items():
        out[_PARAM_ALIASES.get(name, name)] = float(value)
    return out


_BUILTIN_PARAMS = {"harmonic": ("k",),
                   "morse": ("gamma", "alpha"),
                   "poschl_teller": ("lambda", "alpha")}
HARMONIC_SENTINEL = 2 ** 31 - 1


def bound_count(kind, params):
    """Number of bound levels of a builtin well (HARMONIC_SENTINEL for the
    unbounded harmonic spectrum)."""
    if kind == "harmonic":
        return HARMONIC_SENTINEL
    if kind == "morse":
        x = float(params["gamma"]) - 0.5
    elif kind == "poschl_teller":
        x = float(params["lambda"]) - 1.0
    else:
        raise ValueError("no closed-form spectrum for kind %r" % (kind,))
    c = math.ceil(x)
    return int(c if c > x else x)


def level_index(n):
    """n as an int; ValueError unless it is a non-negative integer, so that
    no eigensolve runs for a level that cannot exist (-1, 1.5)."""
    try:
        i = operator.index(n)
    except TypeError:
        i = -1
    if i < 0:
        raise ValueError("level index must be a non-negative integer, got %r"
                         % (n,))
    return i


def _check_units(**units):
    for name, value in units.items():
        if not 0.0 < value < math.inf:
            raise ParameterError("%s must be finite and positive, got %r"
                                 % (name, value))


def make_builtin(kind, params, hbar=1.0, mass=1.0):
    """Construct one of the closed-form wells with analytic derivatives."""
    _check_units(hbar=hbar, mass=mass)
    params = _normalize_params(params)
    known = _BUILTIN_PARAMS.get(kind)
    if known is not None:
        stray = sorted(set(params) - set(known))
        if stray:
            raise ParameterError("%s does not take parameter(s) %s; knows %s"
                                 % (kind, ", ".join(stray), ", ".join(known)))
    if kind == "harmonic":
        k = params.setdefault("k", 0.5)
        if k <= 0:
            raise ParameterError("harmonic requires k > 0")

        def ev(q):
            return (k * q * q, 2 * k * q, 2 * k)

        return PotentialModel(kind, params, hbar, mass,
                              exprparse.finite_eval(ev), alpha=1.0)
    if kind == "morse":
        g = params.setdefault("gamma", 4.5)
        al = params.setdefault("alpha", 1.0)
        if g <= 0.5 or al <= 0:
            raise ParameterError("morse requires gamma > 1/2 and alpha > 0")
        A = g * g * hbar * hbar * al * al / (2 * mass)

        def ev(q):
            e1 = np.exp(-al * q)
            e2 = e1 * e1
            return (A * (e2 - 2 * e1),
                    A * al * (-2 * e2 + 2 * e1),
                    A * al * al * (4 * e2 - 2 * e1))

        return PotentialModel(kind, params, hbar, mass,
                              exprparse.finite_eval(ev), alpha=al)
    if kind == "poschl_teller":
        lam = params.setdefault("lambda", 5.0)
        al = params.setdefault("alpha", 1.0)
        if lam <= 1 or al <= 0:
            raise ParameterError("poschl_teller requires lambda > 1 and alpha > 0")
        B = lam * (lam - 1) * hbar * hbar * al * al / (2 * mass)

        def ev(q):
            s = 1.0 / np.cosh(al * q)
            t = np.tanh(al * q)
            s2 = s * s
            return (-B * s2,
                    2 * B * al * s2 * t,
                    2 * B * al * al * (s2 * s2 - 2 * s2 * t * t))

        return PotentialModel(kind, params, hbar, mass,
                              exprparse.finite_eval(ev), alpha=al)
    raise ParameterError("unknown builtin potential kind %r" % (kind,))


def parse_potential(expr, params, hbar=1.0, mass=1.0):
    """Expression-defined potential; derivatives via Taylor-mode jets."""
    _check_units(hbar=hbar, mass=mass)
    params = {k: float(v) for k, v in params.items()}
    ev = exprparse.compile_expr(expr, params)
    return PotentialModel("expression", params, hbar, mass, ev, alpha=1.0)


def q_bundle(potential, q, E, mass):
    """QBundle of 2m(V - E) and 2m times V', V'' at one point q.

    The factor 2m can overflow values that eval found finite; a finite q
    whose scaled fields are not finite raises OverflowError, as eval does
    for the potential itself.
    """
    # Python floats overflow to inf without a numpy warning
    V, V1, V2 = map(float, potential.eval(q))
    m2, E = 2.0 * mass, float(E)
    fields = (m2 * (V - E), m2 * V1, m2 * V2)
    exprparse.check_finite(q, fields)
    return QBundle(*fields)


def q_bundle_many(potential, q, E, mass):
    """QBundle with array fields of q's shape, from one array evaluation,
    with q_bundle's OverflowError.

    Derivatives that do not depend on q (the harmonic V'') come back from
    eval as scalars and are broadcast.
    """
    q = np.asarray(q, dtype=float)
    fields = np.empty((3,) + q.shape)
    fields[0], fields[1], fields[2] = potential.eval(q)
    with np.errstate(over="ignore"):
        fields[0] -= E
        fields *= 2.0 * mass
    exprparse.check_finite(q, fields)
    return QBundle(*fields)


def march_tail(potential, E, q_start, direction, step, target, cap):
    """March from q_start into a forbidden tail in equal steps until the
    trapezoid integral of kappa = sqrt(max(Q, 0))/hbar reaches target or
    the distance |q - q_start| reaches cap, and return that point.

    A step whose Q bundle cannot be evaluated (raises, or is not finite)
    stops the march at the last point before it, the stop rule of the
    energy ceiling's walk: beyond it the tail has no potential to decay in.

    Blocks of steps (64, then doubling, the last cut to the steps left
    before the cap) are evaluated with one array call each.  Positions and
    running integrals are formed by np.cumsum, which adds in order, so the
    result is bit-identical to stepping one point at a time.  A block whose
    evaluation raises is retried one step at a time.
    """
    d = direction * step
    q, kappa_int, k_prev = q_start, 0.0, 0.0
    block = 64
    while True:
        # one step past the cap's distance covers the rounding of the sums
        left = (cap - abs(q - q_start)) / step + 1.0
        size = int(min(block, max(left, 1.0)))
        qs = np.cumsum(np.concatenate(([q], np.full(size, d))))[1:]
        try:
            Q = q_bundle_many(potential, qs, E, potential.mass).Q
        except (ArithmeticError, ValueError):
            if block == 1:
                return float(q)
            block = 1
            continue
        k = np.sqrt(np.maximum(Q, 0.0)) / potential.hbar
        inc = 0.5 * (k + np.concatenate(([k_prev], k[:-1]))) * step
        kap = np.cumsum(np.concatenate(([kappa_int], inc)))[1:]
        hit = np.flatnonzero((kap >= target) | (np.abs(qs - q_start) >= cap))
        if hit.size:
            return float(qs[hit[0]])
        q, kappa_int, k_prev = qs[-1], kap[-1], k[-1]
        block = 2 * block if block > 1 else 1


def tail_cut(potential, E, q_start, direction, width):
    """Truncation point of the forbidden tail beyond the turning point
    q_start, where the decay exponent reaches TAIL_DECAY: march_tail in
    steps of a fiftieth of the well width, capped at 200,000 steps.  A
    march that stops at the cap raises QuadratureError."""
    step = max(width / 50.0, 1e-4)
    cap = 200000 * step
    q = march_tail(potential, E, q_start, direction, step, TAIL_DECAY, cap)
    if abs(q - q_start) >= cap:
        raise QuadratureError("forbidden tail failed to reach the decay target")
    return q


def find_minimum(potential):
    """Locate the unique local minimum of V in the search window.

    Scans a coarse grid of the window, centre -/+ SEARCH_HALF_WIDTH/alpha
    about q = 0 at first, and splits its samples into maximal runs of equal
    values.  A run whose neighbouring samples in the window are both higher
    is a minimum; flat stretches elsewhere, such as tails that underflow to
    0, are not.  Shapes with more than one such run are rejected; the zero
    of V' between the two samples that bound the one run is polished with
    hybrid_root.  While the grid has no such run and its lowest sample sits
    on a window edge, the window moves downhill by one half-width, so that
    edge becomes its centre, at most MAX_WINDOW_MOVES times.
    """
    half = SEARCH_HALF_WIDTH / potential.alpha
    n = 1201
    offsets = -half + 2 * half * np.arange(n) / (n - 1)
    grid, moves = offsets, 0
    while True:
        vs = np.broadcast_to(potential.eval(grid)[0], grid.shape)
        # maximal runs of equal samples by first index; a minimum is a run
        # whose neighbouring runs are both higher
        starts = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
        rv = vs[starts]
        minima = 1 + np.flatnonzero((rv[1:-1] < rv[:-2]) & (rv[1:-1] < rv[2:]))
        lowest = int(np.argmin(vs))
        if minima.size or lowest not in (0, n - 1) or moves == MAX_WINDOW_MOVES:
            break
        grid, moves = grid[lowest] + offsets, moves + 1
    window = "the search window [%g, %g]" % (grid[0], grid[-1])
    if moves:
        window += " (moved downhill %d times from [%g, %g])" % (
            moves, offsets[0], offsets[-1])
    if not minima.size:
        raise WellShapeError("no interior minimum in %s" % window)
    if minima.size > 1:
        raise WellShapeError("multiple local minima in %s; single-well "
                             "methods only" % window)
    dv = lambda q: potential.eval(q)[1]
    k = minima[0]
    lo, hi = float(grid[starts[k] - 1]), float(grid[starts[k + 1]])
    return hybrid_root(dv, lo, hi, flo=dv(lo), fhi=dv(hi), rel_tol=1e-14,
                       abs_tol=1e-14 * half)


def find_turning_points(potential, E):
    """Classical turning points around the well minimum at energy E.

    Each side of potential.well's walk is scanned for the first sign change
    of Q = 2m(V - E), which Brent's method then polishes.  A point with no
    V in the table, or a non-finite Q, is evaluated with q_bundle, which
    raises there as a walk of q_bundle calls does.
    """
    well = potential.well
    if not E > well.v_min:
        raise NoBoundRegionError(
            "E = %g does not exceed the well minimum %g" % (E, well.v_min))
    E, m2 = float(E), 2.0 * potential.mass
    Qf = lambda q: q_bundle(potential, q, E, potential.mass).Q
    f0 = m2 * (well.v_min - E)   # q_bundle's Q at q_m, bit for bit
    exprparse.check_finite(well.q_m, (f0,))
    found = []
    for points, vs in well.sides:
        a, fa = well.q_m, f0
        for i, b in enumerate(points):
            fb = m2 * (vs[i] - E) if i < len(vs) else math.inf
            if not math.isfinite(fb):
                fb = Qf(b)
            if fb == 0.0 or (fb > 0) != (f0 > 0):
                break
            a, fa = b, fb
        else:
            raise BracketError(
                "turning point search left the window: no sign change "
                "between %g and the search limit %g" % (well.q_m, points[-1]))
        if b < a:
            a, b, fa, fb = b, a, fb, fa
        found.append(hybrid_root(Qf, a, b, flo=fa, fhi=fb, rel_tol=TP_REL_TOL))
    return TurningPoints(found[0], found[1], well.q_m)
