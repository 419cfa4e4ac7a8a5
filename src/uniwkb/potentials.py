"""Potential models: built-in wells, parsed expressions, Q bundles, and
turning-point location.

Every model evaluates V together with its first three derivatives, since the
downstream mean/phase machinery differentiates Q''/Q' once more.  Built-ins
carry analytic derivatives; expressions get theirs from the degree-3 Taylor
arithmetic in exprparse.  Evaluation is elementwise: `PotentialModel.eval`
takes a scalar or a numpy array of any shape, so a whole grid costs one
call, and an array gives the same values as its elements one at a time.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import exprparse
from .rootfind import BracketError, hybrid_root

BUILTIN_KINDS = ("harmonic", "morse", "poschl_teller")
_PARAM_ALIASES = {"g": "gamma", "lam": "lambda", "l": "lambda"}

# search window half-width for minima and turning points, divided by the
# potential's inverse length scale alpha
SEARCH_HALF_WIDTH = 30.0
TP_REL_TOL = 1e-12


@dataclass(frozen=True)
class PotentialModel:
    kind: str
    params: dict
    hbar: float
    mass: float
    eval: Callable  # q (scalar or array) -> (V, V', V'', V''')
    alpha: float = field(default=1.0)  # inverse length scale for windows


@dataclass(frozen=True)
class QBundle:
    q: float
    Q: float
    dQ: float
    d2Q: float
    d3Q: float


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


def make_builtin(kind, params, hbar=1.0, mass=1.0):
    """Construct one of the closed-form wells with analytic derivatives."""
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
            return (k * q * q, 2 * k * q, 2 * k, 0.0)

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
                    A * al * al * (4 * e2 - 2 * e1),
                    A * al ** 3 * (-8 * e2 + 2 * e1))

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
                    2 * B * al * al * (s2 * s2 - 2 * s2 * t * t),
                    2 * B * al ** 3 * (-8 * s2 * s2 * t + 4 * s2 * t * t * t))

        return PotentialModel(kind, params, hbar, mass,
                              exprparse.finite_eval(ev), alpha=al)
    raise ParameterError("unknown builtin potential kind %r" % (kind,))


def parse_potential(expr, params, hbar=1.0, mass=1.0):
    """Expression-defined potential; derivatives via Taylor-mode jets."""
    params = {k: float(v) for k, v in params.items()}
    ev = exprparse.compile_expr(expr, params)
    return PotentialModel("expression", dict(params, _expr=expr), hbar, mass,
                          ev, alpha=1.0)


def q_bundle(potential, q, E, mass):
    """QBundle of 2m(V - E) and 2m times V', V'', V''' at one point q.

    The factor 2m can overflow values that eval found finite; a finite q
    whose scaled fields are not finite raises OverflowError, as eval does
    for the potential itself.
    """
    # Python floats overflow to inf without a numpy warning
    V, V1, V2, V3 = map(float, potential.eval(q))
    m2, E = 2.0 * mass, float(E)
    fields = (m2 * (V - E), m2 * V1, m2 * V2, m2 * V3)
    exprparse.check_finite(q, fields)
    return QBundle(q, *fields)


def q_bundle_many(potential, q, E, mass):
    """QBundle with array fields of q's shape, from one array evaluation,
    with q_bundle's OverflowError.

    Derivatives that do not depend on q (the harmonic V'' and V''') come
    back from eval as scalars and are broadcast.
    """
    q = np.asarray(q, dtype=float)
    fields = np.empty((4,) + q.shape)
    fields[0], fields[1], fields[2], fields[3] = potential.eval(q)
    with np.errstate(over="ignore"):
        fields[0] -= E
        fields *= 2.0 * mass
    exprparse.check_finite(q, fields)
    return QBundle(q, *fields)


def march_tail(potential, E, mass, hbar, q_start, direction, step, target,
               cap=np.inf, max_steps=None):
    """March from q_start into a forbidden tail in equal steps until the
    trapezoid integral of kappa = sqrt(max(Q, 0))/hbar reaches target or
    the distance |q - q_start| reaches cap; returns that point, or None
    when max_steps steps do neither.

    Blocks of steps (64, then doubling) are evaluated with one array call
    each.  Positions and running integrals are formed by np.cumsum, which
    adds in order, so the result is bit-identical to stepping one point at
    a time.  A block whose evaluation raises (a point beyond the stop may
    lie outside the potential's domain) is retried one step at a time, so
    only a point the march reaches can raise.
    """
    d = direction * step
    q, kappa_int, k_prev = q_start, 0.0, 0.0
    taken, block = 0, 64
    while max_steps is None or taken < max_steps:
        size = block if max_steps is None else min(block, max_steps - taken)
        qs = np.cumsum(np.concatenate(([q], np.full(size, d))))[1:]
        try:
            Q = q_bundle_many(potential, qs, E, mass).Q
        except (ArithmeticError, ValueError):
            if block == 1:
                raise
            block = 1
            continue
        k = np.sqrt(np.maximum(Q, 0.0)) / hbar
        inc = 0.5 * (k + np.concatenate(([k_prev], k[:-1]))) * step
        kap = np.cumsum(np.concatenate(([kappa_int], inc)))[1:]
        hit = np.flatnonzero((kap >= target) | (np.abs(qs - q_start) >= cap))
        if hit.size:
            return float(qs[hit[0]])
        q, kappa_int, k_prev = qs[-1], kap[-1], k[-1]
        taken += size
        block = 2 * block if block > 1 else 1
    return None


def find_minimum(potential):
    """Locate the unique local minimum of V in the search window.

    Scans a coarse grid, rejects multi-well shapes, then polishes the zero
    of V' with hybrid_root.
    """
    half = SEARCH_HALF_WIDTH / potential.alpha
    n = 1201
    grid = -half + 2 * half * np.arange(n) / (n - 1)
    vs = np.broadcast_to(potential.eval(grid)[0], grid.shape)
    minima = (1 + np.flatnonzero((vs[1:-1] <= vs[:-2])
                                 & (vs[1:-1] <= vs[2:]))).tolist()
    qs = grid.tolist()
    # collapse plateaus of equal samples into one candidate
    distinct = []
    for i in minima:
        if not distinct or i - distinct[-1] > 1:
            distinct.append(i)
    if not distinct:
        raise WellShapeError("no interior minimum in the search window")
    if len(distinct) > 1:
        raise WellShapeError("multiple local minima; single-well methods only")
    i = distinct[0]
    dv = lambda q: potential.eval(q)[1]
    lo, hi = qs[i - 1], qs[i + 1]
    flo, fhi = dv(lo), dv(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        # sampling artifact; widen by one cell
        lo, hi = qs[max(i - 2, 0)], qs[min(i + 2, n - 1)]
        flo, fhi = dv(lo), dv(hi)
    q_m = hybrid_root(dv, lo, hi, flo=flo, fhi=fhi, rel_tol=1e-14,
                      abs_tol=1e-14 * half)
    return q_m


def find_turning_points(potential, E, mass, q_m=None):
    """Classical turning points around the well minimum at energy E.

    Each side is walked out from q_m, one q_bundle per point, in steps
    that grow by 1.5 until Q = 2m(V - E) changes sign; the sign change is
    then polished with Brent's method.
    q_m may be passed in when already known to skip the minimum search.
    """
    if q_m is None:
        q_m = find_minimum(potential)
    v_min = potential.eval(q_m)[0]
    if not E > v_min:
        raise NoBoundRegionError(
            "E = %g does not exceed the well minimum %g" % (E, v_min))
    half = SEARCH_HALF_WIDTH / potential.alpha
    limit = abs(q_m) + 2 * half
    Qf = lambda q: q_bundle(potential, q, E, mass).Q
    f0 = Qf(q_m)
    step = max(1e-3 * half, 1e-6)
    found = []
    for h in (-step, step):
        a, fa = q_m, f0
        while True:
            b = a + h
            if abs(b) > limit:
                raise BracketError(
                    "turning point search left the window: no sign change "
                    "between %g and the search limit %g" % (q_m, limit))
            fb = Qf(b)
            if fb == 0.0 or (fb > 0) != (f0 > 0):
                break
            a, fa, h = b, fb, h * 1.5
        if h < 0:
            a, b, fa, fb = b, a, fb, fa
        found.append(hybrid_root(Qf, a, b, flo=fa, fhi=fb, rel_tol=TP_REL_TOL))
    return TurningPoints(found[0], found[1], q_m)
