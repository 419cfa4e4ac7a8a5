"""Exact eigenpairs for the verification wells and an independent Numerov
eigenvalue oracle.

Harmonic and Morse states are Hermite and Laguerre functions from their
normalized recurrences, with the weight inside, so they stay in double
range at any level; Pöschl-Teller states are a Gegenbauer recurrence
times cosh^(-mu), formed from log cosh.  Each is normalized in closed
form, from the orthogonal polynomials' weight integrals in log space, and
sign-fixed positive on the left tail, where level n has the sign (-1)^n;
the Schrödinger-residual checks in the test suite validate the shapes.

The Numerov oracle counts nodes only to bracket a level, converges on the
matching of outward and inward solutions on one grid per level, and
removes the O(h^4) grid error by Richardson extrapolation from that grid
and its every other node, all below the well's energy ceiling.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import (bound_count, find_turning_points, level_index,
                         march_tail)
# unused here, kept importable: perfbench/tracer.py wraps reference.q_bundle
from .potentials import q_bundle  # noqa: F401
# unused here, kept importable: perfbench/tracer.py wraps reference.integrate
from .quadrature import integrate  # noqa: F401
from .rootfind import BracketError, hybrid_root


@dataclass(frozen=True)
class ExactLevel:
    energy: float
    psi: Callable
    dpsi: Callable


class LevelIndexError(IndexError):
    """Requested level does not exist for the given parameters."""


def exact_energy(kind, params, n, hbar=1.0, mass=1.0):
    """Energy of level n of a builtin well.  A level past the spectrum's
    ends is refused with LevelIndexError, and an index that is not an
    integer (1.5) with level_index's ValueError."""
    if not 0 <= n < bound_count(kind, params):
        raise LevelIndexError("level n=%d out of range for %s" % (n, kind))
    n = level_index(n)
    if kind == "harmonic":
        omega = math.sqrt(2.0 * params["k"] / mass)
        return hbar * omega * (n + 0.5)
    al = params["alpha"]
    pref = hbar * hbar * al * al / (2.0 * mass)
    if kind == "morse":
        return -pref * (params["gamma"] - n - 0.5) ** 2
    return -pref * (params["lambda"] - 1.0 - n) ** 2


def _hermite_functions(n, xi):
    """Normalized Hermite functions psi_n and psi_{n-1} by the recurrence
    psi_{k+1} = sqrt(2/(k+1)) xi psi_k - sqrt(k/(k+1)) psi_{k-1} from
    psi_0 = pi^(-1/4) exp(-xi^2/2).  The Gaussian rides inside, so no
    intermediate exceeds 1 in size, where H_n alone overflows near n = 150."""
    p_prev = np.zeros_like(xi)
    p = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    for k in range(n):
        p, p_prev = (math.sqrt(2.0 / (k + 1)) * xi * p
                     - math.sqrt(k / (k + 1.0)) * p_prev), p
    return p, p_prev


def _laguerre_functions(n, s, t):
    """Laguerre functions phi_n and phi_{n-1} of order a = 2s at
    xi = 2s e^t, up to one common factor: phi_k = sqrt(k!/Gamma(k+a+1)) w
    L_k^(a)(xi) by the recurrence (DLMF 18.9.13)
    sqrt((k+1)(k+a+1)) phi_{k+1} = (2k+1+a-xi) phi_k - sqrt(k(k+a)) phi_{k-1}
    from phi_0 = w, the weight xi^s exp(-xi/2) over its peak value at
    xi = 2s: w = exp(-s (e^t - 1 - t)).  Formed in log space and riding
    inside, the weight keeps every intermediate in double range where xi^s
    alone or the squared state leaves it (Morse gamma ~ 100)."""
    a = 2.0 * s
    xi = a * np.exp(t)
    p_prev = np.zeros_like(xi)
    p = np.exp(-s * (np.expm1(t) - t))
    for k in range(n):
        p, p_prev = (((2 * k + 1 + a - xi) * p - math.sqrt(k * (k + a)) * p_prev)
                     / math.sqrt((k + 1) * (k + a + 1))), p
    return p, p_prev


def _gegenbauer(n, beta, t):
    """C_n^{(beta)} by forward recurrence."""
    if n == 0:
        return np.ones_like(t)
    cm1 = np.ones_like(t)
    c = 2.0 * beta * t
    for k in range(2, n + 1):
        c, cm1 = (2.0 * (k + beta - 1) * t * c - (k + 2 * beta - 2) * cm1) / k, c
    return c


def _log_cosh(x):
    """log(cosh(x)), finite wherever x is: cosh itself overflows past
    |x| = 710."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _raw_state(potential, n):
    """Unnormalized samplers (u, du) of level n of a builtin well, and
    log of its norm integral, log int u^2 dq, in closed form."""
    kind, params = potential.kind, potential.params
    if kind == "harmonic":
        omega = math.sqrt(2.0 * params["k"] / potential.mass)
        scale = math.sqrt(potential.mass * omega / potential.hbar)

        def u(q):
            return _hermite_functions(n, scale * np.asarray(q, dtype=float))[0]

        def du(q):
            xi = scale * np.asarray(q, dtype=float)
            p, p_prev = _hermite_functions(n, xi)
            return scale * (math.sqrt(2.0 * n) * p_prev - xi * p)

        return u, du, -math.log(scale)

    if kind == "morse":
        g, al = params["gamma"], params["alpha"]
        s = g - n - 0.5
        # xi = 2 gamma exp(-alpha q) = 2s e^t; with phi_k of
        # _laguerre_functions, DLMF 18.9.14 gives
        # xi dphi_n/dxi = (s + n - xi/2) phi_n - sqrt(n(n + 2s)) phi_{n-1}
        t_0 = math.log(g / s)

        def u(q):
            return _laguerre_functions(n, s, t_0 - al * np.asarray(q, dtype=float))[0]

        def du(q):
            t = t_0 - al * np.asarray(q, dtype=float)
            p, p_prev = _laguerre_functions(n, s, t)
            return -al * ((s + n - s * np.exp(t)) * p
                          - math.sqrt(n * (n + 2.0 * s)) * p_prev)

        # int xi^(a-1) e^-xi [L_n^(a)]^2 dxi = Gamma(n+a+1)/(n! a) (DLMF
        # 18.9) gives Gamma(2s)/(alpha P^2), P = (2s)^s e^-s the weight's peak
        return u, du, (math.lgamma(2.0 * s) - math.log(al)
                       - 2.0 * s * (math.log(2.0 * s) - 1.0))

    if kind == "poschl_teller":
        lam, al = params["lambda"], params["alpha"]
        mu = lam - 1.0 - n
        beta = mu + 0.5

        def u(q):
            aq = al * np.asarray(q, dtype=float)
            return np.exp(-mu * _log_cosh(aq)) * _gegenbauer(n, beta, np.tanh(aq))

        def du(q):
            aq = al * np.asarray(q, dtype=float)
            t, lc = np.tanh(aq), _log_cosh(aq)
            p = _gegenbauer(n, beta, t)
            dp = 2.0 * beta * _gegenbauer(n - 1, beta + 1, t) if n > 0 else 0.0
            return al * np.exp(-mu * lc) * (-mu * t * p + np.exp(-2.0 * lc) * dp)

        # int (1-x^2)^(beta-3/2) [C_n^(beta)]^2 dx over x = tanh(alpha q)
        # (DLMF 18.3 with the Gegenbauer duplication)
        return u, du, (math.log(math.pi) + (2.0 - 2.0 * beta) * math.log(2.0)
                       + math.lgamma(n + 2.0 * beta) - math.log(al)
                       - math.lgamma(n + 1.0) - math.log(2.0 * beta - 1.0)
                       - 2.0 * math.lgamma(beta))

    raise ValueError("no closed-form states for kind %r" % (kind,))


def exact_wavefunction(potential, n):
    """Normalized exact level n of a builtin well, with vectorized samplers.

    The norm is _raw_state's closed form, and the sign makes the left tail
    positive: u there has the sign (-1)^n for all three wells (Hermite
    parity; L_n^(a)(xi) ~ (-xi)^n/n! as xi -> inf; C_n^(beta)(-1) =
    (-1)^n C_n^(beta)(1)).
    """
    energy = exact_energy(potential.kind, potential.params, n, potential.hbar,
                          potential.mass)
    u, du, log_norm2 = _raw_state(potential, n)
    c = (-1.0) ** n * math.exp(-0.5 * log_norm2)

    def psi(q, _c=c):
        return _c * u(q)

    def dpsi(q, _c=c):
        return _c * du(q)

    return ExactLevel(energy, psi, dpsi)


# ---- Numerov oracle ----

STEP_FACTOR = 2.5e-4   # cap on step^2 * max|Q| / hbar^2
TAIL_EXPONENT = 20.7   # amplitude^2 decays to ~1e-18
# grid points per potential evaluation in the oracle's march
GRID_CHUNK = 32768
ROOT_TOL = 1e-12       # matching root's stop width, relative to |E| + e_unit


class NumerovError(RuntimeError):
    """Eigenvalue search failed to bracket or converge."""


def _tail_margin(potential, E, q_start, direction, width):
    """Distance beyond a turning point where the decay exponent reaches
    TAIL_EXPONENT, and whether that distance is the length cap.

    Length-capped at four well widths and forty steps, about five widths:
    a hard wall that far out shifts deep levels by far less than the
    solver tolerance, so there is no point marching into nearly-flat tails
    near the dissociation threshold.
    """
    step = max(width / 40.0, 1e-4)
    cap = 4.0 * width + 40.0 * step
    d = abs(march_tail(potential, E, q_start, direction, step, TAIL_EXPONENT,
                       cap) - q_start)
    return d, d >= cap


def _extent(potential, E):
    """Ends of the Numerov grid for energy E, and whether a tail reached
    _tail_margin's length cap.

    The grid spans both turning points at E and tails beyond them in which
    the decay exponent reaches TAIL_EXPONENT.
    """
    tp = find_turning_points(potential, E)
    width = tp.q_plus - tp.q_minus
    dl, capped_l = _tail_margin(potential, E, tp.q_minus, -1.0, width)
    dr, capped_r = _tail_margin(potential, E, tp.q_plus, +1.0, width)
    return tp.q_minus - dl, tp.q_plus + dr, capped_l or capped_r


def _grid(potential, E):
    """Numerov grid for energy E over _extent: its first node, its step, V
    on it, and whether a tail reached _tail_margin's length cap.

    The step keeps step^2 * max|Q| / hbar^2 at most STEP_FACTOR, and the
    number of intervals is even, so every other node is the grid of twice
    the step.  No march on it needs rescaling: a solution grows by about
    exp(TAIL_EXPONENT) across each tail, hundreds of orders of magnitude
    short of overflow.
    """
    lo, hi, capped = _extent(potential, E)
    V = potential.eval(np.linspace(lo, hi, 64))[0]
    max_q = float(np.max(np.abs(2.0 * potential.mass * (V - E))))
    h = math.sqrt(STEP_FACTOR * potential.hbar * potential.hbar / max_q)
    m = 2 * int(math.ceil(0.5 * (hi - lo) / h)) + 1
    qs = np.linspace(lo, hi, m)
    V = np.empty(m)
    # fixed chunks bound the evaluation's temporaries on long grids
    for s in range(0, m, GRID_CHUNK):
        V[s:s + GRID_CHUNK] = potential.eval(qs[s:s + GRID_CHUNK])[0]
    return lo, qs[1] - lo, V, capped


def _coefficients(V, E, h, mass, hbar):
    """c_i of Numerov's recurrence z_{i+1} + z_{i-1} = c_i z_i, as a
    memoryview of their float64 array.

    z = w y with w = 1 - h^2 Q / (12 hbar^2), and c = (12 - 10 w) / w.
    The marches iterate and slice the view, which yields the array's floats
    one at a time: no grid-length list of Python floats is built.
    """
    c = (V - E) * (-h * h * mass / (6.0 * hbar * hbar))
    c += 1.0
    np.divide(12.0, c, out=c)
    c -= 10.0
    return memoryview(c)


def _march(coeffs):
    """Last two z of z_{i+1} = c_i z_i - z_{i-1} from z = (0, 1) over coeffs."""
    z_prev, z = 0.0, 1.0
    for c in coeffs:
        z_prev, z = z, c * z - z_prev
    return z_prev, z


def _count_nodes(potential, E):
    """Nodes of the solution marched across the grid at E from z_0 = 0 (the
    number of levels below E), and that grid, as _grid returns it."""
    grid = _grid(potential, E)
    _, h, V, _ = grid
    z_prev, z = 0.0, 1.0
    nodes, positive = 0, True
    for c in _coefficients(V[1:-1], E, h, potential.mass, potential.hbar):
        z_prev, z = z, c * z - z_prev
        if (z > 0.0) is not positive:
            positive = not positive
            nodes += 1
    return nodes, grid


def _casoratian(c, k):
    """Normalized Casoratian at node k of the solutions marched outward from
    z_0 = 0 and inward from z_{m-1} = 0, m = len(c).

    It changes sign exactly at the grid's eigenvalues.
    """
    z_k, z_k1 = _march(c[1:k + 1])
    u_k1, u_k = _march(c[len(c) - 2:k:-1])
    return ((z_k * u_k1 - z_k1 * u_k)
            / (math.hypot(z_k, z_k1) * math.hypot(u_k, u_k1)))


def numerov_solve(potential, n):
    """Eigenvalue of level n by Numerov's method: node counting brackets it,
    matching converges on it (J. W. Cooley, *Math. Comp.* 15 (1961) 363).

    The solution marched across the grid at E has as many nodes as there
    are levels below E, so node counts, on a grid built afresh at each E,
    isolate level n in [lo, hi]: n nodes at lo, n + 1 at hi, and hi below
    the energy ceiling.  When the upward search would step past a ceiling
    whose grid has a tail at _tail_margin's length cap, the longest grid
    of all, bisection starts from hi = ceiling without sweeping it: a
    level below it is found by the midpoints all the same.  The ceiling is
    then swept only to prove level n unbound, once a midpoint's tail
    reaches the cap too, where every sweep costs as much as the ceiling's,
    or once the bracket can no longer be split.  The grid that the last
    sweep at hi built then serves the whole bracket.  hybrid_root
    finds the zero of the normalized Casoratian of the solutions marched
    outward and inward to q+ at the bracket's midpoint, on that grid (E_h)
    and on every other node of it (E_2h), and Richardson's
    E_h + (E_h - E_2h) / 15 removes Numerov's O(h^4) error.  A level index
    that is not a non-negative integer is refused with ValueError before
    any sweep.
    """
    n = level_index(n)
    hbar, mass = potential.hbar, potential.mass
    well = potential.well
    curv = potential.eval(well.q_m)[2]
    e_unit = hbar * math.sqrt(max(curv, 1e-12) / mass)
    cap_e = well.ceiling
    lo = well.v_min + 0.05 * e_unit
    n_lo = _count_nodes(potential, lo)[0]
    if n_lo > n:
        raise NumerovError("lower probe already has too many nodes")
    span = e_unit * (n + 1.5)
    for _ in range(60):
        cand = min(lo + span, cap_e)
        if cand == cap_e and _extent(potential, cap_e)[2]:
            # a capped tail makes the ceiling's the costliest sweep: bisect
            # below it unswept, n_hi unknown
            hi, n_hi = cap_e, None
            break
        count, grid = _count_nodes(potential, cand)
        if count > n:
            hi, n_hi = cand, count
            break
        if cand == cap_e:
            raise NumerovError("level n=%d is not bound by this well" % n)
        lo, n_lo = cand, count
        span *= 2.0
    else:
        raise NumerovError("could not bracket level n=%d" % n)
    capped = False
    for _ in range(60):
        if n_lo == n and n_hi == n + 1 and hi < cap_e:
            break
        mid = 0.5 * (lo + hi)
        if n_hi is None and (capped or not lo < mid < hi):
            n_hi = _count_nodes(potential, cap_e)[0]
            if n_hi <= n:
                raise NumerovError("level n=%d is not bound by this well" % n)
        count, mid_grid = _count_nodes(potential, mid)
        capped = mid_grid[3]
        if count > n:
            hi, n_hi, grid = mid, count, mid_grid
        else:
            lo, n_lo = mid, count
    else:
        raise NumerovError("could not isolate level n=%d in [%r, %r]"
                           % (n, lo, hi))
    q_0, h, V, _ = grid
    q_match = find_turning_points(potential, 0.5 * (lo + hi)).q_plus
    k = 2 * int(round(0.5 * (q_match - q_0) / h))
    energies = []
    for stride in (1, 2):
        V_s, h_s, k_s = V[::stride], stride * h, k // stride

        def mismatch(E):
            return _casoratian(_coefficients(V_s, E, h_s, mass, hbar), k_s)
        try:
            energies.append(hybrid_root(mismatch, lo, hi, rel_tol=ROOT_TOL,
                                        abs_tol=ROOT_TOL * e_unit))
        except BracketError:
            raise NumerovError(
                "level n=%d: the matching function does not change sign on "
                "[%r, %r] (grid step %g)" % (n, lo, hi, h_s)) from None
    e_h, e_2h = energies
    return e_h + (e_h - e_2h) / 15.0
