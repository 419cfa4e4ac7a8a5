"""Exact eigenpairs for the verification wells and an independent Numerov
eigenvalue oracle.

Wavefunctions are built from stable forward recurrences for the polynomial
factors, normalized numerically, and sign-fixed positive on the left tail.
Closed-form normalization constants are deliberately avoided; the
Schrödinger-residual checks in the test suite validate the shapes instead.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import find_turning_points, march_tail
# unused here, kept importable: perfbench/tracer.py wraps reference.q_bundle
from .potentials import q_bundle  # noqa: F401
from .quadrature import QuadratureSpec, integrate

HARMONIC_SENTINEL = 2 ** 31 - 1

_NORM_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0)


@dataclass(frozen=True)
class ExactLevel:
    n: int
    energy: float
    psi: Callable
    dpsi: Callable


class LevelIndexError(IndexError):
    """Requested level does not exist for the given parameters."""


def bound_count(kind, params):
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


def exact_energy(kind, params, n, hbar=1.0, mass=1.0):
    if not 0 <= n < bound_count(kind, params):
        raise LevelIndexError("level n=%d out of range for %s" % (n, kind))
    if kind == "harmonic":
        omega = math.sqrt(2.0 * params["k"] / mass)
        return hbar * omega * (n + 0.5)
    al = params["alpha"]
    pref = hbar * hbar * al * al / (2.0 * mass)
    if kind == "morse":
        return -pref * (params["gamma"] - n - 0.5) ** 2
    return -pref * (params["lambda"] - 1.0 - n) ** 2


def _hermite_pair(n, xi):
    """H_n and H_{n-1} by the three-term recurrence."""
    h_prev = np.zeros_like(xi)
    h = np.ones_like(xi)
    for k in range(n):
        h, h_prev = 2.0 * xi * h - 2.0 * k * h_prev, h
    return h, h_prev


def _laguerre(n, a, x):
    """Generalized Laguerre L_n^{(a)} by forward recurrence."""
    if n == 0:
        return np.ones_like(x)
    lm1 = np.ones_like(x)
    l = 1.0 + a - x
    for k in range(2, n + 1):
        l, lm1 = ((2 * k - 1 + a - x) * l - (k - 1 + a) * lm1) / k, l
    return l


def _gegenbauer(n, beta, t):
    """C_n^{(beta)} by forward recurrence."""
    if n == 0:
        return np.ones_like(t)
    cm1 = np.ones_like(t)
    c = 2.0 * beta * t
    for k in range(2, n + 1):
        c, cm1 = (2.0 * (k + beta - 1) * t * c - (k + 2 * beta - 2) * cm1) / k, c
    return c


def _raw_state(kind, params, n, hbar, mass):
    """Unnormalized (u, du, q_lo, q_hi) for the requested level."""
    if kind == "harmonic":
        omega = math.sqrt(2.0 * params["k"] / mass)
        scale = math.sqrt(mass * omega / hbar)
        xi_cut = 13.0 + 1.5 * n

        def u(q):
            xi = scale * np.asarray(q, dtype=float)
            h, _ = _hermite_pair(n, xi)
            return h * np.exp(-0.5 * xi * xi)

        def du(q):
            xi = scale * np.asarray(q, dtype=float)
            h, hm1 = _hermite_pair(n, xi)
            return scale * (2.0 * n * hm1 - xi * h) * np.exp(-0.5 * xi * xi)

        return u, du, -xi_cut / scale, xi_cut / scale

    if kind == "morse":
        g, al = params["gamma"], params["alpha"]
        s = g - n - 0.5

        def xi_of(q):
            return 2.0 * g * np.exp(-al * np.asarray(q, dtype=float))

        def u(q):
            xi = xi_of(q)
            return xi ** s * np.exp(-0.5 * xi) * _laguerre(n, 2 * s, xi)

        def du(q):
            xi = xi_of(q)
            lag = _laguerre(n, 2 * s, xi)
            dlag = -_laguerre(n - 1, 2 * s + 1, xi) if n > 0 else 0.0
            du_dxi = xi ** s * np.exp(-0.5 * xi) * (
                (s / xi - 0.5) * lag + dlag)
            return du_dxi * (-al) * xi

        xi_hi = 260.0 + 60.0 * n
        q_lo = -math.log(xi_hi / (2 * g)) / al
        q_hi = (55.0 + s * math.log1p(2 * g)) / (s * al)
        return u, du, q_lo, q_hi

    if kind == "poschl_teller":
        lam, al = params["lambda"], params["alpha"]
        mu = lam - 1.0 - n
        beta = mu + 0.5

        def u(q):
            aq = al * np.asarray(q, dtype=float)
            return np.cosh(aq) ** (-mu) * _gegenbauer(n, beta, np.tanh(aq))

        def du(q):
            aq = al * np.asarray(q, dtype=float)
            t = np.tanh(aq)
            sech = 1.0 / np.cosh(aq)
            p = _gegenbauer(n, beta, t)
            dp = 2.0 * beta * _gegenbauer(n - 1, beta + 1, t) if n > 0 else 0.0
            return al * sech ** mu * (-mu * t * p + sech * sech * dp)

        cut = (55.0 + n) / (2.0 * mu * al) + 3.0 / al
        return u, du, -cut, cut

    raise ValueError("no closed-form states for kind %r" % (kind,))


def exact_wavefunction(kind, params, n, hbar=1.0, mass=1.0):
    """Normalized exact level with vectorized psi and dpsi samplers."""
    if not 0 <= n < bound_count(kind, params):
        raise LevelIndexError("level n=%d out of range for %s" % (n, kind))
    energy = exact_energy(kind, params, n, hbar, mass)
    u, du, q_lo, q_hi = _raw_state(kind, params, n, hbar, mass)
    # split the norm integral at the turning points: the domain is dominated
    # by long tails and a whole-range estimate would misjudge the peak
    from .potentials import make_builtin

    tp = find_turning_points(make_builtin(kind, params, hbar, mass), energy, mass)
    edges = [q_lo, tp.q_minus, tp.q_m, tp.q_plus, q_hi]
    norm2 = integrate(lambda q: u(q) ** 2, edges, _NORM_SPEC)
    if not norm2 > 0:
        raise ArithmeticError("normalization quadrature collapsed")
    c = 1.0 / math.sqrt(norm2)
    probe = float(u(np.array([q_lo + 1e-3 * (q_hi - q_lo)]))[0])
    if probe < 0:
        c = -c

    def psi(q, _c=c):
        return _c * u(q)

    def dpsi(q, _c=c):
        return _c * du(q)

    return ExactLevel(n, energy, psi, dpsi)


# ---- Numerov oracle ----

STEP_FACTOR = 2.5e-4   # cap on step^2 * max|Q| / hbar^2
TAIL_EXPONENT = 20.7   # amplitude^2 decays to ~1e-18
# grid points per potential evaluation in the oracle's march
GRID_CHUNK = 32768


class NumerovError(RuntimeError):
    """Eigenvalue search failed to bracket or converge."""


def _tail_margin(potential, E, mass, hbar, q_start, direction, width, target):
    """Distance beyond a turning point where the decay exponent hits target.

    Length-capped: a hard wall four well-widths out shifts eigenvalues by
    far less than the solver tolerance, so there is no point marching into
    nearly-flat tails near the dissociation threshold.
    """
    step = max(width / 40.0, 1e-4)
    q = march_tail(potential, E, mass, hbar, q_start, direction, step, target,
                   cap=4.0 * width + 40.0 * step)
    return abs(q - q_start)


def _count_nodes(potential, E, mass, hbar, q_m):
    tp = find_turning_points(potential, E, mass, q_m=q_m)
    width = tp.q_plus - tp.q_minus
    dl = _tail_margin(potential, E, mass, hbar, tp.q_minus, -1.0, width,
                      TAIL_EXPONENT)
    dr = _tail_margin(potential, E, mass, hbar, tp.q_plus, +1.0, width,
                      TAIL_EXPONENT)
    lo, hi = tp.q_minus - dl, tp.q_plus + dr
    V = potential.eval(np.linspace(lo, hi, 64))[0]
    max_q = float(np.max(np.abs(2.0 * mass * (V - E))))
    h = math.sqrt(STEP_FACTOR * hbar * hbar / max_q)
    m = int(math.ceil((hi - lo) / h)) + 1
    qs = np.linspace(lo, hi, m)
    h = qs[1] - qs[0]
    f = np.empty(m)
    # fixed chunks bound the evaluation's temporaries on long grids
    for s in range(0, m, GRID_CHUNK):
        V = potential.eval(qs[s:s + GRID_CHUNK])[0]
        f[s:s + GRID_CHUNK] = 2.0 * mass * (V - E) / (hbar * hbar)
    w = (1.0 - (h * h / 12.0) * f).tolist()
    y_prev, y = 0.0, 1e-280
    nodes = 0
    for i in range(1, m - 1):
        y_next = ((12.0 - 10.0 * w[i]) * y - w[i - 1] * y_prev) / w[i + 1]
        if (y_next > 0.0) != (y > 0.0) and y_next != 0.0:
            nodes += 1
        y_prev, y = y, y_next
        if y > 1e250 or y < -1e250:
            y_prev *= 1e-250
            y *= 1e-250
    return nodes


def numerov_solve(potential, n, hbar=1.0, mass=1.0):
    """Eigenvalue by Numerov node counting and bisection on E.

    The count of interior nodes jumps from n to n+1 exactly at the n-th
    eigenvalue, so bisecting the jump locates it without any matching logic.
    """
    from .potentials import SEARCH_HALF_WIDTH, find_minimum

    q_m = find_minimum(potential)
    v_min, _, curv, _ = potential.eval(q_m)
    e_unit = hbar * math.sqrt(max(curv, 1e-12) / mass)
    halfw = SEARCH_HALF_WIDTH / potential.alpha
    v_edge = min(potential.eval(q_m - halfw)[0], potential.eval(q_m + halfw)[0])
    cap_e = v_edge - 1e-9 * (v_edge - v_min)
    lo = v_min + 0.05 * e_unit
    if _count_nodes(potential, lo, mass, hbar, q_m) > n:
        raise NumerovError("lower probe already has too many nodes")
    span = e_unit * (n + 1.5)
    hi = None
    for _ in range(60):
        cand = min(lo + span, cap_e)
        if _count_nodes(potential, cand, mass, hbar, q_m) >= n + 1:
            hi = cand
            break
        if cand == cap_e:
            raise NumerovError("level n=%d is not bound by this well" % n)
        span *= 2.0
    if hi is None:
        raise NumerovError("could not bracket level n=%d" % n)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-10 * max(abs(mid), e_unit):
            return mid
        if _count_nodes(potential, mid, mass, hbar, q_m) >= n + 1:
            hi = mid
        else:
            lo = mid
    raise NumerovError("bisection failed to converge for n=%d" % n)
