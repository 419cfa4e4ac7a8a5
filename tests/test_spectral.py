"""Tests for the quantization solver and piecewise eigenstate assembly."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from uniwkb import potentials, quadrature, spectral, wkb_core
from uniwkb.metrics import METRIC_SPEC, discrepancy_d, level_metrics
from uniwkb.potentials import (bound_count, find_turning_points, make_builtin,
                               parse_potential, q_bundle, tail_cut)
from uniwkb.quadrature import QuadratureError, integrate
from uniwkb.reference import exact_wavefunction, numerov_solve
from uniwkb.rootfind import hybrid_root
from uniwkb.spectral import (
    PHASE_RESIDUAL_TOL,
    QuantizationError,
    assemble,
    expectation_h2,
    phase_integral,
    solve_quantization,
)
from uniwkb.wkb_core import A_SWITCH

PARAMS = {
    "harmonic": {"k": 0.5},
    "morse": {"gamma": 4.5, "alpha": 1.0},
    "poschl_teller": {"lambda": 5.0, "alpha": 1.0},
}

# spectral energies frozen from an independent high-precision script
# (classical phase + correction integrated with library quadrature on the
# reference implementation of the terms, before this module was written)
ESP_ORACLE = {
    "harmonic": (0.511055873756430, 1.504126084585013,
                 2.502377198801527, 3.501612688597060),
    "morse": (-7.958983904804843, -4.493368005206352,
              -2.001715293738735, -0.504793490907798),
    "poschl_teller": (-7.854027616562119, -4.425894154260647,
                      -1.965976895808884, -0.494976492630349),
}

PHI_ORACLE = [
    ("harmonic", 0.5, 2.059062953507972),
    ("morse", -8.0, 2.061537837776448),
    ("poschl_teller", -8.0, 1.976562220256306),
]

_SOLUTIONS = {}


def get_solution(kind, n):
    key = (kind, n)
    if key not in _SOLUTIONS:
        pot = make_builtin(kind, PARAMS[kind])
        e_sp = solve_quantization(pot, n)
        _SOLUTIONS[key] = assemble(pot, e_sp, n)
    return _SOLUTIONS[key]


@pytest.mark.parametrize("kind,E,want", PHI_ORACLE)
def test_phase_integral_reference(kind, E, want):
    pot = make_builtin(kind, PARAMS[kind])
    assert abs(phase_integral(pot, E) - want) < 5e-11


@pytest.mark.parametrize("kind,e_grid", [
    ("harmonic", np.linspace(0.1, 4.2, 20)),
    ("morse", np.linspace(-9.9, -0.3, 20)),
    ("poschl_teller", np.linspace(-9.8, -0.3, 20)),
])
def test_phase_monotone_in_energy(kind, e_grid):
    pot = make_builtin(kind, PARAMS[kind])
    phis = [phase_integral(pot, float(e)) for e in e_grid]
    assert all(b > a for a, b in zip(phis, phis[1:]))
    assert phis[0] > 0.0


@pytest.mark.parametrize("kind", sorted(ESP_ORACLE))
def test_solve_quantization_matches_oracle(kind):
    pot = make_builtin(kind, PARAMS[kind])
    for n, want in enumerate(ESP_ORACLE[kind]):
        e_sp = solve_quantization(pot, n)
        assert abs(e_sp - want) < 5e-10, (kind, n, e_sp)


def test_quantization_work_count(monkeypatch):
    """Pöschl–Teller n=1 needs few phase integrals, and one minimum search."""
    calls = []
    real_phase, real_min = spectral.phase_integral, spectral.find_minimum

    def phase(*args, **kwargs):
        calls.append("phase")
        return real_phase(*args, **kwargs)

    def minimum(*args, **kwargs):
        calls.append("minimum")
        return real_min(*args, **kwargs)

    monkeypatch.setattr(spectral, "phase_integral", phase)
    monkeypatch.setattr(spectral, "find_minimum", minimum)
    monkeypatch.setattr(potentials, "find_minimum", minimum)
    e_sp = solve_quantization(make_builtin("poschl_teller", PARAMS["poschl_teller"]), 1)
    assert abs(e_sp - ESP_ORACLE["poschl_teller"][1]) < 5e-10
    assert calls.count("phase") <= 10
    assert calls.count("minimum") == 1


def test_phase_integral_work_count(monkeypatch):
    """The phase integral samples its terms once per trial degree, across
    all of its break intervals: its panels all converge by the first."""
    pot = make_builtin("harmonic", PARAMS["harmonic"])
    calls = []
    real = spectral.terms_many

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "terms_many", counted)
    phase = phase_integral(pot, ESP_ORACLE["harmonic"][1])
    assert abs(phase - math.pi * (1 + 2.0 / 3.0)) < 1e-9
    assert len(calls) <= 1


def test_assemble_makes_one_integrate_call(monkeypatch):
    """<u|u> and <u|H|u> come from one two-row quadrature."""
    pot = make_builtin("morse", PARAMS["morse"])
    calls = []
    real = spectral.integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "integrate", counted)
    assemble(pot, ESP_ORACLE["morse"][1], 1)
    assert len(calls) == 1


def test_assemble_fits_each_region_once(monkeypatch):
    """One two-row (mean, phase) fit over the whole support, left tail,
    allowed region and right tail alike, with a break at every panel edge
    of the state, so no Chebyshev node is sampled twice."""
    pot = make_builtin("morse", PARAMS["morse"])
    fits = []
    real = spectral.CumulativeCheb

    def counted(f, breakpoints, *args, **kwargs):
        fits.append(list(breakpoints))
        return real(f, breakpoints, *args, **kwargs)

    monkeypatch.setattr(spectral, "CumulativeCheb", counted)
    sol = assemble(pot, ESP_ORACLE["morse"][1], 1)
    assert fits == [list(sol.breaks)]


def _spy_kernels(monkeypatch, tag=lambda: None):
    """Record (tag(), points) for every terms_many and q_bundle_many call
    that spectral makes."""
    seen = {"terms_many": [], "q_bundle_many": []}
    for name, points in (("terms_many", lambda args: np.size(args[0])),
                         ("q_bundle_many", lambda args: np.size(args[1]))):
        real = getattr(spectral, name)

        def counted(*args, _real=real, _log=seen[name], _points=points):
            _log.append((tag(), _points(args)))
            return _real(*args)

        monkeypatch.setattr(spectral, name, counted)
    return seen


def test_samplers_work_counts(monkeypatch):
    """psi and dpsi come from the fit that defines u and form no Q bundle
    and no Airy-kernel terms; h_psi takes u'' from the same fit and forms
    one Q bundle, on every grid point, and no terms, whichever regions its
    grid touches, and so does state, which gives all three."""
    sol = get_solution("morse", 2)
    tp = sol.turning
    seen = _spy_kernels(monkeypatch)
    for grid in (np.linspace(tp.q_plus + 0.1, sol.q_hi + 1.0, 501),
                 np.linspace(tp.q_minus - 0.5, tp.q_plus - 0.5, 701),
                 np.linspace(sol.q_lo - 1.0, sol.q_hi + 1.0, 2001)):
        sol.psi(grid)
        sol.dpsi(grid)
        assert seen == {"terms_many": [], "q_bundle_many": []}
        sol.h_psi(grid)
        assert seen == {"terms_many": [], "q_bundle_many": [(None, grid.size)]}
        seen["q_bundle_many"].clear()
        sol.state(grid)
        assert seen == {"terms_many": [], "q_bundle_many": [(None, grid.size)]}
        seen["q_bundle_many"].clear()


def test_state_is_the_samplers_bit_for_bit():
    """On the 12 golden and 4 quartic states, state's (psi, dpsi, h_psi) are
    the three samplers' values bit for bit on a grid that runs past both
    cuts, and every one-point call gives the grid call's bits."""
    for key, sol in _golden_and_quartic_states():
        grid = np.linspace(sol.q_lo - 1.0, sol.q_hi + 1.0, 1001)
        grid = np.concatenate([grid, np.array(sol.breaks)])
        rows = sol.state(grid)
        for got, sampler in zip(rows, (sol.psi, sol.dpsi, sol.h_psi), strict=True):
            want = sampler(grid)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
        for i in range(0, grid.size, 50):
            for row, one in zip(rows, sol.state(grid[i]), strict=True):
                assert np.shape(one) == ()
                assert np.asarray(one).tobytes() == row[i].tobytes(), (key, i)


def test_dpsi_is_state_bit_for_bit_on_a_shuffled_grid():
    """dpsi, from F and f alone, is state's dpsi row to the bit on a dense
    grid past both cuts, shuffled out of panel order."""
    sol = get_solution("morse", 3)
    grid = np.linspace(sol.q_lo - 1.0, sol.q_hi + 1.0, 20001)
    np.random.default_rng(3).shuffle(grid)
    assert sol.dpsi(grid).tobytes() == sol.state(grid)[1].tobytes()


def test_dpsi_evaluates_no_derivative_rows(monkeypatch):
    """dpsi reads F and f only: its Clenshaw work (rows x coefficients x
    points) is at most 2/3 of h_psi's, which also reads f'."""
    sol = get_solution("morse", 3)
    grid = np.linspace(sol.q_lo, sol.q_hi, 20001)
    work = []
    clenshaw = quadrature._clenshaw

    def counted(coeffs, t):
        work[-1] += coeffs.size * t.size
        return clenshaw(coeffs, t)

    monkeypatch.setattr(quadrature, "_clenshaw", counted)
    for sampler in (sol.dpsi, sol.h_psi):
        work.append(0)
        sampler(grid)
    assert 0 < 3 * work[0] <= 2 * work[1], work


def test_assemble_moments_run_no_airy_kernels(monkeypatch):
    """<u|u> and <u|H|u> take u and u' from F and its fit and V from a Q
    bundle: every terms_many call of assemble is one of the (mean, phase)
    fit's or one of the two tail slopes' at the cuts."""
    pot = make_builtin("morse", PARAMS["morse"])
    where = ["assemble"]
    seen = _spy_kernels(monkeypatch, lambda: where[-1])
    for name in ("CumulativeCheb", "integrate"):
        real = getattr(spectral, name)

        def inside(*args, _real=real, _name=name, **kwargs):
            where.append(_name)
            try:
                return _real(*args, **kwargs)
            finally:
                where.pop()

        monkeypatch.setattr(spectral, name, inside)
    assemble(pot, ESP_ORACLE["morse"][1], 1)
    terms = [tag for tag, _ in seen["terms_many"]]
    assert terms.count("integrate") == 0
    assert terms.count("CumulativeCheb") >= 3     # every region of the fit
    assert [points for tag, points in seen["terms_many"]
            if tag == "assemble"] == [1, 1]        # slope_lo, slope_hi
    assert any(tag == "integrate" for tag, _ in seen["q_bundle_many"])


def _tail_slopes(sol):
    """The log-slopes of u at the cuts: the mean term at q_lo and q_hi."""
    slopes = []
    for q, region in ((sol.q_lo, "left"), (sol.q_hi, "right")):
        b = potentials.q_bundle_many(sol.potential, np.array([q]), sol.e_sp,
                                     sol.mass)
        mean = wkb_core.terms_many(b.Q, b.dQ, b.d2Q, None, sol.hbar, region)[0]
        slopes.append(float(mean[0]))
    return slopes


def _golden_and_quartic_states():
    for kind in sorted(ESP_ORACLE):
        for n in range(4):
            yield (kind, n), get_solution(kind, n)
    quartic = parse_potential("q^4/4 + q^2/2", {})
    for n in range(4):
        yield ("quartic", n), assemble(quartic, solve_quantization(quartic, n), n)


def test_dpsi_past_the_cuts_is_the_slope_times_psi():
    """Past a cut psi goes on as exp(slope*q), and dpsi is its derivative
    there, slope*psi, rather than the pointwise mean term."""
    for key, sol in _golden_and_quartic_states():
        slope_lo, slope_hi = _tail_slopes(sol)
        for grid, slope in (
                (np.linspace(sol.q_lo - 3.0, sol.q_lo, 61)[:-1], slope_lo),
                (np.linspace(sol.q_hi, sol.q_hi + 3.0, 61)[1:], slope_hi)):
            psi = sol.psi(grid)
            assert np.all(psi != 0.0), key
            err = np.abs(sol.dpsi(grid) - slope * psi)
            assert np.all(err <= 1e-12 * np.abs(slope * psi)), key


def test_dpsi_is_the_derivative_of_psi_inside_the_support():
    """Inside the support dpsi agrees with a fourth-order central difference
    of psi, on stencils clear of every break, within 1e-8 of the largest
    |dpsi| on the point's piece: the panels of sol.breaks further cut at
    every |a| = A_SWITCH seam, so each far tail is held to its own small
    scale rather than to that of the Airy window it shares a panel with.
    Stencils may cross the seams."""
    h = 2.5e-4
    for key, sol in _golden_and_quartic_states():
        breaks = np.array(sol.breaks)
        edges = np.sort(np.concatenate([breaks, _seams(sol)[1]]))
        q = np.linspace(sol.q_lo, sol.q_hi, 4001)
        panel = np.searchsorted(edges, q)
        clear = np.min(np.abs(q[:, None] - breaks[None, :]), axis=1) > 2.5 * h
        q, panel = q[clear], panel[clear]
        fd = (sol.psi(q - 2 * h) - 8 * sol.psi(q - h) + 8 * sol.psi(q + h)
              - sol.psi(q + 2 * h)) / (12 * h)
        dpsi = sol.dpsi(q)
        for i in np.unique(panel):
            m = panel == i
            scale = np.max(np.abs(dpsi[m]))
            assert np.max(np.abs(fd[m] - dpsi[m])) <= 1e-8 * scale, (key, i)


def test_h_psi_is_the_hamiltonian_of_the_sampled_psi():
    """Inside every panel h_psi agrees with V*psi - (hbar^2/2m) times a
    fourth-order central difference of dpsi, on stencils clear of every
    break, within 1e-8 of the panel's largest |h_psi|; and <psi|h_psi> over
    sol.breaks is e_bar within 1e-10."""
    h = 2.5e-4
    for key, sol in _golden_and_quartic_states():
        breaks = np.array(sol.breaks)
        q = np.linspace(sol.q_lo, sol.q_hi, 4001)
        q = q[np.min(np.abs(q[:, None] - breaks[None, :]), axis=1) > 2.5 * h]
        panel = np.searchsorted(breaks, q)
        d2 = (sol.dpsi(q - 2 * h) - 8 * sol.dpsi(q - h) + 8 * sol.dpsi(q + h)
              - sol.dpsi(q + 2 * h)) / (12 * h)
        V = (potentials.q_bundle_many(sol.potential, q, sol.e_sp, sol.mass).Q
             / (2.0 * sol.mass) + sol.e_sp)
        want = V * sol.psi(q) - sol.hbar ** 2 / (2.0 * sol.mass) * d2
        got = sol.h_psi(q)
        for i in np.unique(panel):
            m = panel == i
            scale = np.max(np.abs(got[m]))
            assert np.max(np.abs(got[m] - want[m])) <= 1e-8 * scale, (key, i)
        cross = integrate(lambda t: sol.psi(t) * sol.h_psi(t), sol.breaks,
                          METRIC_SPEC)
        assert abs(cross - sol.e_bar) <= 1e-10, key


@pytest.mark.parametrize("n", [3, 30, 300, 515])
def test_discrepancy_is_never_negative(n):
    """<H^2> in residual form keeps D = (<H^2> - e_bar^2)/(<H^2> + e_bar^2)
    at or above 0 on high harmonic levels, where D itself is at rounding
    level and a difference of two moments came out at -5.5e-16 (n = 515):
    from expectation_h2 and from the residual row of level_metrics."""
    pot = make_builtin("harmonic", {})
    sol = assemble(pot, solve_quantization(pot, n), n)
    assert discrepancy_d(sol.e_bar, expectation_h2(sol, METRIC_SPEC)) >= 0.0
    assert level_metrics(exact_wavefunction(pot, n), sol)["d"] >= 0.0


@pytest.mark.parametrize("kind", sorted(ESP_ORACLE))
def test_psi_continuous_at_turning_points(kind):
    """psi is one formula through q- and q+: the one-ulp steps across
    either turning point agree to 1e-13, the right tail continuing the
    allowed phase rather than taking the quantization target."""
    for n in range(4):
        sol = get_solution(kind, n)
        for qt in (sol.turning.q_minus, sol.turning.q_plus):
            above, below = sol.psi(np.array([np.nextafter(qt, np.inf),
                                             np.nextafter(qt, -np.inf)]))
            assert abs(above / below - 1.0) <= 1e-13, (kind, n, qt)


def _seams(sol):
    """Every |a| = A_SWITCH crossing inside the state's panels, found apart
    from the solver: a scan of airy_argument on 257 points per panel of
    sol.breaks, then bisection of each bracketed crossing to the ulp.
    Returns (near, far), arrays of adjacent floats, |a| < A_SWITCH at near
    and >= A_SWITCH at far, as terms_many splits them."""
    args = (sol.e_sp, sol.hbar, sol.mass)

    def far(q):
        return np.abs(spectral.airy_argument(sol.potential, q, *args)) >= A_SWITCH

    b = np.array(sol.breaks)
    qs = np.linspace(b[:-1], b[1:], 257, axis=1).ravel()
    f = far(qs)
    i = np.nonzero(f[:-1] != f[1:])[0]
    lo, hi, f_lo = qs[i], qs[i + 1], f[i]
    while True:
        mid = 0.5 * (lo + hi)
        split = (mid != lo) & (mid != hi)
        if not split.any():
            break
        keep_lo = far(mid) == f_lo
        lo = np.where(split & keep_lo, mid, lo)
        hi = np.where(split & ~keep_lo, mid, hi)
    return np.where(f_lo, hi, lo), np.where(f_lo, lo, hi)


def test_airy_variable_is_airy_argument_at_the_seams():
    """terms_many splits near from far by wkb_core.airy_variable, and
    airy_argument locates the |a| = A_SWITCH seams: on the 12 golden
    states the two agree bit for bit on both floats of every seam and one
    ulp either side of it."""
    for kind in sorted(ESP_ORACLE):
        for n in range(4):
            sol = get_solution(kind, n)
            near, far = _seams(sol)
            assert len(near) >= 2, (kind, n)
            lo, hi = np.minimum(near, far), np.maximum(near, far)
            q = np.concatenate([np.nextafter(lo, -np.inf), lo, hi,
                                np.nextafter(hi, np.inf)])
            bundle = potentials.q_bundle_many(sol.potential, q, sol.e_sp, sol.mass)
            got = wkb_core.airy_variable(bundle.Q, bundle.dQ, sol.hbar)
            want = spectral.airy_argument(sol.potential, q, sol.e_sp,
                                          sol.hbar, sol.mass)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_panels_end_at_the_turning_points_and_cuts_alone():
    """On the 12 golden and 4 quartic states the panels end only at the
    cuts, the turning points and q_m, and the switch from the Airy kernels
    to the far-field series inside a panel is far below the quadrature
    budget: across every |a| = A_SWITCH seam the mean and phase of
    terms_many step by at most 1e-11 of their row's largest |value| over
    the seam's region."""
    for key, sol in _golden_and_quartic_states():
        tp = sol.turning
        assert sol.breaks == (sol.q_lo, tp.q_minus, tp.q_m, tp.q_plus, sol.q_hi)
        near, far = _seams(sol)
        assert len(near) >= 2, key

        def mean_phase(q, region):
            bd = potentials.q_bundle_many(sol.potential, q, sol.e_sp, sol.mass)
            return np.array(wkb_core.terms_many(bd.Q, bd.dQ, bd.d2Q, None,
                                                sol.hbar, region)[:2])

        for region, a, b in (("left", sol.q_lo, tp.q_minus),
                             ("allowed", tp.q_minus, tp.q_plus),
                             ("right", tp.q_plus, sol.q_hi)):
            m = (near > a) & (near < b)
            assert np.all((far[m] > a) & (far[m] < b)), (key, region)
            scale = np.max(np.abs(mean_phase(np.linspace(a, b, 4001), region)),
                           axis=1)
            jump = np.abs(mean_phase(far[m], region) - mean_phase(near[m], region))
            assert np.all(jump <= 1e-11 * scale[:, None]), (key, region, jump)


def test_near_threshold_left_tail_decays_monotonically():
    """Poschl-Teller lambda=5.05 n=4 sits at -1.25e-3 with its left tail
    cut near q = -461, past where V' underflows to -0.0 (q ~ -373): from
    the cut to the left |a| = A_SWITCH seam, where the far series holds,
    psi keeps decaying away from the well instead of turning round."""
    pot = make_builtin("poschl_teller", {"lambda": 5.05, "alpha": 1.0})
    sol = assemble(pot, solve_quantization(pot, 4), 4)
    assert sol.q_lo < -373.0
    far = _seams(sol)[1][0]
    assert far < sol.turning.q_minus
    q = np.linspace(sol.q_lo, far, 4001)
    psi = sol.psi(q)
    assert np.all(psi > 0.0) and np.all(np.diff(psi) > 0.0)


def test_tail_cut_stops_where_the_potential_overflows():
    """The expression twin of that well overflows cosh(q)^2 at |q| = 355.3,
    before its n = 4 tails reach the decay target: each cut stops at the
    last point the march can evaluate, and the level agrees with the
    builtin's, whose sech is a true zero out there."""
    twin = parse_potential("-B/cosh(q)^2", {"B": 10.22625})
    pot = make_builtin("poschl_teller", {"lambda": 5.05, "alpha": 1.0})
    got = assemble(twin, solve_quantization(twin, 4), 4)
    want = assemble(pot, solve_quantization(pot, 4), 4)
    assert -355.3 < got.q_lo < -354.0 and 354.0 < got.q_hi < 355.3
    assert abs(got.e_sp / want.e_sp - 1.0) < 1e-12
    assert abs(got.e_bar / want.e_bar - 1.0) < 1e-11


def test_tail_cut_raises_when_its_march_stops_at_the_cap():
    """q^2/2 - q^3/10 at E = 0.5000827427, a resonance: past the barrier
    the potential falls away and the right tail's decay exponent stalls
    near 4.56, so its march stops at the cap of 200,000 steps and raises.
    The left tail rises for good and cuts where the exponent reaches
    TAIL_DECAY."""
    pot = parse_potential("q^2/2 - q^3/10", {})
    E = 0.5000827427
    tp = find_turning_points(pot, E)
    width = tp.q_plus - tp.q_minus
    with pytest.raises(QuadratureError, match="forbidden tail failed to "
                                              "reach the decay target"):
        tail_cut(pot, E, tp.q_plus, +1.0, width)
    assert tail_cut(pot, E, tp.q_minus, -1.0, width) == -8.077781157282073


def test_tail_cut_march_evaluates_no_point_past_its_cap(monkeypatch):
    """The refusal above evaluates the potential at no more than the
    200,000 steps of the cap and the one that rounding of the summed
    positions may add: the march's last block is cut to the steps left
    before the cap."""
    pot = parse_potential("q^2/2 - q^3/10", {})
    E = 0.5000827427
    tp = find_turning_points(pot, E)
    points = []
    inner = potentials.q_bundle_many

    def counted(potential, q, *args):
        points.append(np.size(q))
        return inner(potential, q, *args)

    monkeypatch.setattr(potentials, "q_bundle_many", counted)
    with pytest.raises(QuadratureError, match="forbidden tail failed to "
                                              "reach the decay target"):
        tail_cut(pot, E, tp.q_plus, +1.0, tp.q_plus - tp.q_minus)
    assert 200000 <= sum(points) <= 200001, sum(points)


def _right_tail_parity(sol):
    return np.sign(sol.psi(sol.q_hi)) == (-1) ** sol.n * np.sign(sol.psi(sol.q_lo))


def test_right_tail_parity():
    """psi(q_hi) carries (-1)^n times the sign of psi(q_lo)."""
    for kind in ESP_ORACLE:
        for n in range(4):
            assert _right_tail_parity(get_solution(kind, n)), (kind, n)
    quartic = potentials.parse_potential("q^4/4 + q^2/2", {})
    for n in range(4):
        sol = assemble(quartic, solve_quantization(quartic, n), n)
        assert _right_tail_parity(sol), ("quartic", n)


@pytest.mark.parametrize("kind", sorted(ESP_ORACLE))
def test_phase_residual_at_levels(kind):
    pot = make_builtin(kind, PARAMS[kind])
    for n in range(4):
        e_sp = get_solution(kind, n).e_sp
        target = math.pi * (n + 2.0 / 3.0)
        assert abs(phase_integral(pot, e_sp) - target) < 1e-10


def test_spectral_energies_increase_with_n():
    for kind in ESP_ORACLE:
        es = [get_solution(kind, n).e_sp for n in range(4)]
        assert all(b > a for a, b in zip(es, es[1:]))


def test_no_root_above_well_capacity():
    pot = make_builtin("morse", PARAMS["morse"])
    with pytest.raises(QuantizationError):
        solve_quantization(pot, 4)


def test_shifted_well_has_the_levels_of_the_centred_one():
    """(q-40)^2/2 lies outside find_minimum's first window; once the window
    has moved to it, its levels are those of q^2/2."""
    shifted = parse_potential("(q-40)^2/2", {})
    centred = parse_potential("q^2/2", {})
    for n in range(4):
        e_sp = solve_quantization(shifted, n)
        assert abs(e_sp / solve_quantization(centred, n) - 1.0) < 1e-9


def test_gaussian_well_ground_state_against_numerov():
    """-5*exp(-q^2), whose tails underflow to 0 inside the minimum search's
    window, solves its level 0.  e_bar is a Rayleigh quotient, so it lies
    above the Numerov energy; it was measured 2.36e-3 above it, relative,
    and the bound leaves that error a quarter of headroom."""
    pot = parse_potential("-5*exp(-q^2)", {})
    e_bar = assemble(pot, solve_quantization(pot, 0), 0).e_bar
    e_num = numerov_solve(pot, 0)
    assert 0.0 <= e_bar - e_num <= 3e-3 * abs(e_num)


@st.composite
def builtin_wells(draw):
    """A builtin well with at least three bound levels: harmonic k in
    [0.1, 4], Morse gamma in [2.6, 12] and Poschl-Teller lambda in
    [3.1, 12], each with alpha in [0.5, 2]."""
    kind = draw(st.sampled_from(sorted(ESP_ORACLE)))
    if kind == "harmonic":
        return kind, {"k": draw(st.floats(0.1, 4.0))}
    name, low = ("gamma", 2.6) if kind == "morse" else ("lambda", 3.1)
    return kind, {name: draw(st.floats(low, 12.0)),
                  "alpha": draw(st.floats(0.5, 2.0))}


@settings(max_examples=30, deadline=None)
@given(builtin_wells())
def test_random_wells_order_join_and_parity(well):
    """On random builtin wells, at levels n <= min(2, bound levels - 2):
    e_sp increases strictly with n, psi steps by at most 1e-13 of |psi|
    over the two floats straddling q- and q+, and the right tail carries
    (-1)^n times the left tail's sign."""
    kind, params = well
    pot = make_builtin(kind, params)
    e_prev = -math.inf
    for n in range(min(2, bound_count(kind, params) - 2) + 1):
        sol = assemble(pot, solve_quantization(pot, n), n)
        assert sol.e_sp > e_prev, (well, n)
        e_prev = sol.e_sp
        for qt in (sol.turning.q_minus, sol.turning.q_plus):
            below, above = sol.psi(np.nextafter(qt, [-math.inf, math.inf]))
            assert abs(above - below) <= 1e-13 * abs(sol.psi(qt)), (well, n, qt)
        assert _right_tail_parity(sol), (well, n)


def _energy_unit(sol):
    """hbar*omega for the harmonic well, hbar^2*alpha^2/m for the others."""
    pot = sol.potential
    if pot.kind == "harmonic":
        return sol.hbar * math.sqrt(2.0 * pot.params["k"] / sol.mass)
    return sol.hbar ** 2 * pot.alpha ** 2 / sol.mass


@settings(max_examples=40, deadline=None)
@given(builtin_wells(), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.integers(0, 2))
def test_random_wells_scale_with_their_units_at_unit_norm(well, hbar, mass, n):
    """On random builtin wells at hbar and m in [0.5, 2], e_sp and e_bar in
    well units are those at hbar = m = 1 within 1e-11, and psi^2
    integrates to 1 within 1e-10 over sol.breaks at METRIC_SPEC."""
    kind, params = well
    n = min(n, bound_count(kind, params) - 2)
    sols = []
    for units in ((1.0, 1.0), (hbar, mass)):
        pot = make_builtin(kind, params, *units)
        sols.append(assemble(pot, solve_quantization(pot, n), n))
    sol = sols[1]
    for attr in ("e_sp", "e_bar"):
        want, got = (getattr(s, attr) / _energy_unit(s) for s in sols)
        assert abs(got / want - 1.0) <= 1e-11, (well, hbar, mass, n, attr)
    norm = integrate(lambda q: sol.psi(q) ** 2, sol.breaks, METRIC_SPEC)
    assert abs(norm - 1.0) <= 1e-10, (well, hbar, mass, n)


# expression twins of the builtin wells with their centre at q = s
SHIFTED_TWINS = {
    "harmonic": ("k*(q-s)^2", {"k": 0.5}),
    "morse": ("A*(exp(-2*(q-s))-2*exp(-(q-s)))", {"A": 10.125}),
    "poschl_teller": ("-B/cosh(q-s)^2", {"B": 10.0}),
}


@functools.lru_cache(maxsize=None)
def _centred_twin_levels(kind):
    expr, params = SHIFTED_TWINS[kind]
    pot = parse_potential(expr, dict(params, s=0.0))
    return tuple(solve_quantization(pot, n) for n in range(3))


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(sorted(SHIFTED_TWINS)), st.floats(-45.0, 45.0))
def test_shifted_twins_have_the_levels_of_the_centred_one(kind, s):
    """A twin centred at s in [-45, 45] has the e_sp of its s = 0 form
    within 1e-9 at n = 0..2."""
    expr, params = SHIFTED_TWINS[kind]
    pot = parse_potential(expr, dict(params, s=s))
    for n, want in enumerate(_centred_twin_levels(kind)):
        assert abs(solve_quantization(pot, n) / want - 1.0) <= 1e-9, (kind, s, n)


# expression twins of the builtin wells stretched by s: at mass 1/s^2,
# q -> q/s leaves the Schrödinger equation as it is
RESCALED_TWINS = {
    "harmonic": ("k*(q/s)^2", {"k": 0.5}),
    "morse": ("A*(exp(-2*q/s)-2*exp(-q/s))", {"A": 10.125}),
    "poschl_teller": ("-B/cosh(q/s)^2", {"B": 10.0}),
}


@functools.lru_cache(maxsize=None)
def _unit_twin_levels(kind):
    """(e_sp, turning points) of levels 0..2 of the s = 1 twin."""
    expr, params = RESCALED_TWINS[kind]
    pot = parse_potential(expr, dict(params, s=1.0))
    energies = [solve_quantization(pot, n) for n in range(3)]
    return tuple((e, find_turning_points(pot, e)) for e in energies)


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(sorted(RESCALED_TWINS)), st.floats(0.5, 2.0))
def test_rescaled_twins_have_the_levels_of_the_unit_one(kind, s):
    """A twin stretched by s in [0.5, 2], at mass 1/s^2, has the e_sp of
    its s = 1 form within 1e-11 at n = 0..2, and turning points s times
    its s = 1 ones within 1e-11."""
    expr, params = RESCALED_TWINS[kind]
    pot = parse_potential(expr, dict(params, s=s), mass=1.0 / (s * s))
    for n, (want, tp) in enumerate(_unit_twin_levels(kind)):
        assert abs(solve_quantization(pot, n) / want - 1.0) <= 1e-11, (kind, s, n)
        got = find_turning_points(pot, want)
        for q, q_unit in ((got.q_minus, tp.q_minus), (got.q_plus, tp.q_plus)):
            assert abs(q / (s * q_unit) - 1.0) <= 1e-11, (kind, s, n)


def test_level_above_the_ceiling_fails_fast(monkeypatch):
    """One past the last level of an expression well is refused by the
    first-order phase at the energy ceiling, before any second-order phase
    integral, and the error names the ceiling and the level count."""
    pot = parse_potential("-20/cosh(q)^2", {})
    ceiling = pot.well.ceiling
    calls = []
    real = spectral.phase_integral

    def phase(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "phase_integral", phase)
    with pytest.raises(QuantizationError, match=re.escape("ceiling %.10g" % ceiling)
                       + ".*supports 6 levels"):
        solve_quantization(pot, 6)
    assert calls == []


# Morse gamma and Pöschl–Teller lambda of the level-gate survey; each well
# is taken at alpha = 0.5, 1 and 2
GATE_SURVEY = ([("morse", "gamma", g) for g in (1.2, 2.5, 4.5, 4.51, 5, 8, 8.49, 12.3)]
               + [("poschl_teller", "lambda", lam)
                  for lam in (2, 3.5, 5, 5.01, 5.05, 9, 9.2)])


class _PastTheGate(Exception):
    pass


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind, name, value", GATE_SURVEY)
def test_level_gate_counts_the_bound_levels(monkeypatch, kind, name, value, alpha):
    """The first-order phase at the energy ceiling admits levels 0..K-1 and
    refuses level K, with K the closed-form level count, except at lambda =
    5.01: its n=4 lies 5e-5*alpha^2 below the threshold, where the
    second-order phase cannot resolve it, and the gate refuses it."""
    pot = make_builtin(kind, {name: value, "alpha": alpha})
    K = bound_count(kind, {name: value}) - (value == 5.01)
    with pytest.raises(QuantizationError, match="supports %d levels" % K):
        solve_quantization(pot, K)

    def past(*args, **kwargs):
        raise _PastTheGate

    monkeypatch.setattr(spectral, "phase_integral", past)
    with pytest.raises(_PastTheGate):
        solve_quantization(pot, K - 1)


@pytest.mark.parametrize("pot", [
    make_builtin("harmonic", PARAMS["harmonic"]),
    make_builtin("morse", PARAMS["morse"]),
    make_builtin("poschl_teller", PARAMS["poschl_teller"]),
    parse_potential("q^4/4 + q^2/2", {}),
    parse_potential("q^4", {}),
], ids=["harmonic", "morse", "poschl_teller", "quartic", "q^4"])
def test_seeded_bracket_work_count(monkeypatch, pot):
    """Seeded at the first-order root, each level takes at most five
    second-order phase integrals, and its phase residual stays in budget."""
    calls = []
    real = spectral.phase_integral

    def phase(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "phase_integral", phase)
    for n in range(4):
        calls.clear()
        e_sp = solve_quantization(pot, n)
        assert len(calls) <= 5, (n, len(calls))
        assert abs(real(pot, e_sp) - math.pi * (n + 2.0 / 3.0)) < PHASE_RESIDUAL_TOL


def test_assemble_refuses_a_state_above_the_ceiling():
    """Just below the threshold of A(exp(-2q) - 2exp(-q)), A = 10.125, the
    second-order phase condition has a spurious n=4 root; the gate refuses
    that level, and assemble refuses the root itself, whose state's energy
    lies above the energy ceiling."""
    pot = parse_potential("A*(exp(-2*q)-2*exp(-q))", {"A": 10.125})
    ceiling = pot.well.ceiling
    target = math.pi * (4 + 2.0 / 3.0)
    root = hybrid_root(lambda E: phase_integral(pot, E) - target,
                       -3e-3, ceiling, rel_tol=1e-13, f_tol=PHASE_RESIDUAL_TOL)
    assert -3e-3 < root < ceiling
    with pytest.raises(QuantizationError, match="above the energy ceiling"):
        assemble(pot, root, 4)


STALL = "Chebyshev fit on [0, 1] stalled at degree 1024"


def _stall(*args, **kwargs):
    raise QuadratureError(STALL)


@pytest.mark.parametrize("name, stage, run", [
    ("integrate", "quantizing level n=2",
     lambda pot: solve_quantization(pot, 2)),
    ("integrate", "assembling level n=2 at E=2.5",
     lambda pot: assemble(pot, 2.5, 2)),
    ("CumulativeCheb", "assembling level n=2 at E=2.5",
     lambda pot: assemble(pot, 2.5, 2)),
], ids=["quantize", "assemble-moments", "assemble-fit"])
def test_quadrature_failure_names_the_stage(monkeypatch, name, stage, run):
    """A QuadratureError escaping the level search or the assembly comes
    back naming the stage and the level, and for the assembly the energy,
    chained from the original and keeping its text."""
    pot = make_builtin("harmonic", PARAMS["harmonic"])
    monkeypatch.setattr(spectral, name, _stall)
    with pytest.raises(QuadratureError) as info:
        run(pot)
    assert str(info.value) == "%s: %s" % (stage, STALL)
    cause = info.value.__cause__
    assert type(cause) is QuadratureError and str(cause) == STALL


@pytest.mark.parametrize("src, n, e_sp", [
    # V at the right end of the reach, -360, lies below the well minimum;
    # the ceiling sits below the barrier instead
    ("q^2/2 - q^3/100", 0, 0.5109532959643099),
    # the reach left of q_m = 25 ends at -85 (V = 110), not at -35 (V = 60)
    ("exp(q-25) - (q-25)", 220, 77.63679657430595),
])
def test_levels_below_the_ceiling_solve(src, n, e_sp):
    assert solve_quantization(parse_potential(src, {}), n) == e_sp


def test_level_near_the_reach_solves():
    """The ceiling sits at the turning-point search reach, +/-60 for q^2/2,
    so level 460 (turning points near +/-30.3) still solves."""
    e_sp = solve_quantization(parse_potential("q^2/2", {}), 460)
    assert e_sp == 460.5000027982118


@pytest.mark.parametrize("kind", sorted(ESP_ORACLE))
def test_continuity_at_turning_points(kind):
    """One-sided values straddling q-/q+ agree to 1e-9 of the local scale."""
    d = 1e-12
    for n in range(4):
        sol = get_solution(kind, n)
        # the envelope c: u(q-) = cos(-pi/3) = 1/2, so psi(q-) = c/2
        c = 2.0 * abs(sol.psi(sol.turning.q_minus))
        amp_plus = abs(sol.psi(sol.turning.q_plus)) + c * 0.1
        for qt, amp in ((sol.turning.q_minus, c),
                        (sol.turning.q_plus, amp_plus)):
            dpsi_scale = abs(sol.dpsi(qt)) + amp
            assert abs(sol.psi(qt - d) - sol.psi(qt + d)) < 1e-9 * amp
            assert abs(sol.dpsi(qt - d) - sol.dpsi(qt + d)) < 1e-9 * dpsi_scale


def test_dpsi_turning_point_identity():
    """psi'/psi at q- equals F1*(Ai'(0)/Ai(0)) - F2/10 on both sides."""
    ai_ratio = -3.0 ** (1.0 / 3.0) * math.gamma(2.0 / 3.0) / math.gamma(1.0 / 3.0)
    for kind in ESP_ORACLE:
        sol = get_solution(kind, 1)
        pot = sol.potential
        qm = sol.turning.q_minus
        b = q_bundle(pot, qm, sol.e_sp, sol.mass)
        f1 = math.copysign(abs(b.dQ) ** (1.0 / 3.0), b.dQ)
        want = f1 * ai_ratio - (b.d2Q / b.dQ) / 10.0
        for side in (qm - 1e-12, qm + 1e-12):
            got = sol.dpsi(side) / sol.psi(side)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("kind", sorted(ESP_ORACLE))
def test_node_count_between_turning_points(kind):
    for n in range(4):
        sol = get_solution(kind, n)
        qs = np.linspace(sol.turning.q_minus + 1e-9,
                         sol.turning.q_plus - 1e-9, 4001)
        y = sol.psi(qs)
        s = np.sign(y)
        s = s[s != 0]
        assert int(np.sum(s[1:] != s[:-1])) == n


@pytest.mark.parametrize("kind", sorted(ESP_ORACLE))
def test_normalization_independent_grid(kind):
    for n in range(4):
        sol = get_solution(kind, n)
        qs = np.linspace(sol.q_lo - 2.0, sol.q_hi + 2.0, 120001)
        y = sol.psi(qs)
        assert abs(simpson(y * y, x=qs) - 1.0) < 1e-9


@pytest.mark.parametrize("kind", sorted(ESP_ORACLE))
def test_tails_decay_monotonically(kind):
    for n in (0, 3):
        sol = get_solution(kind, n)
        right = np.linspace(sol.turning.q_plus + 0.05, sol.q_hi + 1.0, 40)
        vals = np.log(np.abs(sol.psi(right)))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        left = np.linspace(sol.q_lo - 1.0, sol.turning.q_minus - 0.05, 40)
        vals = np.log(np.abs(sol.psi(left)))
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_energy_expectation_benchmarks():
    # the optimal energies behind the published deviation table
    sol = get_solution("harmonic", 0)
    assert abs(sol.e_bar - 0.502260) < 1e-5
    sol = get_solution("morse", 0)
    assert abs(sol.e_bar - (-7.98840)) < 1e-4


def test_h2_dominates_ebar_squared():
    for kind in ESP_ORACLE:
        for n in (0, 2):
            sol = get_solution(kind, n)
            assert expectation_h2(sol, METRIC_SPEC) >= sol.e_bar ** 2


def test_mean_square_functional_vertex():
    """<(H-e)psi|(H-e)psi> = h2 - 2e*ebar + e^2 has its minimum at e=ebar."""
    sol = get_solution("harmonic", 1)
    h2 = expectation_h2(sol, METRIC_SPEC)
    eb = sol.e_bar

    def j(e):
        return h2 - 2.0 * e * eb + e * e

    e1, e2 = eb - 0.25, eb + 0.4
    slope = (j(e2) - j(e1)) / (e2 - e1)
    vertex = 0.5 * ((e1 + e2) - slope)
    assert abs(vertex - eb) < 1e-10
    assert j(eb - 0.1) > j(eb) and j(eb + 0.1) > j(eb)


def test_scale_invariance_of_energy_ratio():
    base = get_solution("harmonic", 0)
    ratio0 = base.e_bar / 0.5
    pot = make_builtin("harmonic", {"k": 0.5}, hbar=3.0, mass=2.0)
    sol = assemble(pot, solve_quantization(pot, 0), 0)
    e_ex = 3.0 * math.sqrt(2.0 * 0.5 / 2.0) * 0.5
    assert abs(sol.e_bar / e_ex - ratio0) < 1e-8


def test_perturbed_energy_breaks_dpsi_matching():
    sol = get_solution("poschl_teller", 0)
    d = 1e-12
    qt = sol.turning.q_plus
    base = abs(sol.dpsi(qt - d) - sol.dpsi(qt + d))
    pot = make_builtin("poschl_teller", PARAMS["poschl_teller"])
    off = assemble(pot, sol.e_sp * (1.0 + 1e-3), 0)
    qt2 = off.turning.q_plus
    broken = abs(off.dpsi(qt2 - d) - off.dpsi(qt2 + d))
    assert broken > 10.0 * max(base, 1e-12)
