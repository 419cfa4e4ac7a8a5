"""Tests for the quantization solver and piecewise eigenstate assembly."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from uniwkb import potentials, spectral
from uniwkb.potentials import make_builtin, q_bundle
from uniwkb.spectral import (
    QuantizationError,
    assemble,
    expectation_h2,
    phase_integral,
    solve_quantization,
)

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
    """The phase integral samples its terms once per tree level, across all
    of its break intervals."""
    pot = make_builtin("harmonic", PARAMS["harmonic"])
    calls = []
    real = spectral.terms_many

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "terms_many", counted)
    phase = phase_integral(pot, ESP_ORACLE["harmonic"][1])
    assert abs(phase - math.pi * (1 + 2.0 / 3.0)) < 1e-9
    assert len(calls) <= 4


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
    """One two-row (mean, phase) fit per region, left tail, allowed region
    and right tail, so no Chebyshev node is sampled by two fits."""
    pot = make_builtin("morse", PARAMS["morse"])
    fits = []
    real = spectral.CumulativeCheb

    def counted(f, breakpoints, *args, **kwargs):
        fits.append(list(breakpoints))
        return real(f, breakpoints, *args, **kwargs)

    monkeypatch.setattr(spectral, "CumulativeCheb", counted)
    sol = assemble(pot, ESP_ORACLE["morse"][1], 1)
    assert len(fits) == 3
    left, middle, right = fits
    assert (left[-1], middle[0]) == (sol.turning.q_minus,) * 2
    assert (middle[-1], right[0]) == (sol.turning.q_plus,) * 2
    assert left + middle[1:] + right[1:] == list(sol.breaks)


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


@pytest.mark.parametrize("kind", sorted(ESP_ORACLE))
def test_continuity_at_turning_points(kind):
    """One-sided values straddling q-/q+ agree to 1e-9 of the local scale."""
    d = 1e-12
    for n in range(4):
        sol = get_solution(kind, n)
        amp_plus = abs(sol.psi(sol.turning.q_plus)) + abs(sol.norm_c) * 0.1
        for qt, amp in ((sol.turning.q_minus, sol.norm_c),
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
            assert expectation_h2(sol) >= sol.e_bar ** 2


def test_mean_square_functional_vertex():
    """<(H-e)psi|(H-e)psi> = h2 - 2e*ebar + e^2 has its minimum at e=ebar."""
    sol = get_solution("harmonic", 1)
    h2 = expectation_h2(sol)
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
    e_sp = solve_quantization(pot, 0, hbar=3.0, mass=2.0)
    sol = assemble(pot, e_sp, 0, hbar=3.0, mass=2.0)
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
