"""Tests for the exact eigenpairs and the Numerov eigenvalue oracle."""

import json
import math
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from uniwkb import reference, spectral
from uniwkb.potentials import (HARMONIC_SENTINEL, bound_count,
                               find_turning_points, make_builtin,
                               parse_potential)
from uniwkb.reference import (
    LevelIndexError,
    NumerovError,
    exact_energy,
    exact_wavefunction,
    numerov_solve,
)

# the twelve benchmark cells and a dense trapezoid grid wide enough for
# every level of each well
CELLS = [
    ("harmonic", {"k": 0.5}),
    ("morse", {"gamma": 4.5, "alpha": 1.0}),
    ("poschl_teller", {"lambda": 5.0, "alpha": 1.0}),
]

DENSE_GRID = {
    "harmonic": np.linspace(-12.0, 12.0, 200001),
    "morse": np.linspace(-3.0, 40.0, 400001),
    "poschl_teller": np.linspace(-25.0, 25.0, 400001),
}

# interior windows for residual checks, away from the far tails where the
# exact amplitude underflows and the finite-difference quotient is pure noise
RESIDUAL_WINDOW = {
    "harmonic": (-4.2, 4.2),
    "morse": (-1.5, 12.0),
    "poschl_teller": (-8.75, 8.75),
}


def test_exact_energy_spot_values():
    assert exact_energy("harmonic", {"k": 0.5}, 2) == 2.5
    assert exact_energy("morse", {"gamma": 4.5, "alpha": 1.0}, 0) == -8.0
    assert exact_energy("morse", {"gamma": 4.5, "alpha": 1.0}, 1) == -4.5
    assert exact_energy("poschl_teller", {"lambda": 5.0, "alpha": 1.0}, 3) == -0.5


def test_exact_energy_scaling():
    # E_n = hbar*omega*(n + 1/2) with omega = sqrt(2k/m)
    e = exact_energy("harmonic", {"k": 2.0}, 1, hbar=3.0, mass=2.0)
    assert math.isclose(e, 3.0 * math.sqrt(2.0) * 1.5, rel_tol=1e-15)
    # depth prefactor hbar^2 alpha^2 / (2 m)
    e = exact_energy("morse", {"gamma": 4.5, "alpha": 1.0}, 0, hbar=0.5, mass=1.0)
    assert math.isclose(e, -0.125 * 16.0, rel_tol=1e-15)


def test_bound_count():
    assert bound_count("morse", {"gamma": 4.5}) == 4
    assert bound_count("poschl_teller", {"lambda": 5.0}) == 4
    assert bound_count("harmonic", {"k": 0.5}) == HARMONIC_SENTINEL
    # the level condition is strict: x = 4 exactly still gives levels 0..3
    assert bound_count("morse", {"gamma": 4.0}) == 4
    assert bound_count("poschl_teller", {"lambda": 1.2}) == 1


def test_level_index_error():
    with pytest.raises(LevelIndexError):
        exact_energy("morse", {"gamma": 4.5, "alpha": 1.0}, 4)
    with pytest.raises(LevelIndexError):
        exact_wavefunction(make_builtin("poschl_teller", {"lambda": 5.0}), -1)
    # an index inside the range that is no integer names no level
    bad = "level index must be a non-negative integer, got 1.5"
    with pytest.raises(ValueError, match=bad):
        exact_energy("morse", {"gamma": 4.5, "alpha": 1.0}, 1.5)
    with pytest.raises(ValueError, match=bad):
        exact_wavefunction(make_builtin("poschl_teller", {"lambda": 5.0}), 1.5)


def test_harmonic_ground_state_value():
    # psi_0(0) = pi^(-1/4) for k = m = hbar = 1/2-unit oscillator
    lev = exact_wavefunction(make_builtin("harmonic", {"k": 0.5}), 0)
    want = math.pi ** -0.25
    assert abs(float(lev.psi(np.array([0.0]))[0]) - want) < 1e-12


# the benchmark cells' levels 0-3, and levels where the closed-form norms
# meet alpha != 1, hbar and mass != 1, and deep wells: (kind, params,
# units, levels, grid)
NORM_CASES = [
    pytest.param(kind, params, {}, range(4), DENSE_GRID[kind],
                 id="%s-params%d" % (kind, i))
    for i, (kind, params) in enumerate(CELLS)
] + [
    pytest.param("poschl_teller", {"lambda": 60.0, "alpha": 1.3}, {}, (0, 40),
                 np.linspace(-6.0, 6.0, 400001), id="poschl_teller-deep"),
    pytest.param("morse", {"gamma": 200.5, "alpha": 0.7}, {}, (150,),
                 np.linspace(-1.8, 15.0, 400001), id="morse-deep"),
    pytest.param("harmonic", {"k": 2.0}, {"hbar": 1.5, "mass": 0.7}, (7,),
                 DENSE_GRID["harmonic"], id="harmonic-units"),
]


@pytest.mark.parametrize("kind,params,units,levels,qs", NORM_CASES)
def test_normalization_on_independent_grid(kind, params, units, levels, qs):
    for n in levels:
        lev = exact_wavefunction(make_builtin(kind, params, **units), n)
        y = lev.psi(qs)
        norm = np.trapezoid(y * y, qs)
        assert abs(norm - 1.0) < 1e-10, (kind, n, norm)


@pytest.mark.parametrize("kind,params,units,levels,qs", NORM_CASES)
def test_node_counts_and_left_tail_sign(kind, params, units, levels, qs):
    """n nodes, and the left tail positive: the closed-form sign (-1)^n."""
    probe = qs[0] + 1e-3 * (qs[-1] - qs[0])
    for n in levels:
        lev = exact_wavefunction(make_builtin(kind, params, **units), n)
        y = lev.psi(qs)
        s = np.sign(y)
        s = s[s != 0]
        assert int(np.sum(s[1:] != s[:-1])) == n
        assert float(lev.psi(np.array([probe]))[0]) > 0.0


@pytest.mark.parametrize("n", [150, 151])
def test_high_harmonic_states(n):
    """The normalized Hermite-function recurrence holds where H_n alone
    overflows: no floating-point warning, unit norm, n nodes, a positive
    left tail (for odd n too, where it underflows far out), and dpsi
    matching a finite difference."""
    qs = np.linspace(-24.0, 24.0, 480001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lev = exact_wavefunction(make_builtin("harmonic", {"k": 0.5}), n)
        y = lev.psi(qs)
        dy = lev.dpsi(qs[2:-2])
    assert abs(np.trapezoid(y * y, qs) - 1.0) < 1e-10
    s = np.sign(y[y != 0])
    assert int(np.sum(s[1:] != s[:-1])) == n
    assert s[0] > 0
    h = qs[1] - qs[0]
    fd = (8.0 * (y[3:-1] - y[1:-3]) - (y[4:] - y[:-4])) / (12.0 * h)
    assert np.max(np.abs(dy - fd)) < 1e-8 * np.max(np.abs(dy))


@pytest.mark.parametrize("kind,params", CELLS)
def test_orthonormality(kind, params):
    qs = DENSE_GRID[kind]
    ys = [exact_wavefunction(make_builtin(kind, params), n).psi(qs) for n in range(4)]
    for i in range(4):
        for j in range(4):
            ov = np.trapezoid(ys[i] * ys[j], qs)
            assert abs(ov - (1.0 if i == j else 0.0)) < 1e-8, (kind, i, j)


@pytest.mark.parametrize("kind,params", CELLS)
def test_schrodinger_residual(kind, params):
    """H psi = E psi checked with a numerical second derivative."""
    pot = make_builtin(kind, params)
    a, b = RESIDUAL_WINDOW[kind]
    win = np.linspace(a, b, 3001)
    V = np.array([pot.eval(float(q))[0] for q in win])
    h = 1e-3
    for n in range(4):
        lev = exact_wavefunction(pot, n)
        d2 = (-lev.psi(win + 2 * h) + 16.0 * lev.psi(win + h)
              - 30.0 * lev.psi(win) + 16.0 * lev.psi(win - h)
              - lev.psi(win - 2 * h)) / (12.0 * h * h)
        hpsi = -0.5 * d2 + V * lev.psi(win)
        num = math.sqrt(np.trapezoid((hpsi - lev.energy * lev.psi(win)) ** 2, win))
        den = abs(lev.energy) * math.sqrt(np.trapezoid(lev.psi(win) ** 2, win))
        assert num / den < 1e-7, (kind, n, num / den)


@pytest.mark.parametrize("kind,params", CELLS)
def test_dpsi_matches_finite_difference(kind, params):
    qt = np.linspace(-0.8, 1.1, 7)
    h = 1e-5
    for n in range(4):
        lev = exact_wavefunction(make_builtin(kind, params), n)
        fd = (lev.psi(qt + h) - lev.psi(qt - h)) / (2.0 * h)
        dp = lev.dpsi(qt)
        err = np.max(np.abs(fd - dp) / np.maximum(1.0, np.abs(dp)))
        assert err < 1e-8, (kind, n, err)


@pytest.mark.parametrize("gamma,n", [(100.5, 0), (100.5, 10), (130.5, 0),
                                     (130.5, 10), (200.5, 0), (200.5, 10),
                                     (200.5, 150)])
def test_large_gamma_morse_states(gamma, n):
    """Deep Morse wells, where the squared state left double range at its
    peak and the support cut fell inside the well: no floating-point
    warning, and the unit norm, node count, left-tail sign, Schrödinger
    residual and dpsi checks of the benchmark cells at their thresholds.
    The difference steps scale with the level's shortest length 1/k_max,
    k_max = sqrt(2(E - V_min)); the benchmark cells' fixed steps serve
    1/k_max between 0.2 and 1."""
    pot = make_builtin("morse", {"gamma": gamma})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lev = exact_wavefunction(pot, n)
        tp = find_turning_points(pot, lev.energy)
        width = tp.q_plus - tp.q_minus
        ell = 1.0 / math.sqrt(2.0 * (lev.energy - pot.eval(tp.q_m)[0]))
        qs = np.linspace(tp.q_minus - 5 * width, tp.q_plus + 5 * width, 400001)
        y = lev.psi(qs)
        win = np.linspace(tp.q_minus - 0.25 * width, tp.q_plus + 0.25 * width,
                          3001)
        V = pot.eval(win)[0]
        h = 1e-2 * ell
        ys = [lev.psi(win + k * h) for k in (-2, -1, 0, 1, 2)]
        d2 = (-ys[0] + 16.0 * ys[1] - 30.0 * ys[2] + 16.0 * ys[3]
              - ys[4]) / (12.0 * h * h)
        h = 3e-3 * ell
        fd = (8.0 * (lev.psi(win + h) - lev.psi(win - h))
              - (lev.psi(win + 2 * h) - lev.psi(win - 2 * h))) / (12.0 * h)
        dp = lev.dpsi(win)
    assert abs(np.trapezoid(y * y, qs) - 1.0) < 1e-10
    s = np.sign(y[y != 0])
    assert int(np.sum(s[1:] != s[:-1])) == n
    assert s[0] > 0
    hpsi = -0.5 * d2 + V * ys[2]
    num = math.sqrt(np.trapezoid((hpsi - lev.energy * ys[2]) ** 2, win))
    den = abs(lev.energy) * math.sqrt(np.trapezoid(ys[2] ** 2, win))
    assert num / den < 1e-7, num / den
    err = np.max(np.abs(fd - dp) / np.maximum(1.0, np.abs(dp)))
    assert err < 1e-8, err


@pytest.mark.parametrize("kind,params,n", [
    ("harmonic", {"k": 0.5}, 1),
    ("morse", {"gamma": 4.5, "alpha": 1.0}, 0),
    ("poschl_teller", {"lambda": 5.0, "alpha": 1.0}, 3),
])
def test_numerov_matches_exact(kind, params, n):
    pot = make_builtin(kind, params)
    e = numerov_solve(pot, n)
    ex = exact_energy(kind, params, n)
    assert abs(e - ex) / abs(ex) < 1e-8, (kind, n, e, ex)


# the oracle's energies of the twelve golden cells, to the bit
NUMEROV_GOLDEN = {
    "harmonic": ("0x1.ffffffffed9cdp-2", "0x1.8000000000f48p+0",
                 "0x1.3fffffffff5e8p+1", "0x1.bffffffffd083p+1"),
    "morse": ("-0x1.fffffffff333ap+2", "-0x1.1ffffffff4bb1p+2",
              "-0x1.ffffffffe6e68p+0", "-0x1.ffffffff9b902p-2"),
    "poschl_teller": ("-0x1.ffffffffff5a9p+2", "-0x1.2000000000031p+2",
                      "-0x1.000000000208ep+1", "-0x1.0000000000db4p-1"),
}


# and of two expression wells, run as jet programs: the quartic's levels
# 0-3 and the ground state below the cubic's barrier
NUMEROV_EXPR_GOLDEN = {
    "q^4/4 + q^2/2": ("0x1.3dea25cc86835p-1", "0x1.0352dbf8edf15p+1",
                      "0x1.d966d1efdbd32p+1", "0x1.63af5805c75f5p+2"),
    "q^2/2 - q^3/100": ("0x1.ffdbeac2259dfp-2",),
}


def test_numerov_golden_cells():
    """All twelve golden cells, well inside ACCEPTANCE 6's 1e-8, and each
    energy exactly the pinned one: how the level is bracketed must not
    move it."""
    for kind, params in CELLS:
        pot = make_builtin(kind, params)
        for n in range(4):
            e = numerov_solve(pot, n)
            ex = exact_energy(kind, params, n)
            assert abs(e - ex) / abs(ex) <= 2e-10, (kind, n, e, ex)
            assert e.hex() == NUMEROV_GOLDEN[kind][n], (kind, n, e.hex())


def test_numerov_expression_wells_bit_for_bit():
    """The oracle's energies of expression wells are pinned to the bit too,
    so the march over a jet program's V cannot move unnoticed."""
    for expr, pins in NUMEROV_EXPR_GOLDEN.items():
        pot = parse_potential(expr, {})
        for n, pin in enumerate(pins):
            e = numerov_solve(pot, n)
            assert e.hex() == pin, (expr, n, e.hex())


def _iterator_casoratian(c, k):
    """_casoratian over a list of floats, marching through islice and
    reversed: the reference for the sliced view.  islice refuses the stop
    of -1 at k = len(c), where the inward march is empty, as it is for
    every k >= len(c) - 2, so that stop is clamped at 0."""
    z_k, z_k1 = reference._march(islice(c, 1, k + 1))
    u_k1, u_k = reference._march(islice(reversed(c), 1,
                                        max(len(c) - 1 - k, 0)))
    return ((z_k * u_k1 - z_k1 * u_k)
            / (math.hypot(z_k, z_k1) * math.hypot(u_k, u_k1)))


def test_casoratian_slices_match_the_iterators():
    """Slicing the coefficients' memoryview marches the same floats in the
    same order as islice and reversed did over their list: the Casoratian
    is equal, not just close, at every k of every length."""
    rng = np.random.default_rng(7)
    for m in list(range(10)) + [4097]:
        # Numerov coefficients lie near 2; the zeros flip the march's sign
        c = 2.0 + 0.01 * rng.standard_normal(m)
        if m:
            c[rng.integers(0, m, size=m // 100 + 1)] = 0.0
        listed = c.tolist()
        for k in range(m + 1):
            got = reference._casoratian(memoryview(c), k)
            want = _iterator_casoratian(listed, k)
            assert math.isfinite(want), (m, k)
            assert got == want, (m, k, got, want)


def _count_work(monkeypatch):
    """Record the energy of every node sweep and count matching marches."""
    work = {"sweeps": [], "marches": 0}
    count_nodes, casoratian = reference._count_nodes, reference._casoratian

    def sweep(potential, E):
        work["sweeps"].append(E)
        return count_nodes(potential, E)

    def march(*args):
        work["marches"] += 1
        return casoratian(*args)

    monkeypatch.setattr(reference, "_count_nodes", sweep)
    monkeypatch.setattr(reference, "_casoratian", march)
    return work


def test_numerov_work_per_level(monkeypatch):
    """Node sweeps only bracket a level; matching marches converge on it.
    No golden level sweeps its well's energy ceiling, whose grid is the
    longest of all where a tail runs out flat (Morse, Poschl-Teller)."""
    work = _count_work(monkeypatch)
    for kind, params in CELLS:
        pot = make_builtin(kind, params)
        ceiling = pot.well.ceiling
        for n in range(4):
            work.update(sweeps=[], marches=0)
            numerov_solve(pot, n)
            # the worst levels make 6 sweeps and 28 marches; bisecting the
            # node count to 1e-10 made about 36 sweeps per level
            assert len(work["sweeps"]) <= 6, (kind, n, work)
            assert work["marches"] <= 32, (kind, n, work)
            assert ceiling not in work["sweeps"], (kind, n)


def test_numerov_unbracketed_match_names_the_level(monkeypatch):
    monkeypatch.setattr(reference, "_casoratian", lambda c, k: 1.0)
    pot = make_builtin("harmonic", {"k": 0.5})
    with pytest.raises(NumerovError, match=r"n=1: .* on \[[-+.e0-9]+, [-+.e0-9]+\]"):
        numerov_solve(pot, 1)


def test_numerov_quartic_matches_frozen_values():
    """expr-solve checks the quartic's e_bar against these frozen energies."""
    path = Path(__file__).resolve().parents[1] / "perfbench/data/expected.json"
    frozen = json.loads(path.read_text())["quartic_numerov"]
    pot = parse_potential("q^4/4 + q^2/2", {})
    for n, e_ref in enumerate(frozen):
        e = numerov_solve(pot, n)
        assert abs(e / e_ref - 1.0) <= 1e-9, (n, e, e_ref)


def test_numerov_below_a_barrier():
    """A well that turns down beyond its barrier (V(60) = -360, below the
    minimum) is still capped below the barrier, and n = 0 solves.  The
    reference is the bisection oracle's value; 1e-10 was its stop width."""
    pot = parse_potential("q^2/2 - q^3/100", {})
    assert abs(numerov_solve(pot, 0) - 0.4998623543331633) <= 1e-10


def test_numerov_rejects_unbound_level(monkeypatch):
    work = _count_work(monkeypatch)
    for kind, params, n, sweeps in [
            # gamma = 4.5 and lambda = 5 hold exactly four levels; the
            # ceiling is swept once the midpoints' flat tails reach their
            # length cap
            ("morse", {"gamma": 4.5, "alpha": 1.0}, 4, 7),
            ("poschl_teller", {"lambda": 5.0, "alpha": 1.0}, 4, 7),
            # no tail of the harmonic ceiling is capped: it is swept at once
            ("harmonic", {"k": 0.5}, 2000, 2)]:
        work.update(sweeps=[], marches=0)
        with pytest.raises(NumerovError, match="level n=%d is not bound" % n):
            numerov_solve(make_builtin(kind, params), n)
        assert len(work["sweeps"]) <= sweeps, (kind, work)


@pytest.mark.parametrize("solve,n", [(numerov_solve, -1),
                                     (numerov_solve, 1.5),
                                     (spectral.solve_quantization, 1.5),
                                     (exact_wavefunction, 1.5)])
def test_bad_level_index_is_refused_up_front(monkeypatch, solve, n):
    """An index that is not a non-negative integer names no level: both
    solvers refuse it before any node sweep or phase integral, rather than
    searching for it (61 sweeps for 1.5) or quantizing it to an energy, and
    the exact states before any recurrence."""
    work = _count_work(monkeypatch)
    called = []
    for module, name in ((spectral, "phase_integral"),
                         (spectral, "_first_order_phase"),
                         (reference, "_raw_state")):
        monkeypatch.setattr(module, name,
                            lambda *args, _name=name: called.append(_name))
    pot = make_builtin("morse", {"gamma": 4.5})
    with pytest.raises(ValueError, match="level index must be a non-negative "
                                         "integer, got %r" % (n,)):
        solve(pot, n)
    assert work == {"sweeps": [], "marches": 0}
    assert called == []
