"""End-to-end acceptance gate for the release.

Nine checks, one per shipping requirement.  Each prints a single
"ACCEPTANCE <n>: PASS/FAIL" line with capture suspended so the roll-up
survives pytest's capture and lands in plain test logs.  The
checks go through public entry points only and deliberately re-measure
behavior the unit modules cover piecemeal; the point here is the
end-to-end contract, not coverage.

Check 4's band clause on the scaled Airy modulus follows DLMF 9.8.20:
pi*sqrt|a|*(Ai^2+Bi^2)(a) = 1 - (5/32)|a|^-3 + ..., so the product
approaches 1 from below and is required to lie in [1 - 0.2/|a|^3, 1].
"""

import math
import time

import numpy as np

from uniwkb import airy, wkb_core
from uniwkb.cli import main
from uniwkb.exprparse import ExprError, compile_expr
from uniwkb.metrics import (METRIC_NAMES, METRIC_SPEC, benchmark_row,
                            benchmark_table, check_cell, load_golden)
from uniwkb.potentials import make_builtin, parse_potential
from uniwkb.quadrature import integrate
from uniwkb.reference import exact_energy, exact_wavefunction, numerov_solve
from uniwkb.spectral import (assemble, expectation_h2, phase_integral,
                             solve_quantization)

from kernel_refs import (_allowed_series_many, _forbidden_series_many,
                         maclaurin_ref, riccati_residual)

LD = np.longdouble

CELLS = [
    ("harmonic", {"k": 0.5}),
    ("morse", {"gamma": 4.5, "alpha": 1.0}),
    ("poschl_teller", {"lambda": 5.0, "alpha": 1.0}),
]
LEVELS = (0, 1, 2, 3)

# interior windows / dense grids for the reference cross-checks; far tails
# are excluded where the exact amplitude underflows and difference
# quotients are pure noise
RESIDUAL_WINDOW = {
    "harmonic": (-4.2, 4.2),
    "morse": (-1.5, 12.0),
    "poschl_teller": (-8.75, 8.75),
}
DENSE_GRID = {
    "harmonic": np.linspace(-12.0, 12.0, 200001),
    "morse": np.linspace(-3.0, 40.0, 400001),
    "poschl_teller": np.linspace(-25.0, 25.0, 400001),
}

_cache = {}


def _table():
    """Benchmark rows plus the wall time it took to build them."""
    if "table" not in _cache:
        t0 = time.perf_counter()
        rows = benchmark_table()
        _cache["table"] = (rows, time.perf_counter() - t0)
    return _cache["table"]


def _golden():
    if "golden" not in _cache:
        _cache["golden"] = load_golden()
    return _cache["golden"]


def _solution(kind, n):
    key = (kind, n)
    if key not in _cache:
        params = dict(CELLS)[kind]
        pot = make_builtin(kind, params)
        e_sp = solve_quantization(pot, n)
        _cache[key] = assemble(pot, e_sp, n)
    return _cache[key]


def _report(capsys, num, ok, detail):
    line = "ACCEPTANCE %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    # pytest's progress dots do not end their line; break out of them
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def test_1_table_reproduction(capsys):
    """All 60 published cells reproduced within their tolerance bands."""
    rows, elapsed = _table()
    golden = _golden()
    bad = []
    worst_frac, worst_cell = 0.0, ""
    for row in rows:
        for metric in METRIC_NAMES:
            want = golden[(row.potential, row.n, metric)]
            ok, rel_err, band = check_cell(metric, getattr(row, metric), want)
            if rel_err / band > worst_frac:
                worst_frac = rel_err / band
                worst_cell = "%s n=%d %s" % (row.potential, row.n, metric)
            if not ok:
                bad.append("%s n=%d %s: rel err %.2e > band %.0f%%"
                           % (row.potential, row.n, metric, rel_err, 100 * band))
    ok = not bad and elapsed < 120.0
    detail = ("%d/60 cells in band, worst uses %.0f%% of its band (%s), "
              "table built in %.1fs" % (60 - len(bad), 100 * worst_frac,
                                        worst_cell, elapsed))
    if bad:
        detail += "; failing: " + "; ".join(bad)
    if elapsed >= 120.0:
        detail += "; runtime over the 120s budget"
    _report(capsys, 1, ok, detail)


def test_2_linear_well_forbidden_riccati(capsys):
    """On linear potentials the decaying log-derivative solves its Riccati
    equation to near machine accuracy.

    The grids span the switch between the kernel evaluation and the far
    series, so both code paths are on the hook.
    """
    worst = 0.0
    for k in (0.5, 2.0):
        pot = parse_potential("%g*q" % k, {})
        E = 1.0
        qt = E / k
        span = 14.0 / (2.0 * k) ** (1.0 / 3.0)
        qs = np.linspace(qt + 0.1, qt + span, 100)
        res = max(riccati_residual(float(q), E, pot) for q in qs)
        worst = max(worst, res)
    ok = worst <= 1e-8
    _report(capsys, 2, ok, "max relative Riccati residual %.2e (allowed 1e-8) over "
                   "two slopes, 100 points each, crossing the series "
                   "switch" % worst)


def test_3_matching_continuity_and_energy_sensitivity(capsys):
    """Assembled states are continuous through both turning points, and
    that continuity is sharp: a 1e-3 relative energy error must blow up
    the derivative mismatch at the right turning point by >= 10x.
    """
    d = 1e-12
    worst_mis = 0.0
    min_ratio = math.inf
    for kind, params in CELLS:
        pot = make_builtin(kind, params)
        for n in LEVELS:
            sol = _solution(kind, n)
            # the envelope c: u(q-) = cos(-pi/3) = 1/2, so psi(q-) = c/2
            c = 2.0 * abs(sol.psi(sol.turning.q_minus))
            amp_plus = abs(sol.psi(sol.turning.q_plus)) + 0.1 * c
            for qt, amp in ((sol.turning.q_minus, c),
                            (sol.turning.q_plus, amp_plus)):
                dscale = abs(sol.dpsi(qt)) + amp
                mis = abs(sol.psi(qt - d) - sol.psi(qt + d)) / amp
                mis_d = abs(sol.dpsi(qt - d) - sol.dpsi(qt + d)) / dscale
                worst_mis = max(worst_mis, mis, mis_d)
            qt = sol.turning.q_plus
            base = abs(sol.dpsi(qt - d) - sol.dpsi(qt + d))
            off = assemble(pot, sol.e_sp * (1.0 + 1e-3), n)
            qt2 = off.turning.q_plus
            broken = abs(off.dpsi(qt2 - d) - off.dpsi(qt2 + d))
            ratio = broken / base if base > 0.0 else math.inf
            min_ratio = min(min_ratio, ratio)
    ok = worst_mis <= 1e-8 and min_ratio >= 10.0
    _report(capsys, 3, ok, "worst one-sided mismatch %.1e of local envelope "
                   "(allowed 1e-8); weakest detuning blow-up %.0fx "
                   "(required 10x) across 12 states" % (worst_mis, min_ratio))


def test_4_airy_kernel_identities(capsys):
    """Wronskian, cross-regime agreement, and the modulus asymptote band.

    The band clause demands pi*sqrt|a|*m2 in [1 - 0.2/|a|^3, 1] for
    a <= -5: by DLMF 9.8.20 the product's expansion is
    1 - (5/32)|a|^-3 + (10395/18432)|a|^-6 - ..., so it tracks its
    asymptote 1 from below with a leading correction smaller than
    0.2/|a|^3.
    """
    rng = np.random.default_rng(20260814)
    a = rng.uniform(-50.0, 20.0, 1000)
    ai, dai, bi, dbi = airy.eval_many(a)
    wr = (ai * dbi - dai * bi) * airy.PI_L
    wr_dev = float(np.max(np.abs(wr - 1.0)))
    ok_wr = wr_dev <= 1e-12

    def tuple_rel(ps, qs):
        return max(float(np.max(np.abs(p / q - 1.0))) for p, q in zip(ps, qs))

    win = np.linspace(4.3, 4.7, 11).astype(LD)
    seam = 0.0
    for arm in (win, -win):
        seam = max(seam, tuple_rel(maclaurin_ref(arm), airy._checkpoint_step(arm)))
    pos = np.linspace(8.8, 9.2, 11).astype(LD)
    s = airy._scaled_pos_ld(pos)
    em = np.exp(-s[4])
    seam = max(seam, tuple_rel((s[0] * em, s[1] * em, s[2] / em, s[3] / em),
                               airy._checkpoint_step(pos)))
    seam = max(seam, tuple_rel(airy._asym_neg(-pos), airy._checkpoint_step(-pos)))
    ok_seam = seam <= 1e-11

    mag = np.linspace(5.0, 60.0, 400)
    m2, _ = airy.modulus_many(-mag)
    v = np.asarray(m2 * airy.PI_L * np.sqrt(mag.astype(LD)), dtype=float)
    ok_band = bool(np.all(v >= 1.0 - 0.2 / mag ** 3) and np.all(v <= 1.0))
    dev = (v - 1.0) * mag ** 3

    ok = ok_wr and ok_seam and ok_band
    _report(capsys, 4, ok, "wronskian dev %.1e (<=1e-12, %s); regime seams %.1e "
                   "(<=1e-11, %s); modulus band %s: pi*sqrt|a|*m2 - 1 spans "
                   "[%.3f, %.3f]/|a|^3 against required [-0.2, 0]/|a|^3"
            % (wr_dev, "ok" if ok_wr else "FAIL",
               seam, "ok" if ok_seam else "FAIL",
               "ok" if ok_band else "FAIL",
               float(np.min(dev)), float(np.max(dev))))


def test_5_kernel_series_switchover(capsys):
    """Direct and far-series evaluations of the six kernel combinations
    agree to 1e-9 at |a| = 10, 15, 30, and the leading series
    coefficients carry their closed-form values exactly.
    """
    worst = 0.0
    for mag in (10.0, 15.0, 30.0):
        neg = np.array([-mag], dtype=LD)
        direct = wkb_core._allowed_airy_many(neg)[:4]
        far = _allowed_series_many(neg)
        for x, y in zip(direct, far):
            worst = max(worst, abs(float(x[0] / y[0] - 1.0)))
        pos = np.array([mag], dtype=LD)
        fd = wkb_core._forbidden_airy_many(pos)
        fs = _forbidden_series_many(pos)
        for i in (0, 2):  # decaying branch pair
            worst = max(worst, abs(float(fd[i][0] / fs[i][0] - 1.0)))
    ok_paths = worst <= 1e-9

    # the exact coefficient tables the series evaluator reads
    bp, bm, b2p, b2m = wkb_core._BP1, wkb_core._BM1, wkb_core._BP2, wkb_core._BM2
    spots = (bp[1] == -0.25 and bm[1] == -0.25
             and bp[2] == -5.0 / 32.0 and bm[2] == 5.0 / 32.0
             and b2p[2] == 0.125 and b2m[2] == -0.125)
    ok = ok_paths and spots
    _report(capsys, 5, ok, "six combinations, both routes, |a| in {10,15,30}: worst "
                   "rel diff %.1e (allowed 1e-9); closed-form coefficient "
                   "spots %s" % (worst, "exact" if spots else "WRONG"))


def test_6_reference_solutions_cross_check(capsys):
    """Closed-form energies vs the independent grid solver, eigenfunction
    residuals, and orthonormality, for all 12 states.
    """
    worst_e = 0.0
    for kind, params in CELLS:
        pot = make_builtin(kind, params)
        for n in LEVELS:
            e_grid = numerov_solve(pot, n)
            e_ex = exact_energy(kind, params, n)
            worst_e = max(worst_e, abs(e_grid - e_ex) / abs(e_ex))
    ok_e = worst_e <= 1e-8

    h = 1e-3
    worst_res = 0.0
    for kind, params in CELLS:
        pot = make_builtin(kind, params)
        a, b = RESIDUAL_WINDOW[kind]
        win = np.linspace(a, b, 3001)
        V = np.array([pot.eval(float(q))[0] for q in win])
        for n in LEVELS:
            lev = exact_wavefunction(pot, n)
            d2 = (-lev.psi(win + 2 * h) + 16.0 * lev.psi(win + h)
                  - 30.0 * lev.psi(win) + 16.0 * lev.psi(win - h)
                  - lev.psi(win - 2 * h)) / (12.0 * h * h)
            hpsi = -0.5 * d2 + V * lev.psi(win)
            num = math.sqrt(np.trapezoid((hpsi - lev.energy * lev.psi(win)) ** 2, win))
            den = abs(lev.energy) * math.sqrt(np.trapezoid(lev.psi(win) ** 2, win))
            worst_res = max(worst_res, num / den)
    ok_res = worst_res <= 1e-7

    worst_ov = 0.0
    for kind, params in CELLS:
        qs = DENSE_GRID[kind]
        pot = make_builtin(kind, params)
        ys = [exact_wavefunction(pot, n).psi(qs) for n in LEVELS]
        for i in range(4):
            for j in range(4):
                ov = np.trapezoid(ys[i] * ys[j], qs)
                worst_ov = max(worst_ov, abs(ov - (1.0 if i == j else 0.0)))
    ok_ov = worst_ov <= 1e-8

    ok = ok_e and ok_res and ok_ov
    _report(capsys, 6, ok, "12 states: grid-vs-closed-form energy dev %.1e "
                   "(<=1e-8); eigenfunction residual %.1e (<=1e-7); "
                   "orthonormality dev %.1e (<=1e-8)"
            % (worst_e, worst_res, worst_ov))


def test_7_metric_scale_invariance(capsys):
    """Every table metric is invariant under unit rescalings that keep the
    dimensionless well shape fixed, to 1e-6 absolute.
    """
    scaled = {
        "harmonic": ({"k": 2.0}, 3.0, 0.5),
        "morse": ({"gamma": 4.5, "alpha": 2.0}, 0.7, 3.0),
        "poschl_teller": ({"lambda": 5.0, "alpha": 0.5}, 2.0, 0.5),
    }
    rows, _ = _table()
    base = {(r.potential, r.n): r for r in rows}
    drift = 0.0
    where = ""
    for kind, (params, hbar, mass) in scaled.items():
        for n in LEVELS:
            other = benchmark_row(kind, params, n, hbar=hbar, mass=mass)
            ref = base[(kind, n)]
            for metric in METRIC_NAMES:
                dm = abs(getattr(other, metric) - getattr(ref, metric))
                if dm > drift:
                    drift = dm
                    where = "%s n=%d %s" % (kind, n, metric)
    ok = drift <= 1e-6
    _report(capsys, 7, ok, "12 states rebuilt in rescaled units: worst metric "
                   "drift %.1e at %s (allowed 1e-6)" % (drift, where))


def test_8_quantization_monotonicity_and_variational_minimum(capsys):
    """The phase is strictly increasing in energy, level energies are
    strictly increasing in n, and the assembled state's defect norm
    <(H-e)psi|(H-e)psi> is minimized at e = <H> within 1e-10.
    """
    sweeps = {
        "harmonic": np.linspace(0.1, 4.2, 20),
        "morse": np.linspace(-9.9, -0.3, 20),
        "poschl_teller": np.linspace(-9.8, -0.3, 20),
    }
    mono_phase = True
    for kind, params in CELLS:
        pot = make_builtin(kind, params)
        ph = np.array([phase_integral(pot, float(e)) for e in sweeps[kind]])
        mono_phase = mono_phase and bool(np.all(np.diff(ph) > 0.0))

    mono_levels = True
    for kind, _ in CELLS:
        es = [_solution(kind, n).e_sp for n in LEVELS]
        mono_levels = mono_levels and all(a < b for a, b in zip(es, es[1:]))

    worst_vertex = 0.0
    for kind, _ in CELLS:
        sol = _solution(kind, 0)

        def products(t):
            psi = sol.psi(t)
            return np.stack([psi * psi, psi * sol.h_psi(t)])

        s2, cross = (float(v) for v in integrate(products, sol.breaks,
                                                 METRIC_SPEC))
        h2 = expectation_h2(sol, METRIC_SPEC)
        vertex = cross / s2
        worst_vertex = max(worst_vertex, abs(vertex - sol.e_bar))

        def defect(e):
            return h2 - 2.0 * e * cross + e * e * s2

        step = 1e-3 * max(1.0, abs(sol.e_bar))
        if not (defect(sol.e_bar) < defect(sol.e_bar - step)
                and defect(sol.e_bar) < defect(sol.e_bar + step)):
            worst_vertex = math.inf

    ok = mono_phase and mono_levels and worst_vertex <= 1e-10
    _report(capsys, 8, ok, "phase sweeps strictly increasing: %s; levels strictly "
                   "increasing: %s; defect-norm minimizer off <H> by %.1e "
                   "(allowed 1e-10)" % (mono_phase, mono_levels, worst_vertex))


def test_9_expression_jets_and_errors(capsys):
    """Jet derivatives of 100 random expressions agree with Richardson
    finite differences to 1e-6 relative; malformed input is rejected with
    a column-accurate message and CLI exit code 2.
    """
    rng = np.random.default_rng(20260814)

    def atom():
        kind = rng.integers(0, 10)
        c = float(np.round(rng.uniform(0.3, 1.5), 6))
        s = "-" if rng.random() < 0.5 else ""
        if kind == 0:
            return "%g" % float(np.round(rng.uniform(-3, 3), 6))
        if kind == 1:
            return "q"
        if kind == 2:
            return "q^%d" % rng.integers(2, 5)
        if kind == 3:
            return "exp(%s%g*q)" % (s, c)
        if kind == 4:
            return "sin(%s%g*q)" % (s, c)
        if kind == 5:
            return "cos(%s%g*q)" % (s, c)
        if kind == 6:
            return "sinh(%s%g*q)" % (s, c)
        if kind == 7:
            return "tanh(%s%g*q)" % (s, c)
        if kind == 8:
            return "sqrt(q^2 + %g)" % (1.0 + c)
        return "1/(q^2 + %g)" % (1.0 + c)

    def expression():
        parts = [atom()]
        for _ in range(int(rng.integers(1, 4))):
            parts.append(str(rng.choice(["+", "-", "*"])))
            parts.append(atom())
        src = " ".join(parts)
        if rng.random() < 0.3:
            src = "%g*(%s) + %s" % (float(np.round(rng.uniform(-2, 2), 4)),
                                    src, atom())
        return src

    def fd(f, x, order, h0=0.05):
        def quotient(h):
            if order == 1:
                return (f(x + h) - f(x - h)) / (2.0 * h)
            return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
        d = [quotient(h0 / 2.0 ** i) for i in range(3)]
        d = [(4.0 * b - a) / 3.0 for a, b in zip(d, d[1:])]
        d = [(16.0 * b - a) / 15.0 for a, b in zip(d, d[1:])]
        return d[0]

    worst = 0.0
    for _ in range(100):
        src = expression()
        jet = compile_expr(src, {})
        x = float(rng.uniform(-1.8, 1.8))
        vals = jet(x)
        for order in (1, 2):
            approx = fd(lambda t: jet(t)[0], x, order)
            worst = max(worst, abs(vals[order] - approx) / max(1.0, abs(approx)))
    ok_jets = worst <= 1e-6

    bad_cases = {
        "q^^2": 3,
        "2*(q": 5,
        "q + ": 5,
        "1 + * 2": 5,
        "k*q": 1,
    }
    ok_cols = True
    for src, col in bad_cases.items():
        try:
            compile_expr(src, {})
            ok_cols = False
        except ExprError as exc:
            ok_cols = ok_cols and exc.column == col

    ok_exit = True
    for src in ("q^^2", "2*(q"):
        code = main(["solve", "--potential", "expr", "--expr", src,
                     "--levels", "0"])
        err = capsys.readouterr().err
        ok_exit = ok_exit and code == 2 and "column" in err

    ok = ok_jets and ok_cols and ok_exit
    _report(capsys, 9, ok, "100 random expressions x 2 derivative orders: worst "
                   "rel dev from finite differences %.1e (allowed 1e-6); "
                   "column-accurate rejection %s; CLI exit-2 on bad input "
                   "%s" % (worst, ok_cols, ok_exit))
