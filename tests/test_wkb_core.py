"""Checks for the coefficient tables, combination series, and log-derivative
terms.  Reference numbers were frozen from an independent high-precision
evaluation (mpmath for the combination values, a scipy-based pilot for the
mean/phase terms); tolerances reflect the truncation level of the order-20
series where that is the binding error."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uniwkb import wkb_core
from uniwkb.potentials import (find_minimum, find_turning_points, make_builtin,
                               parse_potential, q_bundle_many)
from uniwkb.wkb_core import A_SWITCH, LD, _b_fractions, terms_many

from kernel_refs import (_allowed_series_many, _forbidden_series_many,
                         decaying_airy_ref, growing_airy_ref, y2_closed_form)

# u, w, h2, g2 on the allowed side (25-digit independent evaluation)
ALLOWED_REF = {
    0.0: (0.3645055664736134907093181, 0.6313421607739733309203594,
          -0.1, 0.0),
    -1.0: (0.1886968937803622882713797, 1.069442634686967249124008,
           -0.04601347251892642631303582, 0.03496541622934632703959986),
    -4.5: (0.05502183029555221815574712, 2.124834229684357079091321,
           -0.002764151944758701480516237, 0.01224803917838456591027711),
    -6.5: (0.03833342430866336813871136, 2.550942798375622009979863,
           -0.0009836423376650696882998467, 0.007364160931239266205373006),
    -10.0: (0.02497672523324612936985593, 3.162770079361378673189965,
            -0.0002780170168857815628571768, 0.00392601258097370617519215),
    -15.0: (0.01666204667545369026673445, 3.873162468168711148029416,
            -0.00008304476944864241691840722, 0.00214727718832433169703989),
    -30.0: (0.00833304405711967376932447, 5.477257267906852009125321,
            -0.00001041212954375452718669511, 0.0007605313169757227266305635),
}

# decaying-branch ratio and companion on the forbidden side
FORBIDDEN_MINUS_REF = {
    1.0: (-1.176321967143701023089346, -0.04548596981679357806845901),
    4.5: (-2.173704358313536636252622, -0.01072682670870399262110501),
    6.5: (-2.586636552921553176200022, -0.006673855319470521774152824),
    10.0: (-3.186805433594462528457073, -0.003695997532458499583120097),
    15.0: (-3.889475163360966659345794, -0.002072457387163572711719675),
    30.0: (-5.485527496849730111960341, -0.0007504992728723675008773124),
}

# decaying branch (y1m, y2m, d1m, d2m) at the float64 points, printed by
# tests/make_airy_refs.py (mpmath, 50 digits, rounded to 30)
FORBIDDEN_KERNEL_REF = {
    1.0: (-1.17632196714370102308934626279, -0.0454859698167935780684590074175,
        -0.383733370384826429301394409209, 0.0292727844733567912581682386067),
    3.6: (-1.96152060139373449154735612031, -0.014048080186689910891792194949,
        -0.247563069692037745325983673953, 4.57763581124076056282446444476e-3),
    4.1: (-2.08188948359880527273591778512, -0.0120270413562371577360380605041,
        -0.234263821919300443977643381083, 3.5641061167978310099046947537e-3),
    4.39: (-2.1488216710140685845748239591, -0.0110608752625733488435818399238,
        -0.227434573819694319573785105763, 3.11300736318212522378978688963e-3),
    4.47: (-2.16694476825049493774931872918, -0.0108162954711446321797711211579,
        -0.225649628648191462285449061388, 3.00239961245769318240825648318e-3),
    4.95: (-2.27282425908477642691694805612, -9.51654528302036668646767253083e-3,
        -0.215730112684262742747863342921, 2.43984453967008788658895961139e-3),
    6.5: (-2.58663655292155317620002199591, -6.67385531947052177415282407837e-3,
        -0.190688656909894965190606972237, 1.3689947944680732913243414057e-3),
    8.9: (-3.01074989170566934313492375165, -4.34934270539072826630559666346e-3,
        -0.164614910405699322077627908943, 6.7859600291514162872884556078e-4),
}

# modulus-ratio u, w, h2, g2, du, dw, dh2, dg2 at the float64 points,
# printed by tests/make_airy_refs.py (mpmath, 50 digits, rounded to 30)
ALLOWED_KERNEL_REF = {
    -9.25: (0.0269952923349398817847289192538, 3.04197911765716284554380385174,
        -3.50228861425529817775178576794e-4, 4.40527181661535045649214090705e-3,
        2.90820645400213072232545599752e-3, -0.164238231115875185933419982889,
        -1.11971769501408049619170992304e-4, 7.02320560215170527002199026129e-4),
    -9.2: (0.0271414874078147035078855212085, 3.03375614397633194657598437414,
        -3.55887224336350100555859377292e-4, 4.44061938170999183705557282415e-3,
        2.93968077543467744639156171458e-3, -0.164681308360228208413221293257,
        -1.14373276722264145613902410853e-4, 7.11610027345295982688610658898e-4),
    -9.1: (0.0274386627570001264294829871371, 3.01724328728940694745526345,
        -3.67572224485123236490261865318e-4, 4.5127292099235658064123470799e-3,
        3.00417447909467741707412347262e-3, -0.165578242031512966716533303117,
        -1.19370879568026684362857713674e-4, 7.30702372077009821757471249179e-4),
    -9.0: (0.0277423934780247441230163569192, 3.0006400057279625648561592264,
        -3.79770515268760966374707565761e-4, 4.58678356186850712830890222276e-3,
        3.07080357921766417064841037644e-3, -0.166489871449615119013846396734,
        -1.24641975132939860146040005414e-4, 7.50505948515474244194975761696e-4),
    -8.9: (0.0280528978046100981184294948705, 2.98394480979176469467914995414,
        -3.92510333286013733427704259416e-4, 4.66285522494933084215040773795e-3,
        3.13966280797452956741250120495e-3, -0.167416597607370185229201737669,
        -1.30204529722455835301038961832e-4, 7.71054347865388335025361159575e-4),
    -8.75: (0.0285318562792331329955299253758, 2.95872631722715979582777862865,
        -4.12701814729137953620578659695e-4, 4.78091294602557084785487638688e-3,
        3.24735342985300605150666979928e-3, -0.168835908105420123638427111365,
        -1.39137561936408908960802911231e-4, 8.03351671258085194550514673064e-4),
    -7.3: (0.034165480009203710570768925161, 2.70292706568105945911106428453,
        -7.02345128250089309444053851444e-4, 6.2298076564714424846415988079e-3,
        4.64744236696319453169142119621e-3, -0.184693601257723763470992168827,
        -2.80622814750362160535636170026e-4, 1.23759080253189129827146209055e-3),
    -4.5: (0.0550218302955522181557471232733, 2.12483422968435707909132080933,
        -2.7641519447587014805162366264e-3, 0.0122480391783845659102771106731,
        0.0118931018292425865974139795203, -0.233824536783746237323058402763,
        -1.66563240232070826285096823083e-3, 3.59444406007739746227711116006e-3),
    -2.2: (0.10676431998130826477237599421, 1.5009735584781305004672772094,
        -0.0150901099706979526898407585815, 0.0266258230206380029729071006459,
        0.041523003229430484344349569995, -0.320500842561684074829821401875,
        -0.0133370280846127861944865825154, 9.35771927470066909318513886864e-3),
    -0.6: (0.240749570921103606661261931737, 0.901778489783965958229902147555,
        -0.0658366018074296406756726881374, 0.0304585445622941186697032260189,
        0.155244088738354922992331916996, -0.434205568962741233376087788852,
        -0.0557135045641522512099067405823, -0.0228363027105749609571167261479),
}

FORBIDDEN_PLUS_REF = {
    10.0: (3.136758221580604370498032, 0.004265287132103347240873572),
    15.0: (3.856132551291593260000211, 0.002239709580086030215520583),
    30.0: (5.46886025132788812345852, 0.0007713416968511648691072427),
}

# (dBi, Bi) pairs for growing-ratio checks at moderate argument
BI_PAIR_REF = {
    4.5: (469.1350773279663979509197, 227.5880818355997184614109),
    6.5: (56062.4958425228607482191, 22340.60771839699815794499),
}

# (tag, q, E, region) -> (mean, phase), hbar = mass = 1, frozen from the
# float64 pilot implementation
TERMS_REF = {
    ("harm", -0.5, 0.5, "allowed"): (-0.1033979965888159, 1.0323682478428886),
    ("harm", -0.05, 0.5, "allowed"): (0.026320809568290252, 1.2361509832538349),
    ("harm", -0.01, 0.5, "allowed"): (0.0062022541840842426, 1.2493637924770975),
    ("harm", 1.3, 0.5, "right"): (-1.306328163097759, 0.0),
    ("harm", 7.0, 0.5, "right"): (-7.0000005707080089, 0.0),
    ("harm", 12.0, 0.5, "right"): (-12.00000001522757, 0.0),
    ("mors", 0.1, -8.0, "allowed"): (0.0038639243436723592, 2.3193893217065051),
    ("mors", 0.55, -8.0, "allowed"): (0.67536983416050644, 1.4927493963424316),
    ("mors", -0.5, -8.0, "left"): (3.4239157260642834, 0.0),
    ("mors", 2.5, -8.0, "right"): (-3.6300436541077872, 0.0),
    ("mors", 6.0, -8.0, "right"): (-3.9888239335971289, 0.0),
}


def harm_bundle(q, E):
    # V = q^2/2, so Q = q^2 - 2E
    return SimpleNamespace(Q=q * q - 2 * E, dQ=2 * q, d2Q=2.0)


def morse_bundle(q, E):
    A = 10.125  # well depth factor for gamma = 4.5, alpha = 1
    e1 = np.exp(-q)
    e2 = e1 * e1
    return SimpleNamespace(
        Q=2 * (A * (e2 - 2 * e1) - E),
        dQ=2 * A * (-2 * e2 + 2 * e1),
        d2Q=2 * A * (4 * e2 - 2 * e1),
    )


BUNDLES = {"harm": harm_bundle, "mors": morse_bundle}


def terms(tag, q, E, region):
    """terms_many (hbar = 1) on the bundle of well tag at the points q."""
    b = BUNDLES[tag](np.asarray(q, dtype=float), E)
    return terms_many(*np.broadcast_arrays(b.Q, b.dQ, b.d2Q), None, 1.0, region)


def _combos(a, near, airy_route, series_route):
    """The four combo values at the points a as a (4, len(a)) float64
    array: the Airy route where near, the series elsewhere."""
    out = np.empty((4, len(a)))
    out[:, near] = np.asarray(airy_route(a[near]), dtype=float)
    out[:, ~near] = np.asarray(series_route(a[~near]), dtype=float)
    return out


def allowed(a):
    """(u, w, h2, g2) at a <= 0, switching routes at |a| = A_SWITCH."""
    a = np.atleast_1d(np.asarray(a, dtype=float)).astype(LD)
    return _combos(a, a > -A_SWITCH, wkb_core._allowed_airy_many, _allowed_series_many)


def _forbidden_airy_pairs(a):
    """(y1m, y1p, y2m, y2p) by the Airy route: the decaying branch from
    the kernel, the growing one, which the library no longer forms, from
    the reference."""
    y1m, _, y2m, _ = wkb_core._forbidden_airy_many(a)
    y1p, y2p = growing_airy_ref(a)
    return y1m, y1p, y2m, y2p


def forbidden(a):
    """(y1m, y1p, y2m, y2p) at a >= 0, switching routes at a = A_SWITCH."""
    a = np.atleast_1d(np.asarray(a, dtype=float)).astype(LD)
    return _combos(a, a < A_SWITCH, _forbidden_airy_pairs, _forbidden_series_many)


def test_b_table_spot_values():
    bp, bm, b2p, b2m = _b_fractions(8)
    assert bp[1] == -0.25
    assert bm[1] == -0.25
    assert bp[2] == -5.0 / 32.0
    assert bm[2] == 5.0 / 32.0
    assert b2p[2] == 0.125
    assert b2m[2] == -0.125
    assert bp[3] == bm[3] == -15.0 / 64.0
    for n in range(1, 9):
        assert bp[n] == (-1) ** (n + 1) * bm[n]
        if n >= 2:
            assert math.isclose(b2p[n], -0.4 * n * bp[n], rel_tol=1e-15)
    # the evaluator's order-20 tables start with the same exact entries
    for table, short in zip((wkb_core._BP1, wkb_core._BM1, wkb_core._BP2,
                             wkb_core._BM2), (bp, bm, b2p, b2m)):
        assert table[:9] == short


def test_allowed_combo_reference():
    a = np.array(list(ALLOWED_REF))
    got = allowed(a)
    for i, (x, ref) in enumerate(ALLOWED_REF.items()):
        # order-20 truncation binds on the series side of the switch
        tol = 1e-12 if -x < A_SWITCH else 1e-9
        u, w, h2, g2 = got[:, i]
        assert abs(u / ref[0] - 1) < tol
        assert abs(w / ref[1] - 1) < tol
        assert abs(h2 / ref[2] - 1) < tol
        if ref[3] == 0.0:
            assert g2 == 0.0
        else:
            assert abs(g2 / ref[3] - 1) < tol


def test_forbidden_combo_reference():
    got = forbidden(np.array(list(FORBIDDEN_MINUS_REF)))
    for i, (a, (y1, y2)) in enumerate(FORBIDDEN_MINUS_REF.items()):
        tol = 1e-12 if a < A_SWITCH else 1e-9
        # the y1 -> y2 map amplifies rounding by ~5e3 near the series edge
        tol2 = 1e-10 if a < A_SWITCH else 1e-9
        assert abs(got[0, i] / y1 - 1) < tol
        assert abs(got[2, i] / y2 - 1) < tol2
    got = forbidden(np.array(list(FORBIDDEN_PLUS_REF)))
    for i, (y1, y2) in enumerate(FORBIDDEN_PLUS_REF.values()):
        assert abs(got[1, i] / y1 - 1) < 1e-9
        assert abs(got[3, i] / y2 - 1) < 1e-9
    got = forbidden(np.array(list(BI_PAIR_REF)))
    for i, (dbi, bi) in enumerate(BI_PAIR_REF.values()):
        assert abs(got[1, i] / (dbi / bi) - 1) < 1e-12


def test_forbidden_kernel_accuracy():
    """The forbidden kernel's decaying branch against the value columns
    (y1m, y2m) of FORBIDDEN_KERNEL_REF, five of whose points lie in
    [3.5, 5], where a Maclaurin-summed Ai cancels about five digits: y1m
    within 1e-13 relative and the companion y2m within 1e-11."""
    a = np.array(list(FORBIDDEN_KERNEL_REF)).astype(LD)
    got = np.asarray(wkb_core._forbidden_airy_many(a)[0::2], dtype=float)
    want = np.array(list(FORBIDDEN_KERNEL_REF.values())).T[:2]
    rel = np.abs(got / want - 1)
    for row, name, tol in zip(rel, ("y1m", "y2m"), (1e-13, 1e-11)):
        assert np.all(row < tol), (name, a[np.argmax(row)], row.max())


# the point where the allowed kernel misses the bounds below (the open
# allowed-side accuracy FOUND in CHANGES.md): the modulus series (DLMF
# 9.8.20), which takes over at ASYM_RADIUS, gives h2 off by 1.6e-11 at a = -9
ALLOWED_OPEN_POINTS = (-9.0,)


@pytest.mark.parametrize("x", [
    pytest.param(x, marks=pytest.mark.xfail(
        strict=True, reason="FOUND: allowed-side h2 at |a| near ASYM_RADIUS"))
    if x in ALLOWED_OPEN_POINTS else x for x in ALLOWED_KERNEL_REF])
def test_allowed_kernel_accuracy(x):
    """The allowed kernel against the value columns (u, w, h2, g2) of
    ALLOWED_KERNEL_REF, at the bounds the forbidden side meets: u and w
    within 1e-13 relative, h2 and g2 within 1e-11.  The points cover
    [-9.25, -8.75], around the switch from the checkpoint step to the
    modulus series, and four points inside it."""
    got = np.asarray(wkb_core._allowed_airy_many(np.array([x], dtype=LD)),
                     dtype=float)[:, 0]
    rel = np.abs(got / np.array(ALLOWED_KERNEL_REF[x][:4]) - 1)
    tols = (1e-13, 1e-13, 1e-11, 1e-11)
    names = ("u", "w", "h2", "g2")
    over = [(n, r) for n, r, t in zip(names, rel, tols) if not r < t]
    assert not over, over


def test_path_agreement_at_switch():
    """Airy-based and series evaluations must agree near the switch radius."""
    pts = np.array([-10.0, -15.0, -30.0], dtype=wkb_core.LD)
    airy_vals = wkb_core._allowed_airy_many(pts)[:4]
    series_vals = _allowed_series_many(pts)
    for va, vs in zip(airy_vals, series_vals):
        assert np.max(np.abs(va / vs - 1)) < 1e-9
    fpts = np.array([10.0, 15.0, 30.0], dtype=wkb_core.LD)
    fairy = _forbidden_airy_pairs(fpts)
    fseries = _forbidden_series_many(fpts)
    for va, vs in zip(fairy, fseries):
        assert np.max(np.abs(va / vs - 1)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, A_SWITCH, exclude_max=True),
                          st.integers(0, 2 ** 11 - 1)), min_size=1, max_size=40))
def test_forbidden_kernel_is_the_decaying_branch_bit_for_bit(points):
    """The shared near-field formula with w = 0 reproduces the decaying
    branch's own formulas bit for bit (rows 0 and 2: y1m, y2m), and the
    rows of w and its companion are zero (1 and 3), at longdouble a in
    [0, A_SWITCH), most of them off the float64 grid."""
    a = np.array([LD(x) * (1 + LD(j) * LD(2.0) ** -63) for x, j in points])
    a = np.minimum(a, np.nextafter(LD(A_SWITCH), LD(0)))
    got = wkb_core._forbidden_airy_many(a)
    for row, want in zip(got[0::2], decaying_airy_ref(a), strict=True):
        assert row.dtype == LD
        assert np.array_equal(row, want)
        assert np.array_equal(np.signbit(row), np.signbit(want))
    for row in got[1::2]:
        assert np.all(row == 0)


def test_branch_ode_consistency():
    """FD derivatives of the combos must satisfy their defining ODEs."""
    h = 1e-4

    def fd(vals, i):
        return (vals[0][i] - 8 * vals[1][i] + 8 * vals[3][i] - vals[4][i]) / (12 * h)

    a0 = np.array([0.4, 1.7, 3.2, 6.8])
    vals = [forbidden(a0 + k * h) for k in (-2, -1, 0, 1, 2)]
    y1m, _, y2m, _ = vals[2]
    d1 = a0 - y1m ** 2
    d2 = (2 * a0 * d1 - y1m) / 3 - 2 * y1m * y2m
    assert np.all(np.abs(fd(vals, 0) - d1) < 1e-7 * np.maximum(1.0, np.abs(d1)))
    assert np.all(np.abs(fd(vals, 2) - d2) < 1e-7 * np.maximum(1.0, np.abs(d2)))
    a0 = np.array([-0.6, -2.3, -5.1, -8.4])
    vals = [allowed(a0 + k * h) for k in (-2, -1, 0, 1, 2)]
    u, w, _, _ = vals[2]
    du = a0 - u ** 2 + w ** 2
    dw = -2 * u * w
    assert np.all(np.abs(fd(vals, 0) - du) < 1e-7 * np.maximum(1.0, np.abs(du)))
    assert np.all(np.abs(fd(vals, 1) - dw) < 1e-7 * np.maximum(1.0, np.abs(dw)))


def test_turning_point_identity():
    # u - sqrt(3) w at the turning point equals the decaying ratio there
    u, w, _, _ = allowed(0.0)[:, 0]
    y1m = forbidden(0.0)[0, 0]
    assert abs((u - math.sqrt(3.0) * w) - y1m) < 1e-15


def test_y2_closed_form_agreement_and_breakdown():
    y1m, _, y2m, _ = forbidden(np.array([2.0, 6.5, 1e6]))
    assert abs(y2_closed_form(2.0, float(y1m[0])) / y2m[0] - 1) < 5e-12
    assert abs(y2_closed_form(6.5, float(y1m[1])) / y2m[1] - 1) < 1e-9
    # at large argument the plain-double form is destroyed by cancellation
    raw = y2_closed_form(1e6, float(y1m[2]))
    assert abs(raw / y2m[2] - 1) > 1e3


def test_log_deriv_reference_values():
    for (tag, q, E, region), want in TERMS_REF.items():
        got = [float(v[0]) for v in terms(tag, [q], E, region)]
        for g, w in zip(got, want, strict=True):
            if w == 0.0:
                assert abs(g) < 1e-15
            else:
                assert abs(g / w - 1) < 1e-9, (tag, q, region, g, w)


def test_log_deriv_exact_points():
    # left turning point of the harmonic well at E = 1/2
    mean, phase = terms("harm", [-1.0], 0.5, "allowed")
    assert abs(mean[0] - (-0.3592482360039607)) < 1e-14
    assert abs(phase[0] - 0.7954412780452425) < 1e-14
    # potential minimum: Q' = 0, terms close in finitely many exact pieces
    mean, phase = terms("harm", [0.0], 0.5, "allowed")
    assert mean[0] == 0.0
    assert abs(phase[0] - 1.25) < 1e-15


def test_terms_vectorized_matches_scalar():
    """One array call equals per-element calls, bit for bit."""
    qs = np.concatenate([np.linspace(-0.99, -0.02, 17),
                         np.linspace(0.002, 0.012, 5)])
    many = terms("harm", qs, 0.5, "allowed")
    for i, q in enumerate(qs):
        one = terms("harm", [q], 0.5, "allowed")
        for v, w in zip(many, one):
            assert v[i] == w[0]


@pytest.mark.parametrize("dQ", [0.0, -0.0])
def test_far_forbidden_series_oriented_by_side(dQ):
    """Where Q' is zero, or has underflowed to -0.0 far out on a tail, the
    decaying branch still follows the side: mean = +kappa on the left tail
    and -kappa on the right, with kappa = sqrt(Q)/hbar."""
    for region, want in (("left", 2.0), ("right", -2.0)):
        mean, phase = terms_many(4.0, dQ, 0.0, None, 1.0, region)
        assert (mean[0], phase[0]) == (want, 0.0)


@pytest.mark.parametrize("hbar", [0.2, 3.0])
def test_far_field_stays_in_double_range(hbar):
    """Far-field points with |Q| up to 1e300, |Q'| down to subnormal and
    +/-0.0, and Q'' up to 1e100 give finite terms on every side, and
    no floating-point warning escapes."""
    mags = np.array([1.0, 1e3, 1e100, 1e300])
    slopes = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-200, 1.0, -1e50, 1e150])
    curvs = np.array([0.0, -2.0, 1e100])
    Q, Q1, Q2 = (v.ravel() for v in np.meshgrid(mags, slopes, curvs,
                                               indexing="ij"))
    far = np.abs(wkb_core.airy_variable(Q, Q1, hbar)) >= A_SWITCH
    assert np.count_nonzero(far) > Q.size // 2
    Q, Q1, Q2 = Q[far], Q1[far], Q2[far]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for region, sign in (("allowed", -1.0), ("left", 1.0), ("right", 1.0)):
            for v in terms_many(sign * Q, Q1, Q2, None, hbar, region):
                assert v.dtype == np.float64 and np.all(np.isfinite(v)), region


def test_stationary_guard_and_region_validation():
    with pytest.raises(RuntimeError):
        terms_many(1e-12, 1e-15, 1.0, None, 1.0, "right")
    with pytest.raises(ValueError):
        terms("harm", [0.5], 0.5, "elsewhere")


# ---- far-field series: one kernel for both regions ----

def _ref_series_allowed(Q, Q1, Q2, hbar):
    """The allowed-side series as it stood before the two regions shared
    one kernel, its values kept verbatim so that _series_terms must
    reproduce their bits."""
    T = -Q
    sT = np.sqrt(T)
    iT = 1 / T
    step = iT / sT  # T^{-3/2}
    mean = np.zeros_like(Q)
    phase = sT / hbar
    pa = iT          # T^{(1-3n)/2}, n = 1
    pb = iT / sT     # T^{(3-3n)/2}, n = 2
    q_m2 = np.zeros_like(Q)  # Q1^{n-2}, valid from n = 2
    q_m1 = np.ones_like(Q)   # Q1^{n-1}
    q_n = Q1.copy()          # Q1^n
    hn = LD(1)
    for n in range(1, wkb_core.NMAX_SERIES + 1):
        c = wkb_core._UC[n] if n % 2 == 1 else wkb_core._WC[n]
        if c:
            t = LD(c) * hn * q_n * pa
            if n % 2 == 1:
                mean = mean + t
            else:
                phase = phase + t
        if n >= 2:
            c2 = wkb_core._HC[n] if n % 2 == 1 else wkb_core._GC[n]
            if c2:
                t = LD(c2) * hn * Q2 * q_m2 * pb
                if n % 2 == 1:
                    mean = mean + t
                else:
                    phase = phase + t
            pb = pb * step
        pa = pa * step
        q_m2, q_m1, q_n = q_m1, q_n, q_n * Q1
        hn = hn * hbar
    return mean, phase


def _ref_series_forbidden(Q, Q1, Q2, hbar, s):
    """The forbidden-side (decaying-branch) series as it stood before the
    two regions shared one kernel, its values kept verbatim as above."""
    sQ = np.sqrt(Q)
    iQ = 1 / Q
    step = iQ / sQ
    aQ1 = np.abs(Q1)
    mean = -s * sQ / hbar
    pa = iQ
    pb = iQ / sQ
    q_m2 = np.zeros_like(Q)
    q_m1 = np.ones_like(Q)
    q_n = aQ1.copy()
    hn = LD(1)
    for n in range(1, wkb_core.NMAX_SERIES + 1):
        mean = mean + LD(wkb_core._B1M[n]) * hn * s * q_n * pa
        if n >= 2:
            mean = mean + LD(wkb_core._B2M[n]) * hn * s * Q2 * q_m2 * pb
            pb = pb * step
        pa = pa * step
        q_m2, q_m1, q_n = q_m1, q_n, q_n * aQ1
        hn = hn * hbar
    return mean


@st.composite
def wells(draw):
    """A builtin well or its expression twin, with hbar in [0.2, 3]."""
    kind = draw(st.sampled_from(["harmonic", "morse", "poschl_teller"]))
    hbar = draw(st.floats(0.2, 3.0))
    alpha = draw(st.floats(0.2, 3.0))
    if kind == "harmonic":
        params = {"k": draw(st.floats(0.05, 20.0))}
        twin, tparams = "k*q^2", params
    elif kind == "morse":
        params = {"gamma": draw(st.floats(0.6, 12.0)), "alpha": alpha}
        depth = params["gamma"] ** 2 * hbar ** 2 * alpha ** 2 / 2
        twin = "A*(exp(-2*alpha*q) - 2*exp(-alpha*q))"
        tparams = {"A": depth, "alpha": alpha}
    else:
        params = {"lambda": draw(st.floats(1.2, 12.0)), "alpha": alpha}
        depth = params["lambda"] * (params["lambda"] - 1) * hbar ** 2 * alpha ** 2 / 2
        twin, tparams = "-B/cosh(alpha*q)^2", {"B": depth, "alpha": alpha}
    if draw(st.booleans()):
        return parse_potential(twin, tparams, hbar=hbar)
    return make_builtin(kind, params, hbar=hbar)


def _series_scale(X, P, Q2, hbar, lead, c1, c2):
    """Sum of |terms| of one output of the far-field series, in longdouble:
    the size against which rounding in a reordered float64 sum is
    measured."""
    sX = np.sqrt(X)
    L = sX / hbar
    z = np.abs(hbar * (P / X) / sX)
    w = np.abs(hbar * (Q2 / X) / sX)
    val = abs(lead) * L
    for n in range(1, wkb_core.NMAX_SERIES + 1):
        val = val + LD(abs(c1[n])) * L * z ** n
        if n >= 2:
            val = val + LD(abs(c2[n])) * w * z ** (n - 2)
    return val


# |float64 kernel - longdouble reference| <= SERIES_ULPS * eps * (sum of
# |terms|) per component.  The leading terms of each component pass through
# a handful of float64 roundings (forming z and w, the first Horner steps,
# the final products and sums), each at most eps of the term; 2,000 random
# wells of the strategy below reach 2.2.
SERIES_ULPS = 8


@settings(max_examples=60, deadline=None)
@given(wells(), st.floats(0.02, 0.98),
       st.sampled_from(["allowed", "left", "right"]))
def test_series_terms_equal_per_region_references(pot, e_frac, region):
    """_series_terms, called as terms_many calls it, matches the two
    per-region longdouble series at every far-field point to SERIES_ULPS
    float64 eps of each component's sum of |terms|; on a forbidden tail,
    orienting by the side matches orienting by sign(Q')."""
    v_min = pot.eval(find_minimum(pot))[0]
    E = v_min + e_frac * (-v_min if v_min < 0 else 10.0)
    tp = find_turning_points(pot, E)
    width = tp.q_plus - tp.q_minus
    qs = np.linspace(tp.q_minus - 2 * width, tp.q_plus + 4 * width, 2001)
    b = q_bundle_many(pot, qs, E, pot.mass)
    Q, Q1, Q2 = (np.broadcast_to(v, qs.shape).astype(float)
                 for v in (b.Q, b.dQ, b.d2Q))
    hbar = pot.hbar
    share = {"allowed": Q < 0, "left": (Q > 0) & (qs < tp.q_m),
             "right": (Q > 0) & (qs > tp.q_m)}[region]
    far = (np.abs(wkb_core.airy_variable(Q, Q1, hbar)) >= A_SWITCH) & share
    assume(np.any(far))
    Q, Q1, Q2 = Q[far], Q1[far], Q2[far]
    Ql, Q1l, Q2l, hl = (np.asarray(v, dtype=LD) for v in (Q, Q1, Q2, hbar))
    if region == "allowed":
        got = wkb_core._series_terms(-Q, Q1, Q2, hbar, wkb_core._ALLOWED_POLYS)
        want = _ref_series_allowed(Ql, Q1l, Q2l, hl)
        scale = (_series_scale(-Ql, Q1l, Q2l, hl, 0.0, wkb_core._UC, wkb_core._HC),
                 _series_scale(-Ql, Q1l, Q2l, hl, 1.0, wkb_core._WC, wkb_core._GC))
    else:
        side = -1.0 if region == "left" else 1.0
        (m,) = wkb_core._series_terms(Q, side * Q1, Q2, hbar, wkb_core._FORBIDDEN_POLYS)
        got = (side * m,)
        s = np.where(Q1l >= 0, LD(1), LD(-1))
        want = (_ref_series_forbidden(Ql, Q1l, Q2l, hl, s),)
        scale = (_series_scale(Ql, side * Q1l, Q2l, hl, -1.0, wkb_core._B1M,
                               wkb_core._B2M),)
    eps = np.finfo(np.float64).eps
    for g, w, sc in zip(got, want, scale, strict=True):
        assert g.dtype == np.float64
        assert np.all(np.abs(g - w) <= SERIES_ULPS * eps * sc)
