"""Airy module tests against frozen arbitrary-precision reference values.

The reference tuples were generated once by a 30-digit mpmath run and pasted
in verbatim; the implementation under test never touches mpmath.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniwkb import airy

from kernel_refs import (N_TAYLOR_REF, checkpoint_step_ref, maclaurin_ref,
                         sums_loop_ref)

# (ai, dai, bi, dbi) at selected points spanning both evaluation regimes
AIRY_REF = {
    0.0: (0.3550280538878172392601, -0.2588194037928067984052, 0.6149266274460007351509, 0.4482883573538263579148),
    0.5: (0.2316936064808334897691, -0.224910532664683893136, 0.8542770431031554933, 0.5445725641405923018272),
    -0.5: (0.4757280916105395887986, -0.2040816703395473861448, 0.3803526597510538501697, 0.5059337136238471665703),
    1.0: (0.1352924163128814155241, -0.1591474412967932127875, 1.207423594952871259436, 0.9324359333927756329595),
    -1.0: (0.5355608832923521187995, -0.01016056711664520939505, 0.1039973894969446118887, 0.5923756264227923508168),
    2.0: (0.03492413042327437913532, -0.053090384433653631704, 3.298094999978214710281, 4.100682049932889889382),
    -2.0: (0.2274074282016855759919, 0.6182590207416910414063, -0.4123025879563984880832, 0.2787951669211695226851),
    3.7: (0.001745572000609978520907, -0.003466940749027627070161, 47.56074749958945846847, 87.89072726283344214805),
    -3.7: (-0.2820130618419313982266, -0.5827278036529581633875, 0.2923526100714520879067, -0.5246136149096832989189),
    4.25: (0.0005646398353425013377819, -0.001195205134544914304408, 137.0213459913343039831, 273.6988434741776240916),
    -4.25: (0.127782927228267284374, -0.7592674120573740646581, 0.3711782022295195356125, 0.285534022081812742781),
    4.5: (0.0003302503235143089836587, -0.0007178665675575088886936, 227.5880818355997184614, 469.1350773279663979509),
    -4.5: (0.2921527810559594668816, -0.5233625323157477007085, 0.2538726576969326368005, 0.6347447677736637097333),
    5.0: (0.0001083444281360744173499, -0.0002474138908684624760002, 657.7920441711711824411, 1435.819080217982518672),
    -5.0: (0.350761009024114319788, 0.3271928185544431367949, -0.13836913490160057685, 0.7784117730018992460944),
    6.5: (0.00000279588234320491358546, -0.000007231931466601792559814, 22340.60771839699815794, 56062.49584252286074822),
    -6.5: (-0.2380203019971158035944, -0.6749524925132021729989, 0.2610126576364839518174, -0.5971706662916220169763),
    7.8: (8.28296006622689433069e-8, -2.339138699003239538135e-7, 688226.4337072255130166, 1899371.437864484188218),
    -7.8: (0.1328515446260674816957, 0.8711554042465891742333, -0.3103005661474120181256, 0.3612293043244010027435),
    8.9: (3.342061042518699907606e-9, -1.006210992183691213288e-8, 15966418.12023232323823, 47172696.72644593143868),
    -8.9: (-0.1172663063717518086632, -0.9128927574252502026086, 0.3048324133649630811381, -0.3413647537217797842063),
    9.0: (2.471168430872489843289e-9, -7.48064138965894641276e-9, 21472868.89143534909337, 63807489.78090821385451),
    -9.0: (-0.02213372154734140367417, -0.9756639809263315947127, 0.3249473234552449179194, -0.05740051384366925439265),
    10.0: (1.104753255289868593355e-10, -3.520633676738923636621e-10, 455641153.5482251409998, 1429236134.482865776119),
    -10.0: (0.04024123848644319068943, 0.9962650441327900559046, -0.3146798296438386331618, 0.1194141133999092382775),
    11.0: (4.226275864960359591299e-12, -1.411144124662851733545e-11, 11355782530.43047628514, 37400168196.92697701528),
    -11.0: (-0.008759589255702381289966, -1.027327873664579421461, 0.309654767426781886333, -0.02202299531446446655903),
    13.0: (3.981776078833335363023e-15, -1.443208057397262604448e-14, 11086706719059.40474713, 39757544969908.34540368),
    -13.0: (0.1715104393705370446316, -0.8715196778799533667225, 0.2426132290926271993334, 0.6230972488192877335371),
    15.0: (2.164962520737992298989e-18, -8.420567954017772766124e-18, 18982099567493589.68479, 73197492034070104.96189),
    -15.0: (0.2782174908708289295276, 0.2723742043086420208258, -0.06912659453101006118593, 1.076429753084374786744),
    20.0: (1.691672868670540313554e-27, -7.586391625748354960515e-27, 2.103765049651103814495e+25, 9.381839336133964349106e+25),
    -20.0: (-0.1764061270779846895902, 0.8928628567364712383984, -0.2001393093226513492836, -0.7914290338395364793563),
    -30.0: (-0.08796818845684216283262, 1.228620602637485134704, -0.2244469422005663197376, -0.4836947258276814927725),
    -50.0: (-0.1618814236123209239152, 0.9689898372767490871365, -0.1371501521288200733796, -1.145361700265477600264),
    60.0: (2.783148709496935537098e-136, -2.156975811209473787248e-135, 7.382584191543098789455e+133, 5.715444898335451018242e+134),
    104.0: (7.448752158292226089089e-309, -7.598056033156866870637e-308, 2.095173527033601961046e+306, 2.136162195043275266051e+307),
}

# (ai_s, dai_s, bi_s, dbi_s) exponentially scaled
SCALED_REF = {
    0.0: (0.3550280538878172392601, -0.2588194037928067984052, 0.6149266274460007351509, 0.4482883573538263579148),
    2.0: (0.2301649186525116059422, -0.3498882825800874928777, 0.5004372543040949649658, 0.622217997315437628139),
    5.0: (0.1870021189359434270431, -0.4270355443519452098421, 0.3811085310888774015755, 0.8318782591248013957365),
    9.0: (0.1622568429042331497849, -0.4911786827724436477223, 0.327031358277430278755, 0.9717867769241901265838),
    10.0: (0.1581236668543461502767, -0.5039093607113109261716, 0.3183401053367344452505, 0.9985559426738374008966),
    13.0: (0.148237824865939217694, -0.5372929542543533416744, 0.297797027492237232471, 1.067916651215621852593),
    30.0: (0.1204593966397366838887, -0.6607833325212035622648, 0.2412244552688268862153, 1.319222835067909511393),
    50.0: (0.106053469759168041476, -0.7504406102617341622762, 0.212231962714065277765, 1.499643556488665658368),
    104.0: (0.08832712791687261999865, -0.9009756975376109333243, 0.176688959547920188167, 1.801455921420414230933),
    200.0: (0.07501041684381093190574, -1.060901230510904138381, 0.1500318841741814785106, 2.121583672557109940205),
}

# (m2, dm2) on the negative axis
M2_REF = {
    0.0: (0.5041796761894834461476, 0.3675525969478613663409),
    -1.0: (0.2976409167350636123429, 0.112327832899691909346),
    -4.5: (0.1498045738048353187434, 0.01648504367477435232758),
    -5.0: (0.1421793029450321461591, 0.01411663910821309150311),
    -6.5: (0.1247812716092585936096, 0.009566586860744559140052),
    -9.0: (0.1060806646502628091227, 0.005885863078275961959616),
    -10.0: (0.100642752459598100045, 0.005027452749801975631355),
    -12.0: (0.09187985772598151023517, 0.003826258809608871611232),
    -15.0: (0.08218345829791444884447, 0.00273868923622010487384),
    -30.0: (0.0581148320435628570483, 0.0009685469115822389040732),
    -100.0: (0.03183098364480504688395, 0.0001591547690173431606831),
}


def _f64(values):
    """The longdouble arrays of one *_many call, rounded to float64."""
    return [np.asarray(v, dtype=float) for v in values]


def test_reference_values():
    """Within 1e-12 relative; below ASYM_RADIUS, where every value is one
    Taylor step from a marched checkpoint, within 1e-15 once rounded."""
    a = np.array(list(AIRY_REF))
    got = _f64(airy.eval_many(a))
    for i, (x, ref) in enumerate(AIRY_REF.items()):
        tol = 1e-15 if abs(x) < airy.ASYM_RADIUS else 1e-12
        for g, r in zip((v[i] for v in got), ref):
            assert abs(g / r - 1) < tol, (x, g, r)


def test_zero_point():
    ai, dai, bi, dbi = (float(v[0]) for v in airy.eval_many(0.0))
    assert ai == pytest.approx(0.3550280538878172, rel=1e-15)
    assert bi == pytest.approx(0.6149266274460007, rel=1e-15)
    assert dai == pytest.approx(-0.2588194037928068, rel=1e-15)
    assert dbi == pytest.approx(0.4482883573538264, rel=1e-15)
    # Bi(0) = sqrt(3) Ai(0), Bi'(0) = -sqrt(3) Ai'(0)
    assert bi == pytest.approx(np.sqrt(3) * ai, rel=1e-14)
    assert dbi == pytest.approx(-np.sqrt(3) * dai, rel=1e-14)


def test_wronskian_dense():
    rng = np.random.default_rng(20240817)
    a = np.sort(rng.uniform(-50.0, 20.0, 1000))
    ai, dai, bi, dbi = airy.eval_many(a)
    w = np.asarray((ai * dbi - dai * bi) * airy.PI_L, dtype=float)
    assert np.max(np.abs(w - 1.0)) < 1e-12
    # the checkpoint steps keep it to the rounding of 1 below ASYM_RADIUS
    assert np.max(np.abs(w[np.abs(a) < airy.ASYM_RADIUS] - 1.0)) < 1e-16


def test_sign_pattern_positive_axis():
    a = np.linspace(0.0, 104.0, 300)
    ai, dai, bi, dbi = airy.eval_many(a)
    assert np.all(ai > 0)
    assert np.all(dai[a > 0] < 0)
    assert np.all(bi > 0)
    assert np.all(dbi > 0)


def _scaled_quadruple(a):
    """(ai_s, dai_s, bi_s, dbi_s, zeta) as float64: the decaying pair from
    scaled_many, the Bi pair from eval_many scaled by the same exp(-zeta)."""
    ai_s, dai_s, zeta = airy.scaled_many(a)
    _, _, bi, dbi = airy.eval_many(a)
    em = np.exp(-zeta)
    return _f64((ai_s, dai_s, bi * em, dbi * em, zeta))


def test_scaled_values():
    a = np.array(list(SCALED_REF))
    *got, zeta = _scaled_quadruple(a)
    for i, (x, ref) in enumerate(SCALED_REF.items()):
        for g, r in zip((v[i] for v in got), ref):
            assert abs(g / r - 1) < 1e-12, (x, g, r)
        assert zeta[i] == pytest.approx(2.0 / 3.0 * x ** 1.5, rel=1e-14, abs=1e-300)


def test_scaled_invariants():
    ev = [float(v[0]) for v in airy.eval_many(0.0)]
    sc = [float(v[0]) for v in airy.scaled_many(0.0)]
    assert sc[:2] == ev[:2]
    assert sc[2] == 0.0
    # scaled Wronskian: the Bi pair is scaled by exp(-zeta), the Ai pair by
    # exp(zeta), so the exponentials cancel
    ai_s, dai_s, bi_s, dbi_s, _ = _scaled_quadruple(
        np.array([0.0, 3.3, 9.0, 42.0, 104.0, 500.0]))
    w = ai_s * dbi_s - dai_s * bi_s
    assert np.all(np.abs(w * np.pi - 1.0) < 1e-10)
    # log-derivative ratio approaches -sqrt(a)
    ai_s, dai_s, _ = _f64(airy.scaled_many(200.0))
    assert -dai_s[0] / ai_s[0] == pytest.approx(np.sqrt(200.0), rel=1e-3)
    with pytest.raises(ValueError):
        airy.scaled_many(-0.5)


def test_overflow_guard():
    # unscaled Bi(104) is still finite once rounded to float64
    _, _, bi, _ = _f64(airy.eval_many(104.0))
    assert np.isfinite(bi[0])


def test_modulus_reference():
    a = np.array(list(M2_REF))
    m2, dm2 = _f64(airy.modulus_many(a))
    for i, (x, ref) in enumerate(M2_REF.items()):
        assert abs(m2[i] / ref[0] - 1) < 1e-12, x
        assert dm2[i] == pytest.approx(ref[1], rel=1e-11)
    with pytest.raises(ValueError):
        airy.modulus_many(0.1)


def test_modulus_leading_asymptote():
    m2, _ = _f64(airy.modulus_many(-100.0))
    assert abs(m2[0] / (1.0 / (10 * np.pi)) - 1) < 1e-6


def test_modulus_derivative_consistency():
    h = 1e-4
    a = np.array([-0.7, -3.0, -7.7, -9.5, -24.0])
    f = [_f64(airy.modulus_many(a + k * h))[0] for k in (-2, -1, 1, 2)]
    fd = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
    _, dm2 = _f64(airy.modulus_many(a))
    for i in range(len(a)):
        assert dm2[i] == pytest.approx(fd[i], rel=1e-8), a[i]


def test_modulus_positive_and_band():
    a = -np.linspace(5.0, 60.0, 400)
    m2, _ = airy.modulus_many(a)
    m2 = np.asarray(m2, dtype=float)
    assert np.all(m2 > 0)
    # the scaled modulus approaches 1 from below, with first correction -5/(32|a|^3)
    v = m2 * np.pi * np.sqrt(-a)
    dev = 1.0 - v
    assert np.all(dev > 0)
    assert np.all(dev < 0.2 / np.abs(a) ** 3)
    assert np.all(dev > 0.1 / np.abs(a) ** 3)


def test_regime_overlap_windows():
    # the checkpoint route is compared with the Maclaurin series around
    # |a| = 4.5 and evaluated slightly beyond ASYM_RADIUS against the
    # asymptotic forms
    LD = airy.LD

    def rel(p, q):
        return max(float(np.max(np.abs(np.asarray(x / y - 1, dtype=float))))
                   for x, y in zip(p, q))

    win = np.linspace(4.3, 4.7, 11).astype(LD)
    assert rel(maclaurin_ref(win), airy._checkpoint_step(win)) < 1e-11
    win = -win
    assert rel(maclaurin_ref(win), airy._checkpoint_step(win)) < 1e-11
    win = np.linspace(8.8, 9.2, 11).astype(LD)
    s = airy._scaled_pos_ld(win)
    em = np.exp(-s[4])
    assert rel(airy._checkpoint_step(win), (s[0] * em, s[1] * em, s[2] / em, s[3] / em)) < 1e-11
    win = -win
    assert rel(airy._checkpoint_step(win), airy._asym_neg(win)) < 1e-11
    # modulus: smooth series vs direct squaring near its switch
    win = np.linspace(-9.4, -8.6, 11).astype(LD)
    m_series = airy._m2_series_ld(-win)[0]
    ai, dai, bi, dbi = airy.eval_many(win)
    m_direct = ai * ai + bi * bi
    assert float(np.max(np.abs(np.asarray(m_series / m_direct - 1, dtype=float)))) < 1e-11


def test_scaled_pair_agrees_with_eval_many():
    """Below ASYM_RADIUS scaled_many and eval_many both step from the Ai
    grid, the one scaling by exp(zeta) what the other does not; the two
    agree within 1e-12 relative on [0, 9)."""
    a = np.concatenate([np.linspace(0.0, 9.0, 3601)[:-1],
                        np.random.default_rng(5).uniform(0.0, 9.0, 2000)])
    ai_s, dai_s, zeta = airy.scaled_many(a)
    ai, dai, _, _ = airy.eval_many(a)
    em = np.exp(-zeta)
    for got, want in ((ai_s * em, ai), (dai_s * em, dai)):
        assert float(np.max(np.abs(got / want - 1))) < 1e-12


def _guard_points(n, seed):
    """n uniform points in (0, ASYM_RADIUS) on each side of 0, with 0, the
    checkpoint midpoints (the longest steps) and the last float below
    ASYM_RADIUS, as a longdouble array."""
    x = np.random.default_rng(seed).uniform(0.0, airy.ASYM_RADIUS, n)
    mid = np.arange(airy.CHECKPOINT_STEP / 2, airy.ASYM_RADIUS, airy.CHECKPOINT_STEP)
    x = np.concatenate([x, [0.0, np.nextafter(airy.ASYM_RADIUS, 0.0)], mid])
    return np.concatenate([x, -x]).astype(airy.LD)


def test_every_point_below_asym_radius_has_a_checkpoint_of_its_own_grid():
    """Each grid's checkpoint index of every |a| < ASYM_RADIUS, up to the
    last floats below it, lies inside that grid and within half a step of
    the point: a negative index would silently read the grid's far end."""
    g = airy._grids()
    a = _guard_points(100_000, 4)
    for fn in (0, 1):
        idx = np.rint((a - g["origin"][fn]) / g["step"][fn]).astype(int)
        assert idx.min() >= 0 and idx.max() < g["y"].shape[1]
        t0 = g["origin"][fn] + g["step"][fn] * idx
        assert float(np.max(np.abs(a - t0))) <= airy.CHECKPOINT_STEP / 2


def test_trimmed_sums_change_no_bit():
    """N_TAYLOR_QUERY is as short as the terms that move a bit: eval_many
    and the scaled Ai pair equal kernel_refs' longer checkpoint step bit for
    bit, on 2*10^5 points of each sign in |a| < ASYM_RADIUS and on 10^5
    points of the scaled pair's whole step range [0, 9)."""
    def same(got, want):
        return all(np.array_equal(g, w) for g, w in zip(got, want))

    a = _guard_points(200_000, 2)
    (ai, bi), (dai, dbi) = checkpoint_step_ref(a, np.array([[0], [1]]))
    assert same(airy.eval_many(a), (ai, dai, bi, dbi))
    a = np.abs(_guard_points(50_000, 3))
    ai, dai = checkpoint_step_ref(a, 0)
    ez = np.exp(airy.LD(2) / 3 * a * np.sqrt(a))
    assert same(airy.scaled_many(a)[:2], (ai * ez, dai * ez))
    assert airy.N_TAYLOR_QUERY < N_TAYLOR_REF


# regime seams and their neighbours, on both sides of each
_SEAMS = [0.0, airy.SERIES_RADIUS, airy.ASYM_RADIUS, 10.0]
_POINTS = st.one_of(
    st.sampled_from([s for x in _SEAMS for s in (x, np.nextafter(x, 0.0),
                                                 np.nextafter(x, np.inf))]
                    + [math.inf]),
    st.floats(0.0, 60.0))


def _bits_equal(many, one):
    return all(np.array_equal(m, o, equal_nan=True)
               and np.array_equal(np.signbit(m), np.signbit(o))
               for m, o in zip(many, one))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_POINTS, st.booleans(), st.booleans()),
                min_size=1, max_size=40))
def test_every_point_is_its_own_one_point_call(draws):
    """The kernels are elementwise: a point's value does not depend on the
    other points of its call, bit for bit.  The quadratures sample them on
    arbitrary node sets and rely on that; stacked rows and gathered
    checkpoint tables must not break it.  A NaN point gives NaN in every
    output row, and an infinite one its limits (see
    test_infinite_arguments_give_the_limits), without a warning, and either
    leaves the other points' bits alone."""
    x = np.array([math.nan if nan else v for v, _, nan in draws])
    a = np.where([neg for _, neg, _ in draws], -x, x)
    nan = np.isnan(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, arg in ((airy.eval_many, a), (airy.scaled_many, x),
                        (airy.modulus_many, -x)):
            many = fn(arg)
            assert all(np.all(np.isnan(m[nan])) for m in many), fn.__name__
            for i, v in enumerate(arg):
                assert _bits_equal((m[i:i + 1] for m in many), fn(v)), (fn.__name__, v)


def test_asymptotic_blocks_change_no_bit(monkeypatch):
    """The stacked asymptotic sums run on blocks of ASYM_BLOCK points: on a
    shuffled call that crosses several block boundaries, every kernel's
    values at |a| >= ASYM_RADIUS, where the modulus series turns over
    (|a| about 12.8) and where it does not, equal one-point calls bit for
    bit, and one call with the default block."""
    x = np.concatenate([np.linspace(airy.ASYM_RADIUS, 40.0, 61), [12.8, 60.0]])
    np.random.default_rng(6).shuffle(x)
    calls = ((airy.eval_many, np.concatenate([x, -x])), (airy.scaled_many, x),
             (airy.modulus_many, -x))
    whole = [fn(arg) for fn, arg in calls]
    monkeypatch.setattr(airy, "ASYM_BLOCK", 5)
    for (fn, arg), want in zip(calls, whole):
        many = fn(arg)
        assert _bits_equal(many, want), fn.__name__
        for i, v in enumerate(arg):
            assert _bits_equal((m[i:i + 1] for m in many), fn(v)), (fn.__name__, v)


@pytest.mark.parametrize("truncate", [False, True])
def test_stacked_sums_equal_the_loop_over_orders(truncate):
    """_sums adds each row's terms in order, one at a time, as a loop over
    the orders does (kernel_refs.sums_loop_ref): bit for bit on every
    asymptotic family over its range, and on random coefficients whose terms
    neither shrink fast nor share a sign, in three rows and in one, where a
    reordered sum (such as np.add.reduce's pairwise one over a one-row,
    one-point block) shows in the last bits; in many-point calls that span
    several blocks and in one-point calls."""
    rng = np.random.default_rng(8)
    zeta = airy.LD(2) / 3 * np.linspace(9.0, 40.0, 300).astype(airy.LD) ** 1.5
    cases = [(airy._POS_FAMILIES, 1 / zeta), (airy._NEG_FAMILIES, 1 / (zeta * zeta)),
             (airy._MODULUS_FAMILIES, (2 / (3 * zeta)) ** 2),
             (rng.standard_normal((3, 24)).astype(airy.LD),
              rng.uniform(0.6, 1.05, 700).astype(airy.LD)),
             (rng.standard_normal((1, 24)).astype(airy.LD),
              rng.uniform(0.6, 1.05, 300).astype(airy.LD))]
    for coef, y in cases:
        want = sums_loop_ref(coef, y, truncate)
        got = airy._sums(coef, y, truncate)
        assert np.array_equal(got, want)
        for i in range(0, y.size, 7):
            assert np.array_equal(airy._sums(coef, y[i:i + 1], truncate),
                                  want[:, i:i + 1]), (i, y[i])


def test_infinite_arguments_give_the_limits():
    """At +inf, Ai = Ai' = 0 and Bi = Bi' = +inf; at -inf, Ai = Bi = 0 and
    Ai', Bi', whose amplitude grows without limit, are NaN.  No warning is
    raised, and the values agree with scaled_many(inf), whose scaled Ai is
    0 and scaled Ai' (about -a^(1/4)/(2 sqrt(pi))) -inf, and with
    modulus_many(-inf)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ai, dai, bi, dbi = airy.eval_many(np.array([np.inf, -np.inf]))
        ai_s, dai_s, zeta = airy.scaled_many(np.inf)
        m2, dm2 = airy.modulus_many(-np.inf)
    assert ai.tolist() == [0.0, 0.0] and dai[0] == 0.0 and np.isnan(dai[1])
    assert bi.tolist()[0] == np.inf == dbi[0] and bi[1] == 0.0
    assert np.isnan(dbi[1])
    assert ai_s[0] == 0.0 and zeta[0] == np.inf and dai_s[0] == -np.inf
    assert m2[0] == ai[1] * ai[1] + bi[1] * bi[1] == 0.0


def _asym_terms(coef, y):
    """|coef[r, k] y^k| for every row r and power k."""
    return np.abs(coef * y ** np.arange(coef.shape[1], dtype=airy.LD))


def test_asymptotic_families_shrink_through_their_last_term():
    """_sums sums the U/V families with no truncation: at a =
    ASYM_RADIUS, where the terms shrink slowest, every one of them still
    shrinks through k = N_ASYM - 1.  The modulus families turn over before
    that, which is why _m2_series_ld keeps its per-element truncation."""
    a = airy.LD(airy.ASYM_RADIUS)
    zeta = airy.LD(2) / 3 * a * np.sqrt(a)
    assert airy._POS_FAMILIES.shape[1] == airy.N_ASYM
    assert 2 * airy._NEG_FAMILIES.shape[1] == airy.N_ASYM
    for terms in (_asym_terms(airy._POS_FAMILIES, 1 / zeta),
                  _asym_terms(airy._NEG_FAMILIES, 1 / (zeta * zeta))):
        assert np.all(terms[:, 1:] < terms[:, :-1])
    m2 = _asym_terms(airy._MODULUS_FAMILIES, 1 / (a * a * a))
    assert np.all(np.any(m2[:, 1:] >= m2[:, :-1], axis=1))


def test_ode_residual():
    # five-point second derivative of each function must reproduce y'' = a y
    rng = np.random.default_rng(11)
    a = np.sort(rng.uniform(-50.0, 20.0, 400))
    h = 1e-3
    grids = [airy.eval_many(a + k * h) for k in (-2, -1, 0, 1, 2)]
    for idx in (0, 2):  # ai then bi
        y = [np.asarray(g[idx], dtype=float) for g in grids]
        d2 = (-y[0] + 16 * y[1] - 30 * y[2] + 16 * y[3] - y[4]) / (12 * h * h)
        target = a * y[2]
        # local oscillation envelope keeps the relative test meaningful at zeros
        dy = np.asarray(grids[2][idx + 1], dtype=float)
        env = np.abs(a) * np.hypot(y[2], dy / np.sqrt(1.0 + np.abs(a)))
        assert np.max(np.abs(d2 - target) / env) < 1e-7


def test_extended_precision_required():
    with pytest.raises(ImportError, match="80-bit-or-wider"):
        airy._require_extended(np.finfo(np.float64))
    airy._require_extended(np.finfo(np.longdouble))
