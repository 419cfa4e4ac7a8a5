"""Metric identities, golden-table loader integrity, and live benchmark
spot checks against the published comparison values."""

import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from uniwkb import cli
from uniwkb.metrics import (BENCH_LEVELS, BENCH_PARAMS, GOLDEN_ENV,
                            METRIC_NAMES, METRIC_SPEC, GoldenDataError,
                            _gram_deviation, benchmark_row, benchmark_table,
                            check_cell, delta_e, delta_h_psi, discrepancy_d,
                            golden_path, level_metrics, load_golden)
from uniwkb.potentials import make_builtin
from uniwkb.reference import exact_energy, exact_wavefunction, numerov_solve
from uniwkb.spectral import assemble, expectation_h2, solve_quantization

_ROWS = {}


def get_rows():
    if not _ROWS:
        for row in benchmark_table():
            _ROWS[(row.potential, row.n)] = row
    return _ROWS


# ---- scalar metric identities ----

def gram(f1, f2):
    """Gram entries (<f1|f1>, <f2|f2>, <f1|f2>, <f2|f1>) of two sample vectors."""
    return (float(np.dot(f1, f1)), float(np.dot(f2, f2)),
            float(np.dot(f1, f2)), float(np.dot(f2, f1)))


def test_gram_deviation_identical_inputs_is_exactly_zero():
    f = np.linspace(-1.0, 2.0, 40) ** 3
    assert _gram_deviation(*gram(f, f)) == 0.0


def test_gram_deviation_orthogonal_equal_norm_is_one():
    f1 = np.array([1.0, 0.0, 2.0, 0.0])
    f2 = np.array([0.0, 1.0, 0.0, -2.0])
    assert _gram_deviation(*gram(f1, f2)) == 1.0


def test_gram_deviation_doubled_input_is_one_fifth():
    f = np.sin(np.linspace(0.0, 3.0, 57))
    assert abs(_gram_deviation(*gram(f, 2.0 * f)) - 0.2) < 1e-15


def test_gram_deviation_symmetry_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f1 = rng.standard_normal(33)
        f2 = rng.standard_normal(33)
        assert _gram_deviation(*gram(f1, f2)) == _gram_deviation(*gram(f2, f1))


def test_gram_deviation_zero_norm_raises():
    with pytest.raises(ValueError):
        _gram_deviation(*gram(np.zeros(5), np.ones(5)))


def test_delta_h_psi_perfect_approximant_is_zero():
    assert delta_h_psi(2.5, 1.0, 2.5 ** 2) == 0.0


def test_discrepancy_d_eigenstate_is_zero():
    assert discrepancy_d(-1.7, (-1.7) ** 2) == 0.0


def test_delta_e_trivial_and_zero_division():
    assert delta_e(3.25, 3.25) == 0.0
    with pytest.raises(ZeroDivisionError):
        delta_e(1.0, 0.0)


# ---- metrics of a state compared against itself ----

def _self_approx(kind, params, n, breaks):
    """Exact state dressed with the fields the metrics pass uses: its own
    state (H psi = E psi) and its energy as e_bar."""
    ex = exact_wavefunction(make_builtin(kind, params), n)
    return ex, SimpleNamespace(
        state=lambda q: (ex.psi(q), ex.dpsi(q), ex.energy * ex.psi(q)),
        e_bar=ex.energy, breaks=breaks)


def test_delta_psi_of_state_with_itself_is_tiny():
    ex, ap = _self_approx("harmonic", {"k": 0.5}, 0, (-13.0, -1.0, 1.0, 13.0))
    metrics = level_metrics(ex, ap)
    assert abs(metrics["delta_psi"]) < 1e-9
    assert abs(metrics["delta_psi_prime"]) < 1e-9
    assert abs(metrics["delta_h_psi"]) < 1e-9
    # the residual row (H - e_bar) psi is exactly zero at every node
    assert metrics["d"] == 0.0 and metrics["delta_e"] == 0.0


def test_delta_psi_flags_sign_misalignment():
    ex, ap = _self_approx("harmonic", {"k": 0.5}, 0, (-13.0, -1.0, 1.0, 13.0))

    def flipped_state(q):
        psi, dpsi, h_psi = ap.state(q)
        return -psi, dpsi, -h_psi

    flipped = SimpleNamespace(state=flipped_state, e_bar=ap.e_bar,
                              breaks=ap.breaks)
    with pytest.raises(ValueError, match="sign alignment"):
        level_metrics(ex, flipped)


def test_metrics_pass_samples_each_sampler_once_per_node():
    pot = make_builtin("harmonic", {"k": 0.5})
    sol = assemble(pot, solve_quantization(pot, 1), 1)
    ex = exact_wavefunction(pot, 1)
    calls = {"psi": 0, "dpsi": 0, "h_psi": 0, "state": 0}

    def counted(name):
        fn = getattr(sol, name)

        def wrapper(q):
            calls[name] += 1
            return fn(q)
        return wrapper

    counted_sol = dataclasses.replace(
        sol, **{name: counted(name) for name in calls})
    metrics = level_metrics(ex, counted_sol)
    assert set(metrics) == set(METRIC_NAMES)
    # one call per trial degree across all break intervals, and every panel
    # converges at the first: one state call, which gives psi, dpsi and
    # h_psi, and no sampler call beside it
    assert calls == {"psi": 0, "dpsi": 0, "h_psi": 0, "state": 1}


@pytest.mark.parametrize("kind, params", BENCH_PARAMS)
def test_level_metrics_h2_matches_expectation_h2(kind, params):
    """<H^2> of the one metrics pass, recovered from D, agrees with the
    separate residual quadrature of `expectation_h2` within 1e-10
    relative, on every golden level."""
    pot = make_builtin(kind, params)
    for n in BENCH_LEVELS:
        sol = assemble(pot, solve_quantization(pot, n), n)
        d = level_metrics(exact_wavefunction(pot, n), sol)["d"]
        h2 = sol.e_bar ** 2 * (1.0 + d) / (1.0 - d)
        want = expectation_h2(sol, METRIC_SPEC)
        assert abs(h2 / want - 1.0) <= 1e-10, (kind, n, h2, want)


# ---- golden table loader ----

def test_golden_table_loads_all_cells():
    table = load_golden()
    assert len(table) == 60
    assert table[("harmonic", 0, "delta_psi")] == 2.16e-4
    assert table[("morse", 3, "delta_e")] == -1.59e-4
    assert table[("poschl_teller", 1, "delta_psi_prime")] == 2.10e-4
    for (kind, n, metric), value in table.items():
        assert metric in METRIC_NAMES
        assert 0 <= n <= 3
        if metric == "delta_e":
            assert (value > 0) == (kind == "harmonic")
        else:
            assert value > 0


def test_golden_checksum_catches_corruption(tmp_path, monkeypatch):
    raw = open(golden_path(), "rb").read()
    bad = tmp_path / "golden_bad.csv"
    bad.write_bytes(raw.replace(b"2.16e-4", b"2.17e-4", 1))
    with pytest.raises(GoldenDataError, match="checksum"):
        load_golden(str(bad))
    monkeypatch.setenv(GOLDEN_ENV, str(bad))
    assert golden_path() == str(bad)
    with pytest.raises(GoldenDataError):
        load_golden()


def test_golden_zero_value_rejected(tmp_path, monkeypatch, capsys):
    """check_cell's band is relative, so a zero golden value is corrupt data
    even under a valid checksum: verify exits 2 before computing a cell."""
    raw = open(golden_path(), "rb").read()
    _, _, body = raw.partition(b"\n")
    body = body.replace(b"2.16e-4", b"0.0", 1)
    zero = tmp_path / "golden_zero.csv"
    zero.write_bytes(b"# sha256=" + hashlib.sha256(body).hexdigest().encode()
                     + b"\n" + body)
    with pytest.raises(GoldenDataError, match="zero or non-finite"):
        load_golden(str(zero))
    monkeypatch.setenv(GOLDEN_ENV, str(zero))
    monkeypatch.setattr(cli, "benchmark_table",
                        lambda: pytest.fail("cells computed before the golden check"))
    assert cli.main(["verify"]) == 2
    assert "zero or non-finite" in capsys.readouterr().err


def test_golden_missing_checksum_line_rejected(tmp_path):
    stray = tmp_path / "no_header.csv"
    stray.write_bytes(b"potential,n,metric,value\nharmonic,0,delta_psi,2.16e-4\n")
    with pytest.raises(GoldenDataError, match="checksum line"):
        load_golden(str(stray))


def test_golden_wrong_entry_count_rejected(tmp_path):
    raw = open(golden_path(), "rb").read()
    _, _, body = raw.partition(b"\n")
    lines = body.splitlines(keepends=True)
    trimmed = b"".join(lines[:-1])
    short = tmp_path / "short.csv"
    short.write_bytes(b"# sha256=" + hashlib.sha256(trimmed).hexdigest().encode()
                      + b"\n" + trimmed)
    with pytest.raises(GoldenDataError, match="expected 60"):
        load_golden(str(short))


def test_golden_missing_file_rejected(tmp_path):
    with pytest.raises(GoldenDataError):
        load_golden(str(tmp_path / "absent.csv"))


# ---- band checker ----

def test_check_cell_banding():
    ok, _, band = check_cell("delta_psi", 2.16e-4 * 1.015, 2.16e-4)
    assert ok and band == 0.02
    ok, _, _ = check_cell("delta_psi", 2.16e-4 * 1.025, 2.16e-4)
    assert not ok
    ok, _, band = check_cell("d", 7.31e-7 * 1.08, 7.31e-7)
    assert ok and band == 0.10
    ok, _, _ = check_cell("delta_e", -1.45e-3, 1.45e-3)
    assert not ok


# ---- live benchmark spot checks ----

def _cell_ok(kind, n, metric, golden_value):
    row = get_rows()[(kind, n)]
    ok, rel, band = check_cell(metric, getattr(row, metric), golden_value)
    assert ok, "%s n=%d %s off by %.3f%% (band %.0f%%)" % (
        kind, n, metric, 100 * rel, 100 * band)


def test_benchmark_delta_psi_examples():
    _cell_ok("harmonic", 0, "delta_psi", 2.16e-4)
    _cell_ok("morse", 3, "delta_psi", 1.77e-5)


def test_benchmark_delta_psi_prime_examples():
    _cell_ok("harmonic", 0, "delta_psi_prime", 4.60e-3)
    _cell_ok("poschl_teller", 2, "delta_psi_prime", 6.17e-5)


def test_benchmark_delta_h_psi_examples():
    _cell_ok("harmonic", 0, "delta_h_psi", 5.79e-2)
    _cell_ok("morse", 1, "delta_h_psi", 2.45e-4)


def test_benchmark_discrepancy_examples():
    _cell_ok("harmonic", 2, "d", 3.78e-6)
    _cell_ok("poschl_teller", 0, "d", 5.70e-3)


def test_benchmark_delta_e_examples():
    _cell_ok("harmonic", 0, "delta_e", 4.52e-3)
    _cell_ok("morse", 0, "delta_e", -1.45e-3)


def test_benchmark_full_rows_match_examples():
    _cell_ok("harmonic", 3, "delta_psi", 1.50e-6)
    _cell_ok("harmonic", 3, "delta_psi_prime", 3.10e-6)
    _cell_ok("harmonic", 3, "delta_h_psi", 4.12e-6)
    _cell_ok("harmonic", 3, "d", 7.31e-7)
    _cell_ok("harmonic", 3, "delta_e", 1.89e-6)
    _cell_ok("poschl_teller", 1, "delta_psi", 2.91e-5)
    _cell_ok("poschl_teller", 1, "delta_psi_prime", 2.10e-4)
    _cell_ok("poschl_teller", 1, "delta_h_psi", 1.65e-4)
    _cell_ok("poschl_teller", 1, "d", 2.97e-4)
    _cell_ok("poschl_teller", 1, "delta_e", -1.62e-4)


# benchmark_table()'s 60 values and each cell's e_sp and e_bar, to the bit.
# A change that means to move them updates these pins and says why.
GOLDEN_ROWS_BITS = {
    ("harmonic", 0): ("0x1.c4b099067d000p-13", "0x1.2d9b6e1f9c600p-8", "0x1.da978c4a01b81p-5",
                      "0x1.b41f3b34a75d2p-5", "0x1.2801962654400p-8"),
    ("harmonic", 1): ("0x1.092d4338c0000p-16", "0x1.2a917fd174000p-14", "0x1.16f05530bd125p-13",
                      "0x1.fe9b278ffd761p-15", "0x1.d896eea938000p-15"),
    ("harmonic", 2): ("0x1.032aa75000000p-18", "0x1.5f8e0d7d50000p-17", "0x1.f17e619df1208p-17",
                      "0x1.01ca1d0ba3ae0p-18", "0x1.de0928b080000p-18"),
    ("harmonic", 3): ("0x1.93b87f4200000p-20", "0x1.9fbf5b6880000p-19", "0x1.13e42ffa80d20p-18",
                      "0x1.81a84d6f2f7fcp-21", "0x1.fb047e4d00000p-20"),
    ("morse", 0): ("0x1.2149f4ee8e000p-12", "0x1.87d093b00c900p-8", "0x1.2ced1c3358caap-8",
                   "0x1.7a49fc4f68488p-8", "-0x1.7d318b6f71e00p-10"),
    ("morse", 1): ("0x1.9fa32ed888000p-15", "0x1.eb2c25fe5a000p-13", "0x1.010ca4d0ad348p-12",
                   "0x1.7533507fe7fa2p-12", "-0x1.502a0adea9000p-13"),
    ("morse", 2): ("0x1.7ac7604b58000p-16", "0x1.58ae8d3bcc000p-14", "0x1.86798f0b98bc9p-12",
                   "0x1.d8a51e222ed3cp-12", "-0x1.a75225dd5e000p-14"),
    ("morse", 3): ("0x1.29f6771898000p-16", "0x1.0d95d285c4000p-14", "0x1.338126defd099p-9",
                   "0x1.45fd42ae038d8p-9", "-0x1.4ce4135c17000p-13"),
    ("poschl_teller", 0): ("0x1.e3fecb8347000p-13", "0x1.b05a645c10c00p-8",
                           "0x1.2642c53d28563p-8", "0x1.759db11b0f63bp-8",
                           "-0x1.79665ac6c8800p-10"),
    ("poschl_teller", 1): ("0x1.e8eaa429a8000p-16", "0x1.b82b85d6fd000p-13",
                           "0x1.5761bba58a9a7p-13", "0x1.37555b8eeeed1p-12",
                           "-0x1.545d23aa80000p-13"),
    ("poschl_teller", 2): ("0x1.4c2ca1d980000p-16", "0x1.02b3dbe218000p-14",
                           "0x1.ef6e46463803ep-13", "0x1.4d6172887972fp-12",
                           "-0x1.a9aa4671e4000p-14"),
    ("poschl_teller", 3): ("0x1.b65eda97b8000p-15", "0x1.9b16e25fec000p-15",
                           "0x1.ff217a5e68570p-10", "0x1.0c2274685352fp-9",
                           "-0x1.367859aad1000p-13"),
}
GOLDEN_ENERGY_BITS = {   # (e_sp, e_bar)
    ("harmonic", 0): ("0x1.05a91d906cd5cp-1", "0x1.0128019626544p-1"),
    ("harmonic", 1): ("0x1.810e68365ce9bp+0", "0x1.800589c4cbfbap+0"),
    ("harmonic", 2): ("0x1.404de5638def3p+1", "0x1.40009562dcb73p+1"),
    ("harmonic", 3): ("0x1.c034d836643a2p+1", "0x1.c00037747dd06p+1"),
    ("morse", 0): ("-0x1.fd5ffe0721bdbp+2", "-0x1.ff41673a48471p+2"),
    ("morse", 1): ("-0x1.1f935765d0421p+2", "-0x1.1ff42e859e2c1p+2"),
    ("morse", 2): ("-0x1.003834ed4168fp+1", "-0x1.fff2c56ed1151p+0"),
    ("morse", 3): ("-0x1.02744add5d883p-1", "-0x1.ffeb31beca3e9p-2"),
    ("poschl_teller", 0): ("-0x1.f6a86372c0f82p+2", "-0x1.ff434cd29c9bcp+2"),
    ("poschl_teller", 1): ("-0x1.1b41d98e06da8p+2", "-0x1.1ff408b9bf018p+2"),
    ("poschl_teller", 2): ("-0x1.f74a430830d71p+0", "-0x1.fff2b2adcc70ep+0"),
    ("poschl_teller", 3): ("-0x1.fadb1e208593fp-2", "-0x1.ffec987a6552fp-2"),
}


def test_benchmark_table_bit_for_bit():
    """Every golden-table value and each cell's e_sp and e_bar equal their
    pins to the bit, so a change meant to be exact is checked as one."""
    rows = get_rows()
    assert sorted(rows) == sorted(GOLDEN_ROWS_BITS)
    for key, pins in GOLDEN_ROWS_BITS.items():
        got = tuple(getattr(rows[key], m).hex() for m in METRIC_NAMES)
        assert got == pins, key
    for kind, params in BENCH_PARAMS:
        pot = make_builtin(kind, params)
        for n in BENCH_LEVELS:
            e_sp = solve_quantization(pot, n)
            got = (e_sp.hex(), assemble(pot, e_sp, n).e_bar.hex())
            assert got == GOLDEN_ENERGY_BITS[(kind, n)], (kind, n)


def test_row_values_lie_in_range():
    for row in get_rows().values():
        assert 0.0 <= row.delta_psi <= 1.0
        assert 0.0 <= row.delta_psi_prime <= 1.0
        assert 0.0 <= row.delta_h_psi <= 1.0
        assert 0.0 <= row.d < 1.0


def test_delta_e_sign_pattern():
    for (kind, _), row in get_rows().items():
        if kind == "harmonic":
            assert row.delta_e > 0.0
        else:
            assert row.delta_e < 0.0


def test_metrics_invariant_under_unit_rescaling():
    # same dimensionless well (gamma fixed), different hbar/mass/length scale
    base = get_rows()[("morse", 1)]
    scaled = benchmark_row("morse", {"gamma": 4.5, "alpha": 2.0}, 1,
                           hbar=0.7, mass=3.0)
    for metric in METRIC_NAMES:
        assert abs(getattr(scaled, metric) - getattr(base, metric)) < 1e-6


def test_every_solver_reads_the_units_of_the_potential():
    # Morse gamma = 4.5 built at hbar = 2: the quantizer, the assembly, the
    # Numerov oracle and the exact state all solve the problem the
    # potential states, whose ground level is -hbar^2 (gamma - 1/2)^2 / 2
    pot = make_builtin("morse", {"gamma": 4.5}, hbar=2.0)
    e_exact = exact_energy("morse", pot.params, 0, hbar=2.0)
    assert e_exact == -32.0
    # in units of hbar^2 alpha^2 / 2m the problem is the hbar = 1 one
    e_unit = solve_quantization(make_builtin("morse", {"gamma": 4.5}), 0)
    e_sp = solve_quantization(pot, 0)
    assert abs(e_sp / e_exact - e_unit / -8.0) < 1e-9
    sol = assemble(pot, e_sp, 0)
    assert (sol.hbar, sol.mass) == (2.0, 1.0)
    row = benchmark_row("morse", {"gamma": 4.5}, 0, hbar=2.0)
    assert delta_e(sol.e_bar, e_exact) == row.delta_e
    assert abs(row.delta_e) < 2e-3
    assert abs(numerov_solve(pot, 0) / e_exact - 1.0) < 1e-8
    ex = exact_wavefunction(pot, 0)
    assert ex.energy == e_exact
    assert level_metrics(ex, sol) == {m: getattr(row, m) for m in METRIC_NAMES}
    # H psi = E psi with H = -(hbar^2/2m) d^2/dq^2 + V
    win = np.linspace(sol.turning.q_minus - 0.5, sol.turning.q_plus + 0.5, 3001)
    h = 1e-3
    d2 = (-ex.psi(win + 2 * h) + 16.0 * ex.psi(win + h) - 30.0 * ex.psi(win)
          + 16.0 * ex.psi(win - h) - ex.psi(win - 2 * h)) / (12.0 * h * h)
    hpsi = -2.0 * d2 + pot.eval(win)[0] * ex.psi(win)
    num = math.sqrt(np.trapezoid((hpsi - e_exact * ex.psi(win)) ** 2, win))
    den = abs(e_exact) * math.sqrt(np.trapezoid(ex.psi(win) ** 2, win))
    assert num / den < 1e-7
