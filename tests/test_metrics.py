"""Metric identities, golden-table loader integrity, and live benchmark
spot checks against the published comparison values."""

import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from uniwkb import cli
from uniwkb.metrics import (GOLDEN_ENV, METRIC_NAMES, GoldenDataError,
                            _gram_deviation, benchmark_row, benchmark_table,
                            check_cell, delta_e, delta_h_psi, discrepancy_d,
                            golden_path, level_metrics, load_golden,
                            overlap_metrics)
from uniwkb.potentials import make_builtin
from uniwkb.reference import exact_wavefunction
from uniwkb.spectral import assemble, solve_quantization

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


# ---- overlap metrics on a state compared against itself ----

def _self_approx(kind, params, n, breaks):
    """Exact state dressed with the sampler fields the overlap metrics use."""
    ex = exact_wavefunction(kind, params, n)
    return ex, SimpleNamespace(psi=ex.psi, dpsi=ex.dpsi, breaks=breaks)


def test_delta_psi_of_state_with_itself_is_tiny():
    ex, ap = _self_approx("harmonic", {"k": 0.5}, 0, (-13.0, -1.0, 1.0, 13.0))
    overlap, dpp = overlap_metrics(ex, ap)
    assert abs(1.0 - overlap) < 1e-9
    assert abs(dpp) < 1e-9


def test_delta_psi_flags_sign_misalignment():
    ex, ap = _self_approx("harmonic", {"k": 0.5}, 0, (-13.0, -1.0, 1.0, 13.0))
    flipped = SimpleNamespace(psi=lambda q: -ap.psi(q), dpsi=ap.dpsi,
                              breaks=ap.breaks)
    with pytest.raises(ValueError, match="sign alignment"):
        overlap_metrics(ex, flipped)
    with pytest.raises(ValueError, match="sign alignment"):
        level_metrics(ex, flipped)


def test_metrics_pass_samples_each_sampler_once_per_node():
    pot = make_builtin("harmonic", {"k": 0.5})
    sol = assemble(pot, solve_quantization(pot, 1), 1)
    ex = exact_wavefunction("harmonic", pot.params, 1)
    calls = {"psi": 0, "dpsi": 0, "h_psi": 0}

    def counted(name):
        fn = getattr(sol, name)

        def wrapper(q):
            calls[name] += 1
            return fn(q)
        return wrapper

    counted_sol = dataclasses.replace(sol, psi=counted("psi"),
                                      dpsi=counted("dpsi"),
                                      h_psi=counted("h_psi"))
    metrics = level_metrics(ex, counted_sol)
    assert set(metrics) == set(METRIC_NAMES)
    assert calls["dpsi"] <= calls["psi"]
    # one call per tree level across all break intervals
    assert max(calls.values()) <= 6


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
    ok, _, _ = check_cell("delta_psi", 2.16e-4 * 1.035, 2.16e-4, loose=True)
    assert ok
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
