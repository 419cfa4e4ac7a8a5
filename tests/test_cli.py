"""End-to-end command-line behavior: parsing, exit codes, document shape,
determinism, verify report, and grid dumps."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import uniwkb
from uniwkb.cli import (ConfigError, DumpGrid, build_parser, cmd_dump,
                        cmd_solve, cmd_verify, config_from_args, main,
                        render_document, _parse_levels, _parse_params,
                        _parse_range)
from uniwkb.metrics import GOLDEN_ENV, METRIC_NAMES, benchmark_row


def make_config(argv):
    return config_from_args(build_parser().parse_args(argv))


SOLVE_H01 = ["solve", "--potential", "harmonic", "--param", "k=0.5",
             "--levels", "0..1"]


# ---- argument parsing ----

def test_parse_levels_forms():
    assert _parse_levels("0..3") == (0, 1, 2, 3)
    assert _parse_levels("0,2,5") == (0, 2, 5)
    assert _parse_levels("2..2") == (2,)
    assert _parse_levels("1,0..1") == (0, 1)
    for bad in ("3..1", "x", "-1", "", "0..b"):
        with pytest.raises(ConfigError):
            _parse_levels(bad)


def test_parse_params_forms():
    assert _parse_params(["k=0.5", "alpha=2"]) == {"k": 0.5, "alpha": 2.0}
    for bad in (["k"], ["k=abc"], ["=1"], ["k=nan"], ["k=inf"], ["k=-inf"]):
        with pytest.raises(ConfigError):
            _parse_params(bad)


def test_parse_range_forms():
    assert _parse_range("-5:5") == (-5.0, 5.0)
    for bad in ("5:-5", "abc", "1:abc", "3", "-inf:0", "0:1e400", "nan:1",
                "0:nan", "-1e308:1e308"):
        with pytest.raises(ConfigError):
            _parse_range(bad)


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(["solve", "--potential", "expr", "--levels", "0"])
    with pytest.raises(ConfigError):
        make_config(["solve", "--potential", "harmonic", "--expr", "q^2",
                     "--levels", "0"])
    with pytest.raises(ConfigError):
        make_config(SOLVE_H01 + ["--hbar", "0"])
    with pytest.raises(ConfigError):
        make_config(SOLVE_H01 + ["--rel-tol", "2.0"])
    for flag, value in (("--hbar", "inf"), ("--hbar", "nan"), ("--mass", "inf")):
        with pytest.raises(ConfigError, match=flag):
            make_config(SOLVE_H01 + [flag, value])
    cfg = make_config(["solve", "--potential", "poschl-teller", "--levels", "0"])
    assert cfg.kind == "poschl_teller"


@pytest.mark.parametrize("argv,flag", [
    (SOLVE_H01 + ["--hbar", "inf"], "--hbar"),
    (SOLVE_H01 + ["--param", "k=nan"], "--param"),
    (["solve", "--potential", "morse", "--param", "gamma=nan"], "--param"),
    (["dump", "--potential", "harmonic", "--range=-inf:0"], "--range"),
    (["dump", "--potential", "harmonic", "--range=0:1e400"], "--range"),
])
def test_non_finite_input_exits_two_naming_the_flag(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and flag in err


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["solve"])
    assert info.value.code == 2


def test_rel_tol_bound_and_solve_only(capsys):
    # the CLI bound is the quadrature's own floor, so one message covers it
    assert main(SOLVE_H01 + ["--rel-tol", "5e-14"]) == 2
    assert "[1e-13, 1)" in capsys.readouterr().err
    # dump computes no comparison quadratures, so it has no --rel-tol
    with pytest.raises(SystemExit) as info:
        main(["dump", "--potential", "harmonic", "--rel-tol", "1e-10"])
    assert info.value.code == 2


# ---- exit codes through main ----

def test_unbound_level_exits_three(capsys):
    code = main(["solve", "--potential", "morse", "--param", "g=4.5",
                 "--levels", "9"])
    assert code == 3
    assert "supports 4 levels" in capsys.readouterr().err


def test_overflowing_expression_exits_four(capsys):
    """exp(q^2) overflows in the search window: a solver failure, not a
    misread well shape, and no floating-point warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--potential", "expr", "--expr", "exp(q^2)",
                     "--levels", "0"])
    assert code == 4
    err = capsys.readouterr().err
    assert "solver failure" in err and "overflow" in err


def test_unknown_parameter_exits_two(capsys):
    code = main(SOLVE_H01[:3] + ["--param", "bogus=1", "--levels", "0"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_expression_syntax_error_exits_two(capsys):
    code = main(["solve", "--potential", "expr", "--expr", "q^^2",
                 "--levels", "0"])
    assert code == 2
    assert "column" in capsys.readouterr().err


def test_corrupted_golden_exits_two(tmp_path, monkeypatch, capsys):
    from uniwkb.metrics import golden_path
    raw = open(golden_path(), "rb").read()
    bad = tmp_path / "golden.csv"
    bad.write_bytes(raw.replace(b"5.79e-2", b"5.78e-2"))
    monkeypatch.setenv(GOLDEN_ENV, str(bad))
    code = main(["verify"])
    assert code == 2
    assert "checksum" in capsys.readouterr().err


def test_failed_run_leaves_no_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["solve", "--potential", "morse", "--levels", "4",
                 "--out", str(target)])
    assert code == 3
    assert not target.exists()
    target.write_text("sentinel")
    code = main(["solve", "--potential", "morse", "--levels", "4",
                 "--out", str(target)])
    assert code == 3
    assert target.read_text() == "sentinel"
    capsys.readouterr()


# ---- solve document ----

def test_solve_document_shape_and_energy():
    doc = cmd_solve(make_config(SOLVE_H01))
    assert doc["provenance"]["version"] == "uniwkb/1"
    assert [rec["n"] for rec in doc["records"]] == [0, 1]
    rec0 = doc["records"][0]
    assert abs(rec0["e_bar"] - 0.50226) < 1e-5
    assert rec0["e_exact"] == 0.5
    assert set(rec0["metrics"]) == {"delta_psi", "delta_psi_prime",
                                    "delta_h_psi", "d", "delta_e"}
    e_sps = [rec["e_sp"] for rec in doc["records"]]
    assert e_sps == sorted(e_sps)


@pytest.mark.parametrize("argv,kind,params,n", [
    (["--potential", "harmonic", "--param", "k=0.5", "--levels", "1"],
     "harmonic", {"k": 0.5}, 1),
    (["--potential", "morse", "--param", "gamma=4.5", "--param", "alpha=1",
      "--levels", "2"], "morse", {"gamma": 4.5, "alpha": 1.0}, 2),
])
def test_solve_metrics_equal_benchmark_row(argv, kind, params, n):
    # `solve` and `verify` take their metrics from the same code path
    rec = cmd_solve(make_config(["solve"] + argv))["records"][0]
    row = benchmark_row(kind, params, n)
    assert rec["metrics"] == {m: getattr(row, m) for m in METRIC_NAMES}


def test_solve_expression_has_no_exact_fields():
    doc = cmd_solve(make_config(["solve", "--potential", "expr", "--expr",
                                 "q^4/4", "--levels", "0"]))
    rec = doc["records"][0]
    assert "e_exact" not in rec and "metrics" not in rec
    assert rec["e_bar"] > rec["e_sp"] > 0.0
    assert doc["config"]["potential"]["expr"] == "q^4/4"


def test_solve_rel_tol_is_echoed():
    cfg = make_config(["solve", "--potential", "harmonic", "--levels", "0",
                       "--rel-tol", "1e-8"])
    doc = cmd_solve(cfg)
    assert doc["provenance"]["tolerances"]["metric_rel_tol"] == 1e-8


def test_solve_documents_are_deterministic():
    argv = ["solve", "--potential", "morse", "--levels", "0"]
    docs = [cmd_solve(make_config(argv)) for _ in range(2)]
    for doc in docs:
        doc["provenance"].pop("timings")
    texts = [render_document(doc, "json") for doc in docs]
    assert texts[0] == texts[1]


def test_solve_csv_rendering():
    doc = cmd_solve(make_config(["solve", "--potential", "expr", "--expr",
                                 "q^4/4", "--levels", "0", "--format", "csv"]))
    rows = list(csv.reader(io.StringIO(render_document(doc, "csv"))))
    assert rows[0] == ["n", "e_sp", "e_bar", "e_exact", "delta_psi",
                       "delta_psi_prime", "delta_h_psi", "d", "delta_e"]
    assert len(rows) == 2
    assert rows[1][3] == "" and rows[1][4] == ""
    assert float(rows[1][2]) == doc["records"][0]["e_bar"]


def test_solve_writes_output_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code = main(SOLVE_H01[:3] + ["--levels", "0", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["records"][0]["n"] == 0
    assert capsys.readouterr().out == ""


# ---- verify ----

def test_verify_passes_all_cells(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "60/60 cells within bands" in out
    assert "FAIL" not in out
    assert out.count(" pass") == 60


# ---- dump ----

def test_dump_grid_regions_and_exact_column():
    cfg = make_config(["dump", "--potential", "harmonic", "--param", "k=0.5",
                       "--levels", "0"])
    text = cmd_dump(cfg, DumpGrid(1001, -5.0, 5.0))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["q", "a", "region", "psi_ap", "dpsi_ap", "psi_ex",
                       "h_psi"]
    body = rows[1:]
    assert len(body) == 1001
    regions = [r[2] for r in body]
    assert regions[0] == "left_forbidden" and regions[-1] == "right_forbidden"
    assert "allowed" in regions
    # contiguous region blocks in left-to-right order
    order = [regions[0]]
    for r in regions[1:]:
        if r != order[-1]:
            order.append(r)
    assert order == ["left_forbidden", "allowed", "right_forbidden"]
    # forbidden rows have positive a, allowed rows negative (or stationary inf)
    for r in body:
        a = float(r[1])
        if r[2] == "allowed":
            assert a <= 0.0 or math.isinf(a)
        else:
            assert a > 0.0
    diffs = [abs(float(r[3]) - float(r[5])) for r in body]
    scale = math.sqrt(2.0 * 2.16e-4)
    assert 0.2 * scale < max(diffs) < 3.0 * scale


def test_dump_airy_argument_vanishes_at_turning_points():
    from uniwkb.potentials import find_turning_points, make_builtin
    from uniwkb.spectral import solve_quantization
    pot = make_builtin("harmonic", {"k": 0.5})
    e_sp = solve_quantization(pot, 0)
    tp = find_turning_points(pot, e_sp, 1.0)
    cfg = make_config(["dump", "--potential", "harmonic", "--param", "k=0.5",
                       "--levels", "0"])
    text = cmd_dump(cfg, DumpGrid(11, tp.q_minus, tp.q_plus))
    body = list(csv.reader(io.StringIO(text)))[1:]
    assert abs(float(body[0][1])) < 1e-8
    assert abs(float(body[-1][1])) < 1e-8
    assert body[0][2] == "allowed" and body[-1][2] == "allowed"


def test_dump_expression_leaves_exact_blank():
    cfg = make_config(["dump", "--potential", "expr", "--expr", "q^4/4",
                       "--levels", "0"])
    body = list(csv.reader(io.StringIO(cmd_dump(cfg, DumpGrid(50, -2.0, 2.0)))))[1:]
    assert all(r[5] == "" for r in body)
    assert all(r[3] != "" for r in body)


def test_dump_rejects_multiple_levels():
    cfg = make_config(["dump", "--potential", "harmonic", "--levels", "0..2"])
    with pytest.raises(ConfigError):
        cmd_dump(cfg, DumpGrid(11, -1.0, 1.0))


# ---- module entry point ----

def test_module_invocation_help():
    # the child imports the same package as this session, installed or not
    src = os.path.dirname(os.path.dirname(uniwkb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "uniwkb", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "verify" in proc.stdout
