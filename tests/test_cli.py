"""End-to-end command-line behavior: parsing, exit codes, document shape,
determinism, verify report, and grid dumps."""

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import uniwkb
from uniwkb import cli, spectral
from uniwkb.cli import (MAX_GRID, MAX_LEVELS, ConfigError, DumpGrid,
                        build_parser, cmd_dump, cmd_solve, cmd_verify,
                        config_from_args, main, render_document,
                        _parse_levels, _parse_params, _parse_range)
from uniwkb.metrics import GOLDEN_ENV, METRIC_NAMES, benchmark_row
from uniwkb.potentials import parse_potential
from uniwkb.quadrature import QuadratureError
from uniwkb.reference import NumerovError, numerov_solve


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
        make_config(SOLVE_H01 + ["--rel-tol", "2.0"])
    cfg = make_config(["solve", "--potential", "poschl-teller", "--levels", "0"])
    assert cfg.kind == "poschl_teller"


@pytest.mark.parametrize("argv,flag", [
    # the units are checked once, by the potential's constructor
    (SOLVE_H01 + ["--hbar", "inf"], "hbar"),
    (SOLVE_H01 + ["--param", "k=nan"], "--param"),
    (["solve", "--potential", "morse", "--param", "gamma=nan"], "--param"),
    (["dump", "--potential", "harmonic", "--range=-inf:0"], "--range"),
    (["dump", "--potential", "harmonic", "--range=0:1e400"], "--range"),
])
def test_non_finite_input_exits_two_naming_the_flag(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and flag in err


@pytest.mark.parametrize("command", ["solve", "dump"])
@pytest.mark.parametrize("flag,value", [("--hbar", "0"), ("--hbar", "nan"),
                                        ("--mass", "inf"), ("--mass", "-1")])
def test_non_positive_units_exit_two_naming_the_unit(command, flag, value,
                                                     capsys):
    """The potential's constructor refuses units that are not finite and
    positive, for builtin and expression wells alike, before any solving."""
    for well in (["--potential", "harmonic"], ["--potential", "expr", "--expr", "q^2"]):
        assert main([command] + well + [flag, value]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert "%s must be finite and positive" % flag[2:] in err


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


def test_spurious_threshold_level_exits_three(capsys):
    """Just below the threshold of A(exp(-2q) - 2exp(-q)), A = 10.125, the
    second-order phase condition has a spurious n=4 root; the first-order
    phase at the energy ceiling refuses the level, and n=3 still solves."""
    argv = ["solve", "--potential", "expr", "--expr", "A*(exp(-2*q)-2*exp(-q))",
            "--param", "A=10.125", "--levels"]
    assert main(argv + ["4"]) == 3
    err = capsys.readouterr().err
    assert "above the energy ceiling" in err and "supports 4 levels" in err
    assert main(argv + ["3"]) == 0


@pytest.mark.parametrize("argv", [
    # n=4 lies 5e-5 below the threshold, too close for the second-order phase
    ["--potential", "poschl-teller", "--param", "lambda=5.01"],
    # the spurious n=4 root's left tail would march until cosh overflows
    ["--potential", "expr", "--expr=-B/cosh(q)^2", "--param", "B=10"],
])
def test_unresolvable_threshold_level_exits_three(argv, capsys):
    assert main(["solve"] + argv + ["--levels", "4"]) == 3
    err = capsys.readouterr().err
    assert "above the energy ceiling" in err and "supports 4 levels" in err


def test_unresolved_threshold_level_names_its_cause(capsys):
    """Morse gamma=4.51 n=4 is a true level, 5e-5 below the threshold: the
    level gate admits it, but the state assembled at the second-order root
    has its energy above the energy ceiling.  Exit 3 says the second-order
    state is unresolved, not that there is no bound state."""
    assert main(["solve", "--potential", "morse", "--param", "gamma=4.51",
                 "--levels", "4"]) == 3
    err = capsys.readouterr().err
    assert "second-order state unresolved" in err
    assert "above the energy ceiling" in err and "no bound state" not in err


def test_well_without_minimum_names_the_search_window(capsys):
    assert main(["solve", "--potential", "expr", "--expr=-q",
                 "--levels", "0"]) == 3
    err = capsys.readouterr().err
    assert "not a single well" in err and "no bound state" not in err
    assert "search window [210, 270]" in err and "from [-30, 30]" in err


@pytest.mark.parametrize("expr", ["-exp(-q^2)", "-exp(-q^4)",
                                  "-3*exp(-(q-7.3)^2/0.5)"])
def test_wells_whose_tails_underflow_solve(expr, capsys):
    """These wells are 0 to the last bit over much of the minimum search's
    window; their level 0 solves with no floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--potential", "expr", "--expr=" + expr,
                     "--levels", "0"]) == 0
    (rec,) = json.loads(capsys.readouterr().out)["records"]
    assert rec["n"] == 0 and rec["e_sp"] < 0.0 and rec["e_bar"] < 0.0


def test_gaussian_well_has_no_level_one(capsys):
    """-exp(-q^2) binds one level: level 1 exits 3 as no bound state, and
    the Numerov oracle refuses it too."""
    assert main(["solve", "--potential", "expr", "--expr=-exp(-q^2)",
                 "--levels", "1"]) == 3
    err = capsys.readouterr().err
    assert "no bound state" in err and "not a single well" not in err
    pot = parse_potential("-exp(-q^2)", {})
    with pytest.raises(NumerovError, match="level n=1 is not bound"):
        numerov_solve(pot, 1)


def test_high_harmonic_level_solves_without_warnings(capsys):
    """n = 150, where the unscaled Hermite polynomial of the exact state
    overflows, solves with its metrics and no floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--potential", "harmonic", "--levels", "150"]) == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert abs(rec["e_bar"] / rec["e_exact"] - 1.0) < 1e-11
    assert all(0.0 <= v < 1e-9 for v in rec["metrics"].values())


def test_metrics_of_level_516_are_all_finite(capsys):
    """The exact state's norm is a closed form, so the metrics stage holds
    no integral of the exact state alone that a high level can stall:
    n = 516 exits 0 with its five metrics finite."""
    assert main(["solve", "--potential", "harmonic", "--levels", "516"]) == 0
    metrics = json.loads(capsys.readouterr().out)["records"][0]["metrics"]
    assert sorted(metrics) == sorted(METRIC_NAMES)
    assert all(math.isfinite(v) for v in metrics.values()), metrics


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


STALL = "Chebyshev fit on [0, 1] stalled at degree 1024"


def _stall(*args, **kwargs):
    raise QuadratureError(STALL)


@pytest.mark.parametrize("name, stage", [
    # integrate runs both phase integrals, so the level search fails first
    ("integrate", "quantizing level n=1: "),
    # CumulativeCheb only builds the assembled state's fit
    ("CumulativeCheb", "assembling level n=1 at E=1.504126085: "),
], ids=["quantize", "assemble"])
def test_quadrature_failure_exits_four_naming_the_stage(monkeypatch, capsys,
                                                       name, stage):
    monkeypatch.setattr(spectral, name, _stall)
    code = main(["solve", "--potential", "harmonic", "--levels", "1"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "uniwkb: solver failure: %s%s\n" % (stage, STALL)


@pytest.mark.parametrize("name", ["exact_wavefunction", "level_metrics"])
def test_metrics_failure_exits_four_naming_the_stage(monkeypatch, capsys, name):
    """A QuadratureError from the exact state or the metrics comes back
    naming the metrics stage and the level, chained and keeping its text."""
    monkeypatch.setattr(cli, name, _stall)
    with pytest.raises(QuadratureError) as info:
        cmd_solve(make_config(["solve", "--potential", "harmonic",
                               "--levels", "1"]))
    assert str(info.value.__cause__) == STALL
    code = main(["solve", "--potential", "harmonic", "--levels", "1"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == ("uniwkb: solver failure: computing the metrics of level "
                   "n=1: %s\n" % STALL)


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


def test_verify_takes_no_options(capsys):
    """Every line prints its cell's rel_err and band; the bands are fixed,
    and an option to widen them is refused as unknown."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tol-loose"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-loose" in capsys.readouterr().err


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


def test_dump_columns_are_the_samplers_values():
    """dump reads psi, dpsi and h_psi from one state call: on a grid that
    crosses both cuts and runs past them, each column is repr of the
    sampler's value at the row's q."""
    from uniwkb.potentials import make_builtin
    from uniwkb.spectral import assemble, solve_quantization
    pot = make_builtin("harmonic", {"k": 0.5})
    sol = assemble(pot, solve_quantization(pot, 3), 3)
    lo, hi = sol.q_lo - 2.0, sol.q_hi + 2.0
    cfg = make_config(["dump", "--potential", "harmonic", "--param", "k=0.5",
                       "--levels", "3"])
    body = list(csv.reader(io.StringIO(cmd_dump(cfg, DumpGrid(2001, lo, hi)))))[1:]
    qs = np.array([float(r[0]) for r in body])
    assert qs[0] < sol.q_lo < sol.q_hi < qs[-1]
    for col, sampler in ((3, sol.psi), (4, sol.dpsi), (6, sol.h_psi)):
        assert [r[col] for r in body] == [repr(float(v)) for v in sampler(qs)]


def test_dump_airy_argument_vanishes_at_turning_points():
    from uniwkb.potentials import find_turning_points, make_builtin
    from uniwkb.spectral import solve_quantization
    pot = make_builtin("harmonic", {"k": 0.5})
    e_sp = solve_quantization(pot, 0)
    tp = find_turning_points(pot, e_sp)
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

def _child_env():
    """Environment in which a child imports the same package as this
    session, installed or not."""
    src = os.path.dirname(os.path.dirname(uniwkb.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_module_invocation_help():
    proc = subprocess.run([sys.executable, "-m", "uniwkb", "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "verify" in proc.stdout


def test_unreachable_rel_tol_exits_four_quickly():
    """A potential whose ripple of 1e-9 lies above the phase integral's
    budget makes that tolerance unreachable: the quantization fit stalls
    at the degree cap, and the run exits 4 well inside a 3 GB address
    space, naming the stage."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 1024 ** 3,) * 2)

    proc = subprocess.run(
        [sys.executable, "-m", "uniwkb", "solve", "--potential", "expr",
         "--expr=q^2/2 + 1e-9*sin(1e7*q)", "--levels", "0"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=cap_memory)
    assert proc.returncode == 4, proc.stderr
    assert "solver failure" in proc.stderr and "stalled at degree 1024" in proc.stderr
    assert "quantizing level n=0: " in proc.stderr


@pytest.mark.parametrize("argv, stage", [
    (["solve"], "computing the metrics of level n=0: "),
    (["dump", "--grid", "11"], "dumping level n=0: h_psi is not finite"),
], ids=["solve", "dump"])
def test_unresolvable_samples_exit_four_without_warnings(argv, stage):
    """At hbar = 1e-200 level 0's samples overflow: solve's metrics fit and
    dump refuse them with exit 4 naming the stage, and with warnings as
    errors no floating-point warning escapes as a traceback."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "uniwkb"]
        + argv[:1] + ["--potential", "harmonic", "--levels", "0",
                      "--hbar", "1e-200"] + argv[1:],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.startswith("uniwkb: solver failure: " + stage), proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("kind", ["harmonic", "morse", "poschl-teller"])
def test_smallest_rel_tol_solves_the_builtin_wells(kind, capsys):
    """--rel-tol 1e-13, the smallest accepted, is within reach of every
    metric integrand of the builtin wells' levels 0..3: each sampler is
    the fit's own polynomial, free of pointwise kernel noise."""
    assert main(["solve", "--potential", kind, "--levels", "0..3",
                 "--rel-tol", "1e-13"]) == 0, capsys.readouterr().err


# ---- input caps ----

def test_level_list_cap():
    assert len(_parse_levels("0..%d" % (MAX_LEVELS - 1))) == MAX_LEVELS
    assert len(_parse_levels("0..%d,%d" % (MAX_LEVELS - 2, MAX_LEVELS))) == MAX_LEVELS
    for bad in ("0..%d" % MAX_LEVELS, "%d,0..%d" % (MAX_LEVELS, MAX_LEVELS - 1),
                ",".join("%d..%d" % (k, k + 999) for k in range(0, 20000, 1000))):
        with pytest.raises(ConfigError, match="--levels .* %d levels" % MAX_LEVELS):
            _parse_levels(bad)


def test_oversized_dump_grid_is_refused_before_solving(monkeypatch):
    def unreachable(*args):
        raise AssertionError("solved before the grid was checked")

    monkeypatch.setattr(cli, "solve_quantization", unreachable)
    cfg = make_config(["dump", "--potential", "harmonic", "--levels", "0"])
    with pytest.raises(ConfigError, match="--grid %d .* %d points"
                       % (MAX_GRID + 1, MAX_GRID)):
        cmd_dump(cfg, DumpGrid(MAX_GRID + 1, None, None))


@pytest.mark.parametrize("argv, flag, cap", [
    (["solve", "--potential", "harmonic", "--levels", "0..100000000"],
     "--levels", "10000"),
    (["dump", "--potential", "harmonic", "--levels", "0",
      "--grid", "1000000000"], "--grid", "1000000"),
], ids=["levels", "grid"])
def test_oversized_input_exits_two_before_allocating(argv, flag, cap):
    """An input far too large to expand is refused with exit 2, inside a
    1.5 GB address space that expanding it would exhaust."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1536 * 1024 ** 2,) * 2)

    proc = subprocess.run([sys.executable, "-m", "uniwkb"] + argv,
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == 2, proc.stderr
    assert "invalid configuration" in proc.stderr
    assert flag in proc.stderr and cap in proc.stderr
