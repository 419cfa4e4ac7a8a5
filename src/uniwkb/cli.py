"""Command-line front end: solve wells, verify the benchmark table against
the golden data, and dump wavefunction grids for plotting.

Exit codes: 0 success, 1 failed verification cell, 2 invalid configuration
or corrupted golden data, 3 no level to report, 4 solver non-convergence.
Exit 3 names its cause: "no bound state" (the well has no such level),
"second-order state unresolved" (the phase condition has a root, but the
state assembled there has its energy above the energy ceiling; the level
may exist this close to the threshold) or "not a single well" (no single
interior minimum in the search window the message names).  Output
documents are rendered fully in memory before any file is opened, so a
failed run never leaves a partial output file; a level list longer than
MAX_LEVELS or a dump grid above MAX_GRID points is refused with exit 2
before it is allocated.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import (METRIC_NAMES, METRIC_SPEC, BenchmarkError,
                      GoldenDataError, benchmark_table, check_cell,
                      level_metrics, load_golden)
from .potentials import (BUILTIN_KINDS, NoBoundRegionError, WellShapeError,
                         make_builtin, parse_potential)
from .quadrature import MIN_REL_TOL, QuadratureError, QuadratureSpec, stage
from .reference import LevelIndexError, NumerovError, exact_wavefunction
from .rootfind import BracketError
from .spectral import (PHASE_RESIDUAL_TOL, PHASE_SPEC, QuantizationError,
                       UnresolvedStateError, airy_argument, assemble,
                       solve_quantization)

SCHEMA_VERSION = "uniwkb/1"
# caps checked before anything is allocated: a level list is expanded in
# memory, and a dump is rendered in memory at about 130 bytes per row
MAX_LEVELS = 10_000
MAX_GRID = 1_000_000


class ConfigError(ValueError):
    """Command line arguments do not form a valid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Validated problem statement shared by the solve and dump commands."""
    kind: str             # builtin kind or "expression"
    params: dict
    expr: Optional[str]
    hbar: float
    mass: float
    levels: tuple
    rel_tol: Optional[float]
    fmt: str
    out: Optional[str]


@dataclass(frozen=True)
class DumpGrid:
    npoints: int
    q_min: Optional[float]
    q_max: Optional[float]


def _parse_params(items):
    params = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ConfigError("parameter %r is not NAME=VALUE" % item)
        try:
            params[name] = float(value)
        except ValueError:
            raise ConfigError("parameter %r has a non-numeric value" % item)
        if not math.isfinite(params[name]):
            raise ConfigError("--param %r is not finite" % item)
    return params


def _parse_levels(text):
    levels = set()
    too_many = "--levels asks for more than %d levels" % MAX_LEVELS
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError("bad level token %r" % part)
            if lo > hi:
                raise ConfigError("empty level range %r" % part)
            # checked before the range is expanded
            if hi - lo >= MAX_LEVELS:
                raise ConfigError(too_many)
            levels.update(range(lo, hi + 1))
        else:
            try:
                levels.add(int(part))
            except ValueError:
                raise ConfigError("bad level token %r" % part)
        if len(levels) > MAX_LEVELS:
            raise ConfigError(too_many)
    if not levels:
        raise ConfigError("no levels requested")
    if min(levels) < 0:
        raise ConfigError("levels must be non-negative")
    return tuple(sorted(levels))


def _parse_range(text):
    lo_s, sep, hi_s = text.partition(":")
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        sep = ""
    if not sep or not lo < hi or not math.isfinite(hi - lo):
        raise ConfigError("--range must be finite QMIN:QMAX, QMIN < QMAX, got %r" % text)
    return lo, hi


def config_from_args(args):
    if args.potential == "expr":
        if not args.expr:
            raise ConfigError("--potential expr requires --expr")
        kind, expr = "expression", args.expr
    else:
        if args.expr is not None:
            raise ConfigError("--expr is only meaningful with --potential expr")
        kind, expr = args.potential.replace("-", "_"), None
    rel_tol = getattr(args, "rel_tol", None)   # solve only
    if rel_tol is not None and not MIN_REL_TOL <= rel_tol < 1.0:
        raise ConfigError("rel-tol must lie in [%g, 1)" % MIN_REL_TOL)
    return RunConfig(kind=kind, params=_parse_params(args.param), expr=expr,
                     hbar=args.hbar, mass=args.mass,
                     levels=_parse_levels(args.levels),
                     rel_tol=rel_tol, fmt=getattr(args, "fmt", "csv"),
                     out=args.out)


def build_potential(config):
    if config.kind == "expression":
        return parse_potential(config.expr, config.params, config.hbar,
                               config.mass)
    return make_builtin(config.kind, config.params, config.hbar, config.mass)


def _metric_spec(config):
    if config.rel_tol is None:
        return METRIC_SPEC
    return QuadratureSpec(rel_tol=config.rel_tol, abs_tol=1e-14)


def _config_echo(config, potential):
    # only the problem-defining fields: the same physics request must yield
    # byte-identical documents regardless of where the output goes
    pot = {"kind": config.kind, "params": dict(sorted(potential.params.items()))}
    if config.expr is not None:
        pot["expr"] = config.expr
    return {"potential": pot, "hbar": config.hbar, "mass": config.mass,
            "levels": list(config.levels), "rel_tol": config.rel_tol}


def cmd_solve(config):
    """Solve all requested levels and build the result document."""
    t_start = time.perf_counter()
    potential = build_potential(config)
    spec = _metric_spec(config)
    records = []
    per_level = []
    for n in config.levels:
        t0 = time.perf_counter()
        sol = assemble(potential, solve_quantization(potential, n), n)
        rec = {"n": n, "e_sp": sol.e_sp, "e_bar": sol.e_bar}
        if config.kind in BUILTIN_KINDS:
            with stage("computing the metrics of level n=%d" % n):
                ex = exact_wavefunction(potential, n)
                rec["e_exact"] = ex.energy
                rec["metrics"] = level_metrics(ex, sol, spec)
        records.append(rec)
        per_level.append(round(time.perf_counter() - t0, 3))
    e_sps = [rec["e_sp"] for rec in records]
    if any(b <= a for a, b in zip(e_sps, e_sps[1:])):
        raise RuntimeError("spectral energies failed to increase with n")
    return {"config": _config_echo(config, potential),
            "records": records,
            "provenance": {
                "version": SCHEMA_VERSION,
                "tolerances": {"metric_rel_tol": spec.rel_tol,
                               "phase_rel_tol": PHASE_SPEC.rel_tol,
                               "phase_residual_tol": PHASE_RESIDUAL_TOL},
                "timings": {"total_s": round(time.perf_counter() - t_start, 3),
                            "per_level_s": per_level}}}


def render_document(doc, fmt):
    """Serialize a result document as schema-versioned JSON or flat CSV."""
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "e_sp", "e_bar", "e_exact"] + list(METRIC_NAMES))
    for rec in doc["records"]:
        row = [rec["n"], repr(rec["e_sp"]), repr(rec["e_bar"]),
               repr(rec["e_exact"]) if "e_exact" in rec else ""]
        met = rec.get("metrics")
        row += [repr(met[name]) if met else "" for name in METRIC_NAMES]
        writer.writerow(row)
    return buf.getvalue()


def cmd_verify():
    """Recompute the benchmark table and band-check it against the golden data.

    Returns (report text, exit code): 0 when every cell passes, 1 otherwise.
    """
    golden = load_golden()
    rows = benchmark_table()
    header = "%-13s %2s  %-15s %13s %10s  %8s %5s  %s" % (
        "potential", "n", "metric", "computed", "golden", "rel_err",
        "band", "verdict")
    lines = [header, "-" * len(header)]
    failures = 0
    for row in rows:
        for metric in METRIC_NAMES:
            computed = getattr(row, metric)
            gold = golden[(row.potential, row.n, metric)]
            ok, rel, band = check_cell(metric, computed, gold)
            if not ok:
                failures += 1
            lines.append("%-13s %2d  %-15s % 13.6e % 10.2e  %7.3f%% %4.0f%%  %s"
                         % (row.potential, row.n, metric, computed, gold,
                            100.0 * rel, 100.0 * band,
                            "pass" if ok else "FAIL"))
    total = len(rows) * len(METRIC_NAMES)
    lines.append("-" * len(header))
    lines.append("%d/%d cells within bands" % (total - failures, total))
    return "\n".join(lines) + "\n", (0 if failures == 0 else 1)


def cmd_dump(config, grid):
    """CSV of the assembled state on a uniform grid, one row per point;
    a state column that is not finite is refused."""
    if len(config.levels) != 1:
        raise ConfigError("dump wants exactly one level, got %d"
                          % len(config.levels))
    if grid.npoints < 2:
        raise ConfigError("grid needs at least 2 points")
    if grid.npoints > MAX_GRID:
        raise ConfigError("--grid %d is above the cap of %d points"
                          % (grid.npoints, MAX_GRID))
    n = config.levels[0]
    potential = build_potential(config)
    sol = assemble(potential, solve_quantization(potential, n), n)
    lo = grid.q_min if grid.q_min is not None else sol.q_lo
    hi = grid.q_max if grid.q_max is not None else sol.q_hi
    if not lo < hi:
        raise ConfigError("dump range is empty")
    qs = np.linspace(lo, hi, grid.npoints)
    a_col = airy_argument(potential, qs, sol.e_sp, sol.hbar, sol.mass)
    psi_ap, dpsi_ap, h_col = sol.state(qs)
    columns = [("psi_ap", psi_ap), ("dpsi_ap", dpsi_ap), ("h_psi", h_col)]
    psi_ex = None
    if config.kind in BUILTIN_KINDS:
        psi_ex = exact_wavefunction(potential, n).psi(qs)
        columns.append(("psi_ex", psi_ex))
    for name, col in columns:
        bad = ~np.isfinite(col)
        if bad.any():
            raise FloatingPointError("dumping level n=%d: %s is not finite "
                                     "at q=%.10g" % (n, name, qs[bad][0]))
    tp = sol.turning
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "a", "region", "psi_ap", "dpsi_ap", "psi_ex",
                     "h_psi"])
    for i, q in enumerate(qs):
        if q < tp.q_minus:
            region = "left_forbidden"
        elif q > tp.q_plus:
            region = "right_forbidden"
        else:
            region = "allowed"
        writer.writerow([repr(float(q)), repr(float(a_col[i])), region,
                         repr(float(psi_ap[i])), repr(float(dpsi_ap[i])),
                         "" if psi_ex is None else repr(float(psi_ex[i])),
                         repr(float(h_col[i]))])
    return buf.getvalue()


def _add_problem_args(sub):
    sub.add_argument("--potential", required=True,
                     choices=["harmonic", "morse", "poschl-teller", "expr"])
    sub.add_argument("--expr", default=None,
                     help="potential V(q) as an expression (with --potential expr)")
    sub.add_argument("--param", action="append", default=[],
                     metavar="NAME=VALUE", help="potential parameter (repeatable)")
    sub.add_argument("--hbar", type=float, default=1.0)
    sub.add_argument("--mass", type=float, default=1.0)
    sub.add_argument("--levels", default="0",
                     help="level list: '0..3', '0,2,5', or a single index")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uniwkb",
        description="Second-order uniform semiclassical bound states for "
                    "single-well 1-D potentials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve bound levels and report "
                                           "energies plus comparison metrics")
    _add_problem_args(p_solve)
    p_solve.add_argument("--format", choices=["json", "csv"], default="json",
                         dest="fmt")
    p_solve.add_argument("--rel-tol", type=float, default=None, dest="rel_tol",
                         help="relative tolerance for the comparison quadratures")

    sub.add_parser("verify", help="recompute the benchmark table and check "
                                  "it against golden data")

    p_dump = sub.add_parser("dump", help="dump one solved level on a grid as CSV")
    _add_problem_args(p_dump)
    p_dump.add_argument("--grid", type=int, default=1001,
                        help="number of grid points")
    p_dump.add_argument("--range", default=None, dest="qrange",
                        metavar="QMIN:QMAX",
                        help="dump window (default: the truncated support)")
    return parser


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        # the document is already fully rendered; open late so a solver
        # failure can never truncate an existing file
        with open(out, "w") as fh:
            fh.write(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            report, code = cmd_verify()
            sys.stdout.write(report)
            return code
        config = config_from_args(args)
        if args.command == "solve":
            text = render_document(cmd_solve(config), config.fmt)
        else:
            span = _parse_range(args.qrange) if args.qrange else (None, None)
            text = cmd_dump(config, DumpGrid(args.grid, span[0], span[1]))
        _emit(text, config.out)
        return 0
    except UnresolvedStateError as exc:
        print("uniwkb: second-order state unresolved: %s" % exc,
              file=sys.stderr)
        return 3
    except WellShapeError as exc:
        print("uniwkb: not a single well: %s" % exc, file=sys.stderr)
        return 3
    except (QuantizationError, NoBoundRegionError, LevelIndexError) as exc:
        print("uniwkb: no bound state: %s" % exc, file=sys.stderr)
        return 3
    except (BracketError, QuadratureError, NumerovError, BenchmarkError,
            ArithmeticError, RuntimeError) as exc:
        print("uniwkb: solver failure: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print("uniwkb: invalid configuration: %s" % exc, file=sys.stderr)
        return 2
