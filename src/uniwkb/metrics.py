"""Verification metrics comparing assembled states against exact ones, plus
the benchmark harness that recomputes the published comparison table.

All overlap-type quantities are quadratures over the truncated support of the
approximate state, split at its internal matching points.  They come from a
single metrics pass (`overlap_metrics`): one vector-valued Gauss-Kronrod
quadrature over the break intervals integrates <e|a>, <e'|e'>, <a'|a'> and
<e'|a'> on shared panel trees, sampling each state and derivative once per
node.
`level_metrics` adds the <H^2> moment and returns all five metrics; both
`benchmark_row` and `uniwkb solve` take it.

The golden values live in a checksummed CSV inside the package so a
corrupted data file is detected rather than silently shifting the
pass/fail verdicts.
"""

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .potentials import make_builtin
from .quadrature import QuadratureSpec, integrate
from .reference import exact_wavefunction
from .spectral import assemble, expectation_h2, solve_quantization

METRIC_SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
METRIC_NAMES = ("delta_psi", "delta_psi_prime", "delta_h_psi", "d", "delta_e")

# canonical benchmark setup: hbar = m = 1 and unit inverse length, so only
# the dimensionless well-depth parameters remain adjustable
BENCH_PARAMS = (
    ("harmonic", {"k": 0.5}),
    ("morse", {"gamma": 4.5, "alpha": 1.0}),
    ("poschl_teller", {"lambda": 5.0, "alpha": 1.0}),
)
BENCH_LEVELS = (0, 1, 2, 3)

GOLDEN_ENV = "UNIWKB_GOLDEN"
_GOLDEN_DEFAULT = os.path.join(os.path.dirname(__file__), "data",
                               "golden_metrics.csv")


class GoldenDataError(ValueError):
    """Golden table file is unreadable, corrupted, or malformed."""


class BenchmarkError(RuntimeError):
    """A benchmark cell failed; the message names the cell."""


@dataclass(frozen=True)
class MetricsRow:
    """One benchmark cell: five comparison metrics for (potential, n)."""
    potential: str
    n: int
    delta_psi: float
    delta_psi_prime: float
    delta_h_psi: float
    d: float
    delta_e: float


def _brackets(samplers, pairs, edges, spec=METRIC_SPEC):
    """L2 inner products <samplers[i]|samplers[j]> for (i, j) in pairs.

    One vector quadrature over the intervals between edges: every sampler is
    called once per node, and all the products share one panel tree per
    interval.
    """
    def products(t):
        s = [f(t) for f in samplers]
        return np.stack([s[i] * s[j] for i, j in pairs])

    return integrate(products, edges, spec)


def _gram_deviation(g11, g22, g12, g21):
    """Relative deviation 1 - (g12 + g21)/(g11 + g22) of two inputs from
    their Gram entries g_ij = <f_i|f_j>.

    Symmetric in its two inputs; 0 for identical inputs, 1 for orthogonal
    inputs of equal norm.
    """
    if not (g11 > 0.0 and g22 > 0.0):
        raise ValueError("zero-norm input to the relative deviation")
    return 1.0 - (g12 + g21) / (g11 + g22)


def overlap_metrics(exact, approx, spec=METRIC_SPEC):
    """(<exact|approx>, delta_psi_prime) from one pass over approx.breaks.

    <e|a>, <e'|e'>, <a'|a'> and <e'|a'> come from one vector quadrature over
    the break intervals, so each of exact.psi, exact.dpsi, approx.psi and
    approx.dpsi is sampled once per node.  For real states <a'|e'> = <e'|a'>, so the
    derivative deviation is the general (not unit-norm) relative deviation
    with g12 = g21.  Both constructions fix a positive left tail, so a
    negative overlap means the sign convention was broken somewhere
    upstream; that is flagged rather than silently absorbed into the metric.
    """
    ov, ee, aa, ea = (float(v) for v in _brackets(
        (exact.psi, approx.psi, exact.dpsi, approx.dpsi),
        ((0, 1), (2, 2), (3, 3), (2, 3)), approx.breaks, spec))
    if ov < 0.0:
        raise ValueError("sign alignment failed: overlap is negative")
    return ov, _gram_deviation(ee, aa, ea, ea)


def level_metrics(exact, approx, spec=METRIC_SPEC):
    """The five comparison metrics of one assembled level, keyed by
    METRIC_NAMES: the overlap pass plus the <H^2> moment."""
    ov, dpp = overlap_metrics(exact, approx, spec)
    h2 = expectation_h2(approx, spec)
    return {"delta_psi": 1.0 - ov,
            "delta_psi_prime": dpp,
            "delta_h_psi": delta_h_psi(exact.energy, ov, h2),
            "d": discrepancy_d(approx.e_bar, h2),
            "delta_e": delta_e(approx.e_bar, exact.energy)}


def delta_h_psi(exact_energy, overlap, h2_moment):
    """Deviation of H[approx] from H[exact], reduced to precomputed moments."""
    e2 = exact_energy * exact_energy
    return (h2_moment + e2 * (1.0 - 2.0 * overlap)) / (h2_moment + e2)


def discrepancy_d(e_bar, h2_moment):
    """Residual discrepancy (<H^2> - Ebar^2)/(<H^2> + Ebar^2).

    Measures how far the assembled state is from an H eigenstate without
    using any exact solution.
    """
    eb2 = e_bar * e_bar
    return (h2_moment - eb2) / (h2_moment + eb2)


def delta_e(e_bar, e_exact):
    """Signed relative energy error Ebar/E_exact - 1."""
    return e_bar / e_exact - 1.0


def benchmark_row(kind, params, n, hbar=1.0, mass=1.0):
    """All five metrics for one (potential, level) cell."""
    potential = make_builtin(kind, params, hbar, mass)
    e_sp = solve_quantization(potential, n, hbar, mass)
    approx = assemble(potential, e_sp, n, hbar, mass)
    exact = exact_wavefunction(kind, potential.params, n, hbar, mass)
    return MetricsRow(potential=kind, n=n, **level_metrics(exact, approx))


def benchmark_table():
    """The full 12-row benchmark (3 wells x levels 0..3) in canonical units."""
    rows = []
    for kind, params in BENCH_PARAMS:
        for n in BENCH_LEVELS:
            try:
                rows.append(benchmark_row(kind, params, n))
            except Exception as exc:
                raise BenchmarkError(
                    "benchmark cell potential=%s n=%d failed: %s"
                    % (kind, n, exc)) from exc
    return rows


def golden_path():
    """Path to the golden table, honoring the environment override."""
    return os.environ.get(GOLDEN_ENV) or _GOLDEN_DEFAULT


def load_golden(path=None):
    """Golden values as {(potential, n, metric): value}, checksum-verified.

    The first line of the file carries a sha256 of everything after it; any
    edit to the data rows breaks the digest and raises GoldenDataError.
    """
    path = path or golden_path()
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise GoldenDataError("cannot read golden table %s: %s" % (path, exc))
    head, sep, body = raw.partition(b"\n")
    if not sep or not head.startswith(b"# sha256="):
        raise GoldenDataError("golden table %s lacks its checksum line" % path)
    want = head[len(b"# sha256="):].strip().decode("ascii", "replace")
    got = hashlib.sha256(body).hexdigest()
    if got != want:
        raise GoldenDataError(
            "golden table %s checksum mismatch: header says %s, data hashes "
            "to %s" % (path, want, got))
    try:
        reader = csv.DictReader(io.StringIO(body.decode("ascii")))
        if reader.fieldnames != ["potential", "n", "metric", "value"]:
            raise GoldenDataError(
                "golden table %s has wrong columns %r" % (path, reader.fieldnames))
        table = {}
        kinds = {kind for kind, _ in BENCH_PARAMS}
        for row in reader:
            kind, metric = row["potential"], row["metric"]
            if kind not in kinds or metric not in METRIC_NAMES:
                raise GoldenDataError(
                    "golden table %s has unknown cell %r/%r" % (path, kind, metric))
            n = int(row["n"])
            value = float(row["value"])
            if not math.isfinite(value) or value == 0.0:    # bands are relative
                raise GoldenDataError("golden table %s: zero or non-finite value" % path)
            key = (kind, n, metric)
            if key in table:
                raise GoldenDataError(
                    "golden table %s repeats cell %r" % (path, (kind, n, metric)))
            table[key] = value
    except GoldenDataError:
        raise
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise GoldenDataError("golden table %s is malformed: %s" % (path, exc))
    if len(table) != len(kinds) * len(BENCH_LEVELS) * len(METRIC_NAMES):
        raise GoldenDataError(
            "golden table %s has %d entries, expected %d"
            % (path, len(table), len(kinds) * len(BENCH_LEVELS) * len(METRIC_NAMES)))
    return table


def check_cell(metric, computed, golden, loose=False):
    """Band comparison for one golden cell: (ok, rel_err, band).

    Entries at or above 1e-5 in magnitude get a 2% relative band; smaller,
    numerically delicate entries get 10%.  The signed energy metric must
    also match the golden sign exactly.
    """
    band = (0.02 if abs(golden) >= 1e-5 else 0.10) * (2.0 if loose else 1.0)
    rel = abs(computed - golden) / abs(golden)
    ok = rel <= band
    if metric == "delta_e":
        ok = ok and (computed > 0.0) == (golden > 0.0)
    return ok, rel, band
