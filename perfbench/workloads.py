"""The four benchmark workloads, each a list of items run against the
public uniwkb API.

Every call into the library goes through a module attribute
(`spectral.assemble`, never a name bound at import), so the traced run's
wrappers, installed on those attributes, see each call.  The seed only
shuffles item order within a pass and picks the grid offset of
dense-sample; the physics inputs are fixed so every answer can be checked.
"""

import json
import os
import random

import numpy as np

from uniwkb import airy, metrics, potentials, reference, spectral

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "data", "expected.json")

GOLDEN_WELLS = (
    ("harmonic", {"k": 0.5}),
    ("morse", {"gamma": 4.5, "alpha": 1.0}),
    ("poschl_teller", {"lambda": 5.0, "alpha": 1.0}),
)
LEVELS = (0, 1, 2, 3)

# expression twins of the builtin wells (the builtin harmonic well is
# V = k*q^2, with no 1/2), plus a well with no builtin counterpart
QUARTIC = "q^4/4 + q^2/2"
EXPR_WELLS = (
    ("harmonic", "k*q^2", {"k": 0.5}),
    ("morse", "A*(exp(-2*q)-2*exp(-q))", {"A": 10.125}),
    ("poschl_teller", "-B/cosh(q)^2", {"B": 10.0}),
    ("quartic", QUARTIC, {}),
)

TWIN_TOL = 1e-9          # twin e_sp vs the builtin's, relative
QUARTIC_CAP = 1e-2       # quartic |e_bar/E_numerov - 1| never above this
QUARTIC_SLACK = 1.01     # ... and never more than 1% above its frozen value
NUMEROV_TOL = 1e-8       # |E/E_exact - 1|
DENSE_POINTS = 100_001
DENSE_TOL = 1e-8         # |int psi^2 - 1| and |int psi H psi / e_bar - 1|
DENSE_LEVEL = 3
# the accuracy figure is taken on a grid whose offset does not depend on the
# seed: the grid sums carry O(h) terms from the evaluation-path seams, so a
# seeded offset would make the figure differ from run to run
DENSE_REPORT_OFFSET = 0.5


class CheckFailed(AssertionError):
    """An item's output failed its correctness check; err is its error figure."""

    def __init__(self, message, err):
        super().__init__(message)
        self.err = err


def _build_airy_grids():
    """Build the Airy midrange checkpoint grids, which the library builds
    lazily on first use, so that set-up covers them."""
    airy.eval_many(np.array([-6.0, 6.0]))


class Workload:
    def prepare_checks(self):
        """Compute what the output checks compare against.  Runs after
        setup() but not in the set-up probes: it is the benchmark's oracle,
        not set-up the workload itself needs, so setup_s leaves it out."""


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


class GoldenTable(Workload):
    """The 12 golden cells, each benchmark_row then check_cell on all 5
    metrics, which is what `uniwkb verify` does."""
    name = "golden-table"

    def setup(self, seed):
        _build_airy_grids()
        self.golden = metrics.load_golden()

    def items(self):
        return [("%s/n=%d" % (kind, n), self._cell(kind, params, n))
                for kind, params in GOLDEN_WELLS for n in LEVELS]

    def _cell(self, kind, params, n):
        def run():
            row = metrics.benchmark_row(kind, params, n)
            worst, bad = 0.0, []
            for metric in metrics.METRIC_NAMES:
                ok, rel, band = metrics.check_cell(
                    metric, getattr(row, metric), self.golden[(kind, n, metric)])
                if not ok:
                    bad.append("%s (rel %.3g, band %g)" % (metric, rel, band))
                worst = max(worst, rel / band)
            if bad:
                raise CheckFailed("%s n=%d out of band: %s"
                                  % (kind, n, ", ".join(bad)), worst)
            return worst
        return run


class ExprSolve(Workload):
    """Quantize and assemble parsed-expression wells, levels 0..3."""
    name = "expr-solve"

    def setup(self, seed):
        _build_airy_grids()
        self.expected = load_expected()
        self.wells = [(label, potentials.parse_potential(expr, params))
                      for label, expr, params in EXPR_WELLS]

    def prepare_checks(self):
        """Quantize the builtin wells the twins must reproduce, with the
        code under test."""
        self.builtin_e_sp = {
            kind: [spectral.solve_quantization(potentials.make_builtin(kind, params), n)
                   for n in LEVELS]
            for kind, params in GOLDEN_WELLS}

    def items(self):
        return [("%s/n=%d" % (label, n), self._level(label, pot, n))
                for label, pot in self.wells for n in LEVELS]

    def _level(self, label, pot, n):
        def run():
            e_sp = spectral.solve_quantization(pot, n)
            sol = spectral.assemble(pot, e_sp, n)
            if label == "quartic":
                e_ref = self.expected["quartic_numerov"][n]
                limit = min(QUARTIC_CAP,
                            QUARTIC_SLACK * self.expected["quartic_e_bar_err"][n])
                err = abs(sol.e_bar / e_ref - 1.0)
            else:
                e_ref = self.builtin_e_sp[label][n]
                limit = TWIN_TOL
                err = abs(sol.e_sp / e_ref - 1.0)
            if not err <= limit:
                raise CheckFailed("%s n=%d: error %.3g above %.3g"
                                  % (label, n, err, limit), err)
            return err
        return run


class NumerovOracle(Workload):
    """reference.numerov_solve on the 12 golden cells."""
    name = "numerov-oracle"

    def setup(self, seed):
        self.cells = []
        for kind, params in GOLDEN_WELLS:
            pot = potentials.make_builtin(kind, params)
            for n in LEVELS:
                exact = reference.exact_energy(kind, pot.params, n)
                self.cells.append(("%s/n=%d" % (kind, n), pot, n, exact))

    def items(self):
        return [(item_id, self._cell(pot, n, exact))
                for item_id, pot, n, exact in self.cells]

    def _cell(self, pot, n, exact):
        def run():
            e = reference.numerov_solve(pot, n)
            err = abs(e / exact - 1.0)
            if not err <= NUMEROV_TOL:
                raise CheckFailed("n=%d: E=%r vs exact %r" % (n, e, exact), err)
            return err
        return run


def _dense_grid(sol, offset):
    h = (sol.q_hi - sol.q_lo) / DENSE_POINTS
    return sol.q_lo + (np.arange(DENSE_POINTS) + offset) * h, h


def _grid_errors(sol, psi, hpsi, h):
    norm = abs(h * float(np.sum(psi * psi)) - 1.0)
    energy = abs(h * float(np.sum(psi * hpsi)) / sol.e_bar - 1.0)
    return norm, energy


class DenseSample(Workload):
    """psi, dpsi, h_psi and airy_argument of assembled n=3 states on a
    100,001-point grid over each state's truncated support."""
    name = "dense-sample"

    def setup(self, seed):
        _build_airy_grids()
        offset = random.Random(seed).random()
        wells = [(kind, potentials.make_builtin(kind, params))
                 for kind, params in GOLDEN_WELLS]
        wells.append(("quartic", potentials.parse_potential(QUARTIC, {})))
        self.states = []
        for label, pot in wells:
            e_sp = spectral.solve_quantization(pot, DENSE_LEVEL)
            sol = spectral.assemble(pot, e_sp, DENSE_LEVEL)
            grid, h = _dense_grid(sol, offset)
            self.states.append((label, pot, sol, grid, h))

    def items(self):
        return [(label, self._state(label, pot, sol, grid, h))
                for label, pot, sol, grid, h in self.states]

    def _state(self, label, pot, sol, grid, h):
        def run():
            psi = sol.psi(grid)
            dpsi = sol.dpsi(grid)
            hpsi = sol.h_psi(grid)
            a = spectral.airy_argument(pot, grid, sol.e_sp, sol.hbar, sol.mass)
            norm, energy = _grid_errors(sol, psi, hpsi, h)
            err = max(norm, energy)
            # airy_argument is +/-inf where Q' vanishes off the turning points
            if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))
                    and np.all(np.isfinite(hpsi)) and not np.any(np.isnan(a))):
                raise CheckFailed("%s: non-finite samples" % label, err)
            if not err <= DENSE_TOL:
                raise CheckFailed("%s: grid integrals off (norm %.3g, energy %.3g)"
                                  % (label, norm, energy), err)
            return err
        return run

    def report_error(self):
        """Accuracy figure on the fixed-offset grid (not timed)."""
        worst = 0.0
        for _, _, sol, _, _ in self.states:
            grid, h = _dense_grid(sol, DENSE_REPORT_OFFSET)
            worst = max(worst, *_grid_errors(sol, sol.psi(grid), sol.h_psi(grid), h))
        return worst


WORKLOADS = {cls.name: cls for cls in (GoldenTable, ExprSolve, NumerovOracle,
                                       DenseSample)}
