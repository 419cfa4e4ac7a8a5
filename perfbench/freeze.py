"""Regenerate perfbench/data/expected.json, the reference energies that the
expr-solve checks compare against.

    python3 perfbench/freeze.py

Writes the quartic well's Numerov energies and the quartic e_bar error
against them at this commit (the check lets it grow by 1% at most).  The
builtin energies the expression twins must reproduce are not frozen: each
run solves them with the code under test.  Only a change to the benchmark
itself should rerun this.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from uniwkb import potentials, reference, spectral  # noqa: E402

import workloads  # noqa: E402


def main():
    out = {"quartic_numerov": [], "quartic_e_bar_err": []}
    quartic = potentials.parse_potential(workloads.QUARTIC, {})
    for n in workloads.LEVELS:
        e_num = reference.numerov_solve(quartic, n)
        e_sp = spectral.solve_quantization(quartic, n)
        e_bar = spectral.assemble(quartic, e_sp, n).e_bar
        out["quartic_numerov"].append(e_num)
        out["quartic_e_bar_err"].append(abs(e_bar / e_num - 1.0))
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
