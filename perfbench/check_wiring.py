"""Self-check of the traced run's layer wiring.

    python3 perfbench/check_wiring.py

For every workload, runs two traced passes and checks:

- every per-layer metric is non-zero on the workloads the wiring table
  below says exercise it, and exactly zero on the others;
- every count (unit "count") is the same on both passes.  The passes use
  seeds 1 and 2, which only reorder the items, except on dense-sample:
  there the seed moves the grid, which shifts a few of its 10^5 points
  between Airy regimes, so both of its passes use seed 1;
- after each pass every attribute of every uniwkb module is the object it
  was before, so the untraced run is the unmodified program.

Prints one line per failed expectation and exits 1 if there is any.
About two minutes on one core.
"""

import sys

import run

GOLDEN, EXPR, NUMEROV, DENSE = ("golden-table", "expr-solve", "numerov-oracle",
                                "dense-sample")
ALL = {GOLDEN, EXPR, NUMEROV, DENSE}

# (metric name prefix, workloads on which it must be non-zero); the first
# matching prefix applies, and the metric must read 0 on the other workloads
WIRING = [
    ("potentials.eval.", ALL),
    ("potentials.q_bundle_many.", {GOLDEN, EXPR, DENSE}),
    ("potentials.find_", {GOLDEN, EXPR, NUMEROV}),
    ("exprparse.jet.", {EXPR, DENSE}),
    ("airy.", {GOLDEN, EXPR, DENSE}),
    ("wkb_core.", {GOLDEN, EXPR, DENSE}),
    ("quadrature.cheb.eval", {GOLDEN, EXPR, DENSE}),
    ("quadrature.", {GOLDEN, EXPR}),
    ("rootfind.", {GOLDEN, EXPR, NUMEROV}),
    ("spectral.samplers.", {GOLDEN, DENSE}),
    ("spectral.expectation_h2.", {GOLDEN}),
    ("spectral.", {GOLDEN, EXPR}),
    ("metrics.", {GOLDEN}),
    ("reference.exact_wavefunction.", {GOLDEN}),
    ("reference.", {NUMEROV}),
]


def expected_nonzero(metric):
    for prefix, where in WIRING:
        if metric.startswith(prefix):
            return where
    raise KeyError("no wiring rule for %s" % metric)


def module_attributes():
    return {(name, attr): value
            for name, module in sorted(sys.modules.items())
            if name == "uniwkb" or name.startswith("uniwkb.")
            for attr, value in vars(module).items()}


def main():
    workloads = run._load_library()
    import tracer as tracing
    problems = []
    for name in sorted(workloads.WORKLOADS):
        seen = []
        for seed in ((1, 1) if name == DENSE else (1, 2)):
            before = module_attributes()
            tr, _, tally, golden_s = run.trace_pass(workloads, name, seed)
            after = module_attributes()
            moved = sorted("%s.%s" % key for key in before
                           if after.get(key) is not before[key])
            if moved:
                problems.append("%s: attributes not restored: %s" % (name, moved))
            if tally["failed"]:
                problems.append("%s seed %d: %d items failed"
                                % (name, seed, tally["failed"]))
            seen.append(tracing.layer_metrics(tr, golden_s))
        for metric, (value, unit) in seen[0].items():
            want = name in expected_nonzero(metric)
            if (value != 0) != want:
                problems.append("%s: %s = %r, expected %s"
                                % (name, metric, value, "non-zero" if want else "0"))
            if unit == "count" and seen[1][metric][0] != value:
                problems.append("%s: %s differs between passes: %r vs %r"
                                % (name, metric, value, seen[1][metric][0]))
        print("%s: checked %d metrics" % (name, len(seen[0])), flush=True)
    for line in problems:
        print("FAIL " + line)
    print("wiring check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
