"""uniwkb benchmark: one workload, single process, closed loop.

    python3 perfbench/run.py --workload golden-table --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` tree.  One caller runs the workload's items one after another, in
whole passes, until the next pass would end after --seconds (at least one
pass).  Every item's output is checked.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Times are host-adjusted: each measured wall time is scaled by
SPEED_REF_S over the time of a fixed speed kernel timed right before and
right after it, so that the host's other tenants, which slow this machine
by up to a third for minutes at a time, do not move the figures.  The raw
wall times are printed on the `run` line.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass, whatever --seconds says, and reports the per-layer
metrics of the traced pass plus its overhead; the spans go to
.perfbench/spans-<workload>-seed<seed>.jsonl.gz.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
source tree or the arguments are unusable, or when a function the traced
run wraps no longer exists.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

# one process on one core: BLAS/OpenMP pools stay at one thread (set before
# numpy loads)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 7
WORKLOAD_NAMES = ("golden-table", "expr-solve", "numerov-oracle", "dense-sample")

# the speed kernel's nominal time: adjusted seconds are seconds on a host
# where speed_kernel() takes this long
SPEED_REF_S = 3e-3
_KERNEL_ARRAY = np.linspace(0.5, 1.5, 2048, dtype=np.longdouble)

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "item_s.p50": "s",
                    "peak_rss_mb": "MB", "err_max": "1"}


def _load_library():
    """Import the workloads against this checkout's src/ tree, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "uniwkb", "__init__.py")):
        print("perfbench: no uniwkb source tree at %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads
    import uniwkb
    if os.path.dirname(os.path.abspath(uniwkb.__file__)) != os.path.join(SRC, "uniwkb"):
        print("perfbench: uniwkb imported from %s, not %s"
              % (uniwkb.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    return workloads


def environment():
    ld, f64 = np.finfo(np.longdouble), np.finfo(np.float64)
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "longdouble": {"dtype": str(np.dtype(np.longdouble)),
                           "nmant": int(ld.nmant), "eps": float(ld.eps)},
            # the Airy kernel's accuracy rests on extended precision; where
            # longdouble is double the library runs a different program
            "longdouble_is_double": bool(ld.eps == f64.eps),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def speed_kernel():
    """A fixed mix of interpreted float arithmetic and longdouble numpy
    array work, the two kinds of work the library does; it uses nothing
    from the library, so no change there can move it."""
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    b = _KERNEL_ARRAY
    for _ in range(8):
        b = np.sqrt(b * b + 1.0) - np.exp(-b)
    return total + float(b[0])


def host_speed():
    """Median wall time of three speed-kernel runs (the median drops a run
    that an interrupt happened to land in)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        speed_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(items, rng, tally, tracer=None):
    """One pass in seeded order; returns its host-adjusted time."""
    order = list(items)
    rng.shuffle(order)
    adjusted = wall = 0.0
    k_before = host_speed()
    for item_id, fn in order:
        if tracer is not None:
            tracer.item = item_id
        t0 = time.perf_counter()
        try:
            tally["errs"].append(fn())
        except AssertionError as exc:  # workloads.CheckFailed, or an assert
            tally["failed"] += 1
            if hasattr(exc, "err"):
                tally["errs"].append(exc.err)
            print("perfbench: %s: check failed: %s" % (item_id, exc), file=sys.stderr)
        except Exception:
            tally["failed"] += 1
            print("perfbench: %s: raised" % item_id, file=sys.stderr)
            traceback.print_exc()
        dt = time.perf_counter() - t0
        k_after = host_speed()
        item_s = dt * SPEED_REF_S / (0.5 * (k_before + k_after))
        k_before = k_after
        tally["item_s"].setdefault(item_id, []).append(item_s)
        tally["attempted"] += 1
        adjusted += item_s
        wall += dt
    tally["pass_wall_s"].append(wall)
    return adjusted


def new_tally():
    return {"attempted": 0, "failed": 0, "errs": [], "item_s": {},
            "pass_wall_s": []}


def setup_time(workload, seed):
    """Median host-adjusted time from spawning a fresh interpreter to the
    workload being set up, over SETUP_PROBES child processes; also returns
    the raw wall times."""
    samples, walls = [], []
    for _ in range(SETUP_PROBES):
        k_before = host_speed()
        t0 = time.perf_counter()
        # leaving the with block closes the pipe and waits for the child
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe for %s failed" % workload)
        k_after = host_speed()
        walls.append(elapsed)
        samples.append(elapsed * SPEED_REF_S / (0.5 * (k_before + k_after)))
    return statistics.median(samples), walls


def untraced(workloads, args):
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    wl.prepare_checks()
    items = wl.items()
    rng = random.Random(args.seed)
    tally = new_tally()
    pass_s = []
    start = time.perf_counter()
    while True:
        pass_s.append(run_pass(items, rng, tally))
        if len(pass_s) == 1:
            # after a fixed amount of work: later passes can still grow the
            # heap a little, and how many passes fit depends on the host
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(tally["pass_wall_s"]) > args.seconds:
            break
    err_max = (wl.report_error() if hasattr(wl, "report_error")
               else max(tally["errs"]))
    setup_s, setup_wall_s = setup_time(args.workload, args.seed)
    values = {"setup_s": setup_s,
              "pass_s": statistics.median(pass_s),
              # each item's median over the passes first: the pooled median
              # would pick the slowest sample of one item or the fastest of
              # the next, whichever sits in the middle
              "item_s.p50": statistics.median(
                  statistics.median(times) for times in tally["item_s"].values()),
              "peak_rss_mb": peak_rss_mb,
              "err_max": err_max}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    extra = {"passes": len(pass_s), "pass_s.all": pass_s,
             "pass_wall_s.all": tally["pass_wall_s"], "setup_wall_s.all": setup_wall_s,
             "failed_frac": tally["failed"] / tally["attempted"]}
    return tally, metrics, extra


def trace_pass(workloads, name, seed):
    """Set up and run one pass of a workload under the tracer.

    Returns (tracer, host-adjusted pass time, tally, golden-table load
    time); the tracer's figures cover the pass only, set-up excluded.
    """
    import tracer as tracing

    tr = tracing.Tracer()
    tally = new_tally()
    tr.install()
    try:
        if tr.missing:
            # a renamed or removed function would read as a layer whose
            # counts fell to 0; the tracer must follow the code first
            print("perfbench: trace targets not found: %s; update tracer.py"
                  % ", ".join(tr.missing), file=sys.stderr)
            sys.exit(2)
        wl = workloads.WORKLOADS[name]()
        tr.item = "setup"
        wl.setup(seed)
        wl.prepare_checks()
        load_golden_s = tr.total("metrics.load_golden")
        tr.reset()
        traced_s = run_pass(wl.items(), random.Random(seed), tally, tr)
    finally:
        tr.uninstall()
    return tr, traced_s, tally, load_golden_s


def traced(workloads, args):
    import tracer as tracing

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    wl.prepare_checks()
    base = new_tally()
    base_s = run_pass(wl.items(), random.Random(args.seed), base)
    tr, traced_s, tally, load_golden_s = trace_pass(workloads, args.workload,
                                                    args.seed)
    for key in ("attempted", "failed"):
        tally[key] += base[key]
    layers = tracing.layer_metrics(tr, load_golden_s)
    layers["trace.overhead_ratio"] = (traced_s / base_s, "x")
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write_spans(os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl.gz"
                                % (args.workload, args.seed)))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    extra = {"untraced_pass_s": base_s, "traced_pass_s": traced_s,
             "pass_wall_s.all": base["pass_wall_s"] + tally["pass_wall_s"],
             "spans": len(tr.spans),
             "failed_frac": tally["failed"] / tally["attempted"]}
    return tally, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = _load_library()

    if args.setup_probe:
        workloads.WORKLOADS[args.workload]().setup(args.seed)
        print("ready", flush=True)
        return 0

    env = environment()
    if env["longdouble_is_double"]:
        print("perfbench: WARNING: np.longdouble is float64 here; the Airy "
              "kernel runs without extended precision", file=sys.stderr)
    tally, metrics, extra = (traced if args.trace else untraced)(workloads, args)
    failed = tally["failed"]
    print("env %s" % json.dumps(env, sort_keys=True))
    print("run %s" % json.dumps(dict(extra, workload=args.workload, seed=args.seed,
                                     trace=args.trace), sort_keys=True))
    print("%-14s %-36s %s" % ("workload", "metric", "value"))
    print("%-14s %-36s %d/%d = %.4g" % (args.workload, "failed_frac", failed,
                                        tally["attempted"], extra["failed_frac"]))
    for name, m in metrics.items():
        print("%-14s %-36s %.6g %s" % (args.workload, name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": tally["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
