"""Run the benchmark over ten seeds and summarise it as one JSON file.

    python3 perfbench/collect.py --label c069f06 \
        --out perfbench/baseline/BENCH_c069f06.json

For each workload: ten untraced runs (seeds 1..SEEDS, each a fresh
process, each as long as BENCHMARK.json's run_seconds), summarised per
end-to-end metric as the median, the quartiles and the spread (quartile
distance over median, as statistics.quantiles(values, n=4) gives the
quartiles); then one traced run (seed 1) for the per-layer metrics.  Run
from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

SEEDS = 10


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s seed %d trace %d exited %d"
                           % (workload, seed, trace, proc.returncode))
    info = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("env", "run"):
            info[key] = json.loads(rest)
    return json.loads(lines[-1]), info


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    doc = {"label": args.label, "seconds": seconds, "workloads": {}}
    for workload in run.WORKLOAD_NAMES:
        results, run_lines = [], []
        for seed in range(1, SEEDS + 1):
            result, info = one_run(workload, seed, seconds, 0)
            doc["env"] = info["env"]
            results.append(result)
            run_lines.append(info["run"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()})),
                flush=True)
        entry = {"runs": len(results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "run_lines": run_lines,
                 "end_to_end": {}}
        for name, m in results[0]["metrics"].items():
            entry["end_to_end"][name] = dict(
                summarise([r["metrics"][name]["value"] for r in results]),
                unit=m["unit"])
        result, info = one_run(workload, 1, seconds, 1)
        entry["traced"] = {"run": info["run"],
                           "per_layer": {k: v["value"] for k, v
                                         in result["metrics"].items()}}
        doc["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print("%-14s %-12s median %.6g  spread %.4f"
                  % (workload, name, s["median"], s["spread"]), flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
