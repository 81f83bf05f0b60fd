#!/usr/bin/env python3
"""Aggregate perfbench run records into a ledger.

Each run of perfbench writes .bench_build/perfbench/records/
<workload>-seed<n>-trace<t>.json: its environment header, every metric with
its unit, and the raw samples behind its medians.  This script groups the
records by workload and trace mode and reports, per metric, the median of
the runs, their quartiles (statistics.quantiles, n=4), the run count and
the spread (p75 - p25) / median.  For end-to-end metrics it compares the
spread with the bound BENCHMARK.json fixes and flags any spread above a
third of it.

    python3 perfbench/ledger.py [--records DIR] [--write FILE]

Run it from the root of a checkout.  --write saves the ledger as JSON.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "p25": q1, "p75": q3, "n": len(values), "spread": spread}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", default=".bench_build/perfbench/records")
    ap.add_argument("--write", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    groups = {}
    env = None
    for path in sorted(glob.glob(os.path.join(args.records, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        env = env or {k: v for k, v in rec["env"].items() if k != "seed"}
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    if not groups:
        sys.exit("ledger: no records under " + args.records)

    ledger = {"env": env, "workloads": {}}
    steady = True
    for (wl, trace), recs in sorted(groups.items()):
        mode = "end_to_end" if trace == 0 else "per_layer"
        seeds = sorted(r["seed"] for r in recs)
        failures = [f for r in recs for f in r["failures"] or []]
        print(f"{wl} {mode}: {len(recs)} runs, seeds {seeds}, {len(failures)} failures")
        out = {}
        for name in sorted(recs[0]["metrics"]):
            unit = recs[0]["metrics"][name]["unit"]
            st = stats([r["metrics"][name]["value"] for r in recs if name in r["metrics"]])
            st["unit"] = unit
            flag = ""
            if trace == 0 and name in bounds:
                st["bound"] = bounds[name]
                if name != "setup_s" and st["spread"] > bounds[name] / 3:
                    flag = "  SPREAD ABOVE BOUND/3"
                    steady = False
            out[name] = st
            print(f"  {name:26s} {st['median']:14.6g} {unit:8s} p25 {st['p25']:.6g} p75 {st['p75']:.6g}"
                  f" n {st['n']} spread {st['spread']:.4f}{flag}")
        ledger["workloads"].setdefault(wl, {})[mode] = {"seeds": seeds, "failures": failures, "metrics": out}
    if args.write:
        with open(args.write, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
            f.write("\n")
    print("steady" if steady else "NOT steady")


if __name__ == "__main__":
    main()
