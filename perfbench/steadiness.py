#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: run a workload once per
seed, then for each metric take the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound.

    python3 perfbench/steadiness.py [--seeds 1-10] [WORKLOAD...]

Run from the root of a checkout. Prints one table per workload and a
JSON summary line per workload; exits 1 if any spread other than
setup_s's exceeds a third of its bound, or any run reports a failure.
"""

import json
import os
import statistics
import subprocess
import sys


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    seeds = parse_seeds("1-10")
    names = []
    it = iter(argv)
    for a in it:
        if a == "--seeds":
            seeds = parse_seeds(next(it))
        else:
            names.append(a)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = names or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = {}
        for seed in seeds:
            r = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            last = r.stdout.decode().rstrip("\n").split("\n")[-1]
            res = json.loads(last)
            if r.returncode != 0 or not res["correct"] or res["failed"]:
                print("%s seed %d: code %d, failed %d" %
                      (name, seed, r.returncode, res["failed"]))
                ok = False
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        summary = {}
        print("== %s, seeds %d-%d ==" % (name, seeds[0], seeds[-1]))
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(k)
            flag = ""
            if b is not None and k != "setup_s" and not spread < b / 3:
                flag = "  OVER bound/3"
                ok = False
            summary[k] = {"median": med, "spread": spread, "bound": b,
                          "values": vs}
            print("%-16s median %14.6g  spread %7.4f  bound %s%s" %
                  (k, med, spread, b, flag))
        print(json.dumps({"workload": name, "seeds": seeds,
                          "metrics": summary}))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
