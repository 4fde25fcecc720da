"""Run one workload on several seeds and print each gated metric's median
and spread (quartile distance over median) against its bound in
BENCHMARK.json. The ungated updates_per_s is read from the report and
shown beside them.

    python3 perfbench/spread.py --workload http-rows --seeds 10 --seconds 20

Run it from the checkout root. Each run goes through perfbench/run.sh.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10, help="runs, on seeds first..first+n-1")
    ap.add_argument("--first", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in range(args.first, args.first + args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        res = json.loads(lines[-1])
        for line in lines:
            if line.startswith("updates_per_s "):
                res["metrics"]["updates_per_s"] = {"value": float(line.split()[1])}
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    worst = 0.0
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            worst = max(worst, spread / bound)
            mark = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
        print(f"{name:24s} median {med:12.6g}  spread {spread:6.3f}  bound {bound}  {mark}")
    print(f"worst spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
