#!/usr/bin/env python3
"""Runs the benchmark in two series, one after the other, each on seeds
1..N of every workload, and checks the end-to-end metrics the way their
bounds in BENCHMARK.json are meant:

- within each series, the spread of a metric (the distance between its
  first and third quartile, as statistics.quantiles(values, n=4) gives
  them, as a share of its median) must stay below a third of its bound;
- the second series' median must not be worse than the first's by more
  than the bound.

Run from the repository root:

    python3 perfbench/prove.py --seeds 10 [--workloads induce-tcp,serve] [--out perfbench/BASELINE.json]

It prints every run's values and exits 1 if any check fails. With --out
it writes both series' medians and spreads and the host label of the runs.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

SERIES = 2


def run_series(bench, names, seeds, summary):
    """Runs every workload on every seed once; returns {workload: {metric: [values]}}."""
    out = {}
    for name in names:
        values = {}
        walls = []
        for seed in range(1, seeds + 1):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            walls.append(time.time() - start)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                raise SystemExit(f"{name} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
            for line in lines:
                if line.startswith("host "):
                    summary["host"] = json.loads(line[5:])
            res = json.loads(lines[-1])
            if not res["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect: {res}")
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        print(f"  {name}: {len(walls)} runs, wall per run {min(walls):.1f}-{max(walls):.1f} s", flush=True)
        out[name] = values
    return out


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    summary = {"host": None, "seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}

    series = []
    for s in range(SERIES):
        print(f"series {s + 1}", flush=True)
        series.append(run_series(bench, names, args.seeds, summary))

    ok = True
    for name in names:
        print(f"== {name}")
        row = summary["workloads"][name] = {}
        for m, spec in metrics.items():
            bound = spec["bound"]
            meds = [statistics.median(vals[name][m]) for vals in series]
            spreads = [spread(vals[name][m]) for vals in series]
            # Worsening of the second series' median, as a share of the first's.
            change = (meds[1] - meds[0]) / abs(meds[0])
            worse = change if spec["better"] == "lower" else -change
            flags = []
            if max(spreads) >= bound / 3:
                flags.append("spread above a third of the bound")
            if worse > bound:
                flags.append("second median worse by more than the bound")
            ok = ok and not flags
            row[m] = {"medians": meds, "spreads": spreads, "worse": worse}
            print(f"  {m:20s} medians {meds[0]:12.6g} {meds[1]:12.6g}  worse {worse:+.4f}"
                  f"  spreads {spreads[0]:.4f} {spreads[1]:.4f}  bound/3 {bound / 3:.4f}"
                  + "".join(f"  <-- {f}" for f in flags))
            for s, vals in enumerate(series):
                print(f"      series {s + 1}: " + " ".join(f"{v:.5g}" for v in vals[name][m]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
