#!/usr/bin/env python3
"""Steadiness record for the benchmark in BENCHMARK.json.

Runs one or more sets of runs. In a set, every workload (or those named)
runs RUNS times, interleaved, each run with its own seed. For every
end-to-end metric the script reports, per set, its median and its spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. With two or more sets it also reports how far each later
set's median is worse than the first set's, against the same bound, and
whether the share of failed operations is the same in every set. Run from
the repository root:

    python3 e2ebench/steadiness.py --runs 10 --sets 2 --out e2ebench/steadiness.json
    python3 e2ebench/steadiness.py --runs 5 --workloads calibrate

The exit code is 1 when a spread or a cross-set difference exceeds its
bound or the failed shares differ, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    took = time.time() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def run_set(bench, names, runs, first_seed):
    """One interleaved set: `runs` runs of every workload."""
    out = {n: [] for n in names}
    for i in range(runs):
        for n in names:
            seed = first_seed + i
            result, took = run_once(bench, n, seed)
            with open(f".bench_out/{n}.json") as f:
                detail = json.load(f)
            extra = {k: detail[k] for k in ("latency_us_median_of_rounds",) if k in detail}
            out[n].append({"seed": seed, "seconds": round(took, 1), **result, **extra})
            print(f"{n} seed {seed}: {took:.1f} s, correct={result['correct']}, "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    return out


def summarize(bench, names, runs):
    """Per workload: each end-to-end metric's median, spread and bound."""
    summary, ok = {}, True
    for n in names:
        summary[n] = {}
        print(f"\n{n}")
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            vals = [r["metrics"][metric]["value"] for r in runs[n]]
            med, sp = spread(vals)
            within = sp <= bound
            ok &= within
            summary[n][metric] = {
                "median": med, "spread": sp, "bound": bound,
                "min": min(vals), "max": max(vals), "within_bound": within,
            }
            flag = ("" if sp <= bound / 3 else
                    "  (over a third of the bound)" if within else "  OVER BOUND")
            print(f"  {metric:14s} median {med:.6g}  spread {sp:.4f}  bound {bound}{flag}")
        ok &= all(r["correct"] for r in runs[n])
        summary[n]["failed_share"] = sorted(
            {str(Fraction(r["failed"], r["attempted"])) for r in runs[n]})
        # Per-kind latencies of serve-mixed: detail, not end-to-end metrics.
        lat = [r["latency_us_median_of_rounds"] for r in runs[n]
               if "latency_us_median_of_rounds" in r]
        if lat:
            summary[n]["latency_us"] = {}
            for key in lat[0]:
                med, sp = spread([x[key] for x in lat])
                summary[n]["latency_us"][key] = {"median": med, "spread": sp}
                print(f"  (detail) {key:9s} median {med:.6g}  spread {sp:.4f}")
    return summary, ok


def agreement(bench, names, sets):
    """How far each later set's median is worse than the first set's."""
    out, ok = {}, True
    first = sets[0]["summary"]
    print("\nagreement with the first set (worse by, as a share of its median)")
    for n in names:
        out[n] = {}
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            base = first[n][metric]["median"]
            worse = []
            for s in sets[1:]:
                med = s["summary"][n][metric]["median"]
                d = (med - base) / base
                worse.append(d if m["better"] == "lower" else -d)
            within = all(w <= bound for w in worse)
            ok &= within
            out[n][metric] = {"worse_by": worse, "bound": bound, "within_bound": within}
            print(f"  {n:12s} {metric:14s} worse by {', '.join(f'{w:+.4f}' for w in worse)}"
                  f"  bound {bound}{'' if within else '  OVER BOUND'}")
        shares = [s["summary"][n]["failed_share"] for s in sets]
        same = all(sh == shares[0] and len(sh) == 1 for sh in shares)
        ok &= same
        out[n]["failed_share_same"] = same
    return out, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n in names]

    sets, ok = [], True
    for k in range(args.sets):
        first_seed = args.first_seed + 100 * k
        print(f"\n== set {k + 1}: seeds {first_seed}..{first_seed + args.runs - 1}")
        runs = run_set(bench, names, args.runs, first_seed)
        summary, set_ok = summarize(bench, names, runs)
        ok &= set_ok
        sets.append({"seeds": [first_seed, first_seed + args.runs - 1],
                     "summary": summary, "runs": runs})
    record = {"run_seconds": bench["run_seconds"], "sets": sets}
    if len(sets) > 1:
        record["agreement"], agree_ok = agreement(bench, names, sets)
        ok &= agree_ok
    record["all_within_bounds"] = ok
    print(f"\nall within bounds: {ok}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
