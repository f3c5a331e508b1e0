#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads sim-sweep,svc-steady \
        --seeds 1-10 --out .bench_run/spread-a.json
    python3 perfbench/spread.py --compare .bench_run/spread-a.json \
        .bench_run/spread-b.json

The first form runs perfbench/run.py once per workload and seed (untraced,
--seconds from BENCHMARK.json), then prints for every end-to-end metric
its median, quartiles and spread: (Q3 - Q1) / median, with the quartiles
of statistics.quantiles(values, n=4). Every spread, setup_s's too, must
stay under the metric's bound in BENCHMARK.json; under a third of it
counts as steady. The second form checks that the second set's median of
every metric is not worse than the first set's by more than its bound.
Exit status 1 when a check fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartile_spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median); spread is inf at median 0."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_sets(workloads, seeds, seconds):
    results = {}
    for wl in workloads:
        results[wl] = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = r.stdout.strip().splitlines()[-1:] or ["{}"]
            try:
                res = json.loads(last[0])
            except json.JSONDecodeError:
                res = {}
            ok = r.returncode == 0 and res.get("correct") is True
            print(f"{wl} seed {seed}: exit {r.returncode} correct {ok}",
                  file=sys.stderr, flush=True)
            if not ok:
                sys.stderr.write(r.stderr[-2000:])
            results[wl].append({"seed": seed, "ok": ok,
                                "metrics": res.get("metrics", {})})
    return results


def report(results, spec):
    bad = False
    for wl, runs in results.items():
        print(f"== {wl} ({len(runs)} runs)")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs
                    if r["ok"] and m["name"] in r["metrics"]]
            if len(vals) < 2:
                print(f"  {m['name']}: too few values")
                bad = True
                continue
            med, q1, q3, spread = quartile_spread(vals)
            bound = m["bound"]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            bad |= spread > bound
            print(f"  {m['name']:<18} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.3f} bound {bound} "
                  f"{verdict}")
        if not all(r["ok"] for r in runs):
            print("  FAILED RUNS:", [r["seed"] for r in runs if not r["ok"]])
            bad = True
    return bad


def compare(first, second, spec):
    bad = False
    for wl in first:
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in first[wl] if r["ok"]]
            b = [r["metrics"][m["name"]]["value"]
                 for r in second.get(wl, []) if r["ok"]]
            if not a or not b:
                continue
            w = worse_by(statistics.median(a), statistics.median(b),
                         m["better"])
            flag = "WORSE THAN BOUND" if w > m["bound"] else "ok"
            bad |= w > m["bound"]
            print(f"{wl:<11} {m['name']:<18} worse by {w:+.3f} "
                  f"(bound {m['bound']}) {flag}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--out", help="write the raw values here (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        first, second = (json.loads(pathlib.Path(p).read_text())
                         for p in args.compare)
        return 1 if compare(first, second, spec) else 0
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    results = run_sets(workloads, parse_seeds(args.seeds), spec["run_seconds"])
    if args.out:
        pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        pathlib.Path(args.out).write_text(json.dumps(results, indent=1))
    return 1 if report(results, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
