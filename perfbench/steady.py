#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload in sets of runs made one after another (so the sets
are taken at different times), each run with its own seed, and reports for
each end-to-end metric its median and quartiles per set, the spread (the
distance between the quartiles as a share of the median) and the drift of
the median from the first set to each later one. A metric passes when
every spread except setup_s stays within its bound from BENCHMARK.json and
no later median differs from the first, better or worse, by more than the
bound; the failed share of operations must also be the same in every set.
The spread of setup_s is printed but not tested: set-up is timed a few
times per run, and its bound is on drift between sets.

    python3 perfbench/steady.py                     # 2 sets x 10 runs of every workload
    python3 perfbench/steady.py --sets 1 --runs 5 --workloads suite

Run it from the root of a checkout. Exit code 0 when everything passes.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    start = time.time()
    p = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True)
    wall = time.time() - start
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    return res, host, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1, help="first seed; each run takes the next")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    # sets[s][workload] = list of (result, host, wall)
    sets = []
    seed = args.seed0
    for s in range(args.sets):
        got = {}
        for w in names:
            got[w] = []
            for _ in range(args.runs):
                res, host, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
                seed += 1
                got[w].append((res, host, wall))
                print(f"set {s + 1} {w} seed {seed - 1}: {wall:.1f}s wall, steal {host.get('steal_share', 0):.3f}, "
                      f"anchor {host.get('anchor_ms', 0):.1f}ms, "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                      flush=True)
        sets.append(got)

    ok = True
    for w in names:
        print(f"\n== {w} ==")
        shares = {sum(r["failed"] for r, _, _ in st[w]) / sum(r["attempted"] for r, _, _ in st[w]) for st in sets}
        walls = [wall for st in sets for _, _, wall in st[w]]
        print(f"failed share per set: {sorted(shares)}; wall per run: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
        if len(shares) != 1 or any(not r["correct"] for st in sets for r, _, _ in st[w]):
            ok = False
        for name, m in bounds.items():
            bound, lower = m["bound"], m["better"] == "lower"
            first = None
            for i, st in enumerate(sets):
                values = [r["metrics"][name]["value"] for r, _, _ in st[w]]
                q1, q2, q3, sp = spread(values)
                verdict = "ok"
                if name != "setup_s" and sp > bound:
                    verdict, ok = "SPREAD ABOVE BOUND", False
                elif name != "setup_s" and sp > bound / 3:
                    verdict = "spread above a third of the bound"
                line = f"{name:14s} set {i + 1}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {sp:.3f} (bound {bound})"
                if first is None:
                    first = q2
                else:
                    drift = (q2 - first) / first if lower else (first - q2) / first
                    line += f" drift {drift:+.3f}"
                    if abs(drift) > bound:
                        verdict, ok = "DRIFT ABOVE BOUND", False
                print(f"{line} {verdict}")
    print("\nPASS" if ok else "\nFAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
