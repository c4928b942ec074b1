#!/usr/bin/env python3
"""Alternating parent/change pairs of two perfbench binaries.

Runs one pair per seed: the parent binary and the change binary on the
same workload, seed and run length, alternating which runs first. For
each workload and each metric of BENCHMARK.json's `end_to_end` list (its
`per_layer` list with `--trace 1`) it prints both sides' medians and
quartiles, every pair's delta and the change's win count. For an
end-to-end metric it then says whether a gain holds by the rule of
choosing-metrics section 8 (the change wins at least nine tenths of the
pairs, ties counting for neither, and the medians differ by more than
the parent's interquartile range), and names any metric whose median is
worse than the parent's by more than its BENCHMARK.json bound. It also
prints each side's share of failed operations.

A perfbench binary finds BENCHMARK.json through the source tree it was
built from, so build the parent and the change each in its own checkout:

    cargo build --release --offline --manifest-path perfbench/Cargo.toml

Usage, from anywhere:

    python3 scripts/perf_pairs.py --parent <perfbench> --change <perfbench> \\
        --workload tts_decode --seeds 51-60 [--seconds S] [--trace 0|1]

`--workload` may repeat; `--seeds` takes a list and ranges (`1,4,7-9`).
`--seconds` defaults to BENCHMARK.json's `run_seconds`. Exits 1 if a run
fails its output checks or prints no result line, 2 on bad arguments;
the verdicts are printed, not enforced.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError("no seeds")
    return seeds


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def quartiles(values):
    s = sorted(values)
    return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perf_pairs: no result line from {' '.join(cmd)}")
    result["ok"] = proc.returncode == 0 and result.get("correct") is True
    return result


def better(kind, a, b):
    """Whether value `a` is better than `b` for a metric of that kind."""
    return a < b if kind == "lower" else a > b


def relative(a, base):
    return (a - base) / base if base else 0.0


def report(workload, metric, pairs, end_to_end):
    """Prints one metric's summary; returns True if it is out of bound."""
    name, kind = metric["name"], metric["better"]
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(kind, c, p) for p, c in zip(parent, change))
    deltas = " ".join(f"{100 * relative(c, p):+.1f}%" for p, c in zip(parent, change))
    print(f"{workload} {name} ({kind} is better, {metric['unit']}):")
    print(f"  parent median {pm:.6g} [q1 {p1:.6g}, q3 {p3:.6g}]")
    print(f"  change median {cm:.6g} [q1 {c1:.6g}, q3 {c3:.6g}]"
          f"  ({100 * relative(cm, pm):+.1f}% vs parent)")
    print("  pairs (parent -> change): "
          + ", ".join(f"{p:.6g} -> {c:.6g}" for p, c in zip(parent, change)))
    print(f"  pair deltas: {deltas}")
    print(f"  change wins {wins} of {len(pairs)}")
    if not end_to_end:
        return False
    gain = wins >= 0.9 * len(pairs) and better(kind, cm, pm) and abs(cm - pm) > p3 - p1
    print(f"  gain by the section 8 rule: {'holds' if gain else 'does not hold'}"
          f" (median gap {abs(cm - pm):.6g}, parent IQR {p3 - p1:.6g})")
    worse = relative(cm, pm) if kind == "lower" else -relative(cm, pm)
    if worse > metric["bound"]:
        print(f"  WORSE than its bound: {100 * worse:.1f}% > {100 * metric['bound']:.0f}%")
        return True
    return False


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="perfbench binary of the parent")
    ap.add_argument("--change", required=True, help="perfbench binary of the change")
    ap.add_argument("--workload", action="append", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", required=True, help="e.g. 51-60 or 1,4,7-9")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        ap.error(f"--seeds: {e}")
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    failed_runs = 0
    out_of_bound = []
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {}
            for side in order:
                binary = args.parent if side == "parent" else args.change
                pair[side] = run_once(binary, workload, seed, args.seconds, args.trace)
                failed_runs += not pair[side]["ok"]
            pairs.append((pair["parent"], pair["change"]))
            print(f"{workload} pair {i + 1} seed {seed} ({order[0]} first) done", flush=True)
        for side, k in (("parent", 0), ("change", 1)):
            attempted = sum(p[k]["attempted"] for p in pairs)
            failed = sum(p[k]["failed"] for p in pairs)
            share = failed / attempted if attempted else 0.0
            print(f"{workload} {side}: {failed} of {attempted} operations failed ({share:.3%})")
        for metric in metrics:
            if report(workload, metric, pairs, not args.trace):
                out_of_bound.append(f"{workload} {metric['name']}")
    if not args.trace:
        print("worse than the bound: " + (", ".join(out_of_bound) or "none"))
    if failed_runs:
        print(f"perf_pairs: {failed_runs} run(s) failed their output checks")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
