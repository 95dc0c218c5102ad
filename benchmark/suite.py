#!/usr/bin/env python3
"""Runs the benchmark's workloads, prints and checks every metric.

Called by run.sh after the build. Names, units, directions and bounds are
read from BENCHMARK.json; nothing here repeats them. Each workload runs in a
process of its own, once untraced and once traced, so that peak memory is
per workload and the gated numbers never see a span.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# setup_s is a median of three builds and peak_rss_mib one reading; the
# other host metrics are taken over the run's rounds.
SAMPLES = {"setup_s": "3", "peak_rss_mib": "1"}


def run_one(binary, workload, seed, seconds, trace):
    """One process; returns its detail line and its result line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit code {done.returncode}")
    detail, result = done.stdout.strip().split("\n")[-2:]
    return {"detail": json.loads(detail), "result": json.loads(result)}


def run_set(binary, workloads, seed, seconds):
    runs = {}
    for w in workloads:
        print(f"running {w} ...", file=sys.stderr)
        runs[w] = {"untraced": run_one(binary, w, seed, seconds, 0),
                   "traced": run_one(binary, w, seed, seconds, 1)}
    return runs


def print_set(spec, runs):
    """Every metric with its name, value, unit, n and bound. Returns the
    problems found: failed operations, and a traced run whose simulated
    statistics differ from the untraced run's."""
    problems = []
    for w, run in runs.items():
        detail, result = run["untraced"]["detail"], run["untraced"]["result"]
        sim, rounds = detail["sim"], detail["rounds"]
        spread = detail["round_spread_host_ns_per_op"]
        print(f"\n== {w}: seed {detail['seed']}, {rounds} rounds, simulated statistics over "
              f"the first {sim['rounds']}, fingerprint {sim['fingerprint']}, "
              f"{detail['host_cpus']} CPUs, load {detail['load1_at_start']}")
        print(f"  {'end to end':34}{'value':>16} {'unit':8}{'n':>5} {'bound':>6}  status")
        for m in spec["end_to_end"]:
            name = m["name"]
            got = result["metrics"][name]
            status = "measured"
            if name.startswith("host_") and spread > m["bound"]:
                status = f"unresolved: round-to-round spread {spread:.1%}"
            n = SAMPLES.get(name, sim["rounds"] if name.startswith("sim_") else rounds)
            print(f"  {name:34}{got['value']:16.4f} {got['unit']:8}{n:>5} "
                  f"{m['bound']:6.0%}  {status}")
        fail_ratio = result["failed"] / result["attempted"]
        print(f"  {'fail_ratio':34}{fail_ratio:16.4g} {'ratio':8}{result['attempted']:>5} "
              f"{0:6.0%}  {'ok' if result['correct'] else 'FAILED'}")
        print(f"  sim_kreqs reference: {sim['sim_kreqs_reference']}")
        for side in ("untraced", "traced"):
            r = run[side]["result"]
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} ({side}): {r['failed']} of {r['attempted']} ops failed")
        traced = run["traced"]["detail"]
        if traced["sim"] != sim:
            problems.append(f"{w}: traced and untraced simulated statistics differ")
        ledger = {row["name"]: row for row in traced["ledger"]}
        print(f"  {'per layer (traced run)':34}{'value':>16} {'unit':12}{'calls/op':>9}"
              f"{'in situ':>10}")
        for name, got in run["traced"]["result"]["metrics"].items():
            row = ledger.get(name, {})
            calls = f"{row['calls_per_op']:9.4f}" if row else f"{'':9}"
            in_situ = row.get("in_situ_ns_per_call")
            in_situ = f"{in_situ:10.1f}" if in_situ is not None else ""
            print(f"  {name:34}{got['value']:16.4f} {got['unit']:12}{calls}{in_situ}")
    return problems


def check_repeat(spec, first, second):
    """Two sets of runs of one build: simulated statistics, fingerprints and
    failure counts must be identical, host metrics within their bounds."""
    problems = []
    print("\n== repeat check: second set against first")
    for w in first:
        a, b = first[w]["untraced"], second[w]["untraced"]
        if a["detail"]["sim"] != b["detail"]["sim"]:
            problems.append(f"{w}: simulated statistics differ between the sets")
        if (a["result"]["failed"], b["result"]["failed"]) != (0, 0):
            problems.append(f"{w}: fail_ratio is not 0 in both sets")
        spread = max(a["detail"]["round_spread_host_ns_per_op"],
                     b["detail"]["round_spread_host_ns_per_op"])
        for m in spec["end_to_end"]:
            name = m["name"]
            x, y = (r["result"]["metrics"][name]["value"] for r in (a, b))
            if name.startswith("sim_"):
                status = "ok (identical)" if x == y else "DIFFERS"
            else:
                change = abs(y - x) / x
                if change > m["bound"]:
                    status = f"DIFFERS by {change:.1%}"
                    problems.append(f"{w}: {name} differs by {change:.1%}, bound {m['bound']:.0%}")
                elif name.startswith("host_") and spread > m["bound"]:
                    status = f"unresolved: {change:.1%} apart, round-to-round spread {spread:.1%}"
                else:
                    status = f"ok ({change:.1%} apart)"
            print(f"  {w:14} {name:22}{x:16.4f}{y:16.4f}  {status}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=335597)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets on the same build and compare them")
    args = parser.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        sys.exit(f"unknown workloads {unknown}; BENCHMARK.json has {names}")
    seconds = args.seconds or spec["run_seconds"]
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("benchmark", "target"))
    binary = os.path.join(target, "release", "corm-benchmark")

    sets = [run_set(binary, workloads, args.seed, seconds)]
    problems = print_set(spec, sets[0])
    if args.check_repeat:
        sets.append(run_set(binary, workloads, args.seed, seconds))
        problems += print_set(spec, sets[1])
        problems += check_repeat(spec, sets[0], sets[1])

    sha = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    results = {
        "schema": "corm-benchmark-results-v1",
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
        "seed": args.seed,
        "seconds": seconds,
        "sets": sets,
        "problems": problems,
    }
    os.makedirs(os.path.join("benchmark", "out"), exist_ok=True)
    with open(os.path.join("benchmark", "out", "results.json"), "w") as f:
        json.dump(results, f, indent=1)
    print("\nwrote benchmark/out/results.json")
    for p in problems:
        print(f"PROBLEM: {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
