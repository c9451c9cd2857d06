#!/usr/bin/env python3
"""Repeat-run checks for the benchmark (run from the root of a checkout).

  python3 perfbench/proof.py spread --workloads rcs_sv20 --seeds 1 2 3 4 5
      Runs run.py once per seed and prints, for each end-to-end metric,
      the median, the quartiles (statistics.quantiles, n=4) and their
      distance as a share of the median, against the metric's bound.

  python3 perfbench/proof.py exact --workloads rcs_sv20 noisy_traj --seed 7
      Runs run.py --trace 1 twice with the same seed and checks that the
      exact counters repeat. Exits 1 if one differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_PREFIXES = ("core.state_applications", "core.probability_evaluations",
                  "core.max_dictionary_size", "core.trajectories",
                  "statevector.apply_calls.", "engine.shards",
                  "journal.records_per_job", "api.routed.", "traced.jobs")
# The one counter allowed to differ between runs of a seed: a worker
# journals no terminal record for a job that finishes before its submit
# handler stores the report context, and whether that happens depends on
# timing. A library bug, found by this check; see perfbench/README.md.
TIMING_DEPENDENT = {("fleet_mixed", "journal.records_per_job")}


def run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"run.py failed for {workload} seed {seed}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(out.stdout)
    return result


def spread(args, spec):
    worst = 0.0
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        print(f"{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for entry in spec["end_to_end"]:
            name = entry["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / mid
            flag = "ok" if share < entry["bound"] / 3 else "WIDE"
            if name != "setup_s":
                worst = max(worst, share / entry["bound"])
            print(f"  {name:16s} median {mid:12.6g} {entry['unit']:5s} "
                  f"spread {share:7.4f} bound {entry['bound']:.2f} {flag}  "
                  + " ".join(f"{v:.4g}" for v in values))
    print(f"widest spread / bound (setup_s excluded): {worst:.3f}")


def exact(args, _spec):
    mismatches = 0
    for workload in args.workloads:
        first, second = (run(workload, args.seed, args.seconds, 1)["metrics"]
                         for _ in range(2))
        for name in sorted(first):
            prefix = next((p for p in EXACT_PREFIXES if name.startswith(p)), None)
            if prefix is None:
                continue
            a, b = first[name]["value"], second[name]["value"]
            if a == b:
                status = "same"
            elif (workload, prefix) in TIMING_DEPENDENT:
                status = "differs (terminal-record race)"
            else:
                status = "DIFFERS"
                mismatches += 1
            print(f"{workload} {name}: {a:.10g} {b:.10g} {status}")
    sys.exit(1 if mismatches else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("spread", "exact"))
    parser.add_argument("--workloads", nargs="+",
                        default=["rcs_sv20", "noisy_traj", "fleet_mixed"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = spec["run_seconds"]
    {"spread": spread, "exact": exact}[args.check](args, spec)


if __name__ == "__main__":
    main()
