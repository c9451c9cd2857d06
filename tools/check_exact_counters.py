#!/usr/bin/env python3
"""Checks perfbench's exact work counters against their committed values.

  python3 tools/check_exact_counters.py          # exit 1 on any difference
  python3 tools/check_exact_counters.py --write  # record the current values

Runs `perfbench/run.py --trace 1 --seed 1` on rcs_sv20 and noisy_traj and
compares every metric whose name starts with one of perfbench's
EXACT_PREFIXES (perfbench/proof.py) with tests/data/exact_counters.json.
These counters repeat for a seed on any hardware, so a difference is a
change in the work the library does: record it with --write and state
the deltas with the change. fleet_mixed stays out: its traced run spawns
three servers, and proof.py lists its journal counter as timing-dependent.
Run from anywhere; run.py builds into .bench_build under the checkout.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the prefix list without writing bytecode into perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from proof import EXACT_PREFIXES  # noqa: E402

WORKLOADS = ("rcs_sv20", "noisy_traj")
SEED = 1
COMMITTED = ROOT / "tests" / "data" / "exact_counters.json"


def exact_counters(workload):
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", str(SEED),
                          "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"run.py failed on {workload}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stdout.write(out.stdout)
        sys.exit(f"run.py reported incorrect output on {workload}")
    return {name: metric["value"]
            for name, metric in sorted(result["metrics"].items())
            if name.startswith(EXACT_PREFIXES)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the current values to {COMMITTED.name}")
    args = parser.parse_args()

    current = {workload: exact_counters(workload) for workload in WORKLOADS}
    if args.write:
        COMMITTED.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {COMMITTED.relative_to(ROOT)}")
        return

    committed = json.loads(COMMITTED.read_text())
    differences = 0
    for workload in WORKLOADS:
        names = sorted(set(current[workload]) | set(committed.get(workload, {})))
        for name in names:
            now = current[workload].get(name)
            then = committed.get(workload, {}).get(name)
            status = "same" if now == then else "DIFFERS"
            differences += now != then
            print(f"{workload} {name}: committed {then} now {now} {status}")
    if differences:
        sys.exit(f"{differences} exact counters differ from "
                 f"{COMMITTED.relative_to(ROOT)}; if the change is intended, "
                 "rerun with --write and state the deltas")


if __name__ == "__main__":
    main()
