#!/usr/bin/env python3
"""Benchmark entry point: builds the library, bgls_serve, bgls_fleet and
perfbench_driver from the checkout's sources, runs one workload, checks
its outputs and prints every metric with its unit. The last line of
standard output is one JSON object:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload rcs_sv20 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json (tracing off);
--trace 1 reports its per-layer metrics from a traced run. The build goes
to $CARGO_TARGET_DIR (default .bench_build) under the checkout; every
file the run writes stays there.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rcs_sv20", "noisy_traj", "fleet_mixed")
TARGETS = ("perfbench_driver", "bgls_serve", "bgls_fleet")
# A --trace 0 run starts fresh set-up-only processes until it has
# SETUP_MIN_SAMPLES of them and they took SETUP_SECONDS; the measuring
# process adds one more set-up sample, and setup_s is the median. A fleet
# set-up process takes ~0.2 s (mostly the servers' exit) and a library
# one 0.3-0.7 s, so the short, noisy fleet set-up gets the most samples.
SETUP_MIN_SAMPLES = 4
SETUP_SECONDS = 5.0
DRIVER_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no BGLS sources next to perfbench/ under {ROOT}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "perfbench-build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", *TARGETS])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed; see " + str(log))


def stop_group(pgid):
    """Kills whatever is left of a driver's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def drive(driver, work_dir, env, *args):
    """Runs perfbench_driver in its own process group; returns its JSON."""
    proc = subprocess.Popen([str(driver), *args], cwd=work_dir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail(f"driver timed out: {' '.join(args)}")
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail(f"driver exited {proc.returncode}: {' '.join(args)}")
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    build(build_dir)
    bin_dir = build_dir / "bgls" / "tools"
    driver = build_dir / "perfbench_driver"

    work_dir = build_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = dict(os.environ, OMP_NUM_THREADS=str(min(4, os.cpu_count() or 1)))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--bin-dir", str(bin_dir)]
    try:
        setups = []
        setup_start = time.monotonic()
        while not args.trace and (len(setups) < SETUP_MIN_SAMPLES or
                                  time.monotonic() - setup_start < SETUP_SECONDS):
            setups.append(drive(driver, work_dir, env, "--mode", "setup", *common)
                          ["metrics"]["setup_s"]["value"])
        ceilings = drive(driver, work_dir, env, "--mode", "ceilings") if args.trace else None
        result = drive(driver, work_dir, env, "--mode", "measure", *common,
                       "--seconds", str(args.seconds), "--trace", str(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = dict(result["metrics"])
    if args.trace:
        measured.update(ceilings["metrics"])
        ws = measured["machine.copy_gbps_ws"]["value"]
        gbps = measured.get("statevector.achieved_gbps", {"value": 0.0})["value"]
        measured["statevector.roofline_frac"] = {"value": gbps / ws, "unit": "ratio"}
        measured["failed_share"] = {"value": result["failed"] / result["attempted"],
                                    "unit": "ratio"}
    else:
        setups.append(measured["setup_s"]["value"])
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    metrics, idle = {}, []
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            if not args.trace:
                fail(f"driver did not report {name}")
            idle.append(name)  # a layer this workload does not exercise
            measured[name] = {"value": 0.0, "unit": entry["unit"]}
        value = measured[name]["value"]
        if value is None or not math.isfinite(value):
            fail(f"{name} is not a finite number")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    for name in sorted(measured):
        print(f"{args.workload} {name} = {measured[name]['value']:.6g} "
              f"{measured[name]['unit']}")
    if idle:
        print(f"{args.workload} layers not exercised (reported as 0): {', '.join(idle)}")
    if setups:
        print(f"{args.workload} setup samples (s): "
              + ", ".join(f"{s:.4f}" for s in setups))
    for why in result["failures"]:
        print(f"{args.workload} FAILED: {why}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
