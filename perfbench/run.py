#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source, runs one workload and
checks its outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, untraced

Run from the repository root (the directory holding BENCHMARK.json). The
build goes to .bench_build/perfbench, the checkpoint and trace files to
.bench_build/perfbench-out. Human-readable lines come first; the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run. The exit code is 0 only when every output
check and the benchmark's self-check passed.

Stdlib only. See perfbench/DESIGN.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# The seed whose digests BENCHMARK.json records (in each workload's "why").
DEFAULT_SEED = 1

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
DIGEST_RE = re.compile(r"digest ([0-9a-f]{16})")

# Which end-to-end metric each per-layer metric should move, and on which
# workloads (perfbench/DESIGN.md explains each prediction).
WALL, CPU, SETUP = "wall_ref_s", "cpu_ref_s", "setup_s"
ROUNDS, NODE_ROUNDS = "sim_rounds_per_ref_s", "awake_node_rounds_per_ref_s"
POPULATIONS = ["dutycycle_sync", "drift_hold"]
ALL = ["catalog_sweep"] + POPULATIONS
PREDICTIONS = {
    "thread_pool.utilization": (WALL, ["catalog_sweep"]),
    "thread_pool.tasks_stolen": (WALL, ["catalog_sweep"]),
    "thread_pool.peak_pending": (WALL, ["catalog_sweep"]),
    "thread_pool.task_wall_s": (WALL, ["catalog_sweep"]),
    "service.chunks": (WALL, ["catalog_sweep"]),
    "service.chunk_gap_ms_p50": (WALL, ["catalog_sweep"]),
    "service.chunk_gap_ms_p90": (WALL, ["catalog_sweep"]),
    "service.checkpoint_bytes": (WALL, ["catalog_sweep"]),
    "scenario.writer_ms": (WALL, ["catalog_sweep"]),
    "scenario.export_bytes": (WALL, ["catalog_sweep"]),
    "experiment.make_run_spec_ms": (SETUP, POPULATIONS),
    "experiment.aggregate_ms": (WALL, ["catalog_sweep"]),
    "sync.runs": (WALL, ["catalog_sweep"]),
    "sync.timeouts": (WALL, ["catalog_sweep"]),
    "sync.task_ms_p50": (WALL, ["catalog_sweep"]),
    "sync.task_ms_p98": (WALL, ["catalog_sweep"]),
    "sync.task_ms_max": (WALL, ["catalog_sweep"]),
    "sync.task_self_s": (CPU, ["catalog_sweep"]),
    "radio.ctor_ms": (SETUP, POPULATIONS),
    "radio.self_s": (NODE_ROUNDS, ["dutycycle_sync"]),
    "radio.ns_per_awake_node_round": (NODE_ROUNDS, ["dutycycle_sync"]),
    "radio.rounds": (ROUNDS, POPULATIONS),
    "radio.awake_node_rounds": (NODE_ROUNDS, ["dutycycle_sync"]),
    "radio.wake_events_popped": (NODE_ROUNDS, ["dutycycle_sync"]),
    "radio.fast_forwarded_rounds": (ROUNDS, ["dutycycle_sync"]),
    "radio.deliveries": (WALL, ["catalog_sweep"]),
    "radio.collisions": (WALL, ["catalog_sweep"]),
    "protocol.act_calls": (NODE_ROUNDS, ["dutycycle_sync"]),
    "protocol.act_s": (NODE_ROUNDS, ["dutycycle_sync"]),
    "protocol.on_round_end_calls": (NODE_ROUNDS, ["dutycycle_sync"]),
    "protocol.on_round_end_s": (NODE_ROUNDS, ["dutycycle_sync"]),
    "protocol.on_activate_calls": (WALL, ["dutycycle_sync"]),
    "protocol.on_activate_s": (WALL, ["dutycycle_sync"]),
    "protocol.skip_rounds_calls": (WALL, ["drift_hold"]),
    "protocol.skipped_rounds": (WALL, ["drift_hold"]),
    "protocol.skip_rounds_s": (WALL, ["drift_hold"]),
    "protocol.observer_calls": (WALL, ["drift_hold"]),
    "protocol.observer_s": (WALL, ["drift_hold"]),
    "adversary.disrupt_calls": (CPU, ["catalog_sweep"]),
    "adversary.disrupt_s": (CPU, ["catalog_sweep"]),
    "activation.calls": (CPU, ["catalog_sweep"]),
    "activation.busy_s": (CPU, ["catalog_sweep"]),
    "trace.overhead_frac": (WALL, ALL),
    "trace.spans": (WALL, ALL),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures and builds the perfbench target; True on success. Both
    steps are no-ops (well under a second) when nothing changed."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "perfbench"]]
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def self_check(spec, result, trace):
    """Problems with the emitted metrics and the trace file, as strings."""
    problems = []
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} is malformed")
        elif name not in declared:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        elif entry.get("unit") != declared[name]:
            problems.append(f"metric {name} has unit {entry.get('unit')!r}, "
                            f"BENCHMARK.json says {declared[name]!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} has no finite value")
    for name in declared:
        if name not in metrics:
            problems.append(f"metric {name} was not emitted")

    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for metric in spec["per_layer"]:
        moves, on = PREDICTIONS.get(metric["name"], (None, []))
        if moves not in e2e or not on or not set(on) <= workloads:
            problems.append(f"per-layer metric {metric['name']} names no "
                            "end-to-end metric and workload it should move")

    if trace:
        try:
            with open(result["trace_file"], encoding="utf-8") as f:
                events = json.load(f)
            if not isinstance(events, list):
                problems.append("trace file is not a JSON array")
        except (OSError, TypeError, ValueError) as e:
            problems.append(f"trace file does not parse: {e}")
    return problems


def reference_digest(spec, workload):
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            match = DIGEST_RE.search(entry["why"])
            return match.group(1) if match else None
    return None


def run_workload(spec, workload, seed, seconds, trace):
    """Runs the binary once; returns (contract dict, exit code)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--out", OUT_DIR]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"perfbench: {workload} printed no result "
            f"(exit {proc.returncode})")
        return None, 1

    failures = list(result["failures"])
    attempted = result["attempted"]
    failed = result["failed"]
    reference = reference_digest(spec, workload)
    if result["digest"] and (seed == DEFAULT_SEED or
                             not result["uses_seed"]):
        if reference is None:
            failures.append("BENCHMARK.json records no digest for "
                            + workload)
        elif result["digest"] != reference:
            # Every iteration produced this digest (the binary checks that
            # they agree), so every iteration failed the output check.
            failures.append(f"digest {result['digest']} != reference "
                            f"{reference}")
            failed = attempted
    problems = self_check(spec, result, trace)
    for problem in problems:
        failures.append("self-check: " + problem)

    print(f"\n{workload}: failed_frac {failed / attempted:.4f} "
          f"({failed} of {attempted} iterations), digest {result['digest']}")
    if not trace:
        for name, entry in result["metrics"].items():
            print(f"  {name:<26} {entry['value']:>18.6f} {entry['unit']}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")

    correct = proc.returncode == 0 and not failures
    contract = {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": result["metrics"]}
    return contract, 0 if correct else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.workload != "all":
        contract, code = run_workload(spec, args.workload, args.seed,
                                      args.seconds, bool(args.trace))
        if contract is not None:
            print(json.dumps(contract))
        return code

    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in names:
        contract, code = run_workload(spec, name, args.seed, args.seconds,
                                      bool(args.trace))
        if contract is None:
            summary["correct"] = False
            continue
        summary["correct"] &= code == 0
        summary["attempted"] += contract["attempted"]
        summary["failed"] += contract["failed"]
        summary["workloads"][name] = contract["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
