"""loopcmc benchmark: drives ``loopcmc.cli.main`` on a fixed workload.

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this file's directory and
the program is imported from its ``src``.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics of untraced
passes; with ``--trace 1`` it holds the per-layer metrics of a traced pass.
Every run is made in fresh processes: set-up probes around one measuring
worker (``worker.py``).  All ops run single-threaded
(``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1``).  A detailed record of
each run is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
# Set-up probes, half before and half after the measuring worker, so that the
# median spans the run rather than one moment of the host's speed.
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0       # every run must end well within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def run_worker(mode, args, deadline):
    """Start one worker in a fresh process and return its JSON result."""
    path = os.path.join(STATE, "work", f"{mode}.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--work", os.path.join(STATE, "work", mode),
           "--workload", args.workload, "--mode", mode,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--result", path]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {mode} worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)],
                              env=dict(os.environ, **THREAD_ENV), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not os.path.exists(path):
        raise BenchError(f"{mode} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    with open(path) as fh:
        return json.load(fh)


def op_records(passes):
    return [r for p in passes for r in p["ops"]]


def end_to_end(result, setups):
    # A pass's time is averaged over the whole measuring time: the host's
    # speed drifts over seconds, and a median of two to four passes would
    # pick one moment of that drift.
    passes = result["passes"]
    total = sum(p["wall_s"] for p in passes)
    return {
        "wall_s": (total / len(passes), "s"),
        "nodes_per_s": (sum(p["nodes"] for p in passes) / total, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def summary(args, result, setups, metrics):
    """The detailed record kept in .perfbench/results/."""
    records = op_records(result["passes"])
    latencies = [r["s"] for r in records]
    tail = stats.tail(latencies)
    failed = [r for r in records if r["problems"]]
    out = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": result["provenance"],
        "setup_samples_s": setups,
        "attempted": len(records), "failed": len(failed),
        "failed_fraction": len(failed) / len(records),
        "failures": [{"op": r["op"], "problems": r["problems"]}
                     for r in failed],
        "op_s.p50": {"value_s": statistics.median(latencies),
                     "samples": len(latencies)},
        "op_tail": None if tail is None else {
            "level": tail[0], "value_s": tail[1], "samples": tail[2]},
        "passes": [{"wall_s": p["wall_s"], "nodes": p["nodes"],
                    "ops": {r["op"]: r["s"] for r in p["ops"]}}
                   for p in result["passes"]],
        "h_rel_err.max": max((e for r in records for e in r["h_rel_err"]),
                             default=None),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if "op_split" in result:
        out["op_split"] = result["op_split"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "loopcmc", "cli.py")):
        print(f"no loopcmc sources under {ROOT}/src; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    shutil.rmtree(os.path.join(STATE, "work"), ignore_errors=True)
    os.makedirs(os.path.join(STATE, "work"))
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)

    try:
        setups = [run_worker("setup", args, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]
        result = run_worker("trace" if args.trace else "measure", args,
                            deadline)
        setups += [run_worker("setup", args, deadline)["setup_s"]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    metrics = result["layers"] if args.trace else end_to_end(result, setups)
    record = summary(args, result, setups, metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE, "results", name), "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
    for f in record["failures"]:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
