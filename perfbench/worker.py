"""Benchmark worker: runs one workload's ops in process through
``loopcmc.cli.main`` and writes what it measured as JSON.

``run.py`` starts it in a fresh process with the thread variables already
set, so numpy sees them at import.  Modes:

* ``setup``   -- import loopcmc and parse every op's command line, then stop;
* ``measure`` -- untraced passes over the ops until ``--seconds`` have passed;
* ``trace``   -- one untraced pass, then the same pass with spans recorded.

Every op is gated (``gate.py``); a failed op is counted and never stops the
run.  Outputs are written under ``--work``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from time import perf_counter

import gate
import spans
import workloads


def _fresh_dir(path):
    # `loopcmc dress --out DIR` exits 1 when DIR is missing, so every op's
    # directory is created before the op runs.
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _digests(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_op(cli, op, outdir, tracer=None):
    """Run one op, timed, then gate it; returns the op record."""
    _fresh_dir(outdir)
    argv = op.command(outdir)
    gc.collect()
    sink, errors = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.op = op.name
                code = tracer.call(spans.ROOT, cli.main, argv)
    except SystemExit as exc:            # argparse rejects a command line
        code = exc.code
    except Exception:                    # an op failure must not stop the run
        code = None
        errors.write(traceback.format_exc())
    elapsed = perf_counter() - t0
    verdict = gate.check_op(op.gate, outdir, code)
    problems = list(verdict.problems)
    if problems and errors.getvalue():
        problems.append(errors.getvalue().strip().splitlines()[-1])
    return {"op": op.name, "s": elapsed, "exit": code, "problems": problems,
            "nodes": verdict.nodes, "h_rel_err": verdict.h_rel_err,
            "digests": _digests(outdir)}


def run_pass(cli, ops, order, base, tracer=None):
    records = [run_op(cli, ops[i], os.path.join(base, ops[i].name), tracer)
               for i in order]
    return {"order": [ops[i].name for i in order], "ops": records,
            "wall_s": sum(r["s"] for r in records),
            "nodes": sum(r["nodes"] for r in records)}


def mark_changed(reference, later, why):
    """Count an op as failed when its output bytes differ from the
    reference pass."""
    ref = {r["op"]: r["digests"] for r in reference["ops"]}
    for r in later["ops"]:
        if r["digests"] != ref[r["op"]]:
            r["problems"].append(why)


def golden_delta(root, ops, base):
    """Max vertex delta of the written OBJ meshes against ``tests/golden``
    (read only), and the number of files compared."""
    worst, files = 0.0, 0
    for op in ops:
        if not op.golden:
            continue
        outdir = os.path.join(base, op.name)
        for name in sorted(os.listdir(outdir)):
            ref = os.path.join(root, "tests", "golden", op.golden, name)
            if not name.endswith(".obj") or not os.path.isfile(ref):
                continue
            new = gate.obj_vertices(os.path.join(outdir, name))
            old = gate.obj_vertices(ref)
            if len(new) != len(old):
                print(f"golden {op.golden}/{name}: {len(new)} vertices, "
                      f"golden has {len(old)}", file=sys.stderr)
            for a, b in zip(new, old):
                worst = max(worst, *(abs(x - y) for x, y in zip(a, b)))
            files += 1
    return worst, files


def provenance():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": f"{blas.get('name', '')} {blas.get('version', '')}",
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "threads_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def measure(cli, ops, args):
    rng = random.Random(args.seed)
    passes = []
    start = time.monotonic()
    while time.monotonic() - start < args.seconds:
        order = workloads.pass_order(len(ops), rng)
        p = run_pass(cli, ops, order, os.path.join(args.work, "measure"))
        if passes:
            mark_changed(passes[0], p, "output bytes differ from pass 1")
        passes.append(p)
    return {"passes": passes}


def trace(cli, ops, args):
    order = workloads.pass_order(len(ops), random.Random(args.seed))
    plain = run_pass(cli, ops, order, os.path.join(args.work, "untraced"))
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced_dir = os.path.join(args.work, "traced")
        traced = run_pass(cli, ops, order, traced_dir, tracer)
    finally:
        restore()
    mark_changed(plain, traced, "traced output differs from untraced output")
    layers = spans.layer_metrics(tracer.spans)
    delta, files = golden_delta(args.root, ops, traced_dir)
    errs = [e for r in plain["ops"] for e in r["h_rel_err"]]
    layers.update({
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
        "meshio.golden_max_delta": (delta, "length"),
        "meshio.golden_files": (files, "count"),
        "h_rel_err.max": (max(errs, default=0.0), "ratio"),
    })
    return {"passes": [plain, traced], "layers": layers,
            "op_split": spans.op_split(tracer.spans)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="checkout root")
    ap.add_argument("--work", required=True, help="output directory")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--mode", required=True,
                    choices=["setup", "measure", "trace"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--result", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    from loopcmc import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"loopcmc imported from {cli.__file__}, not {src}")
    ops = workloads.ops(args.workload)
    parser = cli.build_parser()
    for op in ops:
        parser.parse_args(op.command(args.work))
    result = {"setup_s": time.monotonic() - args.spawned}

    if args.mode != "setup":
        result.update((measure if args.mode == "measure" else trace)(
            cli, ops, args))
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["provenance"] = provenance()
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, allow_nan=False)


if __name__ == "__main__":
    main()
