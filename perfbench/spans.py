"""Outside tracing: spans recorded by wrappers that the benchmark installs on
the public layer functions, at the name each caller looks up.

A module that does ``from .factor import iwasawa_batch`` holds its own
reference, so ``frames.iwasawa_batch`` and ``dressing.iwasawa_batch`` are
wrapped separately; functions imported at call time (``weier.minimal_surface``
inside ``surface_from_potential``) are wrapped on their home module.  The
library itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

from stats import percentile


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent       # index of the enclosing span, -1 at the root
        self.start = start
        self.end = start
        self.counts = None

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def call(self, name, fn, *args, count=None, **kwargs):
        span = Span(name, self.op, self._stack[-1] if self._stack else -1,
                    perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if count is not None:
            span.counts = count(args, kwargs, result)
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)
        return traced


# ---------------------------------------------------------------------------
# Span arithmetic

def self_times(spans):
    """Each span's duration minus the durations of its direct children.
    Calls in one thread nest, so children never overlap each other."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, covered)]


def _nested_in_same(spans, s):
    p = s.parent
    while p >= 0:
        if spans[p].name == s.name:
            return True
        p = spans[p].parent
    return False


def outermost(spans, name):
    """Spans called ``name`` with no ancestor of the same name, so that a
    recursive call is counted once in inclusive time."""
    return [s for s in spans if s.name == name and not _nested_in_same(spans, s)]


def inclusive(spans, name):
    return sum((s.dur for s in outermost(spans, name)), 0.0)


# ---------------------------------------------------------------------------
# Counters taken from arguments and return values

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _iwasawa_counter(residual_tol, unitary_tol):
    def count(args, kwargs, out):
        coeffs = _arg(args, kwargs, 1, "coeffs")
        good = out["ok"] & (out["residual"] < residual_tol) \
            & (out["unitary_residual"] < unitary_tol)
        return {"nodes": int(coeffs.shape[0]), "band": int(coeffs.shape[1]),
                "good": int(good.sum()),
                "max_residual": float(out["residual"][good].max(initial=0.0)),
                "max_unitary": float(
                    out["unitary_residual"][good].max(initial=0.0)),
                "max_condition": float(out["condition"][good].max(initial=0.0))}
    return count


def _frame_count(args, kwargs, fg):
    grid = _arg(args, kwargs, 1, "grid")
    return {"nodes": int(grid.ny * grid.nx), "ntrunc": int(fg.ntrunc)}


def _mesh_count(args, kwargs, mesh):
    return {"valid": int(mesh.mask.sum()),
            "masked_fraction": mesh.masked_fraction()}


def _points_count(args, kwargs, result):
    return {"points": int(getattr(_arg(args, kwargs, 1, "z"), "size", 1))}


def _bytes_count(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def wrap_table(loopcmc_frames):
    """(module, attribute, span name, counter) for every wrapped lookup."""
    opts = loopcmc_frames.SurfaceOptions()
    iwasawa = _iwasawa_counter(opts.residual_tol, opts.unitary_tol)
    return [
        ("cli", "surface_from_potential", "frames.surface_from_potential",
         _mesh_count),
        ("frames", "surface_from_potential", "frames.surface_from_potential",
         _mesh_count),
        ("frames", "integrate_frame", "frames.integrate_frame", _frame_count),
        ("dressing", "integrate_frame", "frames.integrate_frame", _frame_count),
        ("frames", "iwasawa_batch", "factor.iwasawa_batch", iwasawa),
        ("dressing", "iwasawa_batch", "factor.iwasawa_batch", iwasawa),
        ("cli", "extract_curvature", "frames.extract_curvature", None),
        ("expr", "evaluate", "expr.evaluate", _points_count),
        ("weier", "minimal_surface", "weier.minimal_surface", _mesh_count),
        ("convert", "minimal_to_potential", "convert.minimal_to_potential",
         None),
        ("cli", "minimal_to_potential", "convert.minimal_to_potential", None),
        ("convert", "limit_member_data", "convert.limit_member_data", None),
        ("cli", "h_independent_dressing", "dressing.h_independent_dressing",
         None),
        ("cli", "wu_recursion", "dressing.wu_recursion", None),
        ("cli", "dress_surface", "dressing.dress_surface", _mesh_count),
        ("cli", "write_mesh", "meshio.write_mesh", _bytes_count),
        ("cli", "verify_mesh_symmetry", "symmetry.verify_mesh_symmetry", None),
        ("cli", "check_rotational_data", "symmetry.check_rotational_data",
         None),
        ("cli", "check_reflective_data", "symmetry.check_reflective_data",
         None),
        ("cli", "emit_report", "cli.emit_report", None),
    ]


def install(tracer):
    """Wrap every entry of ``wrap_table``; returns a function that puts the
    original functions back."""
    frames = importlib.import_module("loopcmc.frames")
    originals = []
    for mod_name, attr, name, count in wrap_table(frames):
        mod = importlib.import_module(f"loopcmc.{mod_name}")
        fn = getattr(mod, attr)
        originals.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(name, fn, count))

    def restore():
        for mod, attr, fn in reversed(originals):
            setattr(mod, attr, fn)
    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics

SYMMETRY_SPANS = ("symmetry.verify_mesh_symmetry",
                  "symmetry.check_rotational_data",
                  "symmetry.check_reflective_data")
MESH_SPANS = ("frames.surface_from_potential", "dressing.dress_surface")
ROOT = "cli.main"


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _sum_count(spans, key):
    return sum(s.counts[key] for s in spans)


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    selfs = self_times(spans)
    iw = _named(spans, "factor.iwasawa_batch")
    iw_s = inclusive(spans, "factor.iwasawa_batch")
    iw_nodes = _sum_count(iw, "nodes")
    chunks = [s.dur * 1e3 for s in iw if s.counts["nodes"] == 256]
    fr = _named(spans, "frames.integrate_frame")
    ev = _named(spans, "expr.evaluate")
    wm = _named(spans, "meshio.write_mesh")
    wm_s = inclusive(spans, "meshio.write_mesh")
    wm_bytes = _sum_count(wm, "bytes")
    roots = {i for i, s in enumerate(spans) if s.name == ROOT}
    top_meshes = [s for s in spans if s.name in MESH_SPANS and s.parent in roots]
    return {
        "factor.iwasawa_batch.s": (iw_s, "s"),
        "factor.iwasawa_batch.calls": (len(iw), "count"),
        "factor.iwasawa_batch.nodes": (iw_nodes, "count"),
        "factor.nodes_per_s": (iw_nodes / iw_s if iw_s else 0.0, "1/s"),
        "factor.chunk256_ms.p50": (
            percentile(chunks, 0.5) if chunks else 0.0, "ms"),
        "factor.band.max": (max((s.counts["band"] for s in iw), default=0),
                            "count"),
        "factor.ok_ratio": (
            _sum_count(iw, "good") / iw_nodes if iw_nodes else 1.0, "ratio"),
        "factor.max_unitary_residual": (
            max((s.counts["max_unitary"] for s in iw), default=0.0), "ratio"),
        "factor.max_residual": (
            max((s.counts["max_residual"] for s in iw), default=0.0), "ratio"),
        "factor.max_condition": (
            max((s.counts["max_condition"] for s in iw), default=0.0), "ratio"),
        "frames.integrate_frame.s": (
            inclusive(spans, "frames.integrate_frame"), "s"),
        "frames.integrate_frame.calls": (len(fr), "count"),
        "frames.integrate_frame.nodes": (_sum_count(fr, "nodes"), "count"),
        "frames.ntrunc.max": (max((s.counts["ntrunc"] for s in fr), default=0),
                              "count"),
        "frames.assemble.self_s": (
            sum(t for s, t in zip(spans, selfs)
                if s.name == "frames.surface_from_potential"), "s"),
        "frames.extract_curvature.s": (
            inclusive(spans, "frames.extract_curvature"), "s"),
        "expr.evaluate.calls": (len(ev), "count"),
        "expr.evaluate.points": (_sum_count(ev, "points"), "count"),
        "expr.evaluate.s": (inclusive(spans, "expr.evaluate"), "s"),
        "weier.minimal_surface.s": (
            inclusive(spans, "weier.minimal_surface"), "s"),
        "weier.minimal_surface.nodes": (
            _sum_count(_named(spans, "weier.minimal_surface"), "valid"),
            "count"),
        "convert.minimal_to_potential.s": (
            inclusive(spans, "convert.minimal_to_potential"), "s"),
        "convert.limit_member_data.s": (
            inclusive(spans, "convert.limit_member_data"), "s"),
        "dressing.h_independent_dressing.s": (
            inclusive(spans, "dressing.h_independent_dressing"), "s"),
        "dressing.wu_recursion.s": (
            inclusive(spans, "dressing.wu_recursion"), "s"),
        "dressing.dress_surface.s": (
            inclusive(spans, "dressing.dress_surface"), "s"),
        "meshio.write_mesh.s": (wm_s, "s"),
        "meshio.bytes": (wm_bytes, "bytes"),
        "meshio.mb_per_s": (wm_bytes / 1e6 / wm_s if wm_s else 0.0, "MB/s"),
        "symmetry.s": (sum(inclusive(spans, n) for n in SYMMETRY_SPANS), "s"),
        "cli.emit_report.s": (inclusive(spans, "cli.emit_report"), "s"),
        "mesh.valid_nodes": (_sum_count(top_meshes, "valid"), "count"),
        "mesh.masked_fraction.max": (
            max((s.counts["masked_fraction"] for s in top_meshes),
                default=0.0), "ratio"),
    }


def op_split(spans):
    """Inclusive time per layer function for each op, plus the assembly
    self time, as {op: {span name: seconds}}."""
    out = {}
    for s, t in zip(spans, self_times(spans)):
        row = out.setdefault(s.op, {})
        if not _nested_in_same(spans, s):
            row[s.name] = row.get(s.name, 0.0) + s.dur
        if s.name == "frames.surface_from_potential":
            row["frames.assemble.self_s"] = \
                row.get("frames.assemble.self_s", 0.0) + t
    return out
