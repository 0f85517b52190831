"""Correctness gate applied to every op's outputs (standard library only).

An op passes when it exits 0, its ``report.json`` parses with a strict
parser that rejects NaN and infinities, every written vertex is finite, and
the workload's own checks hold.  The tolerances are those of the acceptance
suite (``tests/test_acceptance.py``), copied unchanged.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

UNITARY_TOL = 1e-10        # criterion 2
H_REL_TOL = 0.01           # criterion 5, mean curvature
CONFORMAL_TOL = 1e-6       # criterion 5, conformality
HIGHER_COEFF_TOL = 1e-9    # criterion 8, higher recursion coefficients
CROSS_CHECK_TOL = 1e-4     # criterion 8, dressed vs direct surface


class GateError(ValueError):
    pass


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    nodes: int = 0             # valid mesh nodes written (one file per mesh)
    h_rel_err: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


def _reject_constant(name):
    raise GateError(f"non-finite number {name} in JSON")


def strict_json(text):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def obj_vertices(path):
    """Vertex positions of an OBJ file, as a list of 3-tuples."""
    verts = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(tuple(float(t) for t in line.split()[1:4]))
    return verts


def ply_vertices(path):
    """Vertex positions of a binary little-endian PLY file as written by
    ``loopcmc.meshio`` (six doubles per vertex: position, normal)."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    count = None
    for line in data[:end].decode("ascii").splitlines():
        if line.startswith("element vertex "):
            count = int(line.split()[2])
    if count is None:
        raise GateError(f"{path}: no vertex element")
    body = data[end:end + 48 * count]
    if len(body) != 48 * count:
        raise GateError(f"{path}: truncated vertex data")
    return [rec[:3] for rec in struct.iter_unpack("<6d", body)]


def h_rel_err(curvature, h):
    """Criterion 5's dimensionless mean-curvature error of one report item."""
    scale = max(abs(h), curvature["kappa_scale_median"])
    return curvature["h_num_max_err"] / scale


def _mesh_nodes(path, reader, verdict):
    try:
        verts = reader(path)
    except (OSError, ValueError) as err:
        verdict.problems.append(f"cannot read {os.path.basename(path)}: {err}")
        return None
    if not all(math.isfinite(c) for v in verts for c in v):
        verdict.problems.append(f"non-finite vertex in {os.path.basename(path)}")
    return len(verts)


def _check_gallery(report, outdir, verdict):
    for item in report["items"]:
        n = _mesh_nodes(os.path.join(outdir, item["mesh"]), obj_vertices,
                        verdict)
        verdict.nodes += n or 0
        unit = item.get("max_unitary_residual", 0.0)
        if not unit <= UNITARY_TOL:
            verdict.problems.append(
                f"{item['mesh']}: unitary residual {unit:.3e} > {UNITARY_TOL}")
        curv = item.get("curvature")
        if curv is None:
            continue
        if not curv.get("valid_nodes"):
            verdict.problems.append(f"{item['mesh']}: no valid curvature nodes")
            continue
        err = h_rel_err(curv, item["h"])
        verdict.h_rel_err.append(err)
        if not err <= H_REL_TOL:
            verdict.problems.append(
                f"{item['mesh']}: H error {err:.3e} > {H_REL_TOL}")
        conf = max(curv["conformality_dot"], curv["conformality_ratio"])
        if not conf <= CONFORMAL_TOL:
            verdict.problems.append(
                f"{item['mesh']}: conformality {conf:.3e} > {CONFORMAL_TOL}")


def _check_minimal(report, outdir, verdict):
    grid = report["config"]["grid"]
    size = grid[0] * (grid[1] if len(grid) > 1 else grid[0])
    for item in report["items"]:
        valid = round((1.0 - item["masked_fraction"]) * size)
        obj = os.path.join(outdir, item["mesh"])
        n_obj = _mesh_nodes(obj, obj_vertices, verdict)
        n_ply = _mesh_nodes(obj[:-4] + ".ply", ply_vertices, verdict)
        verdict.nodes += n_obj or 0
        for kind, n in (("OBJ", n_obj), ("PLY", n_ply)):
            if n is not None and n != valid:
                verdict.problems.append(
                    f"{item['mesh']}: {kind} has {n} vertices, "
                    f"report has {valid} valid nodes")


def _check_dressing(report, outdir, verdict):
    if report["h_independent"]["verdict"] is not True:
        verdict.problems.append("h-independent verdict is not yes")
    for key, wu in report["wu_recursion"].items():
        high = wu["max_higher_coefficient"]
        if not high <= HIGHER_COEFF_TOL:
            verdict.problems.append(
                f"{key}: higher coefficient {high:.3e} > {HIGHER_COEFF_TOL}")
    dev = report["cross_check"]["max_deviation"]
    if not dev <= CROSS_CHECK_TOL:
        verdict.problems.append(
            f"cross check deviation {dev:.3e} > {CROSS_CHECK_TOL}")
    for name in ("dressed.obj", "direct.obj"):
        verdict.nodes += _mesh_nodes(os.path.join(outdir, name),
                                     obj_vertices, verdict) or 0


CHECKS = {"gallery": _check_gallery, "minimal": _check_minimal,
          "dressing": _check_dressing}


def check_op(kind, outdir, exit_code) -> Verdict:
    """Gate one op: ``kind`` names the workload's checks, ``outdir`` holds
    what the op wrote, ``exit_code`` is what it returned (None when it
    raised)."""
    verdict = Verdict()
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}")
        return verdict
    try:
        with open(os.path.join(outdir, "report.json")) as fh:
            report = strict_json(fh.read())
        CHECKS[kind](report, outdir, verdict)
    except (OSError, ValueError, KeyError, TypeError) as err:
        verdict.problems.append(f"report: {type(err).__name__}: {err}")
    return verdict
