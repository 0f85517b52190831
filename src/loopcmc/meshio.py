"""Deterministic mesh export: OBJ (text) and binary little-endian PLY.

Vertices and vertex normals are emitted for valid nodes only, quad faces
over grid cells whose four corners are valid.  Float formatting is fixed
(%.12e) so identical meshes produce identical bytes.

Both writers are array-built: the face table comes from the four shifted
masks at once, OBJ formats each block with one ``%`` over a per-row format
string, and PLY packs the vertices and the faces as one little-endian
array each.  The bytes are those of a writer that goes vertex by vertex
and cell by cell in row-major order.
"""

from __future__ import annotations

import numpy as np

from .mesh import SurfaceMesh

__all__ = ["obj_bytes", "ply_bytes", "write_mesh"]

_PLY_FACE = np.dtype([("n", "u1"), ("idx", "<i4", (4,))])


def _vertex_table(mesh: SurfaceMesh):
    m = mesh.mask
    index = -np.ones(m.shape, dtype=int)
    order = np.nonzero(m)
    index[order] = np.arange(len(order[0]))
    quad = m[:-1, :-1] & m[:-1, 1:] & m[1:, 1:] & m[1:, :-1]
    faces = np.stack([index[:-1, :-1][quad], index[:-1, 1:][quad],
                      index[1:, 1:][quad], index[1:, :-1][quad]], axis=-1)
    return mesh.f[order], mesh.normal[order], faces


def _rows(fmt, table) -> str:
    return (fmt * len(table)) % tuple(np.ravel(table).tolist())


def obj_bytes(mesh: SurfaceMesh, comment="") -> bytes:
    verts, normals, faces = _vertex_table(mesh)
    head = [f"# {ln}\n" for ln in comment.splitlines()]
    head.append(f"# vertices {len(verts)} faces {len(faces)}\n")
    return "".join(head + [
        _rows("v %.12e %.12e %.12e\n", verts),
        _rows("vn %.12e %.12e %.12e\n", normals),
        _rows("f %d//%d %d//%d %d//%d %d//%d\n", np.repeat(faces + 1, 2, axis=1)),
    ]).encode()


def ply_bytes(mesh: SurfaceMesh) -> bytes:
    verts, normals, faces = _vertex_table(mesh)
    header = "\n".join([
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(verts)}",
        "property double x", "property double y", "property double z",
        "property double nx", "property double ny", "property double nz",
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header", ""]).encode()
    body = np.concatenate([verts, normals], axis=1).astype("<f8")
    cells = np.empty(len(faces), dtype=_PLY_FACE)
    cells["n"] = 4
    cells["idx"] = faces
    return header + body.tobytes() + cells.tobytes()


def write_mesh(mesh: SurfaceMesh, path, fmt="obj", comment="") -> None:
    if fmt == "obj":
        data = obj_bytes(mesh, comment)
    elif fmt == "ply":
        data = ply_bytes(mesh)
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(data)
