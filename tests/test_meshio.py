import struct

import numpy as np
import pytest

from loopcmc.grid import DomainGrid
from loopcmc.mesh import SurfaceMesh
from loopcmc.meshio import obj_bytes, ply_bytes, write_mesh


# Reference writers: the vertex-by-vertex, cell-by-cell export the
# array-built one must reproduce byte for byte.

def _reference_table(mesh):
    ny, nx = mesh.mask.shape
    index = -np.ones((ny, nx), dtype=int)
    order = np.nonzero(mesh.mask)
    index[order] = np.arange(len(order[0]))
    faces = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            if mesh.mask[j, i] and mesh.mask[j, i + 1] \
                    and mesh.mask[j + 1, i + 1] and mesh.mask[j + 1, i]:
                faces.append((index[j, i], index[j, i + 1],
                              index[j + 1, i + 1], index[j + 1, i]))
    return mesh.f[order], mesh.normal[order], faces


def _reference_obj(mesh, comment=""):
    verts, normals, faces = _reference_table(mesh)
    lines = [f"# {ln}" for ln in comment.splitlines()]
    lines.append(f"# vertices {len(verts)} faces {len(faces)}")
    for v in verts:
        lines.append("v %.12e %.12e %.12e" % (v[0], v[1], v[2]))
    for n in normals:
        lines.append("vn %.12e %.12e %.12e" % (n[0], n[1], n[2]))
    for f in faces:
        a, b, c, d = (k + 1 for k in f)
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c} {d}//{d}")
    return ("\n".join(lines) + "\n").encode()


def _reference_ply(mesh):
    verts, normals, faces = _reference_table(mesh)
    header = "\n".join([
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(verts)}",
        "property double x", "property double y", "property double z",
        "property double nx", "property double ny", "property double nz",
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header", ""]).encode()
    body = bytearray()
    for v, n in zip(verts, normals):
        body += struct.pack("<6d", v[0], v[1], v[2], n[0], n[1], n[2])
    for f in faces:
        body += struct.pack("<B4i", 4, *f)
    return header + bytes(body)


def _mesh(ny, nx, mask=None, seed=0):
    rng = np.random.default_rng(seed)
    grid = DomainGrid.make(-1.0, 1.0, nx, -1.0, 1.0, ny) if ny > 1 else \
        DomainGrid.make(-1.0, 1.0, nx, 0.0, 0.0, 1)
    f = rng.normal(size=(ny, nx, 3)) * 10.0 ** rng.integers(-8, 8, (ny, nx, 1))
    normal = rng.normal(size=(ny, nx, 3))
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    if mask is None:
        mask = np.ones((ny, nx), dtype=bool)
    return SurfaceMesh(grid=grid, h=0.0, f=f, normal=normal,
                       eu=np.ones((ny, nx)), fz=np.zeros((ny, nx, 3), complex),
                       mask=mask)


MESHES = {
    "full": lambda: _mesh(9, 13),
    "masked": lambda: _mesh(
        11, 7, mask=np.random.default_rng(3).random((11, 7)) < 0.7, seed=1),
    "single_row": lambda: _mesh(1, 7, seed=2),
    "fully_masked": lambda: _mesh(5, 5, mask=np.zeros((5, 5), dtype=bool)),
}


@pytest.mark.parametrize("name", sorted(MESHES))
class TestExportBytes:
    def test_obj_matches_reference(self, name):
        mesh = MESHES[name]()
        comment = "gallery entry\nh=1 line two"
        assert obj_bytes(mesh, comment) == _reference_obj(mesh, comment)
        assert obj_bytes(mesh) == _reference_obj(mesh)

    def test_ply_matches_reference(self, name):
        mesh = MESHES[name]()
        assert ply_bytes(mesh) == _reference_ply(mesh)


def test_write_mesh_formats(tmp_path):
    mesh = MESHES["masked"]()
    write_mesh(mesh, tmp_path / "m.obj", "obj", comment="c")
    write_mesh(mesh, tmp_path / "m.ply", "ply")
    assert (tmp_path / "m.obj").read_bytes() == _reference_obj(mesh, "c")
    assert (tmp_path / "m.ply").read_bytes() == _reference_ply(mesh)
    with pytest.raises(ValueError):
        write_mesh(mesh, tmp_path / "m.stl", "stl")
