import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopcmc import meshio
from loopcmc.grid import DomainGrid
from loopcmc.mesh import SurfaceMesh
from loopcmc.meshio import (_CELL, _face_rows, _float_fields, _float_rows,
                            _int_fields, obj_bytes, ply_bytes, write_mesh)
from loopcmc.weier import WeierstrassData, minimal_surface


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


# ties of %.12e: 14 significant digits ending in 5, exact in binary
TIES = [1234567890123.5, -2.0 ** -20, 123456789013 / 8, 1234567 / 1024]


def _wide_range():
    """Magnitudes from 1e-300 to 1e300, both zeros and exact ties, so rows
    go both ways: through the arrays and through the % fallback."""
    mesh = _mesh(7, 9, seed=4)
    rng = np.random.default_rng(4)
    for a in (mesh.f, mesh.normal):
        a[...] = rng.choice([-1.0, 1.0], a.shape) \
            * 10.0 ** rng.uniform(-300, 300, a.shape)
    mesh.f[0, :3, 0] = [0.0, -0.0, 1e-300]
    mesh.f[1, :4, 1] = TIES
    mesh.normal[2, :3, 2] = [1e300, -0.0, TIES[0]]
    return mesh


def _nonfinite():
    """NaN or inf in one coordinate of some valid nodes: their rows take the
    % fallback and must land back in row order."""
    mask = np.random.default_rng(5).random((9, 7)) < 0.8
    mesh = _mesh(9, 7, mask=mask, seed=5)
    nodes = np.argwhere(mask)
    cases = zip(nodes[[1, 5, 6, -1]], (mesh.f, mesh.f, mesh.normal, mesh.f),
                (0, 2, 1, 1), (np.nan, np.inf, -np.inf, -np.nan))
    for (j, i), a, c, v in cases:
        a[j, i, c] = v
    return mesh


def _catenoid(n):
    """The h = 0 catenoid mesh of the benchmark's ``minimal`` workload on an
    ``n`` x ``n`` grid: real mesh data, not random floats."""
    grid = DomainGrid.make(-1.0, 1.0, n, -1.0, 1.0, n)
    return minimal_surface(WeierstrassData("-exp(-z)/2", "-exp(z)"), grid)


MESHES = {
    "catenoid": lambda: _catenoid(41),
    "full": lambda: _mesh(9, 13),
    "masked": lambda: _mesh(
        11, 7, mask=np.random.default_rng(3).random((11, 7)) < 0.7, seed=1),
    "single_row": lambda: _mesh(1, 7, seed=2),
    "fully_masked": lambda: _mesh(5, 5, mask=np.zeros((5, 5), dtype=bool)),
    "wide_range": _wide_range,
    "nonfinite": _nonfinite,
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


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    mesh = MESHES["masked"]()
    path = tmp_path / "m.obj"

    def fail(faces):
        raise RuntimeError("face block failed")
    monkeypatch.setattr(meshio, "_face_rows", fail)
    with pytest.raises(RuntimeError):
        write_mesh(mesh, path, "obj")
    assert sorted(tmp_path.iterdir()) == []
    path.write_bytes(b"older mesh")
    with pytest.raises(RuntimeError):
        write_mesh(mesh, path, "obj")
    assert sorted(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"older mesh"


# The array-built %.12e and %d fields, value by value against %.

def _field(row):
    return row[row != 0].tobytes().decode()


def _float_table(x):
    """The ``%.12e`` fields of ``x`` as a ``(len(x), 20)`` uint8 table, 0
    meaning no byte, and the mask of the values the arrays do not decide:
    ``_float_fields`` written into free-standing cells."""
    cells = np.zeros(len(x), dtype=_CELL)
    undecided = _float_fields(np.asarray(x, dtype=np.float64), cells)
    return cells.view(np.uint8).reshape(len(x), -1)[:, 1:], undecided


def _lines(head, table):
    fmt = head + " %.12e" * table.shape[1] + "\n"
    return "".join(fmt % tuple(row) for row in table.tolist()).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=24))
def test_float_fields_match_percent(xs):
    x = np.array(xs)
    fields, undecided = _float_table(x)
    assert fields.shape == (len(x), 20)
    assert undecided[~np.isfinite(x)].all()
    for v, row, u in zip(xs, fields, undecided):
        if not u:
            assert _field(row) == "%.12e" % v
    table = x[:len(x) // 3 * 3].reshape(-1, 3)
    assert _float_rows(b"v", table) == _lines("v", table)
    assert _float_rows(b"vn", x[:, None]) == _lines("vn", x[:, None])


def test_float_fields_edge_values():
    # every power of ten in range and its neighbours, the last-digit
    # roll-overs 9.9999999999995e+k, the smallest and largest doubles
    p = 10.0 ** np.arange(-307, 309)
    roll = 9.9999999999995 * 10.0 ** np.arange(-300, 300)
    x = np.concatenate([
        p, np.nextafter(p, 0), np.nextafter(p, np.inf), roll,
        np.nextafter(roll, 0), np.nextafter(roll, np.inf),
        [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]])
    x = np.concatenate([x, -x])
    fields, undecided = _float_table(x)
    for v, row, u in zip(x.tolist(), fields, undecided):
        if not u:
            assert _field(row) == "%.12e" % v
    decided = (np.abs(x) >= 1e-290) & (np.abs(x) <= 1e290)
    assert np.mean(undecided[decided]) < 0.01
    assert _float_rows(b"v", x[:, None]) == _lines("v", x[:, None])


@st.composite
def dyadic_ties(draw):
    """k / 2**s whose decimal expansion k 5**s / 10**s has exactly 14
    significant digits, the last a 5: a tie of %.12e, exact in binary."""
    s = draw(st.integers(0, 19))
    lo, hi = -(-10 ** 13 // 5 ** s), 10 ** 14 // 5 ** s
    k = draw(st.integers(lo, hi - 1))
    k = k // 10 * 10 + 5 if s == 0 else k | 1
    sign = draw(st.sampled_from([1, -1]))
    return sign * k / 2 ** s


@settings(max_examples=300, deadline=None)
@given(dyadic_ties())
def test_dyadic_ties_take_the_fallback(x):
    fields, undecided = _float_table(np.array([x]))
    assert undecided[0]
    table = np.array([[x, 1.0, -x]])
    assert _float_rows(b"v", table) == _lines("v", table)


@st.composite
def near_one_product_bound(draw):
    """(m + 1/2 + delta) 10**(e - 12), m of 13 digits, as the double
    nearest the exact value: ``delta`` runs up to twice the one-product
    bound ``2**-51 m`` on either side of the tie, both signs, with ``e``
    across the range the arrays decide."""
    m = draw(st.integers(10 ** 12, 10 ** 13 - 1))
    e = draw(st.integers(-289, 289))
    # half the draws within an eighth of the bound, where a wrong one-product
    # rounding lands (0.2 % of them; none beyond a quarter of the bound)
    r = Fraction(draw(st.one_of(st.integers(-2 ** 9, 2 ** 9),
                                st.integers(-2 ** 13, 2 ** 13))), 2 ** 12)
    sign = draw(st.sampled_from([1, -1]))
    return sign * float((m + Fraction(1, 2) + r * m / 2 ** 51)
                        * Fraction(10) ** (e - 12))


@settings(max_examples=500, deadline=None)
@given(st.lists(near_one_product_bound(), min_size=1, max_size=64))
def test_values_near_the_one_product_bound_match_percent(xs):
    x = np.array(xs)
    fields, undecided = _float_table(x)
    for v, row, u in zip(xs, fields, undecided):
        if not u:
            assert _field(row) == "%.12e" % v
    assert _float_rows(b"v", x[:, None]) == _lines("v", x[:, None])


def test_one_product_decides_mesh_values(monkeypatch):
    # the double-double product sees under 2 % of a catenoid's coordinates
    verts, normals, _ = _catenoid(201).vertex_table
    seen = []
    double_double = meshio._double_double

    def counted(a, e):
        seen.append(a.size)
        return double_double(a, e)
    monkeypatch.setattr(meshio, "_double_double", counted)
    for head, table in ((b"v", verts), (b"vn", normals)):
        assert _float_rows(head, table) == _lines(head.decode(), table)
    assert 0 < sum(seen) <= 0.02 * (verts.size + normals.size)


def test_mesh_ties_take_the_fallback():
    assert _float_table(np.array(TIES))[1].all()


@pytest.mark.parametrize("below, above", [
    (9, 10), (99_999, 100_000), (999_999, 1_000_000)])
def test_int_fields_across_width_change(below, above):
    values = [0, 1, below, above, below, 7]
    fields = _int_fields(np.array(values))
    assert fields.shape == (len(values), len(str(above)))
    assert [_field(row) for row in fields] == [str(v) for v in values]
    assert _int_fields(np.array([below])).shape == (1, len(str(below)))
    faces = np.array([[1, below, above, 2]])
    a, b, c, d = faces[0]
    assert _face_rows(faces) == \
        f"f {a}//{a} {b}//{b} {c}//{c} {d}//{d}\n".encode()


@pytest.mark.parametrize("values", [
    [2 ** 31 - 1], [0, 9, 2 ** 31 - 1, 10], [2 ** 31 - 1, 2 ** 31],
    [2 ** 31, 0, 3], [10 ** 18, 2 ** 31 - 1]])
def test_int_fields_at_the_int32_limit(values):
    # the largest value picks int32 or int64 division; both give the same
    # '%d' bytes on either side of 2**31
    fields = _int_fields(np.array(values))
    assert fields.shape == (len(values), len(str(max(values))))
    assert [_field(row) for row in fields] == [str(v) for v in values]


def test_format_both_builds_one_vertex_table(tmp_path, monkeypatch):
    # the OBJ and the PLY of one mesh share one vertex table, and both keep
    # the bytes of the reference writers
    from functools import cached_property
    from loopcmc.cli import main

    built = []
    table = SurfaceMesh.vertex_table.func

    def counted(mesh):
        built.append(mesh)
        return table(mesh)
    prop = cached_property(counted)
    prop.__set_name__(SurfaceMesh, "vertex_table")
    monkeypatch.setattr(SurfaceMesh, "vertex_table", prop)
    rc = main(["mesh", "--a", "2", "--Q", "0", "--h", "1,2", "--grid", "9",
               "--format", "both", "--out", str(tmp_path)])
    assert rc == 0
    assert len(built) == 2 and built[0] is not built[1]
    for mesh, h in zip(built, ("1", "2")):
        obj = (tmp_path / f"mesh_h{h}.obj").read_bytes()
        assert obj == _reference_obj(mesh, f"mesh h={h}")
        assert (tmp_path / f"mesh_h{h}.ply").read_bytes() \
            == _reference_ply(mesh)


def _reference_diameter(mesh):
    # the bounding-box diagonal reduced over the (n, 3) valid points
    pts = mesh.f[mesh.mask]
    if len(pts) == 0:
        return 0.0
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("valid", ["random", "one", "none", "all"])
def test_diameter_matches_the_point_reduction(seed, valid):
    # min and max are exact, so reducing one coordinate at a time gives
    # the same bits as reducing the points along their first axis
    rng = np.random.default_rng(seed)
    # odd sizes keep the basepoint 0 on a node
    ny, nx = 2 * rng.integers(0, 15) + 1, 2 * rng.integers(1, 15) + 1
    mask = {"random": rng.random((ny, nx)) < rng.random(),
            "one": np.zeros((ny, nx), dtype=bool),
            "none": np.zeros((ny, nx), dtype=bool),
            "all": np.ones((ny, nx), dtype=bool)}[valid]
    if valid == "one":
        mask[rng.integers(ny), rng.integers(nx)] = True
    mesh = _mesh(ny, nx, mask, seed)
    assert mesh.diameter() == _reference_diameter(mesh)
    if valid in ("one", "none"):
        assert mesh.diameter() == 0.0
