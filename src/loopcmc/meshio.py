"""Deterministic mesh export: OBJ (text) and binary little-endian PLY.

Vertices and vertex normals are emitted for valid nodes only, quad faces
over grid cells whose four corners are valid.  Float formatting is fixed
(%.12e) so identical meshes produce identical bytes.

Both writers are array-built and share one vertex table per mesh
(``SurfaceMesh.vertex_table``): its face table comes from the four shifted
masks at once.  PLY packs the vertices and the faces as one
little-endian array each.  The bytes are those of a writer that goes
vertex by vertex and cell by cell in row-major order.

OBJ text is built as bytes, without ``%``.  Each `` %.12e`` cell of a
``v`` or ``vn`` line is one 21-byte record of its row table (a space, then
the field), 0 meaning "no byte".  The decimal exponent ``e`` is
``floor(log10|x|)``, moved by one where the scaled value falls outside
``[1e12, 1e13)``, and the 13-digit mantissa is ``|x| 10**(12 - e)``
rounded to the nearest integer.  Three stages decide it (``_mantissa``):

1. one product ``ph = |x| P``, ``P`` the double nearest ``10**(12 - e)``,
   is within ``2**-52 ph`` of the exact value.  It decides every value
   whose ``ph`` lies farther than ``2**-51 ph`` from a rounding tie and
   rounds to an integer strictly between ``1e12`` and ``1e13 - 1``: on the
   coordinates of a catenoid mesh, 99 % of them;
2. the others take a double-double product: Dekker's exact TwoProduct of
   ``|x|`` with ``P``, plus ``|x|`` times ``P``'s error, within 2e-16 of
   the exact value;
3. a row is formatted with ``%`` instead, and written into its place in
   the table, when any of its values is one the arrays do not decide:
   non-finite, ``|x|`` outside ``[1e-290, 1e290]`` (where the power of
   ten or its split would leave the double range), or a double-double
   mantissa within 1e-6 of a rounding tie.  Mesh data is not expected to
   take that path.

The powers of ten, with the split and error the second stage needs, are
made per call from exact Python integers, over the exponents present.
The fields are written in place through a record view of the row table:
the space, the sign, the leading digit and the point as one uint32; the
twelve digits after the point as three uint32 lookups into a table of
``%04d`` strings; ``e``, the exponent's sign and its digits from one
uint64 lookup into a 617-entry table indexed by exponent.  ``f`` lines
take each `` %d//%d`` cell from a table made once over the vertex
indices, with the ``%d`` fields right-aligned in the width of the largest
index.

The ``v`` and ``vn`` blocks are made in pieces of at most ``_ROWS`` lines,
so that their tables stay small; each piece, and the ``f`` block, is one
``(rows, width)`` uint8 table, compacted once by dropping its 0 bytes
(``bytes.translate``).  They are made and written one at a time, to
``path + ".part"``, which replaces ``path`` only once all of it is
written.  There is no ``np.longdouble``: its precision depends on the
platform (on some it is a plain double), and a long-double version of
this formatter measured slower than ``%`` itself.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .mesh import SurfaceMesh

__all__ = ["obj_bytes", "ply_bytes", "write_mesh"]

_ROWS = 2 ** 13                 # lines per piece of a v or vn block
_PLY_FACE = np.dtype([("n", "u1"), ("idx", "<i4", (4,))])

_FIELD = 20                     # widest %.12e field: -1.797693134862e+308
_SMALL, _LARGE = 1e-290, 1e290  # beyond, 10**(12 - e) or its split overflows
_TIE = 1e-6                     # this close to a rounding tie, % decides
_SLACK = 2.0 ** -51             # one product decides beyond this * ph
_M_LO, _M_HI = 1e12, 1e13
# |m - _MID| < _HALF_WIDTH: the integer m lies strictly between 1e12 and
# 1e13 - 1, where one product decides (``_mantissa``)
_MID, _HALF_WIDTH = (_M_LO + _M_HI - 1) / 2, (_M_HI - 1 - _M_LO) / 2
# "%04d" of 0..9999 as little-endian uint32s
_DIGITS4 = (np.arange(10 ** 4, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
            + ord("0")).astype(np.uint8).view("<u4").ravel()
# "e%+03d" of every double exponent, -308..308, as the top five bytes of
# a little-endian uint64
_E_MIN = -308
_EXPONENT = np.zeros((1 - 2 * _E_MIN, 8), dtype=np.uint8)
_EXPONENT[:, 3:] = np.array(
    [b"e%+03d" % e for e in range(_E_MIN, 1 - _E_MIN)],
    dtype="S5")[:, None].view(np.uint8)
_EXPONENT = _EXPONENT.view("<u8").ravel()
# one " %.12e" cell: the space, sign, leading digit and point as "head",
# three groups of four digits, then "e", the exponent's sign and digits;
# "exp" spans the last three bytes of "g2" too and is written before it
_CELL = np.dtype({"names": ["head", "g0", "g1", "g2", "exp"],
                  "formats": ["<u4", "<u4", "<u4", "<u4", "<u8"],
                  "offsets": [0, 4, 8, 12, 13], "itemsize": _FIELD + 1})
_HEAD = ord(" ") | ord(".") << 24           # with sign << 8, digit << 16


def _pow10_pairs(ks, parts=4):
    """Per power ``k`` in ``ks``: the double ``hi`` nearest ``10**k``; its
    top 26 significant bits ``h1`` and the rest ``h2``; and ``lo``, the
    double nearest ``10**k - hi``; or the first ``parts`` of these.  Exact
    integer arithmetic; int / int is correctly rounded."""
    out = np.empty((parts, len(ks)))
    for i, k in enumerate(ks):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        if parts == 1:
            out[0, i] = hi
            continue
        p, q = hi.as_integer_ratio()
        drop = max(p.bit_length() - 26, 0)
        h1 = ((p >> drop) << drop) / q
        out[:, i] = hi, h1, hi - h1, (num * q - p * den) / (den * q)
    return out


def _powers(e, parts=1):
    """The first ``parts`` rows of ``_pow10_pairs`` of the powers
    ``12 - e`` over the range of ``e``, as a ``(parts, m)`` table, and each
    entry of ``e``'s column in it."""
    emax = int(e.max())
    ks = range(12 - emax, 13 - int(e.min()))
    return _pow10_pairs(ks, parts), emax - e


def _double_double(a, e):
    """``a * 10**(12 - e)`` for positive ``a``, as its floor and its
    fractional part, from Dekker's double-double product."""
    table, idx = _powers(e, 4)
    h1, h2, lo = table[1][idx], table[2][idx], table[3][idx]
    c = a * 134217729.0                    # Veltkamp split of a, 2**27 + 1
    a1 = c - (c - a)
    a2 = a - a1
    ph = a * (h1 + h2)
    pl = ((a1 * h1 - ph) + a1 * h2 + a2 * h1) + a2 * h2
    n = np.floor(ph)
    frac = (ph - n) + (pl + a * lo)
    carry = np.floor(frac)
    return n + carry, frac - carry


def _mantissa(a, e):
    """The mantissa ``a * 10**(12 - e)`` rounded to the nearest integer
    (float64), for positive ``a`` and ``e = floor(log10(a))``, which is
    moved by one in place where the mantissa falls outside
    ``[1e12, 1e13)``; and the mask of the values within ``_TIE`` of a
    rounding tie, which the arrays do not decide.

    The mantissa is first the one product ``ph = a * P``, ``P`` the double
    nearest ``10**k``, ``k = 12 - e``.  Two roundings to nearest, each
    within ``u = 2**-53`` of its result, bound its error:
    ``|P - 10**k| <= u P`` and ``|ph - a P| <= u ph``, so
    ``|ph - a 10**k| <= u ph + u a P <= (2u + u**2) ph``, which is
    ``2**-52 ph`` up to a factor ``1 + 2**-54``.  Take ``ph`` farther than
    ``2**-51 ph`` from a half-integer, rounding to an integer strictly
    between ``1e12`` and ``1e13 - 1``.  The exact value is then within
    0.003 of ``ph`` and on the same side of every half-integer, so it lies
    in ``[1e12, 1e13)``, rounds to the same integer and does not carry;
    and it is at least ``2**-52 ph``, over 2e-4, from a tie, so farther
    than ``_TIE``.  Only the other values take the double-double product,
    and ``e`` is moved for them alone."""
    table, idx = _powers(e)
    ph = table[0][idx]
    ph *= a
    mant = np.rint(ph)
    # 0.5 - d is the distance to a tie: within ph * _SLACK, or an exact tie
    # that rint rounds to even, the value is near
    d = np.abs(ph - mant)
    d += ph * _SLACK
    near = d >= 0.5
    near |= np.abs(mant - _MID) >= _HALF_WIDTH
    undecided = np.zeros(a.shape, dtype=bool)
    sub = np.flatnonzero(near)
    if len(sub):
        a, e_sub = a.flat[sub], e.flat[sub]
        whole, frac = _double_double(a, e_sub)
        off = (whole < _M_LO) | (whole >= _M_HI)
        if off.any():
            e_sub[off] += np.where(whole[off] < _M_LO, -1, 1)
            whole[off], frac[off] = _double_double(a[off], e_sub[off])
        m = whole + (frac > 0.5)
        undecided.flat[sub] = ((m < _M_LO) | (m > _M_HI)
                               | (np.abs(frac - 0.5) < _TIE))
        carry = m == _M_HI
        m[carry] = _M_LO
        e_sub[carry] += 1
        mant.flat[sub] = m
        e.flat[sub] = e_sub
    return mant, undecided


def _float_fields(x, cells):
    """Write the `` %.12e`` cells of the float64 array ``x`` into the
    ``_CELL`` records ``cells`` of the same shape; return the mask of the
    values the arrays do not decide, whose cells are meaningless."""
    a = np.abs(x)
    # zeros, non-finite values and |x| out of range: few, taken by index
    odd = np.flatnonzero(~((a >= _SMALL) & (a <= _LARGE)))
    a.flat[odd] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    mant, undecided = _mantissa(a, e)
    zero = odd[x.flat[odd] == 0.0]
    undecided.flat[odd] = True
    undecided.flat[zero] = False
    mant.flat[zero] = 0.0
    e.flat[zero] = 0
    # 13 digits: the leading one in the head, then three groups of four,
    # each a uint32 of its ASCII digits from one table.  The quotients of
    # these exact integers by powers of ten floor correctly in float64.
    top = np.floor(mant / 1e8)
    low = mant - top * 1e8
    lead = np.floor(top / 1e4)
    mid = np.floor(low / 1e4)
    head = lead * 65536.0
    head += _HEAD + (ord("0") << 16)
    head += np.signbit(x) * float(ord("-") << 8)
    cells["head"] = head
    cells["exp"] = _EXPONENT[e - _E_MIN]
    cells["g0"] = _DIGITS4[(top - lead * 1e4).astype(np.intp)]
    cells["g1"] = _DIGITS4[mid.astype(np.intp)]
    cells["g2"] = _DIGITS4[(low - mid * 1e4).astype(np.intp)]
    return undecided


def _int_fields(v):
    """``'%d'`` fields of the non-negative integer vector ``v``, right-aligned
    in a ``(len(v), width)`` uint8 table (width of the largest), 0 meaning
    no byte.  The digits come from int32 division where the largest value
    fits, about three times as fast as int64 division."""
    v = np.asarray(v, dtype=np.int64)
    width = len(str(int(v.max()))) if len(v) else 1
    if len(v) and v.max() <= np.iinfo(np.int32).max:
        v = v.astype(np.int32)
    out = np.empty((len(v), width), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        q = v // 10
        digit = v - 10 * q + ord("0")
        if col < width - 1:
            digit[v == 0] = 0
        out[:, col] = digit
        v = q
    return out


def _rows(head, n, width):
    """``(n, len(head) + width + 1)`` table of the lines ``head``, then
    ``width`` bytes, then a newline; and the view of those ``width`` bytes
    for the caller to fill."""
    rows = np.empty((n, len(head) + width + 1), dtype=np.uint8)
    rows[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    rows[:, -1] = ord("\n")
    return rows, rows[:, len(head):-1]


def _float_rows(head, table) -> bytes:
    """Lines ``head %.12e ... %.12e`` of the rows of the float ``table``.
    Rows holding a value the arrays do not decide are formatted with ``%``
    and written in place."""
    n, k = table.shape
    if n == 0:
        return b""
    rows, body = _rows(head, n, k * (_FIELD + 1))
    undecided = _float_fields(np.asarray(table, dtype=np.float64),
                              body.view(_CELL))
    fmt = head.decode() + " %.12e" * k + "\n"
    for i in np.unique(np.flatnonzero(undecided) // k):
        line = (fmt % tuple(table[i].tolist())).encode()
        rows[i] = 0
        rows[i, :len(line)] = np.frombuffer(line, dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0")


def _face_rows(faces) -> bytes:
    """Lines ``f a//a b//b c//c d//d`` of the 1-based ``(n, 4)`` faces.
    Each index's cell `` a//a`` is made once, from ``_int_fields`` of every
    index up to the largest, and gathered into the faces' rows."""
    n = len(faces)
    if n == 0:
        return b""
    digits = _int_fields(np.arange(int(faces.max()) + 1))
    w = digits.shape[1]
    cell = np.empty((len(digits), 2 * w + 3), dtype=np.uint8)
    cell[:, 0] = ord(" ")
    cell[:, 1:w + 1] = digits
    cell[:, w + 1:w + 3] = ord("/")
    cell[:, w + 3:] = digits
    record = np.dtype((np.void, cell.shape[1]))
    rows, body = _rows(b"f", n, 4 * cell.shape[1])
    body.view(record)[...] = cell.view(record)[faces, 0]
    return rows.tobytes().translate(None, b"\0")


def _obj_blocks(mesh: SurfaceMesh, comment=""):
    """The OBJ text as byte blocks, made one at a time: the header, the
    ``v`` and ``vn`` lines in pieces of at most ``_ROWS`` lines, and the
    ``f`` lines."""
    verts, normals, faces = mesh.vertex_table
    head = [f"# {ln}\n" for ln in comment.splitlines()]
    head.append(f"# vertices {len(verts)} faces {len(faces)}\n")
    yield "".join(head).encode()
    for tag, table in ((b"v", verts), (b"vn", normals)):
        for lo in range(0, len(table), _ROWS):
            yield _float_rows(tag, table[lo:lo + _ROWS])
    yield _face_rows(faces + 1)


def obj_bytes(mesh: SurfaceMesh, comment="") -> bytes:
    return b"".join(_obj_blocks(mesh, comment))


def _ply_blocks(mesh: SurfaceMesh):
    """The PLY file as three blocks: header, vertex array, face array (the
    arrays as they are, no copy to bytes)."""
    verts, normals, faces = mesh.vertex_table
    yield "\n".join([
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(verts)}",
        "property double x", "property double y", "property double z",
        "property double nx", "property double ny", "property double nz",
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header", ""]).encode()
    yield np.concatenate([verts, normals], axis=1, dtype="<f8")
    cells = np.empty(len(faces), dtype=_PLY_FACE)
    cells["n"] = 4
    cells["idx"] = faces
    yield cells


def ply_bytes(mesh: SurfaceMesh) -> bytes:
    return b"".join(_ply_blocks(mesh))


def write_mesh(mesh: SurfaceMesh, path, fmt="obj", comment="") -> None:
    # each block is written as it is made, not joined: the export's peak
    # memory holds one piece of text and its tables, not the whole text
    if fmt == "obj":
        blocks = _obj_blocks(mesh, comment)
    elif fmt == "ply":
        blocks = _ply_blocks(mesh)
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")
    # a failed block leaves no partial file, and an older file at path as
    # it was: the text goes to path + ".part", which replaces path at the end
    part = os.fspath(path) + ".part"
    try:
        with open(part, "wb") as fh:
            fh.writelines(blocks)
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise
