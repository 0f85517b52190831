"""Deterministic mesh export: OBJ (text) and binary little-endian PLY.

Vertices and vertex normals are emitted for valid nodes only, quad faces
over grid cells whose four corners are valid.  Float formatting is fixed
(%.12e) so identical meshes produce identical bytes.

Both writers are array-built and share one vertex table per mesh
(``SurfaceMesh.vertex_table``): its face table comes from the four shifted
masks at once.  PLY packs the vertices and the faces as one
little-endian array each.  The bytes are those of a writer that goes
vertex by vertex and cell by cell in row-major order.

OBJ text is built as bytes, without ``%``.  Each ``%.12e`` field is one
row of a ``(values, 20)`` uint8 table in which 0 means "no byte":

* the decimal exponent ``e`` is ``floor(log10|x|)``, moved by one where
  the scaled value falls outside ``[1e12, 1e13)``;
* the 13-digit mantissa is ``|x| 10**(12 - e)`` rounded to the nearest
  integer.  The product is a double-double: Dekker's exact TwoProduct of
  ``|x|`` with the double nearest the power of ten, plus ``|x|`` times that
  double's error.  The pair is made per call, from exact Python integers,
  for the exponents present only;
* the leading digit comes from int32/int64 division, and the twelve
  after the point from a table of ``%04d`` strings, three uint32 lookups
  into a packed record of the field.

Each block (``v``, ``vn`` and the ``f`` rows) is one ``(rows, width)``
uint8 table, compacted once by dropping its 0 bytes (``bytes.translate``),
and blocks are made and written one at a time.  ``%d`` face fields are
right-aligned in the width of the largest index.

The double-double product is within 2e-16 of the exact one, so its
rounding is the correctly rounded one ``%`` makes unless the exact value
is that close to a tie.  A row is formatted with ``%`` instead, and written
into its place in the table, when any of its values is one the arrays do
not decide: non-finite, ``|x|`` outside ``[1e-290, 1e290]`` (where the
power of ten or its split would leave the double range), or a mantissa
within 1e-6 of a rounding tie.  Mesh data is not expected to take that
path.  There is no ``np.longdouble``: its precision depends on the
platform (on some it is a plain double), and a long-double version of
this formatter measured slower than ``%`` itself.
"""

from __future__ import annotations

import numpy as np

from .mesh import SurfaceMesh

__all__ = ["obj_bytes", "ply_bytes", "write_mesh"]

_PLY_FACE = np.dtype([("n", "u1"), ("idx", "<i4", (4,))])

_FIELD = 20                     # widest %.12e field: -1.797693134862e+308
_SMALL, _LARGE = 1e-290, 1e290  # beyond, 10**(12 - e) or its split overflows
_TIE = 1e-6                     # this close to a rounding tie, % decides
_M_LO, _M_HI = 10 ** 12, 10 ** 13
# "%04d" of 0..9999 as little-endian uint32s, and the field's leading digit
# and three four-digit groups as fields of one packed 20-byte record
_DIGITS4 = (np.arange(10 ** 4, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
            + ord("0")).astype(np.uint8).view("<u4").ravel()
_DIGIT_RECORD = np.dtype({"names": ["lead", "g0", "g1", "g2"],
                          "formats": ["u1", "<u4", "<u4", "<u4"],
                          "offsets": [1, 3, 7, 11], "itemsize": _FIELD})


def _pow10_pairs(ks):
    """Per power ``k`` in ``ks``: the double ``hi`` nearest ``10**k``, cut
    into its top 26 significant bits ``h1`` and the rest ``h2``, and
    ``lo``, the double nearest ``10**k - hi``.  Exact integer arithmetic;
    int / int is correctly rounded."""
    out = np.empty((3, len(ks)))
    for i, k in enumerate(ks):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        p, q = hi.as_integer_ratio()
        drop = max(p.bit_length() - 26, 0)
        h1 = ((p >> drop) << drop) / q
        out[:, i] = h1, hi - h1, (num * q - p * den) / (den * q)
    return out


def _scaled(a, e):
    """``a * 10**(12 - e)`` for positive ``a``, as its floor (int64) and
    its fractional part, from a double-double product."""
    k = 12 - e
    kmin = int(k.min())
    present = np.flatnonzero(np.bincount(k - kmin)) + kmin
    table = np.zeros((3, int(present[-1]) - kmin + 1))
    table[:, present - kmin] = _pow10_pairs(present.tolist())
    idx = k - kmin
    h1, h2, lo = table[0][idx], table[1][idx], table[2][idx]
    c = a * 134217729.0                    # Veltkamp split of a, 2**27 + 1
    a1 = c - (c - a)
    a2 = a - a1
    ph = a * (h1 + h2)
    pl = ((a1 * h1 - ph) + a1 * h2 + a2 * h1) + a2 * h2
    n = np.floor(ph)
    frac = (ph - n) + (pl + a * lo)
    carry = np.floor(frac)
    return (n + carry).astype(np.int64), frac - carry


def _float_fields(x):
    """``'%.12e'`` fields of the float64 vector ``x`` as a ``(len(x), 20)``
    uint8 table, 0 meaning no byte, and the mask of the values the arrays
    do not decide; their fields are meaningless."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    zero = a == 0.0
    undecided = ~(zero | ((a >= _SMALL) & (a <= _LARGE)))
    a = np.where(zero | undecided, 1.0, a)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e)
    off = (whole < _M_LO) | (whole >= _M_HI)
    if off.any():
        e[off] += np.where(whole[off] < _M_LO, -1, 1)
        whole[off], frac[off] = _scaled(a[off], e[off])
    mant = whole + (frac > 0.5)
    undecided |= ((mant < _M_LO) | (mant > _M_HI)
                  | (np.abs(frac - 0.5) < _TIE))
    carry = mant == _M_HI
    mant[carry] = _M_LO
    e[carry] += 1
    mant[zero] = 0
    e[zero] = 0

    out = np.empty((len(x), _FIELD), dtype=np.uint8)
    out[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    out[:, 2] = ord(".")
    out[:, 15] = ord("e")
    out[:, 16] = np.where(e < 0, ord("-"), ord("+"))
    # 13 digits: the leading one at column 1, then three groups of four at
    # columns 3..14, each a uint32 of its ASCII digits from one table
    top = (mant // 10 ** 8).astype(np.int32)
    low = (mant - top.astype(np.int64) * 10 ** 8).astype(np.int32)
    lead = top // 10 ** 4
    mid = low // 10 ** 4
    rec = out.reshape(-1).view(_DIGIT_RECORD)
    rec["lead"] = lead + ord("0")
    rec["g0"] = _DIGITS4[top - lead * 10 ** 4]
    rec["g1"] = _DIGITS4[mid]
    rec["g2"] = _DIGITS4[low - mid * 10 ** 4]
    e = np.abs(e).astype(np.int32)
    out[:, 17] = np.where(e >= 100, e // 100 + ord("0"), 0)
    out[:, 18] = e // 10 % 10 + ord("0")
    out[:, 19] = e % 10 + ord("0")
    return out, undecided


def _int_fields(v):
    """``'%d'`` fields of the non-negative integer vector ``v``, right-aligned
    in a ``(len(v), width)`` uint8 table (width of the largest), 0 meaning
    no byte."""
    v = np.asarray(v, dtype=np.int64)
    width = len(str(int(v.max()))) if len(v) else 1
    out = np.empty((len(v), width), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        q = v // 10
        digit = v - 10 * q + ord("0")
        if col < width - 1:
            digit[v == 0] = 0
        out[:, col] = digit
        v = q
    return out


def _rows(head, n, k, w):
    """``(n, width)`` table of the lines ``head``, then `` cell`` for each
    of ``k`` cells of ``w`` bytes, then a newline; and the ``(n, k, w)``
    view of the cells for the caller to fill."""
    rows = np.empty((n, len(head) + k * (w + 1) + 1), dtype=np.uint8)
    rows[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    body = rows[:, len(head):-1].reshape(n, k, w + 1)
    body[:, :, 0] = ord(" ")
    rows[:, -1] = ord("\n")
    return rows, body[:, :, 1:]


def _float_rows(head, table) -> bytes:
    """Lines ``head %.12e ... %.12e`` of the rows of the float ``table``.
    Rows holding a value the arrays do not decide are formatted with ``%``
    and written in place."""
    n, k = table.shape
    if n == 0:
        return b""
    fields, undecided = _float_fields(table.reshape(-1))
    rows, cells = _rows(head, n, k, _FIELD)
    cells[...] = fields.reshape(n, k, _FIELD)
    fmt = head.decode() + " %.12e" * k + "\n"
    for i in np.flatnonzero(undecided.reshape(n, k).any(axis=1)):
        line = (fmt % tuple(table[i].tolist())).encode()
        rows[i] = 0
        rows[i, :len(line)] = np.frombuffer(line, dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0")


def _face_rows(faces) -> bytes:
    """Lines ``f a//a b//b c//c d//d`` of the 1-based ``(n, 4)`` faces."""
    n = len(faces)
    if n == 0:
        return b""
    digits = _int_fields(faces.reshape(-1)).reshape(n, 4, -1)
    w = digits.shape[-1]
    rows, cells = _rows(b"f", n, 4, 2 * w + 2)
    cells[:, :, :w] = digits
    cells[:, :, w:w + 2] = ord("/")
    cells[:, :, w + 2:] = digits
    return rows.tobytes().translate(None, b"\0")


def _obj_blocks(mesh: SurfaceMesh, comment=""):
    """The OBJ text as four byte blocks, made one at a time: header, ``v``,
    ``vn`` and ``f``."""
    verts, normals, faces = mesh.vertex_table
    head = [f"# {ln}\n" for ln in comment.splitlines()]
    head.append(f"# vertices {len(verts)} faces {len(faces)}\n")
    yield "".join(head).encode()
    yield _float_rows(b"v", verts)
    yield _float_rows(b"vn", normals)
    yield _face_rows(faces + 1)


def obj_bytes(mesh: SurfaceMesh, comment="") -> bytes:
    return b"".join(_obj_blocks(mesh, comment))


def ply_bytes(mesh: SurfaceMesh) -> bytes:
    verts, normals, faces = mesh.vertex_table
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
    # each OBJ block is written as it is made, not joined: the export's peak
    # memory holds one block of text and its tables, not the whole text
    if fmt == "obj":
        blocks = _obj_blocks(mesh, comment)
    elif fmt == "ply":
        blocks = [ply_bytes(mesh)]
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")
    with open(path, "wb") as fh:
        fh.writelines(blocks)
