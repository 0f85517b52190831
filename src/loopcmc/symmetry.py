"""Reflective and rotational symmetry checks, at the data level and on
meshes.

Data level: a surface is symmetric under reflection in the plane spanned by
the first and third frame axes iff its data is real along the real line,
i.e. a(z) = conj(a(zbar)) and p(z) = conj(p(zbar)) for the normalized
potential entries (mu, nu likewise for minimal data).  It has an order-n
rotational symmetry about the basepoint iff

    a(w z) = a(z),   p(w z) = w^{-2} p(z),   w = exp(2 pi i / n)

(classically mu(w z) = mu(z), nu(w z) = w^{-1} nu(z)); equivalently the
Laurent support of a sits at powers 0 mod n and that of p at -2 mod n.

Mesh level: reflective symmetry is f(zbar) = (f1, -f2, f3)(z) checked by
exact node pairing on a conjugation-symmetric grid; rotational symmetry is
f(w z) = R_theta f(z) with R_theta the rotation by theta about the third
axis, checked by resampling at the rotated preimages (the not-a-knot bicubic
spline on a fully valid grid of at least 4 x 4 nodes, bilinear with
valid-corner checks otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import PotentialSpec, potential_entries
from .mesh import SurfaceMesh
from .weier import WeierstrassData

__all__ = ["SymmetrySpec", "check_reflective_data", "check_rotational_data",
           "verify_mesh_symmetry", "ring_samples"]


@dataclass
class SymmetrySpec:
    kind: str                 # "reflective" | "rotational"
    n: int = 0                # rotation order (>= 2)
    theta: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.kind == "rotational":
            if self.n < 2:
                raise ValueError("rotation order must be >= 2")
            self.theta = 2.0 * np.pi / self.n
        elif self.kind != "reflective":
            raise ValueError(f"unknown symmetry kind {self.kind!r}")

    @classmethod
    def reflective(cls):
        return cls("reflective")

    @classmethod
    def rotational(cls, n):
        return cls("rotational", n=int(n))


def ring_samples(radius=0.7, count=24, center=0j):
    th = 2 * np.pi * (np.arange(count) + 0.31) / count
    return center + radius * np.exp(1j * th)


def _data_pair(data):
    """Normalized data (a, p = Q/a) or classical (mu, nu) as evaluators,
    tagged with which convention applies.  The upper potential entry is
    -(h/2) a, so a is checked directly and stays checked at h = 0."""
    if isinstance(data, PotentialSpec):
        return data.a, potential_entries(data)[1], "potential"
    if isinstance(data, WeierstrassData):
        return data.mu, data.nu, "classical"
    raise TypeError("expected PotentialSpec or WeierstrassData")


def check_reflective_data(data, samples) -> float:
    """Max over samples of the reflective-symmetry defect of the data."""
    f, g, _ = _data_pair(data)
    z = np.asarray(samples, dtype=complex)
    r1 = np.abs(f(z) - np.conj(f(np.conj(z))))
    r2 = np.abs(g(z) - np.conj(g(np.conj(z))))
    return float(max(np.max(r1), np.max(r2)))


def check_rotational_data(data, n, samples) -> float:
    """Max over samples of the order-n rotational-symmetry defect."""
    f, g, kind = _data_pair(data)
    th = 2.0 * np.pi / n
    w = np.exp(1j * th)
    z = np.asarray(samples, dtype=complex)
    r1 = np.abs(f(w * z) - f(z))
    shift = np.exp(-2j * th) if kind == "potential" else np.exp(-1j * th)
    r2 = np.abs(g(w * z) - shift * g(z))
    return float(max(np.max(r1), np.max(r2)))


# ---------------------------------------------------------------------------
# Mesh-level verification

def _rotate3(pts, theta):
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty_like(pts)
    out[..., 0] = c * pts[..., 0] - s * pts[..., 1]
    out[..., 1] = s * pts[..., 0] + c * pts[..., 1]
    out[..., 2] = pts[..., 2]
    return out


def _bilinear(mesh, wre, wim):
    g = mesh.grid
    xs, ys = g.xs, g.ys
    i = np.clip(np.searchsorted(xs, wre) - 1, 0, g.nx - 2)
    j = np.clip(np.searchsorted(ys, wim) - 1, 0, g.ny - 2)
    tx = (wre - xs[i]) / (xs[i + 1] - xs[i])
    ty = (wim - ys[j]) / (ys[j + 1] - ys[j])
    corners_ok = (mesh.mask[j, i] & mesh.mask[j, i + 1]
                  & mesh.mask[j + 1, i] & mesh.mask[j + 1, i + 1])
    f = mesh.f
    vals = ((1 - tx) * (1 - ty))[..., None] * f[j, i] \
        + (tx * (1 - ty))[..., None] * f[j, i + 1] \
        + ((1 - tx) * ty)[..., None] * f[j + 1, i] \
        + (tx * ty)[..., None] * f[j + 1, i + 1]
    return vals, corners_ok


def _notaknot_slopes(x, f):
    """Node slopes, along axis 0, of the not-a-knot cubic spline through
    ``f`` at the nodes ``x``; each column of ``f`` (n, m) is one
    right-hand side of one dense solve."""
    h = np.diff(x)
    d = np.diff(f, axis=0) / h[:, None]
    n = len(x)
    a = np.zeros((n, n))
    r = np.empty_like(f)
    i = np.arange(1, n - 1)
    a[i, i - 1], a[i, i], a[i, i + 1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    r[1:-1] = 3.0 * (h[1:, None] * d[:-1] + h[:-1, None] * d[1:])
    # third derivative continuous across the first and last interior node
    w0, w1 = h[0] + h[1], h[-1] + h[-2]
    a[0, :2] = h[1], w0
    r[0] = ((h[0] + 2.0 * w0) * h[1] * d[0] + h[0] ** 2 * d[1]) / w0
    a[-1, -2:] = w1, h[-2]
    r[-1] = (h[-1] ** 2 * d[-2] + (2.0 * w1 + h[-1]) * h[-2] * d[-1]) / w1
    return np.linalg.solve(a, r)


def _hermite_weights(t, h):
    """Cubic Hermite weights on a cell of width h at the fractions t, as
    (corner, derivative order, point)."""
    s = 1.0 - t
    return np.array([[(1.0 + 2.0 * t) * s * s, h * t * s * s],
                     [t * t * (3.0 - 2.0 * t), -h * t * t * s]])


def _spline_eval(mesh, wre, wim):
    """The not-a-knot bicubic interpolant of the mesh positions (FITPACK's
    ``kx = ky = 3, s = 0`` spline) at the points ``wre + i wim``.

    The tensor-product spline is cubic on each cell, so it is the bicubic
    Hermite patch on the node values, the x- and y-slopes of the spline
    along each grid line, and the y-slopes of the x-slopes.
    """
    g = mesh.grid
    xs, ys, f = g.xs, g.ys, mesh.f
    ny, nx = f.shape[:2]
    fx = _notaknot_slopes(xs, f.transpose(1, 0, 2).reshape(nx, -1))
    fx = fx.reshape(nx, ny, 3).transpose(1, 0, 2)
    # derivatives (y-order q, x-order p) at every node: f, fx, fy, fxy
    both = np.concatenate([f, fx], axis=-1).reshape(ny, -1)
    dy = _notaknot_slopes(ys, both).reshape(ny, nx, 2, 3)
    nodal = np.stack([np.stack([f, fx], axis=2), dy], axis=2)
    i = np.clip(np.searchsorted(xs, wre) - 1, 0, nx - 2)
    j = np.clip(np.searchsorted(ys, wim) - 1, 0, ny - 2)
    hx, hy = xs[i + 1] - xs[i], ys[j + 1] - ys[j]
    wx = _hermite_weights((wre - xs[i]) / hx, hx)
    wy = _hermite_weights((wim - ys[j]) / hy, hy)
    # cell corners (cy, cx): nodal values (n, q, p, 3) and weights (q, p, n)
    corner = np.array([0, 1])
    c = nodal[j + corner[:, None, None], i + corner[:, None]]
    w = wy[:, None, :, None] * wx[None, :, None]
    return np.einsum("abqpn,abnqpc->nc", w, c)


def verify_mesh_symmetry(mesh: SurfaceMesh, spec: SymmetrySpec,
                         method="auto", margin_cells=1) -> float:
    """Max deviation of the mesh from its predicted symmetry image, as a
    fraction of the mesh diameter.

    Reflective: the grid must be conjugation-symmetric (exact node
    pairing).  Rotational: positions are resampled at the rotated
    preimages; ``method`` is 'spline' (the not-a-knot bicubic interpolant,
    FITPACK's ``kx = ky = 3, s = 0`` spline; needs a fully valid grid with
    at least 4 nodes per axis), 'bilinear', or 'auto' (the spline where it
    applies, else bilinear).
    """
    g = mesh.grid
    diam = mesh.diameter()
    if diam == 0:
        return 0.0
    if spec.kind == "reflective":
        if np.max(np.abs(g.ys + g.ys[::-1])) > 1e-9 * max(abs(g.dy), 1e-30):
            raise ValueError("reflective check needs a conjugation-symmetric grid")
        fged = mesh.f[::-1, :, :]          # f at conjugated nodes
        mirrored = mesh.f.copy()
        mirrored[..., 1] *= -1.0
        both = mesh.mask & mesh.mask[::-1, :]
        dev = np.linalg.norm(fged - mirrored, axis=-1)
        return float(np.max(dev[both], initial=0.0) / diam)

    w = np.exp(1j * spec.theta)
    zz = g.zz
    target = w * zz
    inside = (target.real >= g.xs[0] + margin_cells * g.dx) \
        & (target.real <= g.xs[-1] - margin_cells * g.dx) \
        & (target.imag >= g.ys[0] + margin_cells * g.dy) \
        & (target.imag <= g.ys[-1] - margin_cells * g.dy)
    sel = mesh.mask & inside
    if not np.any(sel):
        raise ValueError("no resampling points inside the grid")
    spline_ok = min(g.nx, g.ny) >= 4 and mesh.mask.all()
    if method == "auto":
        method = "spline" if spline_ok else "bilinear"
    if method == "spline":
        if not spline_ok:
            raise ValueError("spline resampling needs a fully valid grid "
                             "with at least 4 nodes per axis")
        vals = _spline_eval(mesh, target.real[sel], target.imag[sel])
        ok = np.ones(vals.shape[:-1], dtype=bool)
    else:
        vals, ok = _bilinear(mesh, target.real[sel], target.imag[sel])
    predicted = _rotate3(mesh.f[sel], spec.theta)
    dev = np.linalg.norm(vals - predicted, axis=-1)
    return float(np.max(dev[ok], initial=0.0) / diam)
