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
axis, checked by resampling at the rotated preimages (bicubic spline on a
fully valid grid, bilinear with valid-corner checks otherwise).
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


def _spline_eval(mesh, wre, wim):
    from scipy.interpolate import RectBivariateSpline
    g = mesh.grid
    vals = np.empty(wre.shape + (3,))
    for c in range(3):
        sp = RectBivariateSpline(g.ys, g.xs, mesh.f[..., c], kx=3, ky=3, s=0)
        vals[..., c] = sp.ev(wim, wre)
    return vals


def verify_mesh_symmetry(mesh: SurfaceMesh, spec: SymmetrySpec,
                         method="auto", margin_cells=1) -> float:
    """Max deviation of the mesh from its predicted symmetry image, as a
    fraction of the mesh diameter.

    Reflective: the grid must be conjugation-symmetric (exact node
    pairing).  Rotational: positions are resampled at the rotated
    preimages; ``method`` is 'spline' (bicubic; needs a fully valid grid),
    'bilinear', or 'auto'.
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
    if method == "auto":
        method = "spline" if mesh.mask.all() else "bilinear"
    if method == "spline":
        vals = _spline_eval(mesh, target.real[sel], target.imag[sel])
        ok = np.ones(vals.shape[:-1], dtype=bool)
    else:
        vals, ok = _bilinear(mesh, target.real[sel], target.imag[sel])
    predicted = _rotate3(mesh.f[sel], spec.theta)
    dev = np.linalg.norm(vals - predicted, axis=-1)
    return float(np.max(dev[ok], initial=0.0) / diam)
