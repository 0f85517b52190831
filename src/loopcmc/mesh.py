"""Surface meshes sampled over a domain grid.

Positions, unit normals, the conformal factor and the analytic complex
tangent field f_z are stored per node; the mask marks nodes where the
construction succeeded.  Tangents come from closed-form frame data rather
than finite differences, so conformality holds to the accuracy of the
frames themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import DomainGrid

__all__ = ["SurfaceMesh"]


@dataclass
class SurfaceMesh:
    grid: DomainGrid
    h: float
    f: np.ndarray          # (ny, nx, 3) float
    normal: np.ndarray     # (ny, nx, 3) float, unit where valid
    eu: np.ndarray         # (ny, nx) float, conformal factor e^u
    fz: np.ndarray         # (ny, nx, 3) complex, df/dz
    mask: np.ndarray       # (ny, nx) bool, True = valid
    meta: dict = field(default_factory=dict)

    @property
    def z0(self):
        return self.grid.z0

    def basepoint_index(self):
        return self.grid.j0, self.grid.i0

    @cached_property
    def vertex_table(self):
        """(vertices, normals, faces) of the valid nodes in row order and
        the quads of four valid corners, built at the first export and
        shared by the next: export a mesh only once its arrays are final."""
        m = self.mask
        index = -np.ones(m.shape, dtype=int)
        order = np.nonzero(m)
        index[order] = np.arange(len(order[0]))
        quad = m[:-1, :-1] & m[:-1, 1:] & m[1:, 1:] & m[1:, :-1]
        faces = np.stack([index[:-1, :-1][quad], index[:-1, 1:][quad],
                          index[1:, 1:][quad], index[1:, :-1][quad]], axis=-1)
        return self.f[order], self.normal[order], faces

    def diameter(self):
        """Bounding-box diagonal of the valid points (used to normalize
        symmetry deviations), one coordinate at a time: each is gathered
        into a contiguous array, where its extremes take one pass."""
        if not self.mask.any():
            return 0.0
        return float(np.linalg.norm(
            [np.ptp(self.f[..., k][self.mask]) for k in range(3)]))

    def masked_fraction(self):
        return 1.0 - float(np.count_nonzero(self.mask)) / self.mask.size

    def interior(self, ring=1):
        """Valid nodes with a fully valid (2*ring+1)-square neighborhood."""
        return self.grid.with_mask(self.mask).interior(ring)

    def fx_fy(self):
        """Real tangent fields from the analytic f_z (f_x = 2 Re f_z,
        f_y = -2 Im f_z)."""
        return 2.0 * self.fz.real, -2.0 * self.fz.imag

    def conformality_residuals(self):
        """(max |<fx,fy>| / |fx|^2, max ||fx|-|fy|| / |fx|) over valid
        interior nodes."""
        fx, fy = self.fx_fy()
        m = self.mask
        dot = np.abs(np.einsum("...i,...i", fx, fy))
        nx2 = np.einsum("...i,...i", fx, fx)
        ny_ = np.sqrt(np.einsum("...i,...i", fy, fy))
        nx_ = np.sqrt(nx2)
        ok = m & (nx2 > 0)
        r1 = float(np.max(dot[ok] / nx2[ok], initial=0.0))
        r2 = float(np.max(np.abs(nx_[ok] - ny_[ok]) / nx_[ok], initial=0.0))
        return r1, r2
