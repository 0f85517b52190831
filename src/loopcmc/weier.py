"""Classical Weierstrass representation of minimal surfaces.

Data is a pair (mu, nu) with mu holomorphic and nu meromorphic such that
mu nu^2 is holomorphic; the immersion is

    f = 2 Re int ( mu (1 - nu^2), -i mu (1 + nu^2), -2 mu nu ) dz

with f(z0) = 0.  The SU(2) frame bookkeeping (initial frame from the data,
metric |mu|(1+|nu|^2), Hopf function -2 mu nu_z) follows the same
conventions as the loop-group pipeline so that deformation families stay
tangent at the basepoint.

Data components are ``MeroFunc`` values: symbolic expressions, numeric
antiderivatives (path integrals from the basepoint), or Moebius transforms
of either; all evaluate vectorised and know their derivative.  A numeric
antiderivative evaluates a whole array of points with one batched
quadrature, so every kind of data rides the same Gauss-Legendre grid
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .grid import DomainGrid, _erode
from .mesh import SurfaceMesh

__all__ = [
    "MeroFunc", "ExprFunc", "AntiderivativeFunc", "MobiusFunc", "as_func",
    "WeierstrassData", "InvalidDataError", "minimal_surface", "metric_hopf",
    "initial_frame", "regularity_mask", "regularity_report",
    "coordinate_frame_grid", "pcomponent_residual",
]


class InvalidDataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Function carriers

class MeroFunc:
    """A meromorphic function: vectorised evaluation plus a derivative."""

    expr = None  # symbolic form when available

    def __call__(self, z):
        raise NotImplementedError

    def derivative(self) -> "MeroFunc":
        raise NotImplementedError

    def value_grid(self, grid: DomainGrid):
        return self(grid.zz)


class ExprFunc(MeroFunc):
    def __init__(self, e):
        self.expr = e if isinstance(e, ex.ExprNode) else ex.parse(e)

    def __call__(self, z):
        return ex.evaluate(self.expr, z)

    def derivative(self):
        return ExprFunc(ex.diff(self.expr))

    def __repr__(self):
        return f"ExprFunc({ex.to_text(self.expr)})"


class AntiderivativeFunc(MeroFunc):
    """F(z) = c + int_{z0}^{z} g dz along axis-aligned paths.

    If the integrand is polynomial the antiderivative is formed
    symbolically; otherwise values come from composite Gauss-Legendre
    quadrature (path independence holds because g is holomorphic on the
    contractible working domain)."""

    def __init__(self, integrand, z0, constant=0.0 + 0.0j):
        self.integrand = integrand if isinstance(integrand, ex.ExprNode) \
            else ex.parse(integrand)
        self.z0 = complex(z0)
        self.constant = complex(constant)
        poly = ex.as_polynomial(self.integrand)
        if poly is not None:
            prim = None
            for k, c in sorted(poly.items()):
                term = ex.Const(c / (k + 1)) * ex.Pow(ex.Z, k + 1) if k != 0 \
                    else ex.Const(c) * ex.Z
                prim = term if prim is None else prim + term
            if prim is None:
                prim = ex.Const(0.0)
            offset = ex.evaluate(prim, self.z0) - self.constant
            self.expr = prim - ex.Const(offset)

    def __call__(self, z):
        if self.expr is not None:
            return ex.evaluate(self.expr, z)
        return self.constant + ex.integrate_path(self.integrand, self.z0, z)

    def value_grid(self, grid):
        if self.expr is not None:
            return ex.evaluate(self.expr, grid.zz)
        vals = _cumulative_grid_integral(
            lambda pts: ex.evaluate(self.integrand, pts)[..., None], grid)
        return self.constant + vals[..., 0]

    def derivative(self):
        return ExprFunc(self.integrand)


class MobiusFunc(MeroFunc):
    """(m00 w + m01) / (m10 w + m11) applied to an inner function."""

    def __init__(self, m, inner: MeroFunc):
        self.m = np.asarray(m, dtype=complex)
        self.inner = inner

    def __call__(self, z):
        w = self.inner(z)
        return (self.m[0, 0] * w + self.m[0, 1]) / (self.m[1, 0] * w + self.m[1, 1])

    def value_grid(self, grid):
        w = self.inner.value_grid(grid)
        return (self.m[0, 0] * w + self.m[0, 1]) / (self.m[1, 0] * w + self.m[1, 1])

    def derivative(self):
        return _MobiusDeriv(self.m, self.inner)


class _MobiusDeriv(MeroFunc):
    def __init__(self, m, inner):
        self.m = m
        self.inner = inner
        self.det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        self.dinner = inner.derivative()

    def __call__(self, z):
        w = self.inner(z)
        return self.det * self.dinner(z) / (self.m[1, 0] * w + self.m[1, 1]) ** 2

    def derivative(self):
        raise NotImplementedError("second Moebius derivative not needed")


def as_func(x) -> MeroFunc:
    if isinstance(x, MeroFunc):
        return x
    if isinstance(x, ex.ExprNode):
        return ExprFunc(x)
    if isinstance(x, str):
        return ExprFunc(ex.parse(x))
    if isinstance(x, (int, float, complex)):
        return ExprFunc(ex.Const(complex(x)))
    raise TypeError(f"cannot treat {type(x).__name__} as a function")


# ---------------------------------------------------------------------------
# Weierstrass data

@dataclass
class WeierstrassData:
    mu: MeroFunc
    nu: MeroFunc
    z0: complex = 0j

    def __post_init__(self):
        self.mu = as_func(self.mu)
        self.nu = as_func(self.nu)
        self.z0 = complex(self.z0)

    @property
    def mu0(self):
        return complex(self.mu(self.z0))

    @property
    def nu0(self):
        return complex(self.nu(self.z0))


def initial_frame(w: WeierstrassData) -> np.ndarray:
    """Unitary coordinate-frame initial condition determined by the data at
    the basepoint (principal square root of mu there)."""
    mu0, nu0 = w.mu0, w.nu0
    if not (np.isfinite(mu0) and np.isfinite(nu0)):
        raise InvalidDataError("data not finite at the basepoint")
    if abs(mu0) < 1e-300:
        raise InvalidDataError("mu vanishes at the basepoint; "
                               "pick a basepoint where the frame formula applies")
    s0 = np.sqrt(complex(mu0))
    den = np.sqrt(abs(mu0) * (abs(nu0) ** 2 + 1))
    a0 = s0 / den
    b0 = np.conj(nu0 * s0) / den
    return np.array([[a0, b0], [-np.conj(b0), np.conj(a0)]], dtype=complex)


def metric_hopf(w: WeierstrassData):
    """Conformal factor evaluator e^u = |mu| (1 + |nu|^2) and the Hopf
    function Q = -2 mu nu_z (symbolic when the data is symbolic)."""

    def eu(z):
        return np.abs(w.mu(z)) * (1.0 + np.abs(w.nu(z)) ** 2)

    dnu = w.nu.derivative()
    if w.mu.expr is not None and dnu.expr is not None:
        q = ex.Const(-2.0) * w.mu.expr * dnu.expr
        return eu, q

    def qfun(z):
        return -2.0 * w.mu(z) * dnu(z)

    return eu, qfun


def regularity_report(w: WeierstrassData, points, radius=1e-3):
    """Order-based regularity classification at sample points: the surface
    is regular where Ord(mu) = 0 with Ord(nu) >= 0, or where
    0 <= Ord(mu) = -2 Ord(nu); mu nu^2 must be holomorphic throughout.

    Needs symbolic data (the orders come from the two-circle fit).  Returns
    one dict per point with the orders and flags; ambiguous fits surface as
    order None with regular=False.
    """
    if w.mu.expr is None or w.nu.expr is None:
        raise InvalidDataError("order-based regularity needs symbolic data")
    munu2 = ex.Mul(w.mu.expr, ex.Pow(w.nu.expr, 2))
    out = []
    for z in points:
        z = complex(z)
        om = ex.order_at(w.mu.expr, z, radius=radius).order
        on = ex.order_at(w.nu.expr, z, radius=radius).order
        o2 = ex.order_at(munu2, z, radius=radius).order
        if om is None or on is None:
            regular = False
        else:
            regular = (om == 0 and on >= 0) or (0 <= om == -2 * on)
        holo = o2 is not None and o2 >= 0
        out.append({"z": z, "ord_mu": om, "ord_nu": on,
                    "ord_mu_nu2": o2, "regular": regular,
                    "mu_nu2_holomorphic": holo})
    return out


def regularity_mask(w: WeierstrassData, grid: DomainGrid, dilate=1):
    """Valid-node mask: data finite and the conformal factor bounded away
    from zero (branch points and poles are excluded, then dilated)."""
    mu = w.mu.value_grid(grid)
    nu = w.nu.value_grid(grid)
    eu = np.abs(mu) * (1.0 + np.abs(nu) ** 2)
    good = np.isfinite(mu) & np.isfinite(nu) & np.isfinite(eu)
    scale = np.median(eu[good & (eu > 0)]) if np.any(good & (eu > 0)) else 1.0
    good &= eu > 1e-12 * scale
    good &= eu < 1e12 * scale
    return _erode(good & grid.mask, dilate, outside=True)


# ---------------------------------------------------------------------------
# Integration sweeps

def _gl_stack(za, zb, gl_n=8):
    x, wgt = ex._gl_nodes(gl_n)
    pts = za[..., None] + (x[None, :] + 1) / 2 * (zb - za)[..., None]
    return pts, wgt


def _cumulative_grid_integral(fvec, grid: DomainGrid, gl_n=8):
    """Cumulative integral of a vector-valued integrand over the grid sweep
    from the basepoint (``DomainGrid.sweep``), one Gauss-Legendre segment
    per edge; ``fvec(points)`` must return (..., m)."""
    m = np.asarray(fvec(np.array([grid.z0]))).shape[-1]
    vals = np.full((grid.ny, grid.nx, m), np.nan, dtype=complex)
    vals[grid.j0, grid.i0] = 0.0

    def seg(v, za, zb):
        pts, wgt = _gl_stack(np.asarray(za), np.asarray(zb), gl_n)
        fv = np.asarray(fvec(pts.reshape(-1))).reshape(pts.shape + (m,))
        return v + (zb - za)[..., None] / 2.0 * np.einsum("...gm,g->...m", fv, wgt)

    return grid.sweep(vals, seg)


def _fz_components(mu, nu):
    return np.stack([mu * (1.0 - nu ** 2),
                     -1j * mu * (1.0 + nu ** 2),
                     -2.0 * mu * nu], axis=-1)


def minimal_surface(w: WeierstrassData, grid: DomainGrid) -> SurfaceMesh:
    """Minimal surface mesh from Weierstrass data, f(z0) = 0.

    The integrand is swept over the grid by Gauss-Legendre segments
    (``_cumulative_grid_integral``); mu and nu are evaluated at the
    segments' nodes, whether they are symbolic or numeric primitives.
    """
    mask = regularity_mask(w, grid)
    if not mask[grid.j0, grid.i0]:
        raise InvalidDataError("basepoint fails the regularity conditions")
    work = grid.with_mask(mask)

    def fvec(pts):
        return _fz_components(w.mu(pts), w.nu(pts))

    F = _cumulative_grid_integral(fvec, work)
    nu_vals = w.nu.value_grid(work)
    mu_vals = w.mu.value_grid(work)
    f = 2.0 * F.real
    fz = _fz_components(mu_vals, nu_vals)
    denom = 1.0 + np.abs(nu_vals) ** 2
    normal = np.stack([2.0 * nu_vals.real / denom,
                       -2.0 * nu_vals.imag / denom,
                       (1.0 - np.abs(nu_vals) ** 2) / denom], axis=-1)
    eu = np.abs(mu_vals) * denom
    good = mask & np.all(np.isfinite(f), axis=-1)
    jj, ii = work.j0, work.i0
    f -= f[jj, ii]
    meta = {"kind": "weierstrass", "ntrunc": 0, "tail_bound": 0.0,
            "max_iwasawa_residual": 0.0, "max_unitary_residual": 0.0}
    return SurfaceMesh(grid=work, h=0.0, f=f, normal=normal, eu=eu, fz=fz,
                       mask=good, meta=meta)


# ---------------------------------------------------------------------------
# Frame field and the holomorphic-Gauss-map residual

def coordinate_frame_grid(w: WeierstrassData, grid: DomainGrid):
    """SU(2) coordinate frame at every node, with the square-root branch of
    mu propagated continuously from the basepoint along the sweep order."""
    mu = w.mu.value_grid(grid)
    nu = w.nu.value_grid(grid)
    j0, i0 = grid.j0, grid.i0
    s = np.empty_like(mu)
    s0 = ex.continued_sqrt(mu[j0, i0:].ravel())
    s[j0, i0:] = s0
    s[j0, :i0 + 1] = ex.continued_sqrt(mu[j0, i0::-1])[::-1]
    for i in range(grid.nx):
        s[j0:, i] = ex.continued_sqrt(mu[j0:, i], first=s[j0, i])
        s[:j0 + 1, i] = ex.continued_sqrt(mu[j0::-1, i], first=s[j0, i])[::-1]
    r = nu * s
    eu = np.abs(mu) * (1.0 + np.abs(nu) ** 2)
    pref = 1.0 / np.sqrt(eu)
    frame = np.empty(mu.shape + (2, 2), dtype=complex)
    frame[..., 0, 0] = pref * s
    frame[..., 0, 1] = pref * np.conj(r)
    frame[..., 1, 0] = -pref * r
    frame[..., 1, 1] = pref * np.conj(s)
    return frame


def pcomponent_residual(w: WeierstrassData, grid: DomainGrid):
    """Max over interior nodes of the forbidden component of the frame's
    Maurer-Cartan form: the lower-left entry of F^{-1} dF/dzbar, scaled by
    e^{-u}.  Vanishes exactly when the Gauss map is holomorphic (the
    surface is minimal); the residual reproduces |H|."""
    frame = coordinate_frame_grid(w, grid)
    eu = np.abs(w.mu.value_grid(grid)) * (1 + np.abs(w.nu.value_grid(grid)) ** 2)
    dx, dy = grid.dx, grid.dy
    dfdx = np.gradient(frame, dx, axis=1)
    dfdy = np.gradient(frame, dy, axis=0)
    dzbar = 0.5 * (dfdx + 1j * dfdy)
    inv = np.linalg.inv(frame)
    v = np.einsum("...ij,...jk->...ik", inv, dzbar)
    inner = grid.interior(1)
    vals = np.abs(v[..., 1, 0]) / np.maximum(eu, 1e-300)
    return float(np.max(vals[inner], initial=0.0))
