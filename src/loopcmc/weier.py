"""Classical Weierstrass representation of minimal surfaces.

Data is a pair (mu, nu) with mu holomorphic and nu meromorphic such that
mu nu^2 is holomorphic; the immersion is

    f = 2 Re int ( mu (1 - nu^2), -i mu (1 + nu^2), -2 mu nu ) dz

with f(z0) = 0.  The SU(2) frame bookkeeping (initial frame from the data,
metric |mu|(1+|nu|^2), Hopf function -2 mu nu_z) follows the same
conventions as the loop-group pipeline so that deformation families stay
tangent at the basepoint.

Data components are expressions (``expr.ExprNode``); a primitive such as
nu = -int Q/a is an ``expr.Prim`` node, evaluated by path quadrature, so
every kind of data evaluates vectorised and differentiates symbolically.
On a mesh grid a primitive that starts at the grid's basepoint is not
integrated per point: one cumulative pass along the grid walk, which
follows the quadrature's horizontal-then-vertical path, gives its values
at the nodes and at the sweep's points (``_walk_primitive``), and
``expr.evaluate`` takes them as substitutions.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .grid import DomainGrid, GridError, _erode, sweep
from .mesh import SurfaceMesh

__all__ = [
    "WeierstrassData", "InvalidDataError", "minimal_surface", "metric_hopf",
    "initial_frame", "regularity_mask", "regularity_report",
    "coordinate_frame_grid", "pcomponent_residual",
]


class InvalidDataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Weierstrass data

@dataclass
class WeierstrassData:
    mu: ex.ExprNode
    nu: ex.ExprNode
    z0: complex = 0j

    def __post_init__(self):
        self.mu = ex.as_expr(self.mu)
        self.nu = ex.as_expr(self.nu)
        self.z0 = complex(self.z0)

    @property
    def mu0(self):
        return ex.evaluate(self.mu, self.z0)

    @property
    def nu0(self):
        return ex.evaluate(self.nu, self.z0)


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
    function Q = -2 mu nu_z as an expression."""

    def eu(z):
        return np.abs(w.mu(z)) * (1.0 + np.abs(w.nu(z)) ** 2)

    return eu, ex.Const(-2.0) * w.mu * ex.diff(w.nu)


def regularity_report(w: WeierstrassData, points, radius=1e-3):
    """Order-based regularity classification at sample points: the surface
    is regular where Ord(mu) = 0 with Ord(nu) >= 0, or where
    0 <= Ord(mu) = -2 Ord(nu); mu nu^2 must be holomorphic throughout.

    The orders come from the two-circle fit.  Returns one dict per point
    with the orders and flags; ambiguous fits surface as order None with
    regular=False.
    """
    munu2 = ex.Mul(w.mu, ex.Pow(w.nu, 2))
    out = []
    for z in points:
        z = complex(z)
        om = ex.order_at(w.mu, z, radius=radius).order
        on = ex.order_at(w.nu, z, radius=radius).order
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


def regularity_mask(mu, nu, grid: DomainGrid, dilate=1):
    """Valid-node mask from the values of mu and nu at the grid nodes: data
    finite and the conformal factor bounded away from zero (branch points
    and poles are excluded, then dilated)."""
    eu = np.abs(mu) * (1.0 + np.abs(nu) ** 2)
    good = np.isfinite(mu) & np.isfinite(nu) & np.isfinite(eu)
    scale = np.median(eu[good & (eu > 0)]) if np.any(good & (eu > 0)) else 1.0
    good &= eu > 1e-12 * scale
    good &= eu < 1e12 * scale
    return _erode(good & grid.mask, dilate, outside=True)


# ---------------------------------------------------------------------------
# Primitives along the grid walk

# Gauss-Legendre points per edge of the integration sweep
SWEEP_GL_N = 8


@functools.cache
def _edge_weights(pieces):
    """(SWEEP_GL_N + 1, pieces * PATH_GL_N) weights taking an edge's
    integrand values at integrate_path's points (``pieces`` equal pieces of
    PATH_GL_N Gauss-Legendre points) to its integrals from its start to the
    sweep's abscissae and, in the last row, to its end, per unit of the
    edge's dz.  The piece holding an abscissa enters by the integral of its
    values' Legendre interpolant, the pieces before it by their
    quadrature."""
    leg = np.polynomial.legendre
    x, w = ex._gl_nodes(ex.PATH_GL_N)
    n = len(x)
    # the Lagrange basis of the nodes as Legendre series,
    # l_m = sum_k (k + 1/2) w_m P_k(x_m) P_k, integrated from -1
    basis = (np.arange(n)[:, None] + 0.5) * leg.legvander(x, n - 1).T * w
    integral = leg.legint(basis, lbnd=-1, axis=0)
    t = (ex._gl_nodes(SWEEP_GL_N)[0] + 1) / 2 * pieces
    piece = np.minimum(t.astype(int), pieces - 1)
    out = np.where((np.arange(pieces) < piece[:, None])[..., None], w, 0.0)
    local = 2 * (t - piece) - 1
    out[np.arange(SWEEP_GL_N), piece] = leg.legvander(local, n) @ integral
    out = np.concatenate([out.reshape(SWEEP_GL_N, pieces * n),
                          np.tile(w, (1, pieces))]) / (2 * pieces)
    out.flags.writeable = False
    return out


def _edge_integrals(integrand, za, zb):
    """Integrals of ``integrand`` over the straight edges za -> zb (n,) by
    integrate_path's rule, (n,), and from za to each edge's sweep points,
    (n, SWEEP_GL_N).  Edges with the same piece count share one
    evaluation."""
    dz = zb - za
    pieces = np.maximum(1, np.ceil(np.abs(dz) / ex.PATH_MAX_STEP)).astype(int)
    x = ex._gl_nodes(ex.PATH_GL_N)[0]
    out = np.empty(dz.shape + (SWEEP_GL_N + 1,), dtype=complex)
    for p in np.unique(pieces):
        sel = np.flatnonzero(pieces == p)
        ts = ((np.arange(p)[:, None] + (x + 1) / 2) / p).ravel()
        vals = ex.evaluate(integrand, za[sel, None] + ts * dz[sel, None])
        wt = _edge_weights(p).T
        # two real products: with threaded BLAS, numpy's complex-by-real
        # product of these thin matrices takes about 20 times as long
        out[sel] = dz[sel, None] * (vals.real @ wt + 1j * (vals.imag @ wt))
    return out[:, -1], out[:, :-1]


def _walk_primitive(prim: ex.Prim, grid: DomainGrid):
    """Values of ``prim`` from one cumulative pass along the walk of the
    whole lattice (``DomainGrid.walk`` with no node masked): at the nodes,
    (ny, nx), and, for the k-th step, at the sweep's points of its edges,
    shaped like the step's ``_gl_stack``.  Those steps, along the basepoint
    row and then down and up the columns, open the walk of the grid under
    any mask.

    The walk reaches every node, and every point of its edges, by
    integrate_path's horizontal-then-vertical path from the basepoint, and
    each edge is integrated by integrate_path's rule, so the values are
    ``ex.evaluate(prim, points)``'s up to rounding.  ``prim`` starts at the
    grid's basepoint node (up to the grid's node tolerance); an off-node
    start enters as the primitive's value at the node.
    """
    zz = grid.zz
    steps, reached = DomainGrid(grid.xs, grid.ys, grid.i0, grid.j0).walk()
    starts = [np.ravel(zz[src]) for src, _ in steps]
    total, part = _edge_integrals(
        prim.integrand, np.concatenate(starts),
        np.concatenate([np.ravel(zz[dst]) for _, dst in steps]))
    bounds = np.cumsum([0] + [len(a) for a in starts])
    points = [None] * len(steps)

    def advance(prev, za, zb, k):
        edges = slice(bounds[k], bounds[k + 1])
        points[k] = prev[..., None] \
            + part[edges].reshape(np.shape(prev) + (SWEEP_GL_N,))
        return prev + total[edges].reshape(np.shape(prev))

    nodes = np.zeros(zz.shape, dtype=complex)
    sweep(zz, steps, reached, nodes, advance)
    if prim.z0 != grid.z0:
        shift = ex.evaluate(prim, grid.z0)
        nodes, points = nodes + shift, [v + shift for v in points]
    return nodes, points


def _walk_prims(w: WeierstrassData, grid: DomainGrid):
    """``(prim, nodes, points)`` for each primitive of mu and nu (outside
    other primitives' integrands) that starts at the grid's basepoint
    node, with its ``_walk_primitive`` values."""
    found = {}

    def visit(e):
        if isinstance(e, ex.Prim):
            found[id(e)] = e
            return
        for f in dataclasses.fields(e):
            child = getattr(e, f.name)
            if isinstance(child, ex.ExprNode):
                visit(child)

    visit(w.mu)
    visit(w.nu)
    out = []
    for prim in found.values():
        try:
            at_basepoint = grid.index_of(prim.z0) == (grid.j0, grid.i0)
        except GridError:
            continue
        if at_basepoint:
            out.append((prim, *_walk_primitive(prim, grid)))
    return out


# ---------------------------------------------------------------------------
# Integration sweeps

def _gl_stack(za, zb):
    x, wgt = ex._gl_nodes(SWEEP_GL_N)
    pts = za[..., None] + (x[None, :] + 1) / 2 * (zb - za)[..., None]
    return pts, wgt


def _cumulative_grid_integral(fvec, grid: DomainGrid, width):
    """Cumulative integral of a vector-valued integrand over the grid sweep
    from the basepoint (``DomainGrid.sweep``), one SWEEP_GL_N-point
    Gauss-Legendre segment per edge; ``fvec(points, k)`` must return
    (len(points), width) at the points of the walk's k-th step."""
    vals = np.full((grid.ny, grid.nx, width), np.nan, dtype=complex)
    vals[grid.j0, grid.i0] = 0.0

    def seg(v, za, zb, k):
        pts, wgt = _gl_stack(np.asarray(za), np.asarray(zb))
        fv = np.reshape(fvec(pts.reshape(-1), k), pts.shape + (width,))
        return v + (zb - za)[..., None] / 2.0 * np.einsum("...gm,g->...m", fv, wgt)

    return grid.sweep(vals, seg)


def _fz_components(mu, nu):
    return np.stack([mu * (1.0 - nu ** 2),
                     -1j * mu * (1.0 + nu ** 2),
                     -2.0 * mu * nu], axis=-1)


def minimal_surface(w: WeierstrassData, grid: DomainGrid) -> SurfaceMesh:
    """Minimal surface mesh from Weierstrass data, f(z0) = 0.

    The integrand is swept over the grid by Gauss-Legendre segments
    (``_cumulative_grid_integral``); mu and nu are evaluated once at the
    nodes and at the segments' points.  A primitive (``expr.Prim``) in
    the data that starts at the grid's basepoint takes its values there
    from one cumulative pass along the walk (``_walk_primitive``), not
    from a path integral per point; only the reroute steps' points
    integrate it per point.  meta["mask_causes"] counts the masked nodes
    under the first cause that applies: outside the grid's own mask
    (``domain``), failing ``regularity_mask`` (``regularity``), or a
    non-finite position (``position``).
    """
    walked = _walk_prims(w, grid)
    at_nodes = [(prim, nodes) for prim, nodes, _ in walked]
    mu_vals = ex.evaluate(w.mu, grid.zz, at_nodes)
    nu_vals = ex.evaluate(w.nu, grid.zz, at_nodes)
    mask = regularity_mask(mu_vals, nu_vals, grid)
    if not mask[grid.j0, grid.i0]:
        raise InvalidDataError("basepoint fails the regularity conditions")
    work = grid.with_mask(mask)

    def fvec(pts, k):
        subs = [(prim, points[k].reshape(-1))
                for prim, _, points in walked if k < len(points)]
        return _fz_components(ex.evaluate(w.mu, pts, subs),
                              ex.evaluate(w.nu, pts, subs))

    F = _cumulative_grid_integral(fvec, work, 3)
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
    # good lies inside mask, and mask inside the grid's mask
    n_grid, n_mask, n_good = (int(np.count_nonzero(m))
                              for m in (grid.mask, mask, good))
    causes = {"domain": grid.mask.size - n_grid,
              "regularity": n_grid - n_mask, "position": n_mask - n_good}
    meta = {"kind": "weierstrass", "ntrunc": 0, "tail_bound": 0.0,
            "max_iwasawa_residual": 0.0, "max_unitary_residual": 0.0,
            "mask_causes": causes}
    return SurfaceMesh(grid=work, h=0.0, f=f, normal=normal, eu=eu, fz=fz,
                       mask=good, meta=meta)


# ---------------------------------------------------------------------------
# Frame field and the holomorphic-Gauss-map residual

def coordinate_frame_grid(w: WeierstrassData, grid: DomainGrid):
    """SU(2) coordinate frame at every node the grid sweep reaches (NaN
    elsewhere), with the square-root branch of mu carried from the
    principal root at the basepoint along the sweep: each step takes the
    root s of mu at its end with Re(s conj(prev)) >= 0, prev the root it
    comes from."""
    return _frame_and_metric(w, grid)[0]


def _frame_and_metric(w: WeierstrassData, grid: DomainGrid):
    """``coordinate_frame_grid`` and the conformal factor e^u at the nodes,
    from one evaluation of mu and nu there."""
    mu = w.mu(grid.zz)
    nu = w.nu(grid.zz)
    root = np.sqrt(mu)
    steps, reached = grid.walk()

    def advance(prev, za, zb, k):
        s = root[steps[k][1]]
        return np.where((s * np.conj(prev)).real < 0, -s, s)

    s = np.empty_like(mu)
    s[grid.j0, grid.i0] = root[grid.j0, grid.i0]
    sweep(grid.zz, steps, reached, s, advance)
    r = nu * s
    eu = np.abs(mu) * (1.0 + np.abs(nu) ** 2)
    pref = 1.0 / np.sqrt(eu)
    frame = np.empty(mu.shape + (2, 2), dtype=complex)
    frame[..., 0, 0] = pref * s
    frame[..., 0, 1] = pref * np.conj(r)
    frame[..., 1, 0] = -pref * r
    frame[..., 1, 1] = pref * np.conj(s)
    return frame, eu


def pcomponent_residual(w: WeierstrassData, grid: DomainGrid):
    """Max over interior nodes of the forbidden component of the frame's
    Maurer-Cartan form: the lower-left entry of F^{-1} dF/dzbar, scaled by
    e^{-u}.  Vanishes exactly when the Gauss map is holomorphic (the
    surface is minimal); the residual reproduces |H|."""
    frame, eu = _frame_and_metric(w, grid)
    dx, dy = grid.dx, grid.dy
    dfdx = np.gradient(frame, dx, axis=1)
    dfdy = np.gradient(frame, dy, axis=0)
    dzbar = 0.5 * (dfdx + 1j * dfdy)
    inv = np.linalg.inv(frame)
    v = np.einsum("...ij,...jk->...ik", inv, dzbar)
    inner = grid.interior(1)
    vals = np.abs(v[..., 1, 0]) / np.maximum(eu, 1e-300)
    return float(np.max(vals[inner], initial=0.0))
