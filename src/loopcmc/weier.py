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

A mesh integrates G = int (mu, mu nu, mu nu^2) dz, from which f_z's
integral follows by linearity, in one pass along the chains of the grid
walk (``DomainGrid.walk``) by the frame integrator's collocation rule:
``expr.WALK_GL_N`` = 4 Gauss-Legendre points per panel of an edge
(``expr.panel_points``, ``expr.interpolant_integrals``), one rule for both
integrators.  The data are evaluated over the walk's edges in slices of
at most BLOCK_POINTS points, every edge's integral goes into one array,
and one ``grid.chain_sums`` over all the chains gives the nodes.  A
primitive that starts at the grid's basepoint is not integrated per
point: one pass over the whole lattice, edge by edge at the quadrature's
own rule, gives its values at the nodes and at the points of every edge
of the sweep; the reroute chains continue them by their own edges'
integrals (``_walk_primitive``), and a rerouted node where that is not
the lattice's value is masked.  ``expr.evaluate`` takes the values as
substitutions.

At h = 0 the reflections through the basepoint that the deformation
keeps are the Schwarz reflection principle (Dierkes, Hildebrandt and
Sauvigny, "Minimal Surfaces", Springer 2010): for sigma z = zbar or -zbar,
f_z(sigma z) sigma' = R conj f_z(z) gives f(sigma z) = R f(z) along
mirrored paths.  A mesh whose f_z keeps one with R a diagonal sign matrix
is swept on the fundamental domain only (``minimal_surface``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .grid import (DomainGrid, GridError, _erode, chain_ends, chain_sums,
                   fundamental_domain, image_blocks, matches,
                   mirror_deviation, reflections)
from .mesh import SurfaceMesh

__all__ = [
    "WeierstrassData", "InvalidDataError", "minimal_surface",
    "initial_frame", "regularity_mask",
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


def regularity_mask(eu, grid: DomainGrid, dilate=1):
    """Valid-node mask from ``eu`` = |mu|(1 + |nu|^2) at the grid nodes:
    finite (so are mu and nu) and bounded away from zero and infinity
    (branch points and poles are excluded, then dilated)."""
    good = np.isfinite(eu)
    scale = np.median(eu[good & (eu > 0)]) if np.any(good & (eu > 0)) else 1.0
    good &= eu > 1e-12 * scale
    good &= eu < 1e12 * scale
    return _erode(good & grid.mask, dilate, outside=True)


# ---------------------------------------------------------------------------
# Integration along the grid walk

# sweep points in one slice of the pass (at least one edge): bounds the
# integrand arrays of a slice, so peak memory does not grow with the grid
BLOCK_POINTS = 2 ** 16


def _cumulative_grid_integral(fvec, grid: DomainGrid, width, walk,
                              panels=1):
    """Cumulative integral of a vector-valued integrand over the walk of
    ``grid`` from 0 at its basepoint, (ny, nx, width), NaN at the nodes the
    walk does not reach; ``walk`` is ``grid.walk()``.  Each edge takes
    ``panels`` equal ``expr.WALK_GL_N``-point Gauss-Legendre panels, the
    frame integrator's rule, and one ``grid.chain_sums`` over all the walk's
    chains adds the edges' integrals up.  The integrand is evaluated over
    the walk's edges in their edge order, in slices of at most BLOCK_POINTS
    points: ``fvec(points, edges)`` gets the points of the edges ``edges``
    (a slice), flat, points first and edges last ``(WALK_GL_N * panels,
    edges)``, and returns the integrand there as (width, len(points))."""
    chains, reached = walk
    start, end = chain_ends(chains)
    zz = grid.zz.ravel()
    t = ex.panel_points(ex.WALK_GL_N, panels)
    weights = ex.interpolant_integrals(ex.WALK_GL_N, panels, panels)[-1]
    sums = np.empty((len(start), width), dtype=complex)
    per = max(1, BLOCK_POINTS // len(t))
    for at in range(0, len(start), per):
        edges = slice(at, at + per)
        za = zz[start[edges]]
        dz = zz[end[edges]] - za
        vals = np.ascontiguousarray(np.reshape(
            fvec((za + t[:, None] * dz).ravel(), edges),
            (width, len(t), -1)), dtype=complex)
        sums[edges] = ((weights @ vals.view(float)).view(complex) * dz).T
        del vals    # not held through the next slice's evaluation
    vals = np.full((zz.size, width), np.nan, dtype=complex)
    vals[grid.j0 * grid.nx + grid.i0] = 0.0
    chain_sums(chains, sums, vals)
    vals = vals.reshape(grid.ny, grid.nx, width)
    vals[~reached] = np.nan
    return vals


# ---------------------------------------------------------------------------
# Primitives along the grid walk

def _edge_integrals(integrand, za, zb, panels):
    """Integrals of ``integrand`` over the straight edges za -> zb (n,) by
    integrate_path's rule, (n,), and from za to each edge's points of the
    walk's rule at ``panels`` panels, (WALK_GL_N * panels, n).  Edges with
    the same piece count are evaluated together, in slices of at most
    BLOCK_POINTS points, as the pass slices its edges."""
    dz = zb - za
    pieces = np.maximum(1, np.ceil(np.abs(dz) / ex.PATH_MAX_STEP)).astype(int)
    out = np.empty((ex.WALK_GL_N * panels + 1,) + dz.shape, dtype=complex)
    for p in np.unique(pieces):
        ts = ex.panel_points(ex.PATH_GL_N, p)
        weights = ex.interpolant_integrals(ex.PATH_GL_N, p, panels)
        same = np.flatnonzero(pieces == p)
        per = max(1, BLOCK_POINTS // len(ts))
        for at in range(0, len(same), per):
            sel = same[at:at + per]
            vals = np.ascontiguousarray(ex.evaluate(
                integrand, za[sel] + ts[:, None] * dz[sel]), dtype=complex)
            out[:, sel] = dz[sel] * (weights @ vals.view(float)).view(complex)
            del vals    # not held through the next slice's evaluation
    return out[-1], out[:-1]


def _walk_primitive(prim: ex.Prim, grid: DomainGrid, panels):
    """Values of ``prim`` from one cumulative pass along the walk of the
    whole lattice (``DomainGrid.walk`` with no node masked) at the nodes,
    (ny, nx), and a function ``points(chains, own)`` that gives them at the
    points of every edge of ``chains``, the walk of the part ``own`` of the
    grid (``grid.fundamental_domain``, the whole grid by default) under any
    mask, in their edge order, (WALK_GL_N * panels, edges), and at the
    nodes of that part continued along ``chains``.  The lattice chains of
    such a walk (phases 0 and 1) take the lattice edges into the nodes
    they reach, so they take the lattice pass's values, read by the node
    each edge ends at; the later (reroute) chains continue them by their
    edges' integrals (``_edge_integrals``), as the pass does.

    The lattice walk follows integrate_path's horizontal-then-vertical
    path to every node and every point of its edges, at integrate_path's
    rule, so its values are ``ex.evaluate(prim, points)``'s up to
    rounding.  A rerouted node's two values differ by the quadrature
    error where the integrand is holomorphic between the two paths, and
    by the residue where they enclose a pole.  ``prim`` starts at the
    grid's basepoint node (up to the grid's node tolerance); an off-node
    start enters as the primitive's value at the node.
    """
    lattice, _ = DomainGrid(grid.xs, grid.ys, grid.i0, grid.j0).walk()
    src, dst = chain_ends(lattice)
    flat = grid.zz.ravel()
    total, part = _edge_integrals(prim.integrand, flat[src], flat[dst],
                                  panels)
    nodes = np.zeros(flat.size, dtype=complex)
    chain_sums(lattice, total, nodes)
    part += nodes[src]
    if prim.z0 != grid.z0:
        shift = ex.evaluate(prim, grid.z0)
        nodes += shift
        part += shift
    # every node but the basepoint ends one lattice edge: its place in
    # the lattice's edge order
    edge_to = np.empty(flat.size, dtype=int)
    edge_to[dst] = np.arange(len(dst))
    index = np.arange(flat.size).reshape(grid.zz.shape)

    def points(chains, own=(slice(None), slice(None))):
        sub = index[own]
        along = nodes[sub]
        rest = [c for c in chains if c.phase == 2]
        start, end = (sub.ravel()[e] for e in chain_ends(chains))
        n = len(end) - sum(c.nodes.size for c in rest)
        # the lattice chains do not depend on the mask: on the whole grid
        # they are the lattice walk's, edge for edge
        lat = part if sub.size == flat.size else part[:, edge_to[end[:n]]]
        if not rest:
            return lat, along
        total, at = _edge_integrals(prim.integrand, flat[start[n:]],
                                    flat[end[n:]], panels)
        chain_sums(rest, total, along.reshape(-1))
        at += along.reshape(-1)[chain_ends(rest)[0]]
        return np.concatenate([lat, at], axis=1), along

    return nodes.reshape(grid.zz.shape), points


def _walk_prims(w: WeierstrassData, grid: DomainGrid, panels):
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
            out.append((prim, *_walk_primitive(prim, grid, panels)))
    return out


# ---------------------------------------------------------------------------
# Minimal surface mesh

def _fz_components(mu, nu):
    nu2 = nu ** 2
    return np.stack([mu * (1.0 - nu2), -1j * mu * (1.0 + nu2),
                     -2.0 * mu * nu], axis=-1)


class Reflection(NamedTuple):
    """A reflection of the grid through the basepoint that the surface
    keeps: ``axis`` "row" is z -> zbar about the basepoint row, "col" is
    z -> -zbar about its column, and f(sigma z) = R f(z) with R the
    diagonal sign matrix of ``R`` (three of 1 and -1)."""
    axis: str
    R: tuple


def _reflections(grid: DomainGrid, mask, fz):
    """The reflections of the grid through the basepoint that the surface
    keeps, as a tuple of :class:`Reflection`, row before column; empty when
    there are none.

    A reflection sigma needs the grid and the mask to admit it
    (``grid.reflections``), and the node values ``fz`` (ny, nx, 3) of f_z
    to satisfy fz_k(sigma z) sigma' = s_k conj(fz_k(z)) at every node of
    the mask, to 1e-14 of their largest value there (``grid.matches``; the
    relation is its own mirror image, so one half is checked), with
    s_k = 1 or -1 read off the sign of sum fz_k(sigma z) sigma' fz_k(z).
    Then f(sigma z) = R f(z) along mirrored paths from the basepoint,
    R = diag(s) (Schwarz reflection)."""
    # masked nodes compare as zeros, which the mask's symmetry pairs up
    phi = fz if mask.all() else np.where(mask[..., None], fz, 0)
    found = []
    for axis, sign, half, image in reflections(grid, mask):
        vals, img = phi[half], phi[image]
        s = np.where(sign * np.einsum("ijk,ijk->k", img, vals).real < 0,
                     -1, 1)
        if matches(img, (sign * s) * np.conj(vals)):
            found.append(Reflection(axis, tuple(s.tolist())))
    return tuple(found)


def minimal_surface(w: WeierstrassData, grid: DomainGrid,
                    panels=1) -> SurfaceMesh:
    """Minimal surface mesh from Weierstrass data, f(z0) = 0.

    The integrals G = int (mu, mu nu, mu nu^2) dz are swept over the walk
    of the masked grid at ``panels`` panels of 4 Gauss-Legendre points per
    edge, the frame integrator's rule (``_cumulative_grid_integral``), two
    complex products a point; f_z integrates to F = (G0 - G2,
    -i (G0 + G2), -2 G1) by linearity.  mu and nu are evaluated in one
    call at the nodes and in one call per slice of the sweep's edges.  A
    primitive (``expr.Prim``) in the data that starts at the grid's
    basepoint takes its values at the nodes and at every sweep point from
    one cumulative pass along the lattice's walk (``_walk_primitive``),
    never from a path integral per point.

    A surface that keeps reflections of the grid through the basepoint
    (:func:`_reflections`, from f_z at the nodes and the mask) is swept on
    their fundamental domain only (``grid.fundamental_domain``), the rows
    from j0 - 1 on and, with a column reflection, the columns from i0 - 1
    on; every other node takes R f of its partner, and its path mask
    (``grid.image_blocks``).  meta["mirrored"] lists them, each as its
    ``axis`` and the diagonal ``R``, and meta["mirror_deviation"] is the
    largest distance between row j0 - 1 (column i0 - 1) as swept and R f
    of row j0 + 1 (column i0 + 1), a fraction of the diameter.  The
    normals, f_z and the conformal factor are pointwise in mu and nu, and
    are taken at every node.

    meta["mask_causes"] counts the masked nodes under the first cause that
    applies: outside the grid's own mask (``domain``), failing
    ``regularity_mask`` (``regularity``), a primitive's value at a
    rerouted node not the lattice's, as behind a zero of ``a`` in
    nu = -int Q/a (``path``, listed where it masks a node), or a
    non-finite position (``position``).
    """
    walked = _walk_prims(w, grid, panels)
    mu_vals, nu_vals = ex.evaluate(
        (w.mu, w.nu), grid.zz, [(prim, nodes) for prim, nodes, _ in walked])
    denom = 1.0 + np.abs(nu_vals) ** 2
    eu = np.abs(mu_vals) * denom
    mask = regularity_mask(eu, grid)
    if not mask[grid.j0, grid.i0]:
        raise InvalidDataError("basepoint fails the regularity conditions")
    fz = _fz_components(mu_vals, nu_vals)
    mirror = _reflections(grid, mask, fz)
    work = grid.with_mask(mask)
    own, part = fundamental_domain(work, mirror)
    walk = part.walk()
    at_points, path = [], np.zeros_like(mask)
    for prim, nodes, points in walked:
        vals, along = points(walk[0], own)
        at_points.append((prim, vals))
        # nu_vals there and the sweep's integrand are different branches
        scale = np.abs(nodes[mask & np.isfinite(nodes)]).max(initial=0.0)
        path[own] |= ~(np.abs(along - nodes[own]) <= 1e-6 * scale)

    def products(pts, edges):
        mu, nu = ex.evaluate((w.mu, w.nu), pts, [
            (prim, vals[:, edges].ravel()) for prim, vals in at_points])
        out = np.empty((3, len(pts)), dtype=complex)
        out[0] = mu
        np.multiply(mu, nu, out=out[1])
        np.multiply(out[1], nu, out=out[2])
        return out

    G = _cumulative_grid_integral(products, part, 3, walk, panels)
    f = np.empty((grid.ny, grid.nx, 3))
    f[own] = 2.0 * np.stack([G[..., 0] - G[..., 2],
                             -1j * (G[..., 0] + G[..., 2]),
                             -2.0 * G[..., 1]], axis=-1).real
    jj, ii = work.j0, work.i0
    for image, partner, r in image_blocks(mirror, jj, ii):
        np.multiply(f[partner], r.R, out=f[image])
        path[image] = path[partner]
    normal = np.stack([2.0 * nu_vals.real / denom,
                       -2.0 * nu_vals.imag / denom,
                       (1.0 - np.abs(nu_vals) ** 2) / denom], axis=-1)
    path &= mask
    good = mask & ~path & np.all(np.isfinite(f), axis=-1)
    f -= f[jj, ii]
    # good lies inside mask & ~path, and mask inside the grid's mask
    n_grid, n_mask, n_path, n_good = (int(np.count_nonzero(m))
                                      for m in (grid.mask, mask, path, good))
    causes = {"domain": grid.mask.size - n_grid,
              "regularity": n_grid - n_mask,
              "position": n_mask - n_path - n_good}
    if n_path:
        causes["path"] = n_path
    meta = {"kind": "weierstrass", "ntrunc": 0, "tail_bound": 0.0,
            "max_iwasawa_residual": 0.0, "max_unitary_residual": 0.0,
            "mask_causes": causes}
    mesh = SurfaceMesh(grid=work, h=0.0, f=f, normal=normal, eu=eu, fz=fz,
                       mask=good, meta=meta)
    if mirror:
        deviation = mirror_deviation(mirror, jj, ii, f, good,
                                     lambda r, far: r.R * f[far])
        meta["mirrored"] = [{"axis": r.axis, "R": list(r.R)} for r in mirror]
        meta["mirror_deviation"] = deviation / (mesh.diameter() or 1.0)
    return mesh
