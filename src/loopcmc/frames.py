"""Holomorphic frame integration, pointwise Iwasawa factorization, and the
Sym-Bobenko evaluation: potential in, surface mesh out.

The potential in normalized form is off-diagonal,

    ( 0       upper )                  upper = -(h/2) a(z),
    ( lower   0     )  lam^-1 dz,      lower = Q(z)/a(z),

and it is held as those two entries only (``potential_entries``).  Right
multiplication by it swaps the two columns of a matrix and scales them by
(lower, upper), which is all the frame integrator and the flatness check do
with it.

The holomorphic frame Phi solves d Phi = Phi eta with Phi(z0) equal to the
twisted extension E0hat of the initial unitary frame, so Phi = E0hat Psi
with Psi(z0) = I.  Psi is a series in nonpositive powers whose
coefficients are the iterated path integrals of the Dyson series,
truncated at the largest order a node's own path needs by their factorial
tail bound (Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 2009) and
integrated one series level at a time over the whole grid, by
Gauss-Legendre collocation along the grid walk's chains with as many
panels per edge as the collocation error estimate asks for
(:func:`integrate_frame`), so each node keeps its row-then-column path.
E0hat is unitary on
the circle, so it leaves the plus factor of the Iwasawa splitting alone:
the frames stay Psi, and E0hat enters at lambda0 only.  Pointwise Iwasawa
factorization Psi = F B of the frames then yields the plus factor B and
its inverse, and the Sym-Bobenko formula

    -(1/2h) ( 2 i lam dF/dlam F^-1 + F e3 F^-1 - e3 ) at lam = lam0

gives the immersion.  It reads the unitary factor of Psi only at lam0,
where it is X B^-1, X = Psi, and its lambda-derivative follows by the
product rule, with B^-1 read from the same factorization as B, each entry
one array over the nodes; the point, normal, tangents and conformal
factor come from those entries and the plus-factor normalization in
closed form, not from differencing.  E0hat(lam0) lies in SU(2) and the
Sym-Bobenko point of E0hat alone vanishes, so E0hat turns the mesh of Psi
into the mesh of Phi by one rotation.

Symmetries associated with the basepoint are preserved under the
deformation (Dorfmeister and Haak, "On symmetries of constant mean
curvature surfaces I", Tohoku Math. J. 50, 1998).  For a reflection sigma
of the grid through the basepoint, z -> zbar about the basepoint row or
z -> -zbar about its column, the frames may satisfy

    Psi(sigma z, lam) = D conj Psi(z, conj(nu lam)) D^-1,   D = diag(1, d),

with unimodular nu and d: the coefficient of lam^p in entry (r, c) at the
image node is the conjugate of the partner's times nu^p d_r / d_c, d_0 = 1,
d_1 = d.  That holds when the potential's entries do, upper(sigma z) =
s conj(nu) conj(d) conj(upper(z)) and lower(sigma z) = s conj(nu) d
conj(lower(z)), s = 1 for the row and -1 for the column; the same map then
carries the Iwasawa factors over, so the unitary factor at lam0 of an
image node is the map of its partner's.  When the node values of the
potential and the grid show such symmetries (:class:`Reflection`), the
frames are integrated and factored on the fundamental domain only, the
rows from the one below the basepoint's on and, with a column reflection,
the columns from the one left of it on; every other node takes its
partner's frames and factors through the map.  The row and the column
next to the basepoint's on the far side are computed as well, and their
distance from the images of their partners is reported, so the mirrored
mesh is checked, not symmetric by construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as ex
from . import weier
from .factor import iwasawa_batch
from .grid import DomainGrid, _erode, chain_ends, chain_sums
from .loops import entries_at, hat_extend, mul_entries
from .mesh import SurfaceMesh

__all__ = [
    "PotentialSpec", "SurfaceOptions", "FrameGrid", "FrameError",
    "potential_entries", "integrate_frame",
    "flatness_residual", "surface_from_potential", "extract_curvature",
    "CurvatureField",
]


class FrameError(ArithmeticError):
    pass


@dataclass
class PotentialSpec:
    """A normalized potential (a, Q) with the target mean curvature h, the
    basepoint, and the initial unitary frame.  Classical Weierstrass data
    (mu, nu) are not held here: they stay a ``weier.WeierstrassData``, and
    ``convert.member`` turns them into the potential of a CMC-h member."""

    h: float
    z0: complex = 0j
    a: ex.ExprNode | None = None
    Q: ex.ExprNode | None = None
    E0: np.ndarray | None = None

    @classmethod
    def normalized(cls, a, Q, h, z0=0j, E0=None):
        return cls(h=float(h), z0=complex(z0), a=ex.as_expr(a),
                   Q=ex.as_expr(Q), E0=E0)

    def with_h(self, h):
        return replace(self, h=float(h))

    def initial_frame(self):
        if self.E0 is not None:
            return np.asarray(self.E0, dtype=complex)
        return np.eye(2, dtype=complex)


# A node whose series tail bound stays above TAIL_FAIL at the truncation
# cap is masked, and so is one whose quadrature estimate does at PANEL_CAP
# panels per edge, and nodes with a non-finite potential entry, with
# MASK_DILATE rings around them; Iwasawa factorization runs in chunks of
# CHUNK nodes, each node's frame cut to the band outside of which its
# slots sum to at most TRIM_EPS of its largest entry.
TAIL_FAIL = 1e-6
PANEL_CAP = 8
MASK_DILATE = 1
CHUNK = 256
TRIM_EPS = float(np.finfo(float).eps)

# Why a node is masked, in pipeline order: outside the grid's own mask; an
# entry of the potential non-finite, or within MASK_DILATE rings of one;
# not reached from the basepoint; the series tail bound, or the
# quadrature estimate, of its path above TAIL_FAIL at its cap; a
# non-finite frame; a factorization not converged or not positive
# definite; the factorization residual, or the unitarity residual, over
# its tolerance.  meta["mask_causes"] counts every masked node once, under
# the first cause that applies.
MASK_CAUSES = ("domain", "entry", "unreachable", "tail", "quadrature",
               "frame", "factorization", "residual", "unitarity")


@dataclass
class SurfaceOptions:
    ntrunc_cap: int = 24
    tail_tol: float = 1e-12
    substeps: int = 1
    lambda0: complex = 1.0 + 0j
    unitary_tol: float = 1e-6
    residual_tol: float = 1e-6


@dataclass
class FrameGrid:
    """Frames over a grid: coefficient of power lo+k at slot k; ok marks
    nodes where integration succeeded; ``ntrunc`` = -lo is the largest
    order their paths need, ``tail_bound`` their largest tail bound at it,
    and ``meta`` holds the ``mask_causes`` and the ``panels`` per edge.
    The frames the surface is built from are the twisted extension of
    ``E0`` times ``coeffs``: ``integrate_frame`` leaves E0 out (they are
    Psi, Psi(z0) = I), as it does not change their Iwasawa plus factor.
    ``a`` holds the potential's ``a`` at the nodes, for the metric.
    ``mirror`` holds the reflections (:class:`Reflection`) the frames are
    symmetric under, empty for most members: ``integrate_frame``
    integrates the fundamental domain only, rows j0 - 1 .. with a row
    reflection and columns i0 - 1 .. with a column reflection, and fills
    every other node from its partner by the reflections' map, so the
    table covers the whole grid; the mesh factors the fundamental domain
    only."""
    lo: int
    coeffs: np.ndarray        # (ny, nx, nk, 2), the loops layout
    ok: np.ndarray            # (ny, nx)
    grid: DomainGrid
    ntrunc: int
    tail_bound: float
    meta: dict = field(default_factory=dict)
    E0: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))
    a: np.ndarray | None = None       # (ny, nx)
    mirror: tuple = ()


@dataclass(frozen=True)
class Reflection:
    """A reflection of the grid through the basepoint that the frames keep:
    ``axis`` "row" is z -> zbar about the basepoint row, "col" is z -> -zbar
    about its column, and Psi(sigma z, lam) = D conj Psi(z, conj(nu lam))
    D^-1 with D = diag(1, d).  ``nu`` is 1 or i (-nu with -d is the same
    map on twisted loops), so the sampled checks of ``iwasawa_batch``, at
    the half-circle points, read the same at an image node as at its
    partner; ``d`` is unimodular."""
    axis: str
    nu: complex
    d: complex

    def image(self, coeffs, lo, out=None):
        """The loops at the image nodes (written to ``out`` when given)
        from ``coeffs`` (..., nk, 2), the loops at their partners with
        lowest power ``lo``: the coefficient of lam^p in entry (r, c) is
        conjugated and multiplied by nu^p d_r / d_c, d_0 = 1, d_1 = d (the
        slot's column c holds row (p + c) mod 2)."""
        out = np.conj(coeffs, out=out)
        out *= _image_scale(self, lo, coeffs.shape[-2])
        return out


@functools.lru_cache(maxsize=64)
def _image_scale(r: Reflection, lo, nk):
    """(nk, 2), read-only: nu^p d_r / d_c of each slot p = lo .. lo + nk - 1
    and column c of the compact layout."""
    p = lo + np.arange(nk)[:, None]
    nu_p = np.array([r.nu ** k for k in range(4)])[p % 4]
    d_row = np.where((p + np.arange(2)) % 2, r.d, 1.0)
    out = nu_p * d_row / np.array([1.0, r.d])
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Truncation order from the iterated-integral tail bound

def _tail_term(k, L, ma, mb):
    """The bound of the series tail from level k on, four times that of
    level k, on a path of length L along which |upper| and |lower| stay
    within ma and mb (node by node for arrays): level k's entries are
    iterated integrals of words of k alternating entries, each at most
    L^k / k! times ma and mb to the powers the word takes."""
    lead = np.maximum(ma, mb) if k % 2 else 1.0
    return 4.0 * L ** k * math.exp(-math.lgamma(k + 1)) \
        * (ma * mb) ** (k // 2) * lead


def _path_bounds(chains, end, reached, entries, dz, nodes, err,
                 opts: SurfaceOptions):
    """``(ntrunc, tail_bound, over, coarse)`` of a walk's nodes from their
    paths' lengths (the ``chains``' |dz|) and maxima of ``entries`` (lower,
    upper) at the edges' points, (2, m, edges), and ``nodes`` at ``end``:
    ``over`` and ``coarse`` mark a bound, or quadrature estimate ``err``,
    above TAIL_FAIL; ``ntrunc`` is the other ``reached`` nodes' largest
    order, the smallest n whose ``_tail_term(n + 1, ...)`` meets the
    tolerance, and ``tail_bound`` their largest bound at it."""
    length = np.zeros(len(nodes))
    chain_sums(chains, np.abs(dz), length)
    peak = np.abs(nodes)
    chain_sums(chains, np.maximum(np.max(np.abs(entries), axis=1).T,
                                  peak[end]), peak, np.maximum)
    mb, ma = peak.T
    order = np.zeros(len(nodes), dtype=int)
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(1, opts.ntrunc_cap + 1):
            bound = _tail_term(n + 1, length, ma, mb)
            order[(order == 0) & (bound <= opts.tail_tol)] = n
            if order.all():
                break
        over = (order == 0) & ~(bound <= TAIL_FAIL)
        coarse = ~(err <= TAIL_FAIL)
        order[order == 0] = opts.ntrunc_cap
        keep = reached.ravel() & ~over & ~coarse
        ntrunc = int(np.max(order[keep], initial=1))
        tail = float(np.max(_tail_term(ntrunc + 1, length[keep], ma[keep],
                                       mb[keep]), initial=0.0))
    return ntrunc, tail, over, coarse


# ---------------------------------------------------------------------------
# Frame integration

def potential_entries(p: PotentialSpec):
    """The two off-diagonal entries (upper, lower) = (-(h/2) a, Q/a) of the
    normalized potential, as expressions."""
    return ex.Const(-p.h / 2.0) * p.a, ex.Div(p.Q, p.a)


def _times_potential(psi, scale):
    """Psi [[0, upper], [lower, 0]], one power lower, for a stack psi
    (..., nk, 2) and the entries stacked as ``scale`` = (lower, upper)
    along a last axis of length 2, its leading axes empty or shaped like
    psi's (...): the two columns of psi swapped, then scaled by (lower,
    upper); the swapped slots are compact at the power below."""
    return psi[..., ::-1] * scale[..., None, :]


def integrate_frame(p: PotentialSpec, grid: DomainGrid,
                    options: SurfaceOptions | None = None) -> FrameGrid:
    """Integrate the holomorphic frame Psi, Psi(z0) = I, over the grid.

    Psi has only nonpositive powers, and the coefficient of lambda^-k is
    the k-th iterated integral of the potential: Psi_k = int Psi_(k-1) A dz
    from the basepoint, A = [[0, upper], [lower, 0]], Psi_0 = I.  The
    levels are integrated one at a time along the chains of the grid walk
    (``DomainGrid.walk``) by Gauss-Legendre collocation of order 2 *
    ``expr.WALK_GL_N`` per panel, the rule the h = 0 sweep shares: level
    k at the points of every edge (``expr.panel_points``), times the
    potential, gives the edges' integrals to each point and to their ends
    in one product with the Legendre weights (``expr.interpolant_integrals``);
    cumulative sums along the chains give level k at the nodes, and each
    edge's start value plus its partial integrals give it at the points.

    The panels start at ``options.substeps``, and while a node that the
    tail bound keeps has a quadrature estimate above ``options.tail_tol``
    they double, to at most ``PANEL_CAP`` (``meta["panels"]``).  Each
    node's series order comes from its path's length and largest entries
    (:func:`_path_bounds`); a node whose tail bound stays above
    ``TAIL_FAIL`` at ``options.ntrunc_cap`` is masked under ``tail``, one
    whose quadrature estimate does at the last panels under ``quadrature``
    (neither falls along a path, so no kept node's path runs through a
    masked one), and every node is integrated to the largest order a kept
    node needs.  Nodes with a non-finite entry, and their MASK_DILATE
    rings, are masked under ``entry`` before the walk.

    The initial unitary frame E0 is not multiplied in: a unitary left
    factor does not change the plus factor of the Iwasawa splitting, so the
    frames stay Psi and E0 rides along for the read-out at lambda0
    (``FrameGrid.E0``).  The values of ``a`` at the nodes, from the same
    grid evaluation as the entries', ride along for the metric.

    A symmetric member (:func:`_reflections`, from those node values and
    the mask) is walked and integrated on its fundamental domain, rows j0 -
    1 .. and, with a column reflection, columns i0 - 1 ..; every other node
    takes the frames and path masks of its partner through the reflections'
    map (:meth:`Reflection.image`, ``FrameGrid.mirror``).  The mask is
    mirror-symmetric with MASK_DILATE >= 1 rings, so the walked nodes are
    reached where the whole grid's walk reaches them.
    """
    opts = options or SurfaceOptions()
    upper, lower = potential_entries(p)
    up_v, low_v, a_v = ex.evaluate((upper, lower, p.a), grid.zz)
    mask = _erode(np.isfinite(up_v) & np.isfinite(low_v) & grid.mask,
                  MASK_DILATE, outside=True)
    mask[grid.j0, grid.i0] = True
    work = grid.with_mask(mask)

    # a symmetric member walks its fundamental domain only; every other
    # node takes its partner's frames through the reflections' map
    mirror = _reflections(grid, mask, (up_v, low_v))
    axes = {r.axis for r in mirror}
    top = grid.j0 - 1 if "row" in axes else 0
    left = grid.i0 - 1 if "col" in axes else 0
    part = DomainGrid(grid.xs[left:], grid.ys[top:], grid.i0 - left,
                      grid.j0 - top, mask[top:, left:]) if mirror else work
    chains, part_reached = part.walk()
    start, end = chain_ends(chains)
    zz = part.zz.ravel()
    dz = zz[end] - zz[start]
    nodes = np.stack((low_v, up_v), axis=-1)[top:, left:].reshape(-1, 2)
    panels, err = opts.substeps, np.zeros(len(zz))
    while True:
        # (lower, upper) at the collocation points, then at those of the
        # rule one point finer, (2, points, edges) in the chains' edge
        # order: the rules' integrals differ by about the collocation error
        m = ex.WALK_GL_N * panels
        t = [ex.panel_points(ex.WALK_GL_N + d, panels) for d in (0, 1)]
        both = np.stack(ex.evaluate((lower, upper), zz[start] + np.concatenate(
            t)[:, None] * dz))
        ent = both[:, :m]
        weights = ex.interpolant_integrals(ex.WALK_GL_N, panels, panels)
        finer = ex.interpolant_integrals(ex.WALK_GL_N + 1, panels, 1)[-1]
        chain_sums(chains, np.abs(dz) * np.max(np.abs(
            finer @ both[:, m:] - weights[-1] @ ent), axis=0), err)
        ntrunc, tail, part_over, part_coarse = _path_bounds(
            chains, end, part_reached, ent, dz, nodes, err, opts)
        if panels * 2 > PANEL_CAP or np.all(
                err[part_reached.ravel() & ~part_over] <= opts.tail_tol):
            break
        panels *= 2
    ent *= dz
    nk = ntrunc + 1
    psi = np.empty((grid.ny, grid.nx, nk, 2), dtype=complex)
    own = psi[top:, left:]                   # the walked nodes
    own[:, :, -1] = 1.0                      # Psi_0 = I
    level = np.zeros((zz.size, 2), dtype=complex)   # Psi_k, a row a node
    # level k's integrand at the points: Psi_(k-1) there with its columns
    # swapped, times (lower, upper), as _times_potential forms it with the
    # columns last; Psi_0 = I, so level 1's is (lower, upper)
    g = ent.copy()
    sums = np.empty((2, m + 1, len(dz)), dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, nk):
            # every edge's integrals to its points and to its end: one
            # real product of the weights with both columns' real and
            # imaginary parts
            np.matmul(weights, g.view(float), out=sums.view(float))
            chain_sums(chains, sums[:, m].T, level)
            own[:, :, nk - 1 - k] = level.reshape(part.ny, part.nx, 2)
            if k + 1 < nk:
                at_pts = sums[:, :m]
                at_pts += level[start].T[:, None]
                np.multiply(at_pts[::-1], ent, out=g)
    # reached, over the tail bound, coarse in the quadrature estimate
    state = np.zeros((3, grid.ny, grid.nx), dtype=bool)
    state[:, top:, left:] = np.reshape(
        [part_reached.ravel(), part_over, part_coarse], (3, part.ny, part.nx))
    for image, partner, r in _image_blocks(mirror, grid.j0, grid.i0):
        r.image(psi[partner], 1 - nk, out=psi[image])
        state[(slice(None), *image)] = state[(slice(None), *partner)]
    reached, over, coarse = state
    kept = reached & ~over & ~coarse
    psi[~kept] = np.nan

    ok = kept & np.all(np.isfinite(psi), axis=(2, 3))
    causes = dict.fromkeys(MASK_CAUSES, 0)
    causes["domain"] = int(np.count_nonzero(~grid.mask))
    causes["entry"] = int(np.count_nonzero(grid.mask & ~mask))
    causes["unreachable"] = int(np.count_nonzero(mask & ~reached))
    causes["tail"] = int(np.count_nonzero(reached & over))
    causes["quadrature"] = int(np.count_nonzero(reached & ~over & coarse))
    causes["frame"] = int(np.count_nonzero(kept & ~ok))
    meta = {"mask_causes": causes, "panels": panels}
    return FrameGrid(lo=1 - nk, coeffs=psi, ok=ok, grid=work, ntrunc=ntrunc,
                     tail_bound=tail, meta=meta, E0=p.initial_frame(),
                     a=a_v, mirror=mirror)


_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def _reflections(grid: DomainGrid, mask, entries):
    """The reflections of the grid through the basepoint that the frames
    keep, as a tuple of :class:`Reflection`, row before column; empty when
    there are none.

    A reflection needs the grid and the mask to be their own mirror images
    about the basepoint row (column), which lies on the real (imaginary)
    axis, to 1e-12 of the spacing, with at least one row (column) to fill:
    j0 >= 2 (i0 >= 2).  It needs the potential's entries ``(upper,
    lower)`` at the nodes to satisfy upper(sigma z) = c conj(upper(z)) and
    lower(sigma z) = conj(nu)^2 conj(c) conj(lower(z)) at every node of the
    mask, to 1e-14 of their largest value there, for one unimodular phase
    c and nu = 1 or i; c is read at upper's largest node, and d = s
    conj(nu c), s = 1 for the row and -1 for the column (see the module
    docstring)."""
    found = []
    for axis, coords, c0, step, s, flip in (
            ("row", grid.ys, grid.j0, grid.dy, 1.0, lambda v: v[::-1]),
            ("col", grid.xs, grid.i0, grid.dx, -1.0, lambda v: v[:, ::-1])):
        tol = 1e-12 * abs(step)
        if (c0 < 2 or len(coords) != 2 * c0 + 1 or abs(coords[c0]) > tol
                or np.max(np.abs(coords + coords[::-1])) > tol
                or not np.array_equal(mask, flip(mask))):
            continue
        # the entries at the mask's nodes and at their mirror images
        up, low = (v[mask] for v in entries)
        up_img, low_img = (flip(v)[mask] for v in entries)
        peak = np.argmax(np.abs(up))
        if up[peak] == 0:
            continue
        c = up_img[peak] / np.conj(up[peak])
        c /= abs(c)
        # c carries one node's rounding: within 1e-14 of a power of i it is
        # that power, so data real or imaginary on the axis map exactly
        near = _I_POWERS[round(2 * np.angle(c) / np.pi) % 4]
        if abs(c - near) <= 1e-14:
            c = near
        if not _matches(up_img, c * np.conj(up)):
            continue
        for nu in (1 + 0j, 1j):
            if _matches(low_img, np.conj(nu * nu * c) * np.conj(low)):
                d = complex(s * np.conj(nu * c))
                found.append(Reflection(axis, nu, d))
                break
    return tuple(found)


def _matches(values, expected):
    """Whether ``values`` equal ``expected`` to 1e-14 of the largest of
    ``expected``."""
    return bool(np.max(np.abs(values - expected))
                <= 1e-14 * np.max(np.abs(expected)))


def _image_blocks(mirror, j0, i0):
    """The blocks of nodes outside the fundamental domain of the
    reflections ``mirror``, as ``(image, partner, reflection)``: index
    pairs of (ny, nx) tables, row j0 - 2 - k the image of row j0 + 2 + k
    and column i0 - 2 - k that of column i0 + 2 + k.  Filled in order, the
    first reflection's block is the part of its half that lies in the
    other's domain, and the second's is its whole half, read from the
    first's result."""
    pending = {r.axis for r in mirror}
    for r in mirror:
        pending.discard(r.axis)
        if r.axis == "row":
            cols = slice(i0 - 1 if "col" in pending else 0, None)
            yield ((slice(None, j0 - 1), cols),
                   (slice(None, j0 + 1, -1), cols), r)
        else:
            rows = slice(j0 - 1 if "row" in pending else 0, None)
            yield ((rows, slice(None, i0 - 1)),
                   (rows, slice(None, i0 + 1, -1)), r)


def flatness_residual(p: PotentialSpec, fg: FrameGrid, samples=20, seed=0):
    """Fourth-order finite-difference check of d Phi = Phi eta at random
    interior nodes (the checker's own truncation error is O(dx^4))."""
    upper, lower = potential_entries(p)
    g = fg.grid
    inner = g.interior(2) & fg.ok
    js, is_ = np.nonzero(inner)
    if len(js) == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(js), size=min(samples, len(js)), replace=False)
    worst = 0.0
    for t in pick:
        j, i = int(js[t]), int(is_[t])
        dx = g.dx
        c = fg.coeffs
        dphi = (-c[j, i + 2] + 8 * c[j, i + 1] - 8 * c[j, i - 1] + c[j, i - 2]) \
            / (12 * dx)
        z = g.node(j, i)
        # (Phi A)_k sits one power below Phi_k
        rhs = np.zeros_like(dphi)
        rhs[:-1] = _times_potential(c[j, i][1:], np.array(
            [ex.evaluate(lower, z), ex.evaluate(upper, z)]))
        scale = max(1.0, float(np.max(np.abs(fg.coeffs[j, i]))))
        worst = max(worst, float(np.max(np.abs(dphi - rhs))) / scale)
    return worst


# ---------------------------------------------------------------------------
# Sym-Bobenko formula

def _sym_bobenko(f, df, h, lam0):
    """The Sym-Bobenko point, the unit normal and the complex tangent
    direction at ``lam0``, (n, 3) each, from F and dF/dlambda there held
    entry-first (2, 2, n), in closed form with F^-1 = adj F / det F: the
    su(2) parts of -(1/2h) (2 i lam0 dF F^-1 + F e3 F^-1 - e3) and of
    F e3 F^-1, and the components -Trace(M Ei)/2 of M = F (E1 - i E2) F^-1,
    (f00^2 - f10^2, -i (f00^2 + f10^2), 2 f00 f10) / det F, in the basis
    E1 = [[0, -i], [-i, 0]], E2 = [[0, 1], [-1, 0]], E3 = e3 = diag(i, -i),
    orthonormal for <X, Y> = -Trace(XY)/2."""
    def su2(m01, m10, mdiff):
        # (E1, E2, E3) components of the traceless anti-Hermitian part of
        # the matrices with entries m01, m10 and m00 - m11 = mdiff
        x01 = 0.5 * (m01 - np.conj(m10))
        return np.stack([-x01.imag, x01.real, 0.5 * mdiff.imag], axis=-1)

    (f00, f01), (f10, f11) = f
    (d00, d01), (d10, d11) = df
    c = 2j / (f00 * f11 - f01 * f10)
    # F e3 F^-1: entries (0, 1), (1, 0) and the diagonal difference
    n01, n10, ndiff = -c * f00 * f01, c * f10 * f11, c * (f00 * f11
                                                          + f01 * f10)
    cl = c * lam0
    point = su2(cl * (d01 * f00 - d00 * f01) + n01,
                cl * (d10 * f11 - d11 * f10) + n10,
                cl * (d00 * f11 - d01 * f10 + d10 * f01 - d11 * f00)
                + ndiff - 2j) * (-1.0 / (2.0 * h))
    normal = su2(n01, n10, ndiff)
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    sq0, sq1 = f00 ** 2, f10 ** 2
    tangent = np.stack([sq0 - sq1, -1j * (sq0 + sq1), 2 * f00 * f10],
                       axis=-1) * (c / 2j)[:, None]
    return point, normal, tangent


# ---------------------------------------------------------------------------
# Full pipeline

def _trimmed_band(coeffs):
    """Per node of the flat frames ``coeffs`` (n, nk, 2), the slots
    (first, stop) that remain once the end slots at both the lowest and the
    highest power are dropped: at each end, drop while the summed max-abs
    entries of the dropped slots stay within TRIM_EPS / 2 of the node's
    largest entry, so that all the dropped slots together cannot move the
    loop on the circle beyond rounding."""
    size = np.max(np.abs(coeffs), axis=2)
    budget = 0.5 * TRIM_EPS * np.max(size, axis=1, keepdims=True)
    first = np.sum(np.cumsum(size, axis=1) <= budget, axis=1)
    last = np.sum(np.cumsum(size[:, ::-1], axis=1) <= budget, axis=1)
    return first, coeffs.shape[1] - last


def _factor_chunks(lo, coeffs, ok, opts: SurfaceOptions, causes):
    """Pointwise Iwasawa factorization of the flat frames ``coeffs``
    (n, nk, 2), lowest power ``lo``, at the nodes where ``ok`` is nonzero.

    Each node is cut to the band its own frame needs (:func:`_trimmed_band`);
    the nodes are stably sorted by that band and factored in slices of
    ``CHUNK``, each at the lowest power and band of its own nodes.  Yields
    ``(indices, chunk_lo, chunk, out, accepted)`` per chunk: the node
    indices, the chunk's lowest power and its frames cut to its band, the
    ``iwasawa_batch`` output, and the nodes whose factorization succeeded
    within ``opts.residual_tol`` and ``opts.unitary_tol``.  The rejected
    nodes are added to ``causes`` under their first failed check, each
    counted ``ok`` times: a bool mask counts every node once, a count the
    grid nodes a node stands for."""
    idx = np.nonzero(ok)[0]
    first, stop = _trimmed_band(coeffs[idx])
    order = np.argsort(stop - first, kind="stable")
    for start in range(0, len(idx), CHUNK):
        part = order[start:start + CHUNK]
        sel = idx[part]
        k0, k1 = first[part].min(), stop[part].max()
        chunk_lo, chunk = lo + int(k0), coeffs[sel, k0:k1]
        out = iwasawa_batch(chunk_lo, chunk)
        accepted = np.ones(len(sel), dtype=bool)
        for cause, passed in (
                ("factorization", out["ok"]),
                ("residual", out["residual"] < opts.residual_tol),
                ("unitarity", out["unitary_residual"] < opts.unitary_tol)):
            causes[cause] += int(np.sum(ok[sel][accepted & ~passed]))
            accepted &= passed
        yield sel, chunk_lo, chunk, out, accepted


def surface_from_potential(p: PotentialSpec | weier.WeierstrassData,
                           grid: DomainGrid,
                           options: SurfaceOptions | None = None) -> SurfaceMesh:
    """Surface mesh for one member of a deformation family.

    ``p`` is either classical Weierstrass data (``weier.WeierstrassData``),
    built by the classical construction, or a normalized ``PotentialSpec``:
    at h = 0 the classical construction of its limit member, otherwise the
    loop-group construction.  ``convert.member`` picks the carrier for a
    given h.  Factorization or integration failures mask nodes instead of
    aborting the mesh."""
    opts = options or SurfaceOptions()
    if isinstance(p, PotentialSpec) and p.h != 0.0:
        fg = integrate_frame(p, grid, options=opts)
        return _assemble_mesh(p, fg, opts)
    from . import convert
    w = p if isinstance(p, weier.WeierstrassData) \
        else convert.limit_member_data(p)
    return weier.minimal_surface(w, grid, opts.substeps)


def _frame_at(x, lo, binv, lam0):
    """F and dF/dlambda at ``lam0``, entry-first (2, 2, n) each, of the
    Iwasawa factors of the loops ``x`` (n, nk, 2) with lowest power ``lo``,
    from the inverses ``binv`` (n, nb, 2) of their plus factors (powers
    0..): F = X B^-1 holds at every point of the circle, so F(lam0) =
    X(lam0) B^-1(lam0) and, by the product rule, dF = dX B^-1 + X dB^-1
    there; no Fourier series of F is needed."""
    xv, gv = entries_at(x, lo, lam0), entries_at(binv, 0, lam0)
    x0, g0 = xv[..., 0, :], gv[..., 0, :]
    return mul_entries(x0, g0), (mul_entries(xv[..., 1, :], g0)
                                 + mul_entries(x0, gv[..., 1, :]))


# the basis E1, E2, E3 of su(2) in which _sym_bobenko gives its vectors
_SU2_BASIS = np.array([[[0, -1j], [-1j, 0]], [[0, 1], [-1, 0]],
                       [[1j, 0], [0, -1j]]])


def _initial_rotation(e0, lam0):
    """The rotation, a 3x3 matrix on the (E1, E2, E3) components of
    :func:`_sym_bobenko`'s vectors, that turns the mesh of frames Psi into
    the mesh of E0hat Psi, E0hat the twisted extension of ``e0``.

    At lam0 on the unit circle U = E0hat(lam0) lies in SU(2), and E0hat Psi
    has F = U F_Psi and dF = U' F_Psi + U dF_Psi there.  The Sym-Bobenko
    point of E0hat alone vanishes at every lam, so the point, the normal
    and the tangent direction are those of Psi conjugated by U: the
    rotation Ad(U), whose column k holds the components of U E_k U^-1."""
    e0hat = hat_extend(e0)
    u = entries_at(e0hat.coeffs[None], e0hat.lo, lam0)[:, :, 0, 0]
    images = u @ _SU2_BASIS @ u.conj().T
    return -0.5 * np.einsum("kij,lji->lk", images, _SU2_BASIS).real


def _assemble_mesh(p: PotentialSpec, fg: FrameGrid,
                   opts: SurfaceOptions) -> SurfaceMesh:
    """Pointwise factorization of the holomorphic frames followed by the
    Sym-Bobenko evaluation at lambda0 (:func:`_frame_at`,
    :func:`_sym_bobenko`), normals, tangents and the conformal factor.  The
    unitary factor of the twisted initial frame times the frames is that
    frame times their unitary factor, so ``fg.E0`` enters at lambda0 only,
    as one rotation of the mesh (:func:`_initial_rotation`).  An off-circle
    lambda0 raises ValueError.

    Frames symmetric under reflections (``fg.mirror``) are factored on
    their fundamental domain only.  The reflections' map carries a
    partner's frame X and plus factor inverse B^-1 to the image node's
    (:meth:`Reflection.image`), so every image node is read out the same
    way as a factored one, from its partner's factors mapped, at any
    lambda0 of the circle; it takes its partner's rho and mask, and its own
    ``a``.  The row next to the basepoint's on the far side of a row
    reflection, and the column of a column reflection, are both factored
    and read out from their partners: ``mirror_deviation`` is the largest
    distance between the two, a fraction of the diameter.  The mask causes
    and the residual and condition statistics count every grid node, an
    image node with its partner's values; the map keeps the half-circle
    sample points of the checks (nu = 1 or i), so those are the values a
    factorization of the image node would sample.  ``factored_nodes`` is
    the number of nodes factored."""
    lam0 = complex(opts.lambda0)
    if abs(abs(lam0) - 1.0) > 1e-12:
        raise ValueError("lambda0 must lie on the unit circle")
    grid = fg.grid
    ny, nx = grid.ny, grid.nx
    j0, i0 = grid.j0, grid.i0
    nk = fg.coeffs.shape[2]

    coeffs = fg.coeffs.reshape(ny * nx, nk, 2)
    f = np.full((ny * nx, 3), np.nan)
    normal = np.full((ny * nx, 3), np.nan)
    fzv = np.full((ny * nx, 3), np.nan, dtype=complex)
    rho_all = np.full(ny * nx, np.nan)
    ok_all = np.zeros(ny * nx, dtype=bool)
    # the grid nodes each factored node stands for
    count = fg.ok.astype(np.intp)
    for r in fg.mirror:
        if r.axis == "row":
            count[:j0 - 1] = 0
            count[j0 + 2:] *= 2
        else:
            count[:, :i0 - 1] = 0
            count[:, i0 + 2:] *= 2
    count = count.reshape(-1)
    # the compositions of the reflections, the identity first
    group = [g for n in range(len(fg.mirror) + 1)
             for g in itertools.combinations(fg.mirror, n)]
    max_section = factored = 0
    accepted, overlaps = [], []
    causes = dict(fg.meta["mask_causes"])
    a_vals = fg.a.reshape(-1)

    for sel, lo, x, out, good in _factor_chunks(
            fg.lo, coeffs, count, opts, causes):
        factored += len(sel)
        # the chunk's nodes read out as themselves and as each of their
        # images, in one batch; kept where they fill a node or check one
        rows, cols = np.divmod(sel, nx)
        fill, check, at = (np.concatenate(v) for v in zip(*(
            _images(g, rows, cols, j0, i0, nx) for g in group)))
        take = fill | check
        point, nrm, tangent = _read_out(group, x, lo, out["binv"], take,
                                        p.h, lam0)
        at, fill = at[take], fill[take]
        src = np.tile(np.arange(len(sel)), len(group))[take]
        rho, ok = out["rho"][src], good[src]
        dest = at[fill]
        f[dest], normal[dest] = point[fill], nrm[fill]
        fzv[dest] = 0.5 / lam0 * (a_vals[dest] * rho[fill] ** 2)[:, None] \
            * tangent[fill]
        rho_all[dest], ok_all[dest] = rho[fill], ok[fill]
        overlaps.append((at[~fill], point[~fill], ok[~fill]))
        max_section = max(max_section, int(np.max(out["section"])))
        accepted.append([out[k][good] for k in (
            "residual", "unitary_residual", "condition")] + [count[sel][good]])

    deviation = 0.0
    for at, point, ok in overlaps:
        both = ok & ok_all[at]
        deviation = max(deviation, float(np.max(np.linalg.norm(
            f[at[both]] - point[both], axis=-1), initial=0.0)))
    rot = _initial_rotation(fg.E0, lam0).T
    f = (f @ rot).reshape(ny, nx, 3)
    normal = (normal @ rot).reshape(ny, nx, 3)
    fzv = (fzv @ rot).reshape(ny, nx, 3)
    rho_all = rho_all.reshape(ny, nx)
    ok = ok_all.reshape(ny, nx) & fg.ok
    if not ok[j0, i0]:
        raise FrameError("factorization failed at the basepoint")
    f -= f[j0, i0]
    eu = 0.5 * np.abs(a_vals.reshape(ny, nx)) * rho_all ** 2
    # over the accepted nodes, which hold the basepoint, each as many times
    # as the grid nodes it stands for
    resid, unit, cond, times = (np.concatenate(a) for a in zip(*accepted))
    meta = {
        "kind": "dpw", "h": p.h, "ntrunc": fg.ntrunc,
        "tail_bound": fg.tail_bound, "panels": fg.meta["panels"],
        "lambda0": lam0,
        "max_iwasawa_residual": float(np.max(resid)),
        "max_unitary_residual": float(np.max(unit)),
        "max_condition": float(np.max(cond)),
        "condition_p99": float(np.percentile(np.repeat(cond, times), 99)),
        "max_section": max_section,
        "mask_causes": causes,
        "dressed": bool(fg.meta.get("dressed", False)),
        "factored_nodes": factored,
    }
    mesh = SurfaceMesh(grid=fg.grid, h=p.h, f=f, normal=normal, eu=eu,
                       fz=fzv, mask=ok, meta=meta)
    if fg.mirror:
        meta["mirrored"] = [{"axis": r.axis, "nu": r.nu, "d": r.d}
                            for r in fg.mirror]
        meta["mirror_deviation"] = deviation / (mesh.diameter() or 1.0)
    return mesh


def _read_out(group, x, lo, binv, take, h, lam0):
    """:func:`_sym_bobenko` at ``lam0`` of the loops ``x`` (n, nk, 2),
    lowest power ``lo``, with plus factor inverses ``binv``, and of their
    images under each composition of reflections in ``group`` (the
    identity first), stacked in that order and kept where ``take``: each
    composition's loops are the image of its first reflections' by its
    last (:meth:`Reflection.image`)."""
    xs = np.empty((len(group),) + x.shape, dtype=complex)
    binvs = np.empty((len(group),) + binv.shape, dtype=complex)
    xs[0], binvs[0] = x, binv
    for k, g in enumerate(group[1:], 1):
        base = group.index(g[:-1])
        g[-1].image(xs[base], lo, out=xs[k])
        g[-1].image(binvs[base], 0, out=binvs[k])
    frame, dframe = _frame_at(xs.reshape((-1,) + x.shape[1:]), lo,
                              binvs.reshape((-1,) + binv.shape[1:]), lam0)
    return _sym_bobenko(frame[..., take], dframe[..., take], h, lam0)


def _images(g, rows, cols, j0, i0, nx):
    """For the factored nodes at ``rows``, ``cols`` and the composition
    ``g`` of reflections: the nodes whose image under ``g`` lies outside
    the fundamental domain, each reflected coordinate at least two past the
    basepoint's (the images fill every node outside it once); for one
    reflection, the nodes one past, whose images are the factored row or
    column on the far side (the overlap check); and every node's image, a
    flat index on a grid of ``nx`` columns."""
    fill = np.ones(len(rows), dtype=bool)
    check = np.zeros(len(rows), dtype=bool)
    for r in g:
        if r.axis == "row":
            fill &= rows >= j0 + 2
            check = rows == j0 + 1
            rows = 2 * j0 - rows
        else:
            fill &= cols >= i0 + 2
            check = cols == i0 + 1
            cols = 2 * i0 - cols
    check &= len(g) == 1
    return fill, check, rows * nx + cols


# ---------------------------------------------------------------------------
# Curvature extraction (independent of the construction claims)

@dataclass
class CurvatureField:
    H: np.ndarray          # (ny, nx)
    kplus: np.ndarray
    kminus: np.ndarray
    Q: np.ndarray          # complex
    valid: np.ndarray      # bool


def _deriv(field, d, order, axis):
    """Centered difference of spacing ``d`` and order 4 or 2 along ``axis``;
    NaN where the stencil leaves the array."""
    f = np.moveaxis(field, axis, 0)
    out = np.full_like(f, np.nan)
    if order == 4:
        out[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * d)
    else:
        out[1:-1] = (f[2:] - f[:-2]) / (2 * d)
    return np.moveaxis(out, 0, axis)


def extract_curvature(mesh: SurfaceMesh, stencil=4) -> CurvatureField:
    """Numerical mean curvature, principal curvatures and Hopf function.

    Second derivatives come from differencing the analytic tangent field
    f_z, so H = e^{-2u} <f_xx + f_yy, N> / 8 and Q = <N, f_zz> carry one
    finite-difference error, not two.  ``stencil`` 4 (default) or 2 selects
    the difference order; nodes without the needed valid neighborhood are
    flagged invalid.
    """
    ring = 2 if stencil == 4 else 1
    valid = mesh.interior(ring)
    dx, dy = mesh.grid.dx, mesh.grid.dy
    fz = np.where(mesh.mask[..., None], mesh.fz, np.nan + 0j)
    dzx = _deriv(fz, dx, stencil, axis=1)
    dzy = _deriv(fz, dy, stencil, axis=0)
    f_zz = 0.5 * (dzx - 1j * dzy)
    f_zzbar = 0.5 * (dzx + 1j * dzy)
    n = mesh.normal
    lap = 4.0 * f_zzbar.real           # f_xx + f_yy
    eu2 = np.maximum(mesh.eu, 1e-300) ** 2
    H = np.einsum("...i,...i", lap, n) / (8.0 * eu2)
    Q = np.einsum("...i,...i", f_zz, n.astype(complex))
    half = 0.5 * np.abs(Q) / eu2
    valid &= np.isfinite(H)
    return CurvatureField(H=H, kplus=H + half, kminus=H - half, Q=Q,
                          valid=valid)
