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
coefficients are the iterated path integrals of the Dyson series, truncated
where a rigorous factorial tail bound drops below tolerance.  They are
integrated one series level at a time over the whole grid: level k is the
integral of level k - 1 times the potential, taken by Gauss-Legendre
collocation on every edge of the grid walk, and its node values are
cumulative sums along the walk's chains (``DomainGrid.walk``: the
basepoint row east and west, the columns down and up, the reroute depths),
so each node keeps its row-then-column path.  The two entries are
evaluated in one call per mesh (``expr.evaluate`` of both, so the shared
``a`` once), at the collocation points of every edge.  E0hat is unitary on
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
deformation.  A potential real on the real axis, with the basepoint on
it, has Psi(zbar) = conj Psi(z) coefficient by coefficient, so at a real
lam0 the mesh of Psi satisfies f(zbar) = R f(z), R = diag(1, -1, 1).  When
the node values of the potential and the grid show that symmetry about
the basepoint row, the frames are integrated and factored from the row
below the basepoint's on, and the mesh of the other rows is the mirror
image of theirs, taken before the rotation by E0hat; the row below the
basepoint's is computed as well, and its distance from its mirror image
is reported, so the mirrored mesh is checked, not symmetric by
construction.
"""

from __future__ import annotations

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
    "TailBoundError", "potential_entries", "integrate_frame",
    "flatness_residual", "surface_from_potential", "extract_curvature",
    "CurvatureField",
]


class FrameError(ArithmeticError):
    pass


class TailBoundError(FrameError):
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


# A frame whose series tail bound stays above TAIL_FAIL at the truncation
# cap is an error; nodes where a potential entry is non-finite or above
# ENTRY_BOUND are masked, with MASK_DILATE rings around them; Iwasawa
# factorization runs in chunks of CHUNK nodes, each node's frame cut to the
# band outside of which its slots sum to at most TRIM_EPS of its largest
# entry.
TAIL_FAIL = 1e-6
ENTRY_BOUND = 1e8
MASK_DILATE = 1
CHUNK = 256
TRIM_EPS = float(np.finfo(float).eps)

# Why a node is masked, in pipeline order: outside the grid's own mask; an
# entry of the potential non-finite or above the entry bound, or within
# MASK_DILATE rings of one; not reached from the basepoint; a non-finite
# frame; a factorization not converged or not positive definite; the
# factorization residual, or the unitarity residual, over its tolerance.
# meta["mask_causes"] counts every masked node once, under the first cause
# that applies.
MASK_CAUSES = ("domain", "entry", "unreachable", "frame", "factorization",
               "residual", "unitarity")


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
    nodes where integration succeeded.  The frames the surface is built
    from are the twisted extension of ``E0`` times ``coeffs``:
    ``integrate_frame`` leaves the initial frame E0 out of the coefficients
    (they are Psi, Psi(z0) = I), as it does not change their Iwasawa plus
    factor.  ``a`` holds the potential's ``a`` at the nodes, for the
    metric.  ``mirror`` marks the frames of a reflective member, whose rows
    0 .. j0 - 2 are the conjugates of rows ny - 1 .. j0 + 2 (see
    ``integrate_frame``): the mesh factors rows j0 - 1 on only."""
    lo: int
    coeffs: np.ndarray        # (ny, nx, nk, 2), the loops layout
    ok: np.ndarray            # (ny, nx)
    grid: DomainGrid
    ntrunc: int
    tail_bound: float
    meta: dict = field(default_factory=dict)
    E0: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))
    a: np.ndarray | None = None       # (ny, nx)
    mirror: bool = False


# ---------------------------------------------------------------------------
# Truncation order from the iterated-integral tail bound

def _tail_term(k, L, ma, mb):
    # words of length k alternate the two off-diagonal entries
    lead = max(ma, mb) if k % 2 else 1.0
    return 4.0 * L ** k / math.factorial(k) * (ma * mb) ** (k // 2) * lead


def choose_ntrunc(L, ma, mb, tol=1e-12, cap=24):
    """Smallest series order whose first omitted term is below tol; returns
    (order, bound-of-omitted-tail)."""
    best = None
    for n in range(1, cap + 1):
        t = _tail_term(n + 1, L, ma, mb)
        if t <= tol:
            best = (n, t)
            break
    if best is None:
        best = (cap, _tail_term(cap + 1, L, ma, mb))
    return best


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
    (``DomainGrid.walk``: the basepoint row, then the columns, then
    breadth-first rerouting around masked nodes) by Gauss-Legendre
    collocation, the rule the h = 0 sweep shares: the entries are
    evaluated once, in one call, at ``options.substeps`` equal panels of
    ``expr.WALK_GL_N`` points on every edge (``expr.panel_points``); level
    k at those points, times the potential, gives every edge's integrals
    to each point and to its end in one product with the Legendre weights
    (``expr.interpolant_integrals``); cumulative sums of the edges'
    integrals along the chains give level k at the nodes, and each edge's
    start value plus its partial integrals give it at the points.  That is
    Gauss-Legendre collocation of order 2 * ``expr.WALK_GL_N`` per panel,
    solved exactly since each level only reads the one below.

    The initial unitary frame E0 is not multiplied in: a unitary left
    factor does not change the plus factor of the Iwasawa splitting, so the
    frames stay Psi and E0 rides along for the read-out at lambda0
    (``FrameGrid.E0``).  The values of ``a`` at the nodes, from the same
    grid evaluation as the tail bound's, ride along for the metric.

    A reflective member (:func:`_reflective`, decided from those node
    values and the mask) is walked and integrated from row j0 - 1 on; the
    frames of rows 0 .. j0 - 2 are the conjugates of those of rows ny - 1
    .. j0 + 2, their mirror images, which the mirrored paths reach
    (``FrameGrid.mirror``).  The mask is mirror-symmetric and every masked
    node has its MASK_DILATE >= 1 ring masked, so the walked rows reach the
    nodes of theirs that the whole grid's walk reaches.

    Raises TailBoundError when the rigorous factorial tail bound cannot be
    pushed below ``TAIL_FAIL`` at the truncation cap.
    """
    opts = options or SurfaceOptions()
    upper, lower = potential_entries(p)
    up_v, low_v, a_v = ex.evaluate((upper, lower, p.a), grid.zz)
    av, pv = np.abs(up_v), np.abs(low_v)
    L = grid.max_l1_pathlength()

    # tighten the entry threshold until the series bound is met: domains
    # containing potential singularities lose a band around them instead of
    # aborting the whole mesh.  The ladder engages when an entry is
    # non-finite or the largest entry exceeds 1e2 times the median, which
    # smooth data with a large range meets as well (exp(10 z) on a 31-node
    # grid keeps 62 of 961 nodes); only uniformly large data fails the
    # bound unmasked.  Per-node truncation from each node's own path (on
    # the ROADMAP) is to replace this rule.
    biggest = np.maximum(av, pv)
    finite = np.isfinite(biggest) & grid.mask
    med = float(np.median(biggest[finite])) if np.any(finite) else 0.0
    singular = (not np.all(finite[grid.mask])) or (
        np.any(finite) and float(np.max(biggest[finite])) > 1e2 * max(med, 1e-12))
    if singular:
        ladder = (ENTRY_BOUND, 1e4, 1e2, 30.0, 10.0, 3.0)
    else:
        ladder = (ENTRY_BOUND,)
    mask = tail = None
    for bound in ladder:
        # nodes whose entries are finite and below the bound, eroded by
        # MASK_DILATE rings; the basepoint always stays
        cand = _erode((biggest < bound) & grid.mask, MASK_DILATE, outside=True)
        cand[grid.j0, grid.i0] = True
        ma = float(np.max(av[cand], initial=0.0))
        mb = float(np.max(pv[cand], initial=0.0))
        n_cand, t_cand = choose_ntrunc(L, ma, mb, opts.tail_tol,
                                       opts.ntrunc_cap)
        if not math.isfinite(t_cand):    # non-finite data: no bound at all
            t_cand = math.inf
        if mask is None or t_cand < tail:
            mask, tail, used_n = cand, t_cand, n_cand
        if tail <= opts.tail_tol:
            break
    ntrunc = used_n
    work = grid.with_mask(mask)
    if not tail <= TAIL_FAIL:
        raise TailBoundError(
            f"series tail bound {tail:.3e} above {TAIL_FAIL:.1e} at "
            f"truncation {ntrunc}; shrink the domain or raise the cap")

    # a reflective member walks rows j0 - 1 on only; the rows below are the
    # conjugates of their mirror images
    mirror = _reflective(grid, mask, opts.lambda0, (a_v, low_v))
    top = grid.j0 - 1 if mirror else 0
    part = DomainGrid(grid.xs, grid.ys[top:], grid.i0, grid.j0 - top,
                      mask[top:]) if mirror else work
    nk = ntrunc + 1
    chains, reached = part.walk()
    start, end = chain_ends(chains)
    zz = part.zz.ravel()
    dz = zz[end] - zz[start]
    t = ex.panel_points(ex.WALK_GL_N, opts.substeps)
    m = len(t)
    # (lower, upper) times dz at the collocation points, entry-first, then
    # point by point, the edges last in the chains' edge order: (2, m, edges)
    ent = np.stack(ex.evaluate((lower, upper), zz[start] + t[:, None] * dz))
    ent *= dz
    weights = ex.interpolant_integrals(ex.WALK_GL_N, opts.substeps,
                                       opts.substeps)
    psi = np.empty((grid.ny * grid.nx, nk, 2), dtype=complex)
    own = psi[top * grid.nx:]                # the walked rows
    own[:, -1] = 1.0                         # Psi_0 = I
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
            own[:, nk - 1 - k] = level
            if k + 1 < nk:
                at_pts = sums[:, :m]
                at_pts += level[start].T[:, None]
                np.multiply(at_pts[::-1], ent, out=g)
    psi = psi.reshape(grid.ny, grid.nx, nk, 2)
    reached = np.concatenate([np.zeros((top, grid.nx), dtype=bool), reached])
    if mirror:
        psi[:top] = np.conj(psi[:grid.j0 + 1:-1])
        reached[:top] = reached[:grid.j0 + 1:-1]
    psi[~reached] = np.nan

    ok = reached & np.all(np.isfinite(psi), axis=(2, 3))
    causes = dict.fromkeys(MASK_CAUSES, 0)
    causes["domain"] = int(np.count_nonzero(~grid.mask))
    causes["entry"] = int(np.count_nonzero(grid.mask & ~mask))
    causes["unreachable"] = int(np.count_nonzero(mask & ~reached))
    causes["frame"] = int(np.count_nonzero(reached & ~ok))
    meta = {"mask_causes": causes}
    return FrameGrid(lo=1 - nk, coeffs=psi, ok=ok, grid=work, ntrunc=ntrunc,
                     tail_bound=tail, meta=meta, E0=p.initial_frame(),
                     a=a_v, mirror=mirror)


def _reflective(grid: DomainGrid, mask, lam0, entries):
    """Whether a member is mirrored about the basepoint row: Psi(zbar) =
    conj Psi(z), coefficient by coefficient, so rows 0 .. j0 - 2 of the
    frames are the conjugates of rows ny - 1 .. j0 + 2.

    That holds when the basepoint row lies on the real axis and the grid is
    its own mirror image about it (to 1e-12 of the row spacing), with at
    least one row to fill (j0 >= 2), the mask
    is too, and the potential is real on the real axis: ``entries`` (a,
    Q/a) at the nodes, conjugate at mirrored nodes of the mask to within
    1e-14 of their largest value.  The mesh reads the frames at a real
    lambda0 only, where F(zbar) = conj F(z) gives the reflected surface."""
    j0, ys = grid.j0, grid.ys
    tol = 1e-12 * abs(grid.dy)
    if (j0 < 2 or grid.ny != 2 * j0 + 1 or complex(lam0).imag != 0
            or abs(ys[j0]) > tol
            or np.max(np.abs(ys + ys[::-1] - 2 * ys[j0])) > tol
            or not np.array_equal(mask, mask[::-1])):
        return False
    for v in entries:
        gap = np.abs(v[::-1] - np.conj(v))[mask]
        if not np.max(gap) <= 1e-14 * np.max(np.abs(v[mask])):
            return False
    return True


def _mask_causes(meta):
    """A fresh count per cause of ``MASK_CAUSES``, starting from the
    counts in ``meta`` (a FrameGrid's, which cover the nodes it does not
    mark ok)."""
    return {c: meta.get("mask_causes", {}).get(c, 0) for c in MASK_CAUSES}


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


def _frame_at(x, lo, out, lam0):
    """F and dF/dlambda at ``lam0``, entry-first (2, 2, n) each, of the
    Iwasawa factors of the loops ``x`` (n, nk, 2) with lowest power ``lo``,
    from the plus factors' inverses ``out["binv"]`` (powers 0..) of their
    ``iwasawa_batch`` output ``out``: F = X B^-1 holds at every point of
    the circle, so F(lam0) = X(lam0) B^-1(lam0) and, by the product rule,
    dF = dX B^-1 + X dB^-1 there; no Fourier series of F is needed."""
    xv, gv = entries_at(x, lo, lam0), entries_at(out["binv"], 0, lam0)
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

    Mirrored frames (``fg.mirror``) are factored from row j0 - 1 on.  F is
    then conj F of the mirror image, so rows 0 .. j0 - 2 take the points
    and normals R x, the tangents R conj(f_z), and the conformal factor and
    the mask of their mirror images, R = diag(1, -1, 1), before the
    rotation by E0 turns the plane of reflection.  Row j0 - 1 is both
    factored and mirrored: ``mirror_deviation`` is the largest distance
    between the two, a fraction of the diameter.  The mask causes and the
    residual and condition statistics count every grid node, a mirrored
    node with its mirror image's values."""
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
    top = j0 - 1 if fg.mirror else 0
    if fg.mirror:
        count[:top] = 0
        count[j0 + 2:] *= 2
    count = count.reshape(-1)
    max_section = 0
    accepted = []
    causes = _mask_causes(fg.meta)
    a_vals = fg.a.reshape(-1)

    for sel, lo, x, out, good in _factor_chunks(
            fg.lo, coeffs, count, opts, causes):
        f[sel], normal[sel], tangent = _sym_bobenko(
            *_frame_at(x, lo, out, lam0), p.h, lam0)
        rho = out["rho"]
        fzv[sel] = 0.5 / lam0 * (a_vals[sel] * rho ** 2)[:, None] * tangent
        rho_all[sel] = rho
        ok_all[sel] = good
        max_section = max(max_section, int(np.max(out["section"])))
        accepted.append([out[k][good] for k in (
            "residual", "unitary_residual", "condition")] + [count[sel][good]])

    if fg.mirror:
        refl = np.array([1.0, -1.0, 1.0])
        f2, n2, fz2, rho2, ok2 = (v.reshape((ny, nx) + v.shape[1:]) for v in (
            f, normal, fzv, rho_all, ok_all))
        image = slice(None, j0 + 1, -1)     # rows ny - 1 .. j0 + 2
        both = ok2[j0 - 1] & ok2[j0 + 1]
        deviation = float(np.max(np.linalg.norm(
            f2[j0 - 1, both] - refl * f2[j0 + 1, both], axis=-1),
            initial=0.0))
        f2[:top] = refl * f2[image]
        n2[:top] = refl * n2[image]
        fz2[:top] = refl * np.conj(fz2[image])
        rho2[:top] = rho2[image]
        ok2[:top] = ok2[image]
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
        "tail_bound": fg.tail_bound, "lambda0": lam0,
        "max_iwasawa_residual": float(np.max(resid)),
        "max_unitary_residual": float(np.max(unit)),
        "max_condition": float(np.max(cond)),
        "condition_p99": float(np.percentile(np.repeat(cond, times), 99)),
        "max_section": max_section,
        "mask_causes": causes,
        "dressed": bool(fg.meta.get("dressed", False)),
    }
    mesh = SurfaceMesh(grid=fg.grid, h=p.h, f=f, normal=normal, eu=eu,
                       fz=fzv, mask=ok, meta=meta)
    if fg.mirror:
        meta["mirrored_rows"] = top
        meta["mirror_deviation"] = deviation / (mesh.diameter() or 1.0)
    return mesh


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
