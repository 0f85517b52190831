"""Dressing action on potentials and frames, and the coefficient recursion
for gauges between two normalized potentials sharing a Hopf function.

The action of a positive loop ``h+`` on a surface is: multiply its frame
on the left and re-factorize; on the data it sends (a, Q) to
(rho^2 a, Q).  For two potentials with data (a, Q) and (atilde, Q) the
gauge W+ solving

    d W+ = W+ etatilde - eta W+

has twisted Fourier coefficients a_n (even), b_n, c_n (odd), d_n (even)
determined by a first-order recursion: a0 = 1/d0 = sqrt(a/atilde), a linear
ODE for each b_n whose inhomogeneity involves the previous even
coefficient, algebraic formulas for c_n and for the even levels.  The
recursion here keeps every coefficient as normalized Taylor coefficients
u^(m)/m! at every sample and collocation point of the path (series
arithmetic of ``expr.taylor``), so the ODE right-hand sides and the
residual checks are exact up to the quadrature; a0 keeps the basepoint's
principal branch along the path.

The b-system is not affine (a_{n+1} contains b_1 c_1), but it is
lower-triangular: b_n' = c1 b_n + c0_n, where c0_n depends only on the
levels below n, and c1 = -qa'/(2 qa) does not depend on h.  With the
integrating factor s = exp(-int c1), (s b_n)' = s c0_n: each odd level is
one quadrature, on the grid walk's collocation rule (``expr.WALK_GL_N``
points per step), of c0_n at the points from the lower levels there.

The potentials are linear in h, and the recursion is homogeneous under
h -> t h with b_n -> t^-(n-1)/2 b_n, c_n -> t^-(n+1)/2 c_n and
a_n, d_n -> t^-n/2 a_n, d_n (integer powers: n is odd for b, c and even
for a, d).  One run at one h therefore gives every other nonzero h
(:meth:`DressingCoeffs.at_h`).

The gauge extends to the minimal limit exactly when it is constant in the
mean curvature, which pins W+ to

    ( a0   b1 lam )         a0 = sqrt(a/atilde),
    ( 0    1/a0   )   with  b1 = (atilde/Q) a0',   b1' = 0,

giving the distinguished dressing elements h+ = W+(z0)^{-1} that act on
minimal surfaces.

Dressing keeps the reflections of the grid through the basepoint that the
frames keep (``FrameGrid.mirror``) whose map fixes the dressing element,
as criterion 8's [[1, -0.1 lam], [0, 1]] fixes the row's: the dressed
mesh is then factored on the fundamental domain only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
# not called here: perfbench/spans.py traces dress jobs by wrapping this name
from .factor import iwasawa_batch  # noqa: F401
from .factor import unitary_loops
from .frames import (FrameGrid, PotentialSpec, SurfaceOptions, _factor_chunks,
                     _mark_failures, _tally, integrate_frame, _assemble_mesh)
from .grid import DomainGrid, fundamental_domain, image_blocks, matches
from .loops import LoopMat, conv, hat_extend, mul, plus_defect
from .mesh import SurfaceMesh

__all__ = ["gauge_potential", "h_independent_dressing", "HIndependentResult",
           "wu_recursion", "DressingCoeffs", "relation_residuals",
           "gauge_ode_residual", "dress_frame", "dress_surface",
           "DressingError"]


class DressingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Action on potentials

def gauge_potential(a, Q, rho):
    """Dress the data: (a, Q) -> (rho^2 a, Q)."""
    a = ex.as_expr(a)
    Q = ex.as_expr(Q)
    rho = ex.as_expr(rho)
    return ex.Pow(rho, 2) * a, Q


# ---------------------------------------------------------------------------
# h-independent dressing elements

@dataclass
class HIndependentResult:
    a0: ex.ExprNode
    b1: ex.ExprNode
    verdict: bool
    max_db1: float
    h_plus: LoopMat | None


def h_independent_dressing(a, atilde, Q, z0=0j, samples=None) -> HIndependentResult:
    """Candidate gauge between (a, Q) and (atilde, Q) that survives at the
    minimal limit: a0 = sqrt(a/atilde) (principal branch), b1 = (atilde/Q) a0'.

    The verdict passes iff b1 is constant over the samples
    (max |db1/dz| <= 1e-8 (1 + |b1|)); the dressing element h+ = W+(z0)^{-1}
    is returned on a pass.  Requires Q(z0) nonzero or a simple root there.
    """
    a = ex.as_expr(a)
    atilde = ex.as_expr(atilde)
    Q = ex.as_expr(Q)
    z0 = complex(z0)
    q0 = ex.order_at(Q, z0)
    if q0.order is None or q0.order not in (0, 1):
        raise DressingError(
            "need Q(z0) != 0 or a simple root of Q at the basepoint "
            f"(found order {q0.order})")
    a0 = ex.Sqrt(ex.Div(a, atilde))
    b1 = ex.Div(atilde, Q) * ex.diff(a0)
    if samples is None:
        samples = z0 + 0.4 * np.exp(2j * np.pi * (np.arange(16) + 0.27) / 16)
    b1v, db1v = np.moveaxis(ex.taylor(b1, samples, 1), -1, 0)
    db1v = np.abs(db1v)
    ok = np.isfinite(b1v) & np.isfinite(db1v)
    verdict = bool(np.all(ok)) and bool(
        np.all(db1v[ok] <= 1e-8 * (1.0 + np.abs(b1v[ok]))))
    h_plus = None
    if verdict:
        a00 = complex(ex.evaluate(a0, z0))
        b10 = complex(ex.evaluate(b1, z0))
        # W+(z0)^-1 = [[1/a0, -b1 lam], [0, a0]] in the loops layout
        h_plus = LoopMat(0, [[1.0 / a00, a00], [0.0, -b10]]).trim()
    return HIndependentResult(a0=a0, b1=b1, verdict=verdict,
                              max_db1=float(np.max(db1v[ok], initial=np.inf
                                                   if not np.all(ok) else 0.0)),
                              h_plus=h_plus)


# ---------------------------------------------------------------------------
# Gauge-coefficient recursion

@dataclass
class DressingCoeffs:
    """Gauge coefficients sampled along a path from the basepoint, at mean
    curvature ``h``; :meth:`at_h` gives them at any other nonzero h."""
    z: np.ndarray
    h: float
    K: int
    values: dict            # n -> {"a": arr, "b": arr, "c": arr, "d": arr}
    b_init: dict
    a_expr: ex.ExprNode = None
    atilde_expr: ex.ExprNode = None
    Q_expr: ex.ExprNode = None
    # the checks' input, from the recursion's own series at the samples:
    # Taylor series of (a, atilde, Q) and ``_WuSystem.jets`` of every level
    data: tuple = None
    jets: dict = None

    def at_h(self, h) -> DressingCoeffs:
        """The coefficients at mean curvature ``h``, rescaled from these
        without a new recursion: with r = self.h / h, b_n and b_init[n]
        take r^((n-1)/2), c_n r^((n+1)/2) and a_n, d_n r^(n/2), in
        ``values`` and ``jets`` alike (``data`` does not depend on h).  At
        a power-of-two ratio this is the direct run's result bit for bit;
        otherwise it carries the rounding of r's powers."""
        h = float(h)
        if h == 0:
            raise DressingError(
                "use h_independent_dressing for the h = 0 gauge")
        r = self.h / h
        shift = {"b": -1, "c": 1, "a": 0, "d": 0}
        jets = {n: {w: s * r ** ((n + shift[w]) // 2) for w, s in lv.items()}
                for n, lv in self.jets.items()}
        return replace(
            self, h=h, jets=jets,
            values={n: {w: s[:, 0] for w, s in lv.items()}
                    for n, lv in jets.items()},
            b_init={n: v * r ** ((n - 1) // 2)
                    for n, v in self.b_init.items()})


class _WuSystem:
    """Taylor series of all gauge coefficients at the points ``z``, in
    order along a path from the basepoint ``z[0]``, given the values of the
    b_n there.  a0 = sqrt(a/atilde) starts at its principal value at z[0]
    and keeps that branch from point to point, d0 = 1/a0.

    With qa = Q/(a atilde) and g_n = a_(n-1)'/a, the odd levels solve
    2 qa b_n' + qa' b_n = g_n' and give c_n = (2/h) (g_n - qa b_n); the even
    level n+1 is algebraic in the lower levels and b_n'.
    """

    def __init__(self, a, atilde, Q, h, K, z):
        self.h = h
        self.K = K
        self.odd = list(range(1, K + 1, 2))
        depth = K + 4
        self.a, self.at, self.q = (ex.taylor(e, z, depth)
                                   for e in (a, atilde, Q))
        data = np.stack([self.a, self.at, self.q])
        if (not np.all(np.isfinite(data))
                or np.min(np.abs(data[..., 0])) < 1e-12):
            raise DressingError(
                "a, atilde and Q must be finite and nonvanishing along the "
                "path, basepoint included")
        self.a0 = ex.series_sqrt(ex.series_div(self.a, self.at))
        # a0 continued from its principal value at z0: the series flips
        # sign wherever the next point's principal value turns by more
        # than a right angle
        turn = np.real(self.a0[1:, 0] * np.conj(self.a0[:-1, 0])) < 0
        self.a0[1:][np.cumsum(turn) % 2 == 1] *= -1
        self.d0 = ex.series_div(ex.taylor(ex.ONE, z, depth), self.a0)
        self.qa = ex.series_div(self.q, ex.series_mul(self.a, self.at))
        # b_n' = c1 b_n + c0_n
        self.c1 = ex.series_div(-ex.series_diff(self.qa), 2.0 * self.qa)

    def jets(self, i, bvals, out=None):
        """Series of every coefficient at the points ``i`` (any index or
        slice of ``z``), given b_n there as ``bvals[n]``.  Levels stop at
        the first odd n missing from ``bvals``, whose entry then holds only
        the inhomogeneity ``c0`` of b_n' = c1 b_n + c0.  Given the dict an
        earlier call returned for the same ``i`` as ``out``, it goes on in
        place from the level where that call stopped.  Returns dict
        n -> {"a", "d"} (even n) or {"b", "c"} (odd n)."""
        mul, div, diff = ex.series_mul, ex.series_div, ex.series_diff
        a, at, qa, c1 = self.a[i], self.at[i], self.qa[i], self.c1[i]
        a0, d0 = self.a0[i], self.d0[i]
        if out is None:
            out = {0: {"a": a0, "d": d0}}
        for n in self.odd:
            if "b" in out.get(n, ()):
                continue
            g = div(diff(out[n - 1]["a"]), a)
            if n not in out:
                out[n] = {"c0": div(diff(g), 2.0 * qa)}
            if n not in bvals:
                break
            c0 = out[n]["c0"]
            # forward substitution of b' = c1 b + c0, order by order
            bj = np.zeros(c0.shape[:-1] + (c0.shape[-1] + 1,), dtype=complex)
            bj[..., 0] = bvals[n]
            for m in range(c0.shape[-1]):
                bj[..., m + 1] = (np.sum(c1[..., :m + 1] * bj[..., m::-1],
                                         axis=-1) + c0[..., m]) / (m + 1)
            out[n] = {"b": bj, "c": (2.0 / self.h) * (g - mul(bj, qa))}
            m = n + 1
            if m > self.K:
                break
            L = c0.shape[-1]
            s = (sum(mul(out[k]["b"], out[m - k]["c"])[..., :L]
                     for k in range(1, m, 2))
                 - sum(mul(out[k]["a"], out[m - k]["d"])[..., :L]
                       for k in range(2, m - 1, 2)))
            bprime = diff(bj)
            out[m] = {"a": 0.5 * mul(a0, s) - div(bprime, self.h * at),
                      "d": 0.5 * mul(d0, s) + div(bprime, self.h * a)}
        return out


def _along(nodes, points):
    # values at the samples and at each step's points (steps, m), in order
    return np.append(np.hstack([nodes[:-1, None], points]), nodes[-1])


def wu_recursion(a, atilde, Q, h, K=6, path=(0j, 1.0, 200),
                 b_init=None) -> DressingCoeffs:
    """Integrate the gauge-coefficient recursion along a path from the
    basepoint.

    ``path`` is (z0, z1, nsamples): ``nsamples`` equally spaced points of
    the segment from the basepoint z0 to z1.  Each odd level is one
    cumulative quadrature of (s b_n)' = s c0_n (``expr.WALK_GL_N`` points
    per step, ``expr.interpolant_integrals``): its integrals to the points
    give b_n there for the next level's c0, those to the step ends give it
    at the samples.  The initial values are the regularity-forced
    b_n(z0) = a_(n-1)'(z0) atilde(z0) / Q(z0), the minimal-limit-compatible
    choice, unless ``b_init`` gives them (a level it omits starts at 0).
    The result at one h gives every other nonzero h by rescaling
    (:meth:`DressingCoeffs.at_h`), so a job over several h runs it once.

    Requires h != 0 and a, atilde and Q finite and nonvanishing at every
    sample and collocation point of the path, basepoint included.
    """
    if h == 0:
        raise DressingError("use h_independent_dressing for the h = 0 gauge")
    a = ex.as_expr(a)
    atilde = ex.as_expr(atilde)
    Q = ex.as_expr(Q)
    z0, z1, ns = path
    zs = np.linspace(complex(z0), complex(z1), int(ns))
    dz = (zs[1:] - zs[:-1])[:, None]
    m = ex.WALK_GL_N
    weights = ex.interpolant_integrals(m, 1, 1).T
    sys_ = _WuSystem(a, atilde, Q, float(h), int(K),
                     _along(zs, zs[:-1, None] + ex.panel_points(m, 1) * dz))
    given = b_init is not None
    b_init = {int(n): complex(v) for n, v in (b_init or {}).items()}
    at0, q0 = complex(sys_.at[0, 0]), complex(sys_.q[0, 0])
    nodes = np.arange(len(zs)) * (m + 1)
    pts = nodes[:-1, None] + np.arange(1, m + 1)

    def integral(f):
        # from z0 to every sample and point, of f given at the points
        part = (f @ weights) * dz
        ends = np.concatenate([[0.0], np.cumsum(part[:, -1])])
        return _along(ends, ends[:-1, None] + part[:, :-1])

    factor = np.exp(-integral(sys_.c1[pts, 0]))
    b, levels = {}, None
    for n in sys_.odd:
        # level n only sees lower levels, so it can be integrated on its own
        levels = sys_.jets(slice(None), b, levels)
        # the regularity-forced value comes from level n - 1 at z0
        b_init.setdefault(n, 0.0 if given else
                          complex(levels[n - 1]["a"][0, 1]) * at0 / q0)
        c0 = levels[n]["c0"][pts, 0]
        b[n] = (b_init[n] + integral(factor[pts] * c0)) / factor
    jets = {n: {w: s[nodes] for w, s in lv.items()}
            for n, lv in sys_.jets(slice(None), b, levels).items()}
    values = {n: {w: s[:, 0] for w, s in jets[n].items()} for n in jets}
    return DressingCoeffs(z=zs, h=float(h), K=int(K), values=values,
                          b_init=b_init, a_expr=a, atilde_expr=atilde,
                          Q_expr=Q,
                          data=(sys_.a[nodes], sys_.at[nodes], sys_.q[nodes]),
                          jets=jets)


def relation_residuals(coeffs: DressingCoeffs) -> dict:
    """Plug the computed coefficients back into every recursion relation at
    every sample and report the max absolute residuals (keys: 'a0',
    'b{n}', 'c{n}', 'a{n}', 'd{n}')."""
    jets = coeffs.jets
    ja, jat, jq = coeffs.data
    a0, d0 = jets[0]["a"][:, 0], jets[0]["d"][:, 0]
    out = {"a0": np.abs(a0 ** 2 - ja[:, 0] / jat[:, 0]) + np.abs(a0 * d0 - 1.0)}
    lograt = ja[:, 1] / ja[:, 0] + jat[:, 1] / jat[:, 0]
    for n in range(1, coeffs.K + 1, 2):
        bj, cj = jets[n]["b"], jets[n]["c"]
        aprev = jets[n - 1]["a"]
        # 2 Q b' + b (Q' - (a'/a + at'/at) Q) = (a_(n-1)'' - a_(n-1)' a'/a) at
        lhs = 2 * jq[:, 0] * bj[:, 1] + bj[:, 0] * (jq[:, 1] - lograt * jq[:, 0])
        rhs = (2 * aprev[:, 2] - aprev[:, 1] * ja[:, 1] / ja[:, 0]) * jat[:, 0]
        out[f"b{n}"] = np.abs(lhs - rhs)
        crhs = (2.0 / coeffs.h) * (-bj[:, 0] * jq[:, 0] / (ja[:, 0] * jat[:, 0])
                                   + aprev[:, 1] / ja[:, 0])
        out[f"c{n}"] = np.abs(cj[:, 0] - crhs)
        m = n + 1
        if m not in jets:
            continue
        s = (sum(jets[k]["b"][:, 0] * jets[m - k]["c"][:, 0]
                 for k in range(1, m, 2))
             - sum(jets[k]["a"][:, 0] * jets[m - k]["d"][:, 0]
                   for k in range(2, m - 1, 2)))
        arhs = 0.5 * a0 * s - bj[:, 1] / (coeffs.h * jat[:, 0])
        drhs = 0.5 * d0 * s + bj[:, 1] / (coeffs.h * ja[:, 0])
        out[f"a{m}"] = np.abs(jets[m]["a"][:, 0] - arhs)
        out[f"d{m}"] = np.abs(jets[m]["d"][:, 0] - drhs)
    return {k: float(np.max(v)) for k, v in out.items()}


def gauge_ode_residual(coeffs: DressingCoeffs) -> float:
    """First-principles check: the reconstructed gauge must satisfy
    dW = W etatilde_z - eta_z W coefficientwise.  Returns the max residual
    over all samples and powers up to K."""
    jets = coeffs.jets
    ja, jat, jq = (s[:, 0] for s in coeffs.data)
    h = coeffs.h
    worst = 0.0
    for m in range(1, coeffs.K + 1, 2):
        aj, dj = jets[m - 1]["a"], jets[m - 1]["d"]
        bj, cj = jets[m]["b"], jets[m]["c"]
        # even power m-1: A' = (Q/at) B + (h/2) a C, D' = -(h/2) at C - (Q/a) B
        res = [aj[:, 1] - (jq / jat) * bj[:, 0] - 0.5 * h * ja * cj[:, 0],
               dj[:, 1] + 0.5 * h * jat * cj[:, 0] + (jq / ja) * bj[:, 0]]
        if m + 1 in jets:
            # odd power m: B' = (h/2)(a D - at A), C' = Q (D/at - A/a)
            an, dn = jets[m + 1]["a"][:, 0], jets[m + 1]["d"][:, 0]
            res += [bj[:, 1] - 0.5 * h * (ja * dn - jat * an),
                    cj[:, 1] - jq * (dn / jat - an / ja)]
        worst = max([worst] + [float(np.max(np.abs(r))) for r in res])
    return worst


# ---------------------------------------------------------------------------
# Dressing frames and surfaces

def _left_multiply(h_plus: LoopMat, fg: FrameGrid) -> FrameGrid:
    """h_plus times the frames of ``fg``, their initial frame included:
    the twisted extension of ``fg.E0`` is folded into the dressing element
    hp, so the product's frames carry no initial frame of their own.
    ``h_plus`` must be a plus loop.

    A reflection of ``fg.mirror`` is kept exactly when its map
    (:meth:`Reflection.image`) fixes hp, to 1e-14 of hp's largest
    coefficient: Psi(sigma z) = D conj Psi(z) D^-1 then gives the same for
    hp Psi.  The product is taken on the kept reflections' fundamental
    domain and mapped to the other nodes, as ``integrate_frame`` fills
    them; with none kept (the catenoid's E0hat breaks both) on the whole
    grid."""
    if plus_defect(h_plus) > 1e-10:
        raise DressingError("dressing element must be a plus loop")
    hp = mul(h_plus, hat_extend(fg.E0))
    mirror = tuple(r for r in fg.mirror
                   if matches(r.image(hp.coeffs, hp.lo), hp.coeffs))
    own, _ = fundamental_domain(fg.grid, mirror)
    lo = fg.lo + hp.lo
    ny, nx, nk = fg.coeffs.shape[:3]
    coeffs = np.empty((ny, nx, nk + len(hp.coeffs) - 1, 2), dtype=complex)
    coeffs[own] = conv(hp.coeffs, fg.coeffs[own], fg.lo)
    for image, partner, r in image_blocks(mirror, fg.grid.j0, fg.grid.i0):
        r.image(coeffs[partner], lo, out=coeffs[image])
    return replace(fg, lo=lo, coeffs=coeffs, E0=np.eye(2, dtype=complex),
                   mirror=mirror, meta={**fg.meta, "dressed": True})


def dress_frame(h_plus: LoopMat, fg: FrameGrid,
                options: SurfaceOptions | None = None) -> FrameGrid:
    """Unitary parts of the pointwise factorization of h_plus times the
    frames; factorization failures mark nodes invalid.  A node is kept when
    its factorization passes the pointwise checks of ``_factor_chunks``
    and the series of its unitary part passes its own reconstruction and
    unitarity checks (``factor.unitary_loops``).  Every node is factored,
    image nodes too, whose products :func:`_left_multiply` maps from their
    partners'; the reflections that the product keeps ride along in the
    result.

    ``fg`` may hold holomorphic frames or already-unitary frames (repeated
    dressing); the group law dress(h2, dress(h1, .)) = dress(h2 h1, .)
    holds up to factorization accuracy either way.
    """
    opts = options or SurfaceOptions()
    pf = _left_multiply(h_plus, fg)
    ny, nx = pf.coeffs.shape[:2]
    flat = pf.coeffs.reshape(ny * nx, -1, 2)
    failed = np.full(ny * nx, -1)
    max_resid = 0.0
    # each chunk is cut to its own band, so its unitary parts start at its
    # own power: place every chunk at its lowest power in one common window
    chunks = []
    for sel, lo, x, out, bad in _factor_chunks(
            pf.lo, flat, fg.ok.reshape(-1), opts):
        # the returned loop F is its own series: check it as a loop too
        f, recon, unit = unitary_loops(lo, x, out["b"])
        good = _mark_failures(bad, (
            ("residual", recon < opts.residual_tol),
            ("unitarity", unit < opts.unitary_tol))) < 0
        chunks.append((sel, lo, f))
        failed[sel] = bad
        max_resid = max(max_resid, float(np.max(out["residual"][good],
                                                initial=0.0)))
    out_lo = min((lo for _, lo, _ in chunks), default=pf.lo)
    out_hi = max((lo + f.shape[1] for _, lo, f in chunks), default=pf.lo + 1)
    out_co = np.zeros((ny * nx, out_hi - out_lo, 2), dtype=complex)
    for sel, lo, f in chunks:
        out_co[sel, lo - out_lo:lo - out_lo + f.shape[1]] = f
    return replace(pf, lo=out_lo, coeffs=out_co.reshape(ny, nx, -1, 2),
                   ok=(failed < 0).reshape(ny, nx) & fg.ok,
                   meta={**pf.meta, "unitary": True,
                         "max_iwasawa_residual": max_resid,
                         "mask_causes": _tally(fg.meta["mask_causes"],
                                               failed)})


def dress_surface(h_plus: LoopMat, p: PotentialSpec, grid: DomainGrid,
                  options: SurfaceOptions | None = None) -> SurfaceMesh:
    """Surface of the dressed frames h_plus * Phi.

    The product is again holomorphic in z with the same logarithmic
    derivative as Phi, so the standard assembly (pointwise factorization,
    Sym-Bobenko, frame tangents) applies unchanged."""
    opts = options or SurfaceOptions()
    if p.h == 0:
        raise DressingError("dressing acts on frames of nonzero mean curvature")
    # the undressed frames are not kept while the dressed ones are factored
    dressed = _left_multiply(h_plus, integrate_frame(p, grid, options=opts))
    return _assemble_mesh(p, dressed, opts)
