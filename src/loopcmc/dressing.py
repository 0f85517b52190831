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
recursion here keeps full derivative jets at every sample point, so the
ODE right-hand sides and the residual checks are exact up to the ODE
integration itself.

The gauge extends to the minimal limit exactly when it is constant in the
mean curvature, which pins W+ to

    ( a0   b1 lam )         a0 = sqrt(a/atilde),
    ( 0    1/a0   )   with  b1 = (atilde/Q) a0',   b1' = 0,

giving the distinguished dressing elements h+ = W+(z0)^{-1} that act on
minimal surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import expr as ex
# not called here: perfbench/spans.py traces dress jobs by wrapping this name
from .factor import iwasawa_batch  # noqa: F401
from .frames import (FrameGrid, PotentialSpec, SurfaceOptions,
                     _factor_chunks, integrate_frame, _assemble_mesh)
from .grid import DomainGrid
from .loops import LoopMat, check_membership, conv
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
    a = a if isinstance(a, ex.ExprNode) else ex.parse(a)
    Q = Q if isinstance(Q, ex.ExprNode) else ex.parse(Q)
    rho = rho if isinstance(rho, ex.ExprNode) else ex.parse(rho)
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
    a = a if isinstance(a, ex.ExprNode) else ex.parse(a)
    atilde = atilde if isinstance(atilde, ex.ExprNode) else ex.parse(atilde)
    Q = Q if isinstance(Q, ex.ExprNode) else ex.parse(Q)
    z0 = complex(z0)
    q0 = ex.order_at(Q, z0)
    if q0.order is None or q0.order not in (0, 1):
        raise DressingError(
            "need Q(z0) != 0 or a simple root of Q at the basepoint "
            f"(found order {q0.order})")
    a0 = ex.Sqrt(ex.Div(a, atilde))
    b1 = ex.Div(atilde, Q) * ex.diff(a0)
    db1 = ex.diff(b1)
    if samples is None:
        samples = z0 + 0.4 * np.exp(2j * np.pi * (np.arange(16) + 0.27) / 16)
    samples = np.asarray(samples, dtype=complex)
    b1v = ex.evaluate(b1, samples)
    db1v = np.abs(ex.evaluate(db1, samples))
    ok = np.isfinite(b1v) & np.isfinite(db1v)
    verdict = bool(np.all(ok)) and bool(
        np.all(db1v[ok] <= 1e-8 * (1.0 + np.abs(b1v[ok]))))
    h_plus = None
    if verdict:
        a00 = complex(ex.evaluate(a0, z0))
        b10 = complex(ex.evaluate(b1, z0))
        coeffs = np.zeros((2, 2, 2), dtype=complex)
        coeffs[0, 0, 0] = 1.0 / a00
        coeffs[0, 1, 1] = a00
        coeffs[1, 0, 1] = -b10
        h_plus = LoopMat(0, coeffs).trim()
    return HIndependentResult(a0=a0, b1=b1, verdict=verdict,
                              max_db1=float(np.max(db1v[ok], initial=np.inf
                                                   if not np.all(ok) else 0.0)),
                              h_plus=h_plus)


# ---------------------------------------------------------------------------
# Jet arithmetic (truncated derivative towers at a point)

def _jet_mul(u, v):
    n = min(len(u), len(v))
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        out[m] = sum(comb(m, i) * u[i] * v[m - i] for i in range(m + 1))
    return out


def _jet_div(u, v):
    n = min(len(u), len(v))
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        s = u[m] - sum(comb(m, i) * out[i] * v[m - i] for i in range(m))
        out[m] = s / v[0]
    return out


def _jet_shift(u, k=1):
    """Jet of the k-th derivative."""
    return u[k:]


def _jet_add(u, v):
    n = min(len(u), len(v))
    return u[:n] + v[:n]


def _jet_sub(u, v):
    n = min(len(u), len(v))
    return u[:n] - v[:n]


def _jet_sqrt(u):
    """Jet of the principal square root (s^2 = u solved order by order)."""
    n = len(u)
    s = np.zeros(n, dtype=complex)
    s[0] = np.sqrt(u[0])
    for m in range(1, n):
        acc = sum(comb(m, i) * s[i] * s[m - i] for i in range(1, m))
        s[m] = (u[m] - acc) / (2.0 * s[0])
    return s


class _ExprJet:
    """Derivative tower of a symbolic expression, evaluated on demand (with
    a tiny cache: half-steps recur within one RK4 stage)."""

    def __init__(self, e, depth):
        self.chain = [e]
        for _ in range(depth):
            self.chain.append(ex.diff(self.chain[-1]))
        self._cache = {}

    def at(self, z):
        key = complex(z)
        hit = self._cache.get(key)
        if hit is None:
            hit = np.array([ex.evaluate(c, z) for c in self.chain],
                           dtype=complex)
            if len(self._cache) > 64:
                self._cache.clear()
            self._cache[key] = hit
        return hit


@dataclass
class DressingCoeffs:
    """Gauge coefficients sampled along a path from the basepoint."""
    z: np.ndarray
    h: float
    K: int
    values: dict            # n -> {"a": arr, "b": arr, "c": arr, "d": arr}
    b_init: dict
    a_expr: ex.ExprNode = None
    atilde_expr: ex.ExprNode = None
    Q_expr: ex.ExprNode = None


class _WuSystem:
    """Pointwise jet evaluation of all gauge coefficients given the b-state."""

    def __init__(self, a, atilde, Q, h, K, depth=None):
        self.h = h
        self.K = K
        self.odd = [n for n in range(1, K + 1) if n % 2 == 1]
        depth = depth if depth is not None else K + 4
        self.j_a = _ExprJet(a, depth)
        self.j_at = _ExprJet(atilde, depth)
        self.j_q = _ExprJet(Q, depth)

    def jets(self, z, bvals):
        """All coefficient jets at one point; ``bvals[n]`` is the value of
        b_n there.  Returns dict n -> {"a","b","c","d"} jets."""
        ja = self.j_a.at(z)
        jat = self.j_at.at(z)
        jq = self.j_q.at(z)
        a0 = _jet_sqrt(_jet_div(ja, jat))
        one = np.zeros_like(a0)
        one[0] = 1.0
        d0 = _jet_div(one, a0)
        out = {0: {"a": a0, "d": d0}}
        # b' = c1 b + c0 with 2 Q b' + b (Q' - (a'/a + at'/at) Q) = R_n
        lograt = _jet_add(_jet_div(_jet_shift(ja), ja),
                          _jet_div(_jet_shift(jat), jat))
        gcoef = _jet_sub(_jet_shift(jq), _jet_mul(lograt, jq))
        twoq = 2.0 * jq
        c1 = _jet_div(-gcoef, twoq)
        prev_a = a0
        for n in self.odd:
            rn = _jet_mul(_jet_sub(_jet_shift(prev_a, 2),
                                   _jet_mul(_jet_shift(prev_a),
                                            _jet_div(_jet_shift(ja), ja))), jat)
            c0 = _jet_div(rn, twoq)
            depth = min(len(c1), len(c0))
            bj = np.zeros(depth + 1, dtype=complex)
            bj[0] = bvals[n]
            for m in range(depth):
                bj[m + 1] = sum(comb(m, i) * c1[i] * bj[m - i]
                                for i in range(m + 1)) + c0[m]
            cj = (2.0 / self.h) * _jet_add(
                -_jet_div(_jet_mul(bj, jq), _jet_mul(ja, jat)),
                _jet_div(_jet_shift(prev_a), ja))
            out[n] = {"b": bj, "c": cj}
            if n + 1 > self.K:
                break
            # even level n+1
            bprime = _jet_shift(bj)
            m = n + 1
            s = None
            for jj in range(0, m // 2):
                term = _jet_mul(out[2 * jj + 1]["b"], out[m - 2 * jj - 1]["c"])
                s = term if s is None else _jet_add(s, term)
            for jj in range(1, m // 2):
                s = _jet_sub(s, _jet_mul(out[2 * jj]["a"], out[m - 2 * jj]["d"]))
            an1 = _jet_sub(0.5 * _jet_mul(a0, s),
                           _jet_div(bprime, self.h * jat))
            dn1 = _jet_add(0.5 * _jet_mul(d0, s),
                           _jet_div(bprime, self.h * ja))
            out[m] = {"a": an1, "d": dn1}
            prev_a = an1
        return out

    def b_rhs(self, z, bvals):
        """db_n/dz for every odd n at one point."""
        jets = self.jets(z, bvals)
        return {n: complex(jets[n]["b"][1]) for n in self.odd}

    def default_b_init(self, z0):
        """Regularity-forced initial values b_n(z0) = a_{n-1}'(z0)
        atilde(z0) / Q(z0) (the minimal-limit-compatible choice).  The even
        level n-1 only involves lower odd coefficients, so the values are
        determined sequentially."""
        q0 = complex(self.j_q.at(z0)[0])
        if abs(q0) < 1e-300:
            raise DressingError(
                "default initial values need Q(z0) != 0; supply b_init")
        at0 = complex(self.j_at.at(z0)[0])
        init = {}
        bvals = {n: 0.0 for n in self.odd}
        for n in self.odd:
            jets = self.jets(z0, bvals)
            aprev = jets[n - 1]["a"] if n > 1 else jets[0]["a"]
            init[n] = complex(aprev[1]) * at0 / q0
            bvals[n] = init[n]
        return init


def wu_recursion(a, atilde, Q, h, K=6, path=None, b_init=None,
                 nsteps=200) -> DressingCoeffs:
    """Integrate the gauge-coefficient recursion along a path from the
    basepoint.

    ``path`` is (z0, z1, nsamples) or an array of sample points starting at
    z0 (default: the segment z0=0 to 1 with ``nsteps`` samples).  The
    linear ODEs for the odd coefficients are advanced jointly by
    fourth-order steps; even coefficients are algebraic in the jets.
    ``b_init`` overrides the regularity-forced initial values.

    Requires h != 0 and Q nonvanishing along the path (the basepoint may be
    a simple root if explicit ``b_init`` is given).
    """
    if h == 0:
        raise DressingError("use h_independent_dressing for the h = 0 gauge")
    a = a if isinstance(a, ex.ExprNode) else ex.parse(a)
    atilde = atilde if isinstance(atilde, ex.ExprNode) else ex.parse(atilde)
    Q = Q if isinstance(Q, ex.ExprNode) else ex.parse(Q)
    if path is None:
        path = (0j, 1.0 + 0j, nsteps)
    if isinstance(path, tuple):
        z0, z1, ns = path
        zs = np.linspace(complex(z0), complex(z1), int(ns))
    else:
        zs = np.asarray(path, dtype=complex)
    sys_ = _WuSystem(a, atilde, Q, float(h), int(K))
    z0 = complex(zs[0])
    if b_init is None:
        b_init = sys_.default_b_init(z0)
    else:
        b_init = {int(n): complex(v) for n, v in b_init.items()}
        for n in sys_.odd:
            b_init.setdefault(n, 0.0)
    qs = ex.evaluate(Q, zs)
    if not np.all(np.isfinite(qs)) or np.min(np.abs(qs[1:])) < 1e-12:
        raise DressingError("Q must be nonvanishing along the path")

    odd = sys_.odd
    bvals = {n: b_init[n] for n in odd}
    rows = {n: {"b": [], "c": []} for n in odd}
    evens = {n: {"a": [], "d": []} for n in range(0, K + 1, 2)}

    def record(z, bv):
        jets = sys_.jets(z, bv)
        for n in odd:
            rows[n]["b"].append(jets[n]["b"][0])
            rows[n]["c"].append(jets[n]["c"][0])
        for n in evens:
            if n in jets:
                evens[n]["a"].append(jets[n]["a"][0])
                evens[n]["d"].append(jets[n]["d"][0])

    record(z0, bvals)
    for t in range(len(zs) - 1):
        za, zb = complex(zs[t]), complex(zs[t + 1])
        dz = zb - za

        def rhs(z, bv):
            return sys_.b_rhs(z, bv)

        k1 = rhs(za, bvals)
        k2 = rhs(za + dz / 2, {n: bvals[n] + dz / 2 * k1[n] for n in odd})
        k3 = rhs(za + dz / 2, {n: bvals[n] + dz / 2 * k2[n] for n in odd})
        k4 = rhs(zb, {n: bvals[n] + dz * k3[n] for n in odd})
        bvals = {n: bvals[n] + dz / 6 * (k1[n] + 2 * k2[n] + 2 * k3[n] + k4[n])
                 for n in odd}
        record(zb, bvals)

    values = {}
    for n in evens:
        if evens[n]["a"]:
            values[n] = {"a": np.array(evens[n]["a"]),
                         "d": np.array(evens[n]["d"])}
    for n in odd:
        values[n] = {"b": np.array(rows[n]["b"]),
                     "c": np.array(rows[n]["c"])}
    return DressingCoeffs(z=zs, h=float(h), K=int(K), values=values,
                          b_init=b_init, a_expr=a, atilde_expr=atilde,
                          Q_expr=Q)


def relation_residuals(coeffs: DressingCoeffs, sample_stride=10) -> dict:
    """Plug the computed coefficients back into every recursion relation and
    report the max absolute residuals (keys: 'a0', 'b{n}', 'c{n}', 'a2',
    'd2', 'a{n}', 'd{n}')."""
    sys_ = _WuSystem(coeffs.a_expr, coeffs.atilde_expr, coeffs.Q_expr,
                     coeffs.h, coeffs.K)
    odd = sys_.odd
    out = {}
    idxs = range(0, len(coeffs.z), sample_stride)
    for t in idxs:
        z = complex(coeffs.z[t])
        bv = {n: complex(coeffs.values[n]["b"][t]) for n in odd}
        jets = sys_.jets(z, bv)
        ja = sys_.j_a.at(z)
        jat = sys_.j_at.at(z)
        jq = sys_.j_q.at(z)
        a0 = jets[0]["a"]
        _acc(out, "a0", abs(a0[0] ** 2 - ja[0] / jat[0]) +
             abs(a0[0] * jets[0]["d"][0] - 1.0))
        lograt = ja[1] / ja[0] + jat[1] / jat[0]
        for n in odd:
            bj = jets[n]["b"]
            cj = jets[n]["c"]
            aprev = jets[n - 1]["a"] if n > 1 else a0
            lhs = 2 * jq[0] * bj[1] + bj[0] * (jq[1] - lograt * jq[0])
            rhs = (aprev[2] - aprev[1] * ja[1] / ja[0]) * jat[0]
            _acc(out, f"b{n}", abs(lhs - rhs))
            crhs = (2.0 / coeffs.h) * (-bj[0] * jq[0] / (ja[0] * jat[0])
                                       + aprev[1] / ja[0])
            _acc(out, f"c{n}", abs(cj[0] - crhs))
            m = n + 1
            if m > coeffs.K or m not in jets:
                continue
            if m == 2:
                arhs = 0.5 * a0[0] * bj[0] * cj[0] - bj[1] / (coeffs.h * jat[0])
                drhs = 0.5 * jets[0]["d"][0] * bj[0] * cj[0] \
                    + bj[1] / (coeffs.h * ja[0])
            else:
                s = sum(jets[2 * jj + 1]["b"][0] * jets[m - 2 * jj - 1]["c"][0]
                        for jj in range(m // 2))
                s2 = sum(jets[2 * jj]["a"][0] * jets[m - 2 * jj]["d"][0]
                         for jj in range(1, m // 2))
                arhs = 0.5 * a0[0] * (s - s2) - bj[1] / (coeffs.h * jat[0])
                drhs = 0.5 * jets[0]["d"][0] * (s - s2) + bj[1] / (coeffs.h * ja[0])
            _acc(out, f"a{m}", abs(jets[m]["a"][0] - arhs))
            _acc(out, f"d{m}", abs(jets[m]["d"][0] - drhs))
    return out


def _acc(d, k, v):
    d[k] = max(d.get(k, 0.0), float(v))


def gauge_ode_residual(coeffs: DressingCoeffs, sample_stride=10) -> float:
    """First-principles check: the reconstructed gauge must satisfy
    dW = W etatilde_z - eta_z W coefficientwise.  Returns the max residual
    over sampled points and powers up to K."""
    sys_ = _WuSystem(coeffs.a_expr, coeffs.atilde_expr, coeffs.Q_expr,
                     coeffs.h, coeffs.K)
    odd = sys_.odd
    worst = 0.0
    for t in range(0, len(coeffs.z), sample_stride):
        z = complex(coeffs.z[t])
        bv = {n: complex(coeffs.values[n]["b"][t]) for n in odd}
        jets = sys_.jets(z, bv)
        ja = sys_.j_a.at(z)[0]
        jat = sys_.j_at.at(z)[0]
        jq = sys_.j_q.at(z)[0]
        K = coeffs.K
        a_j = {n: jets[n]["a"] for n in jets if "a" in jets[n]}
        d_j = {n: jets[n]["d"] for n in jets if "d" in jets[n]}
        b_j = {n: jets[n]["b"] for n in odd}
        c_j = {n: jets[n]["c"] for n in odd}
        # A' = (Q/at) B + (h/2) a C  at each even power; etc.
        for m in range(0, K + 1):
            if m % 2 == 0 and m in a_j:
                bn = b_j.get(m + 1)
                cn = c_j.get(m + 1)
                if bn is not None:
                    worst = max(worst, abs(a_j[m][1] - (jq / jat) * bn[0]
                                           - 0.5 * coeffs.h * ja * cn[0]))
                    worst = max(worst, abs(d_j[m][1] + 0.5 * coeffs.h * jat * cn[0]
                                           + (jq / ja) * bn[0]))
            if m % 2 == 1 and m in b_j:
                an = a_j.get(m + 1)
                dn = d_j.get(m + 1)
                if an is not None:
                    worst = max(worst, abs(b_j[m][1] - 0.5 * coeffs.h
                                           * (ja * dn[0] - jat * an[0])))
                    worst = max(worst, abs(c_j[m][1] - jq * (dn[0] / jat
                                                             - an[0] / ja)))
    return worst


# ---------------------------------------------------------------------------
# Dressing frames and surfaces

def _left_multiply(h_plus: LoopMat, fg: FrameGrid) -> FrameGrid:
    hp = h_plus.trim(0.0)
    return FrameGrid(lo=fg.lo + hp.lo, coeffs=conv(hp.coeffs, fg.coeffs),
                     ok=fg.ok, grid=fg.grid, ntrunc=fg.ntrunc,
                     tail_bound=fg.tail_bound,
                     meta={**fg.meta, "dressed": True})


def dress_frame(h_plus: LoopMat, fg: FrameGrid,
                options: SurfaceOptions | None = None) -> FrameGrid:
    """Unitary parts of the pointwise factorization of h_plus times the
    frames; factorization failures mark nodes invalid.

    ``fg`` may hold holomorphic frames or already-unitary frames (repeated
    dressing); the group law dress(h2, dress(h1, .)) = dress(h2 h1, .)
    holds up to factorization accuracy either way.
    """
    opts = options or SurfaceOptions()
    if check_membership(h_plus, "plus") > 1e-10:
        raise DressingError("dressing element must be a plus loop")
    pf = _left_multiply(h_plus, fg)
    ny, nx = pf.coeffs.shape[:2]
    flat = pf.coeffs.reshape(ny * nx, -1, 2, 2)
    out_co = None
    out_lo = None
    ok_all = np.zeros(ny * nx, dtype=bool)
    max_resid = 0.0
    for sel, out, good in _factor_chunks(pf.lo, flat, fg.ok.reshape(-1), opts):
        if out_co is None:
            out_lo = out["f_lo"]
            out_co = np.zeros((ny * nx,) + out["f"].shape[1:], dtype=complex)
        need = out["f"].shape[1]
        if need > out_co.shape[1]:
            pad = np.zeros((ny * nx, need - out_co.shape[1], 2, 2), complex)
            out_co = np.concatenate([out_co, pad], axis=1)
        out_co[sel, :need] = out["f"][:, :out_co.shape[1]]
        ok_all[sel] = good
        max_resid = max(max_resid, float(np.max(out["residual"][good],
                                                initial=0.0)))
    return FrameGrid(lo=out_lo, coeffs=out_co.reshape(ny, nx, -1, 2, 2),
                     ok=ok_all.reshape(ny, nx) & fg.ok, grid=fg.grid,
                     ntrunc=fg.ntrunc, tail_bound=fg.tail_bound,
                     meta={**fg.meta, "dressed": True, "unitary": True,
                           "max_iwasawa_residual": max_resid})


def dress_surface(h_plus: LoopMat, p: PotentialSpec, grid: DomainGrid,
                  options: SurfaceOptions | None = None) -> SurfaceMesh:
    """Surface of the dressed frames h_plus * Phi.

    The product is again holomorphic in z with the same logarithmic
    derivative as Phi, so the standard assembly (pointwise factorization,
    Sym-Bobenko, frame tangents) applies unchanged."""
    opts = options or SurfaceOptions()
    if p.h == 0:
        raise DressingError("dressing acts on frames of nonzero mean curvature")
    if check_membership(h_plus, "plus") > 1e-10:
        raise DressingError("dressing element must be a plus loop")
    fg = integrate_frame(p, grid, options=opts)
    return _assemble_mesh(p, _left_multiply(h_plus, fg), opts)
