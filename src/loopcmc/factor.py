"""Numerical Iwasawa factorization of twisted loops.

Iwasawa: a loop X with unit determinant splits as X = F B with F unitary on
the circle and B extending holomorphically into the disc, normalized so
B(0) = diag(rho, 1/rho) with rho real positive.  The factor B is obtained
as the canonical right spectral factor of the positive loop P = X* X via
Cholesky factorization of a finite block-Toeplitz section (Bauer's method):
the bottom block-row of the Cholesky factor of the section built from the
reversed symbol converges to the factor's coefficients.  For a twisted
loop the section is the direct sum of its two twist-parity halves (a
consequence of the twisting, as in Dorfmeister-Pedit-Wu), each factored
on its own.  The halves come straight from the compact Gram: one
correlation per lag of the ``loops`` layout's slots (``_gram_coeffs``).

The section is sized per node by a convergence check, not by a fixed
margin.  The leading blocks of a Cholesky factor are the factors of the
shorter leading sections (Kailath and Sayed, "Displacement structure",
SIAM Rev. 37, 1995), so block row ncap - 2 of the one factor already gives
B of the section two blocks shorter, and the gap between the two costs
nothing extra.  The section starts at the input band nk plus
MARGIN_START = 2 blocks; the nodes whose gap exceeds GAP_TOL times their
largest input entry are factored again at twice the margin, and so on up to
MARGIN_CAP, where a node still above it comes back ok = False.  The band
nk itself is the caller's: ``frames._factor_chunks`` cuts each node's frame
to the slots outside of which its coefficients sum to at most machine
epsilon of its largest entry, and factors the nodes in band-sorted chunks,
each at the lowest power and band of its own nodes (on the gallery this
takes Smyth h = 1 from 24 slots to a median of 16 and a maximum of 21).

The mesh factors Psi, the holomorphic frame without its initial unitary
loop E0hat (``frames.integrate_frame``): E0hat is unitary on the circle,
so E0hat Psi has the same P = X* X as Psi, the same B, and the unitary
factor E0hat F.  Factoring Psi keeps the two slots E0hat adds out of every
section.

Why the frames stop at the first section: when X is polynomial in
lambda^-1 of degree N with unit determinant, P is a Laurent polynomial of
degree N, its
outer factor B is a polynomial of degree N (matrix Fejer-Riesz), det B = 1
and B^-1 = adj B is one too.  The section is then exact once it holds
about 2N blocks, and exact to rounding far sooner when B's coefficients
decay fast: those of a holomorphic frame are iterated integrals and decay
factorially.  Measured on every pinned gallery member, each node at its
trimmed band, the gap at margin 2 is at most 1.1e-14 of the node's
largest entry (Smyth, h = 1; at most 1.8e-15 on the others), and B at
margin 2 matches B at margin 24 to 9.4e-16.  Loops with slowly decaying
coefficients do need growth: random twisted loops of band 18 whose
coefficients decay by 0.9 per power converge at margin 64 with unitarity
residuals of about 3e-12, where a fixed margin of 8 left residuals up to
15.

The unitary factor F = X B^-1 holds at every point of the circle, so its
values need no series.  B^-1 is read from the same section as B: the last
row of the inverse of the section's Cholesky factor, reversed, is the
inverse of the section's spectral factor (its reversed Szego polynomial),
one back substitution per node (``_inverse_row``).  Measured, this is the
more accurate B^-1: on unit-determinant polynomial loops with |X| up to 13,
F = X B(lambda)^-1 with the computed B inverted point by point is off a
40-digit reference by up to 8.3e-13 (unitarity residual 1.7e-12), and
F = X B^-1 with B^-1 read from the factor by up to 2.8e-13 (5.5e-13),
close to the solved series of F (2.1e-13); on random loops whose
coefficients decay by 0.9 per power, the two differ from that series by up
to 2e-11 and 3e-12.  ``iwasawa_batch`` checks the factorization at the m
points lambda = exp(i pi s/m), s = 0..m-1 (``loops.half_circle_entries``):
their squares are the m-th roots of unity, and X(-lambda) = s X(lambda) s,
s = diag(1, -1), so they give the maxima over 2m points of the circle.  The
mesh reads F and dF/dlambda at one point lambda0 the same way, from X and
B^-1 and their derivatives there.

F's Fourier series is solved (``unitary_loops``) only where the loop F is
itself the output: ``iwasawa`` and the dressed frames of
``dressing.dress_frame``.  X and B are sampled at m roots of unity
(``loops.circle_entries``), F is taken there as X adj B / det B point by
point, and one FFT gives its coefficients.  The m points determine the
coefficients of m consecutive powers up to aliasing from m powers on, so m
doubles while F's truncation test has not passed within the first m/2 of
them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .loops import (LoopMat, circle_entries, half_circle_entries,
                    mul_entries)

__all__ = ["FactorResult", "FactorError", "iwasawa", "iwasawa_batch",
           "unitary_loops"]

# Iwasawa sections start at the input band plus MARGIN_START blocks and
# double their margin while the convergence gap exceeds GAP_TOL, up to
# MARGIN_CAP; the series of the unitary factor keeps at most EXTRA powers
# past the input band and stops at the first below TAIL_TOL; the checks
# sample NSAMPLE points of the circle.
MARGIN_START = 2
MARGIN_CAP = 128
GAP_TOL = 1e-12
EXTRA = 64
TAIL_TOL = 1e-13
NSAMPLE = 32


class FactorError(ArithmeticError):
    pass


@dataclass
class FactorResult:
    unitary_part: LoopMat
    plus_part: LoopMat
    residual: float
    condition: float

    # convenience for Iwasawa results
    @property
    def rho(self):
        return float(self.plus_part.coeff(0)[0, 0].real)


# ---------------------------------------------------------------------------
# Batched core (arrays shaped (n, nk, 2)); LoopMat wrappers below.

def _gram_coeffs(coeffs):
    """G[:, m, r] = (P_m)[r, (r+m) mod 2], m = 0..nk-1, of the lags
    P_m = sum_j X_j^H X_{j+m}; (n, nk, 2).  Column r of X_j and column
    r+m mod 2 of X_{j+m} have their entry in one row, so these are the only
    nonzero entries, each one correlation of compact slots."""
    nk = coeffs.shape[1]
    conj = np.conj(coeffs)
    swapped = coeffs[:, :, ::-1]
    out = np.empty(coeffs.shape, dtype=complex)
    for m in range(nk):
        other = swapped if m % 2 else coeffs
        out[:, m] = np.einsum("njr,njr->nr", conj[:, :nk - m], other[:, m:])
    return out


@functools.lru_cache(maxsize=32)
def _halves_table(band, ncap):
    """(2, ncap+1, ncap+1), read-only: where entry (c, i, j) of the parity
    halves of :func:`_parity_halves` sits in a node's flat source, the
    compact Gram (band+1, 2) raveled, then its conjugate raveled, then one
    zero.  With d = j - i and r = i + c mod 2 the entry is
    (P_d)_{r, r+d mod 2}: Gram entry (d, r) for 0 <= d <= band, the
    conjugate of Gram entry (-d, r-d mod 2) for -band <= d < 0
    (P_{-d} = P_d^H), and zero past the band."""
    nb = band + 1
    i = np.arange(ncap + 1)[:, None]
    d = i.T - i
    r = (i + np.arange(2)[:, None, None]) % 2
    out = np.where(d >= 0, 2 * d + r, 2 * nb - 2 * d + (r - d) % 2)
    out[:, np.abs(d) > band] = 4 * nb
    out.flags.writeable = False
    return out


def _parity_halves(gram, ncap):
    """The two Hermitian halves of the block-Toeplitz section
    T[(i,r),(j,s)] = (P_{j-i})_{rs}, i, j = 0..ncap, of the reversed symbol,
    from the compact Gram ``gram`` (n, band+1, 2) of :func:`_gram_coeffs`.

    For a twisted symbol T vanishes unless i+r = j+s (mod 2), so T is the
    direct sum of the halves c = 0, 1, half c keeping the scalar index
    (i, i+c mod 2) of each block index i; shaped (n, 2, ncap+1, ncap+1),
    one gather from the Gram, its conjugate and a zero by the table of
    :func:`_halves_table`."""
    n, nb = gram.shape[:2]
    flat = gram.reshape(n, 2 * nb)
    src = np.concatenate([flat, np.conj(flat), np.zeros((n, 1))], axis=1)
    return np.take(src, _halves_table(nb - 1, ncap), axis=1)


def _section_cholesky(coeffs, ncap):
    """Cholesky factors of the two parity halves of the section with block
    indices 0..ncap, batched; nodes whose section is not positive definite
    get ok = False (and zeros in the halves that failed)."""
    n = coeffs.shape[0]
    halves = _parity_halves(_gram_coeffs(coeffs), ncap)
    try:
        return np.linalg.cholesky(halves), np.ones(n, dtype=bool)
    except np.linalg.LinAlgError:
        # isolate failures node by node within each half
        chol = np.zeros_like(halves)
        good = np.zeros((n, 2), dtype=bool)
        for idx in np.ndindex(n, 2):
            try:
                chol[idx] = np.linalg.cholesky(halves[idx])
                good[idx] = True
            except np.linalg.LinAlgError:
                pass
        return chol, good.all(axis=1)


def _row_factor(chol, row):
    """B_0..B_row from block row ``row`` of the sections' factor: reversed,
    C_k = L[row, row-k] has its entry (r, r+k mod 2) in half row+r mod 2,
    and B_k = C_k^H.  The leading blocks of a Cholesky factor are the
    factors of the leading sections, so row < ncap gives the spectral
    factor of the section ncap - row blocks shorter."""
    return _row_loop(chol[:, :, row, :row + 1])


def _row_loop(rows):
    """The plus loop read from the last rows ``rows`` (n, 2, row+1) of
    the two halves' triangular factors, as :func:`_row_factor` reads it:
    column r of the coefficients is half row + r mod 2, reversed."""
    row = rows.shape[2] - 1
    halves = rows[:, ::-1] if row % 2 else rows
    return np.conj(np.swapaxes(halves, 1, 2)[:, ::-1])


def _inverse_row(chol):
    """The last rows of the inverses of the factors ``chol`` (..., N, N),
    by back substitution: row u with u L = e_N^T, so u_N = 1 / L_NN and
    u_k = -sum_{j>k} u_j L_jk / L_kk.  Read by :func:`_row_loop` it gives
    the inverse of the section's spectral factor (the reversed Szego
    polynomial of the section)."""
    n = chol.shape[-1]
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    u = np.zeros(chol.shape[:-1], dtype=complex)
    u[..., n - 1] = 1.0 / diag[..., n - 1]
    for k in range(n - 2, -1, -1):
        u[..., k] = -np.einsum("...j,...j->...", chol[..., k + 1:, k],
                               u[..., k + 1:]) / diag[..., k]
    return u


def _condition(chol):
    """Condition estimate (max/min of the factor's diagonal)^2."""
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return (np.max(diag, axis=(1, 2)) / np.min(diag, axis=(1, 2))) ** 2


def _converged_factor(coeffs):
    """Spectral factors from the shortest sections that pass the
    convergence check, and their inverses, batched.

    The section starts at nk + MARGIN_START blocks.  Block row ncap - 2 of
    the same factor gives B of the section two blocks shorter, so the gap
    between the two costs no second factorization.  Nodes whose gap exceeds
    ``GAP_TOL`` times their largest input entry are factored again at
    twice the margin, up to MARGIN_CAP; a node still above it there gets
    ok = False.  B^-1 is read from the last row of the inverse of the same
    factor (:func:`_inverse_row`).  Returns (bcoef, binv, ok, cond,
    section): bcoef and binv padded with zero coefficients to the longest
    section used (the identity where ok is False) and section the number
    of blocks of each node's last section."""
    n, nk = coeffs.shape[:2]
    scale = np.max(np.abs(coeffs), axis=(1, 2))
    ok = np.zeros(n, dtype=bool)
    cond = np.full(n, np.inf)
    section = np.zeros(n, dtype=int)
    parts = []
    todo = np.arange(n)
    margin = MARGIN_START
    while todo.size:
        ncap = nk - 1 + margin
        chol, pd = _section_cholesky(coeffs[todo], ncap)
        # B of rows ncap and ncap - 2 read from the same halves: entry j of
        # row ncap is coefficient ncap - j, entry j - 2 of row ncap - 2 is
        # the same coefficient of the shorter section, and the shorter
        # section has no coefficients ncap - 1 and ncap
        gap = np.maximum(
            np.max(np.abs(chol[:, :, ncap, 2:] - chol[:, :, ncap - 2, :-2]),
                   axis=(1, 2)),
            np.max(np.abs(chol[:, :, ncap, :2]), axis=(1, 2)))
        conv = pd & (gap <= GAP_TOL * scale[todo])
        done = conv | ~pd | (margin >= MARGIN_CAP)
        ok[todo[conv]] = True
        section[todo[done]] = ncap + 1
        if conv.any():
            good = chol if conv.all() else chol[conv]
            cond[todo[conv]] = _condition(good)
            parts.append((todo[conv], _row_factor(good, ncap),
                          _row_loop(_inverse_row(good))))
        todo = todo[~done]
        margin *= 2
    length = max((b.shape[1] for _, b, _ in parts), default=1)
    bcoef = np.zeros((n, length, 2), dtype=complex)
    binv = np.zeros((n, length, 2), dtype=complex)
    bcoef[~ok, 0] = binv[~ok, 0] = 1.0
    for idx, b, g in parts:
        bcoef[idx, :b.shape[1]] = b
        binv[idx, :g.shape[1]] = g
    return bcoef, binv, ok, cond, section


def _gram_defect(v, w=None):
    """Per node, max |V* V - W* W| over the sampled values ``v`` and ``w``
    (2, 2, m, n), entry-first; ``w`` None stands for W* W = I.  The real
    diagonal and entry (0, 1) of the Hermitian V* V give every modulus."""
    def herm(u):
        sq = u.real ** 2 + u.imag ** 2
        return (sq[0] + sq[1],
                np.conj(u[0, 0]) * u[0, 1] + np.conj(u[1, 0]) * u[1, 1])
    (dv, ov), (dw, ow) = herm(v), (1.0, 0.0) if w is None else herm(w)
    return np.maximum(np.max(np.abs(dv - dw), axis=(0, 1)),
                      np.max(np.abs(ov - ow), axis=0))


def unitary_loops(lo, coeffs, b):
    """The unitary factors F = X B^-1 of the loops ``coeffs`` (n, nk, 2)
    with lowest power ``lo`` and plus factors ``b`` (powers 0..), as
    coefficients (n, nf, 2) from power ``lo``, with their reconstruction
    residual max |F B - X| and unitarity residual max |F F* - I| over
    ``NSAMPLE`` points of the circle, one of each per node.

    For callers whose output is the loop F itself (``iwasawa``,
    ``dressing.dress_frame``); the mesh needs F only at one point and
    takes it from X and B^-1 there.  X and B are sampled at m roots of
    unity (:func:`loops.circle_entries`), F = X adj B / det B is formed
    there entry-first (:func:`loops.mul_entries`), and one FFT of F's
    column sums (1, 1) F gives its compact coefficients, so F comes back
    exactly twisted.  The series of F decays geometrically (the plus
    factor is invertible in the disc).  Its coefficients run past the
    input band until one falls below ``TAIL_TOL`` relative to the input
    scale, capped at ``nk + EXTRA``.  m starts at twice the power of two
    above the length of ``b``; the m points fix the coefficients of m
    consecutive powers up to aliasing from m powers on, so m doubles while
    the tail test has not passed within the first m/2 of them.  The
    residuals sample the ``NSAMPLE // 2`` points of the upper half circle
    that give the maxima over ``NSAMPLE`` points of the circle, the
    unitarity residual from the entries of F F* in closed form
    (:func:`_gram_defect`).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    nk = coeffs.shape[1]
    nf = nk + EXTRA
    scale = max(float(np.max(np.abs(coeffs))), 1.0)
    m = 2 << b.shape[1].bit_length()
    while True:
        bv = circle_entries(b, 0, m)
        det = bv[0, 0] * bv[1, 1] - bv[0, 1] * bv[1, 0]
        binv = np.array([[bv[1, 1], -bv[0, 1]], [-bv[1, 0], bv[0, 0]]]) / det
        fv = mul_entries(circle_entries(coeffs, lo, m), binv)
        # FFT of (1, 1) F: slot k holds the powers congruent to k mod m
        f = np.fft.fft(fv[0] + fv[1], axis=1, norm="forward")
        f = np.roll(f, -lo, axis=1)[:, :min(m // 2, nf)]
        small = np.max(np.abs(f[:, nk:]), axis=(0, 2)) < TAIL_TOL * scale
        if small.any() or m // 2 >= nf:
            break
        m *= 2
    used = nk + int(np.argmax(small)) + 1 if small.any() else nf
    f = np.ascontiguousarray(f[:, :used].transpose(2, 1, 0))
    ms = NSAMPLE // 2
    fv = half_circle_entries(f, lo, ms)
    resid = np.max(np.abs(mul_entries(fv, half_circle_entries(b, 0, ms))
                          - half_circle_entries(coeffs, lo, ms)),
                   axis=(0, 1, 2))
    # F F* - I is the conjugate of (F^T)* F^T - I
    return f, resid, _gram_defect(fv.swapaxes(0, 1))


def iwasawa_batch(lo, coeffs):
    """Batched Iwasawa factorization of twisted loops given as compact
    coefficient arrays: the plus factor B and its inverse as compact
    coefficients, and the checks of X = F B at sampled circle points, with
    F = X B^-1 taken point by point.

    The plus factor comes from the shortest Toeplitz section that passes
    the convergence check of the module docstring: nk + 2 blocks, grown
    by doubling the margin only at the nodes whose gap between the factors
    of block rows ncap and ncap - 2 is above ``GAP_TOL`` relative to their
    largest input entry, up to a margin of ``MARGIN_CAP``; a node still
    above it there comes back ok = False.  B^-1 comes from the same
    section's factor (:func:`_inverse_row`).  X, B and B^-1 are sampled
    once each at the ``NSAMPLE // 2`` points of the upper half circle that
    give the maxima over ``NSAMPLE`` points of the circle, one array per
    entry over points and nodes (``loops.half_circle_entries``), and the
    residuals come from the entries of X* X, B* B and F F* in closed form.
    F's coefficients are not computed: callers that need the loop F pass
    ``b`` to :func:`unitary_loops`.

    Parameters
    ----------
    lo : int
        Lowest power of the input loops.
    coeffs : (n, nk, 2) complex ndarray, the ``loops`` layout

    Returns a dict with the plus factor b and its inverse binv (n, nb, 2,
    powers 0..), rho, per node the Bauer residual max |X*X - B*B| / max(1,
    max |X|)^2 and the unitarity residual max |F F* - I| of
    F = X binv (both maxima over the sampled points), ok flags, condition
    estimates and the number of blocks of the section each node was
    factored at.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.shape[0]
    bcoef, binv, ok, cond, section = _converged_factor(coeffs)
    ms = NSAMPLE // 2
    x = half_circle_entries(coeffs, lo, ms)
    bg = half_circle_entries(np.concatenate([bcoef, binv]), 0, ms)
    size = np.maximum(np.max(np.abs(x), axis=(0, 1, 2)), 1.0)
    resid = _gram_defect(x, bg[..., :n]) / size ** 2
    # F F* - I is the conjugate of (F^T)* F^T - I
    unit = _gram_defect(mul_entries(x, bg[..., n:]).swapaxes(0, 1))
    rho = bcoef[:, 0, 0].real
    return {"b": bcoef, "binv": binv, "rho": rho,
            "residual": resid, "unitary_residual": unit,
            "ok": ok, "condition": cond, "section": section}


def iwasawa(phi: LoopMat) -> FactorResult:
    """Iwasawa decomposition phi = F B (F unitary loop, B plus-loop with
    B(0) = diag(rho, 1/rho), rho > 0); the residual is F's reconstruction
    residual max |F B - phi| on the circle.

    Raises FactorError when the Gram section is not positive definite
    (the input is not an invertible loop at this truncation) or the
    section does not converge by ``MARGIN_CAP``.
    """
    phi = phi.trim(0.0)
    out = iwasawa_batch(phi.lo, phi.coeffs[None])
    if not out["ok"][0]:
        raise FactorError("Gram section not positive definite or not "
                          "converged")
    f, resid, _ = unitary_loops(phi.lo, phi.coeffs[None], out["b"])
    return FactorResult(unitary_part=LoopMat(phi.lo, f[0]).trim(1e-300),
                        plus_part=LoopMat(0, out["b"][0]).trim(1e-300),
                        residual=float(resid[0]),
                        condition=float(out["condition"][0]))
