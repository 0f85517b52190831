"""Truncated Laurent-polynomial loops of 2x2 matrices.

A :class:`LoopMat` stores coefficients of powers ``lo .. lo+nk-1`` of the
circle parameter as a ``(nk, 2, 2)`` complex array.  The twisting convention
throughout: diagonal entries live at even powers, off-diagonal entries at
odd powers.  Values are immutable by convention; all operations are pure
and return fresh objects.

Products are truncated to a configurable window; the largest discarded
coefficient norm is tracked on the result (``truncation_discard``) and an
overflow beyond tolerance raises :class:`WindowOverflowError`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LoopMat", "WindowOverflowError", "LoopError", "identity", "constant",
    "hat_extend", "mul", "eval_lambda", "lambda_derivative_at", "star",
    "inverse", "det_series", "check_membership", "to_text", "from_text",
    "E1", "E2", "E3", "su2_to_vec", "matrix_cvec", "inv2", "DEFAULT_MAXDEG",
    "CIRCLE_SAMPLES", "circle_points",
]

DEFAULT_MAXDEG = 16
CIRCLE_SAMPLES = 64

# su(2) basis, orthonormal for <X,Y> = -Trace(XY)/2
E1 = np.array([[0, -1j], [-1j, 0]], dtype=complex)
E2 = np.array([[0, 1], [-1, 0]], dtype=complex)
E3 = np.array([[1j, 0], [0, -1j]], dtype=complex)


class LoopError(ValueError):
    pass


class WindowOverflowError(LoopError):
    pass


class LoopMat:
    """2x2 matrix of truncated Laurent polynomials.

    Attributes
    ----------
    lo : int
        Lowest power carried.
    coeffs : (nk, 2, 2) complex ndarray
        Coefficient of power ``lo + k`` at index ``k``.
    truncation_discard : float
        Largest coefficient norm discarded by the operation that produced
        this value (0.0 when nothing was lost).
    """

    __slots__ = ("lo", "coeffs", "truncation_discard")

    def __init__(self, lo, coeffs, truncation_discard=0.0):
        self.lo = int(lo)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1:] != (2, 2):
            raise LoopError("coeffs must have shape (nk, 2, 2)")
        self.truncation_discard = float(truncation_discard)

    @property
    def hi(self):
        return self.lo + self.coeffs.shape[0] - 1

    @property
    def powers(self):
        return range(self.lo, self.hi + 1)

    def coeff(self, k):
        """Coefficient matrix of power k (zero outside the window)."""
        if self.lo <= k <= self.hi:
            return self.coeffs[k - self.lo].copy()
        return np.zeros((2, 2), dtype=complex)

    def trim(self, tol=0.0):
        """Drop leading/trailing coefficient blocks of max-norm <= tol."""
        norms = np.max(np.abs(self.coeffs), axis=(1, 2))
        nz = np.nonzero(norms > tol)[0]
        if len(nz) == 0:
            return LoopMat(0, np.zeros((1, 2, 2), dtype=complex),
                           self.truncation_discard)
        a, b = int(nz[0]), int(nz[-1])
        return LoopMat(self.lo + a, self.coeffs[a:b + 1].copy(),
                       self.truncation_discard)

    def window(self, lo, hi, discard_tol=None):
        """Restrict to powers lo..hi, recording what was discarded."""
        nk = hi - lo + 1
        out = np.zeros((nk, 2, 2), dtype=complex)
        a = max(self.lo, lo)
        b = min(self.hi, hi)
        discarded = 0.0
        if a <= b:
            out[a - lo:b - lo + 1] = self.coeffs[a - self.lo:b - self.lo + 1]
        for k in self.powers:
            if k < lo or k > hi:
                discarded = max(discarded, float(np.max(np.abs(self.coeff(k)))))
        if discard_tol is not None and discarded > discard_tol:
            raise WindowOverflowError(
                f"truncation to [{lo},{hi}] discards norm {discarded:.3e}")
        return LoopMat(lo, out, max(self.truncation_discard, discarded))

    def __repr__(self):
        return f"<LoopMat powers {self.lo}..{self.hi}>"


def identity():
    return LoopMat(0, np.eye(2, dtype=complex)[None, :, :])


def constant(m):
    """Constant loop from a 2x2 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise LoopError("constant loop needs a 2x2 matrix")
    return LoopMat(0, m[None, :, :])


def hat_extend(e0) -> LoopMat:
    """Twisted extension of a unitary unit-determinant initial condition:
    diagonal stays at power 0, the upper-right entry moves to power +1 and
    the lower-left to power -1."""
    e0 = np.asarray(e0, dtype=complex)
    if e0.shape != (2, 2):
        raise LoopError("initial condition must be 2x2")
    if np.max(np.abs(e0 @ e0.conj().T - np.eye(2))) > 1e-8:
        raise LoopError("initial condition must be unitary")
    if abs(np.linalg.det(e0) - 1.0) > 1e-8:
        raise LoopError("initial condition must have determinant 1")
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[0, 1, 0] = e0[1, 0]          # power -1
    coeffs[1, 0, 0] = e0[0, 0]          # power 0
    coeffs[1, 1, 1] = e0[1, 1]
    coeffs[2, 0, 1] = e0[0, 1]          # power +1
    return LoopMat(-1, coeffs).trim()


def mul(a: LoopMat, b: LoopMat, maxdeg=None, discard_tol=1e-9) -> LoopMat:
    """Cauchy product, truncated to |power| <= maxdeg (default module-wide
    DEFAULT_MAXDEG, or wide enough for the inputs if they already exceed
    it).  Raises WindowOverflowError if truncation would discard more than
    ``discard_tol``."""
    lo = a.lo + b.lo
    hi = a.hi + b.hi
    nk = hi - lo + 1
    out = np.zeros((nk, 2, 2), dtype=complex)
    for ka in range(a.coeffs.shape[0]):
        # one shifted block-row of the convolution at a time
        out[ka:ka + b.coeffs.shape[0]] += np.einsum(
            "ij,kjl->kil", a.coeffs[ka], b.coeffs)
    prod = LoopMat(lo, out)
    if maxdeg is None:
        maxdeg = max(DEFAULT_MAXDEG, abs(a.lo), abs(a.hi), abs(b.lo), abs(b.hi))
    if lo < -maxdeg or hi > maxdeg:
        prod = prod.window(max(lo, -maxdeg), min(hi, maxdeg), discard_tol)
    return prod.trim(0.0)


def eval_lambda(a: LoopMat, lam) -> np.ndarray:
    """Sum of coeff[k] * lam**k."""
    lam = complex(lam)
    pows = lam ** np.arange(a.lo, a.hi + 1)
    return np.einsum("k,kij->ij", pows, a.coeffs)


def lambda_derivative_at(a: LoopMat, lam) -> np.ndarray:
    """d/dlambda at lam: sum of k * coeff[k] * lam**(k-1)."""
    lam = complex(lam)
    ks = np.arange(a.lo, a.hi + 1)
    pows = np.array([k * lam ** (k - 1) if k != 0 else 0.0 for k in ks])
    return np.einsum("k,kij->ij", pows, a.coeffs)


def star(a: LoopMat) -> LoopMat:
    """Adjoint loop: on the unit circle this is the pointwise conjugate
    transpose (power k goes to -k, matrix transposed-conjugated)."""
    return LoopMat(-a.hi, np.conj(np.transpose(a.coeffs[::-1], (0, 2, 1))),
                   a.truncation_discard)


def _scalar_conv(u, v):
    return np.convolve(u, v)


def det_series(a: LoopMat):
    """Determinant as a scalar Laurent series: (lo, coeffs)."""
    c = a.coeffs
    d = _scalar_conv(c[:, 0, 0], c[:, 1, 1]) - _scalar_conv(c[:, 0, 1], c[:, 1, 0])
    return 2 * a.lo, d


def inverse(a: LoopMat, maxdeg=None, unitary_tol=None) -> LoopMat:
    """Inverse loop.

    If ``unitary_tol`` is given and the loop is unitary within it, the
    adjoint loop is returned (exact).  Otherwise the inverse is
    adj(a)/det(a) with 1/det expanded as a truncated Neumann series around
    the lowest determinant coefficient; the discarded series tail is
    recorded on the result.  This is intended for loops whose determinant
    is dominated by a single power (plus/minus loops, frames near the
    identity).
    """
    if unitary_tol is not None and check_membership(a, "unitary") <= unitary_tol:
        return star(a)
    dlo, d = det_series(a)
    lead = int(np.argmax(np.abs(d) > 1e-14 * max(1.0, np.max(np.abs(d)))))
    d0 = d[lead]
    if abs(d0) < 1e-300:
        raise LoopError("determinant numerically zero; cannot invert")
    # 1/det = lam^-(dlo+lead)/d0 * 1/(1 + eps(lam)),  eps strictly higher order
    eps = d[lead + 1:] / d0
    if maxdeg is None:
        maxdeg = max(DEFAULT_MAXDEG, abs(a.lo) + abs(a.hi) + 8)
    nterms = maxdeg + 1
    inv = np.zeros(nterms, dtype=complex)
    inv[0] = 1.0
    # Neumann series: sum (-eps)^m, exact once eps is nilpotent in the window
    acc = np.zeros(nterms, dtype=complex)
    acc[0] = 1.0
    discard = 0.0
    for _ in range(nterms):
        nxt = -np.convolve(acc, eps)
        if len(nxt) > nterms:
            discard = max(discard, float(np.max(np.abs(nxt[nterms:]), initial=0.0)))
        acc = nxt[:nterms]
        if not np.any(np.abs(acc) > 1e-18):
            break
        inv[:len(acc)] += acc
    inv /= d0
    # adjugate
    adj = np.empty_like(a.coeffs)
    adj[:, 0, 0] = a.coeffs[:, 1, 1]
    adj[:, 1, 1] = a.coeffs[:, 0, 0]
    adj[:, 0, 1] = -a.coeffs[:, 0, 1]
    adj[:, 1, 0] = -a.coeffs[:, 1, 0]
    adj_loop = LoopMat(a.lo, adj)
    out = np.zeros((adj_loop.coeffs.shape[0] + nterms - 1, 2, 2), dtype=complex)
    for k in range(nterms):
        if inv[k] != 0:
            out[k:k + adj_loop.coeffs.shape[0]] += inv[k] * adj_loop.coeffs
    res = LoopMat(a.lo - (dlo + lead), out, discard).trim(1e-18)
    return res


def circle_points(n=CIRCLE_SAMPLES):
    return np.exp(2j * np.pi * np.arange(n) / n)


def _eval_many(a: LoopMat, lams):
    pows = lams[:, None] ** np.arange(a.lo, a.hi + 1)[None, :]
    return np.einsum("sk,kij->sij", pows, a.coeffs)


def check_membership(a: LoopMat, which: str, samples=CIRCLE_SAMPLES) -> float:
    """Residual of membership in a loop-group subset; 0 means member.

    which:
      'twisted'    parity: diagonal even, off-diagonal odd powers
      'unitary'    F F* = I on sampled circle points
      'plus'       no negative powers
      'minus-star' no positive powers and power-0 coefficient = I
      'plus-P'     'plus' and power-0 coefficient diag(rho, 1/rho), rho > 0
    """
    if which == "twisted":
        resid = 0.0
        for k in a.powers:
            c = a.coeff(k)
            if k % 2 == 0:
                resid = max(resid, abs(c[0, 1]), abs(c[1, 0]))
            else:
                resid = max(resid, abs(c[0, 0]), abs(c[1, 1]))
        return float(resid)
    if which == "unitary":
        lams = circle_points(samples)
        vals = _eval_many(a, lams)
        gram = np.einsum("sij,skj->sik", vals, np.conj(vals))
        return float(np.max(np.abs(gram - np.eye(2)[None, :, :])))
    if which == "plus":
        return float(max((np.max(np.abs(a.coeff(k))) for k in a.powers if k < 0),
                         default=0.0))
    if which == "minus-star":
        pos = max((np.max(np.abs(a.coeff(k))) for k in a.powers if k > 0),
                  default=0.0)
        return float(max(pos, np.max(np.abs(a.coeff(0) - np.eye(2)))))
    if which == "plus-P":
        neg = check_membership(a, "plus")
        c0 = a.coeff(0)
        rho = c0[0, 0].real
        if rho <= 0:
            return float("inf")
        target = np.diag([rho, 1.0 / rho]).astype(complex)
        return float(max(neg, np.max(np.abs(c0 - target))))
    raise ValueError(f"unknown membership {which!r}")


# ---------------------------------------------------------------------------
# su(2) <-> R^3

def su2_to_vec(x):
    """Components of an su(2) matrix in the (E1, E2, E3) basis."""
    x = np.asarray(x)
    return np.stack([-x[..., 0, 1].imag, x[..., 0, 1].real, x[..., 0, 0].imag],
                    axis=-1)


def matrix_cvec(m):
    """Complex-bilinear components -Trace(M Ei)/2 of an arbitrary 2x2 matrix
    (used for complexified tangent vectors)."""
    m = np.asarray(m)
    c1 = 0.5j * (m[..., 0, 1] + m[..., 1, 0])
    c2 = 0.5 * (m[..., 0, 1] - m[..., 1, 0])
    c3 = -0.5j * (m[..., 0, 0] - m[..., 1, 1])
    return np.stack([c1, c2, c3], axis=-1)


def inv2(m):
    """Inverses of a stack of 2x2 matrices, in closed form."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    inv = np.empty_like(m)
    inv[..., 0, 0] = m[..., 1, 1]
    inv[..., 1, 1] = m[..., 0, 0]
    inv[..., 0, 1] = -m[..., 0, 1]
    inv[..., 1, 0] = -m[..., 1, 0]
    return inv / det[..., None, None]


# ---------------------------------------------------------------------------
# Debug serialization: one record per power, row-major complex pairs.

def to_text(a: LoopMat) -> str:
    lines = [f"loopmat lo={a.lo} hi={a.hi}"]
    for k in a.powers:
        c = a.coeff(k)
        vals = " ".join(f"({v.real:.17g},{v.imag:.17g})" for v in c.ravel())
        lines.append(f"p={k}: {vals}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> LoopMat:
    import re as _re
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = _re.match(r"loopmat lo=(-?\d+) hi=(-?\d+)", lines[0])
    if not head:
        raise LoopError("bad loopmat header")
    lo, hi = int(head.group(1)), int(head.group(2))
    coeffs = np.zeros((hi - lo + 1, 2, 2), dtype=complex)
    for ln in lines[1:]:
        m = _re.match(r"p=(-?\d+): (.*)", ln)
        if not m:
            raise LoopError(f"bad loopmat record: {ln!r}")
        k = int(m.group(1))
        pairs = _re.findall(r"\(([^,]+),([^)]+)\)", m.group(2))
        if len(pairs) != 4:
            raise LoopError(f"bad loopmat record: {ln!r}")
        vals = np.array([complex(float(re_), float(im)) for re_, im in pairs])
        coeffs[k - lo] = vals.reshape(2, 2)
    return LoopMat(lo, coeffs)
