"""Truncated Laurent-polynomial loops of 2x2 matrices.

Every loop the package builds is twisted (Dorfmeister-Pedit-Wu): diagonal
entries live at even powers and off-diagonal entries at odd powers, so a
coefficient has one entry per column that can be nonzero.  The one
coefficient layout holds just those: a loop is a stack ``(..., nk, 2)`` of
complex numbers with its lowest power ``lo``, slot ``k`` holding the
coefficient of power ``p = lo + k`` column by column, the entry of column
``c`` sitting in row ``(p + c) mod 2``; a slot is the column sums (1, 1) X_p.
A :class:`LoopMat` is one such loop; frame grids and factorization batches
are stacks of them, and 2x2 matrices appear only as point values.  Values
are immutable by convention; all operations are pure and return fresh
objects.

Every loop operation has one batched kernel on coefficient stacks:

* :func:`conv` -- the Cauchy product of one loop with a stack of loops;
* :func:`entries_at` -- values and lambda-derivatives at one lambda or
  at several;
* :func:`circle_entries` -- values at the m-th roots of unity;
* :func:`half_circle_entries` -- values at the upper half of the 2m-th
  roots of unity, which give a twisted loop's maxima over all of them;
* :func:`mul_entries` -- 2x2 products of point values.

Point values have one layout, entry-first and node-last: the values of n
loops at m points are an array (2, 2, m, n), entry (i, j) of every point
and node in one contiguous plane.

The :class:`LoopMat` functions (:func:`mul`, :func:`plus_defect`) are
thin wrappers for single loops; products are exact.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "LoopMat", "LoopError", "identity", "hat_extend", "conv", "entries_at",
    "circle_entries", "half_circle_entries", "mul_entries", "mul",
    "plus_defect",
]

class LoopError(ValueError):
    pass


class LoopMat:
    """2x2 matrix of truncated Laurent polynomials, twisted.

    Attributes
    ----------
    lo : int
        Lowest power carried.
    coeffs : (nk, 2) complex ndarray
        The two nonzero entries of the coefficient of power ``lo + k`` at
        index ``k``, column by column (see the module docstring).
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo, coeffs):
        self.lo = int(lo)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != 2:
            raise LoopError("coeffs must have shape (nk, 2)")

    @property
    def hi(self):
        return self.lo + self.coeffs.shape[0] - 1

    def coeff(self, k):
        """Coefficient matrix of power k (zero outside the window)."""
        out = np.zeros((2, 2), dtype=complex)
        if self.lo <= k <= self.hi:
            out[k % 2, 0], out[1 - k % 2, 1] = self.coeffs[k - self.lo]
        return out

    def trim(self, tol=0.0):
        """Drop leading/trailing coefficients of max-norm <= tol."""
        norms = np.max(np.abs(self.coeffs), axis=1)
        nz = np.nonzero(norms > tol)[0]
        if len(nz) == 0:
            return LoopMat(0, np.zeros((1, 2), dtype=complex))
        a, b = int(nz[0]), int(nz[-1])
        return LoopMat(self.lo + a, self.coeffs[a:b + 1].copy())

    def __repr__(self):
        return f"<LoopMat powers {self.lo}..{self.hi}>"


def identity():
    return LoopMat(0, np.ones((1, 2), dtype=complex))


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
    coeffs = np.array([[e0[1, 0], 0.0],             # power -1
                       [e0[0, 0], e0[1, 1]],        # power 0
                       [0.0, e0[0, 1]]])            # power +1
    return LoopMat(-1, coeffs).trim()


# ---------------------------------------------------------------------------
# Batched kernels on coefficient stacks (..., nk, 2)

def conv(a, b, lo):
    """Cauchy product of the loop ``a`` (na, 2) with every loop of the
    stack ``b`` (..., nb, 2) whose lowest power is ``lo``; the lowest power
    of the result is the sum of the two lowest powers.  All-zero slots of
    ``a`` are skipped.  Column c of A_p B_q is entry (q + c) mod 2 of
    A_p's slot times entry c of B_q's: one product per pair of entries."""
    nb = b.shape[-2]
    # pick[t, c]: which entry of a's slot multiplies column c of b's slot t
    pick = (lo + np.arange(nb)[:, None] + np.arange(2)) % 2
    out = np.zeros(b.shape[:-2] + (a.shape[0] + nb - 1, 2), dtype=complex)
    for k, c in enumerate(a):
        if np.any(c != 0):
            out[..., k:k + nb, :] += c[pick] * b
    return out


def _entry_sums(coeffs, lo, weights):
    """Point values sum_p weights[p - lo, s] X_p of the loops ``coeffs``
    (n, nk, 2) with lowest power ``lo`` at m points, weights (nk, m),
    entry-first: (2, 2, m, n).  Each parity half of the slots meets its
    half of the weights in one matrix product."""
    n, m = coeffs.shape[0], weights.shape[1]
    out = np.empty((2, 2, m, n), dtype=complex)
    for q, first in enumerate((lo % 2, 1 - lo % 2)):    # even, odd powers
        part = coeffs[:, first::2].transpose(1, 2, 0)
        vals = (weights[first::2].T @ part.reshape(part.shape[0], 2 * n)) \
            .reshape(m, 2, n)
        out[q, 0], out[1 - q, 1] = vals[:, 0], vals[:, 1]
    return out


# The weight tables depend only on the shape of a batch, its powers and
# its points, so each is built once per shape and kept, read-only, in a
# bounded cache.

@functools.lru_cache(maxsize=64)
def _lambda_weights(lo, nk, lam):
    """(nk, 2), read-only: the powers lam^p and their derivatives
    p lam^(p-1) of the slots p = lo..lo+nk-1, ``lam`` given as the repr of
    a complex, which keys the cache on the signs of zero parts too."""
    lam = complex(lam)
    ks = lo + np.arange(nk)
    out = np.stack([lam ** ks, [k * lam ** (k - 1) if k != 0 else 0.0
                                for k in ks]], axis=1)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _root_powers(lo, nk, m, n):
    """(nk, m), read-only: lambda_s^p of the slots p = lo..lo+nk-1 at the
    points lambda_s = exp(2 pi i s/n), s = 0..m-1, as exp(2 pi i (s p mod
    n) / n): reduced exponents stay exact."""
    pw = np.outer(lo + np.arange(nk), np.arange(m)) % n
    out = np.exp(2j * np.pi / n * pw)
    out.flags.writeable = False
    return out


def entries_at(coeffs, lo, lam):
    """Values ([..., 0, :]) and lambda-derivatives ([..., 1, :]) at ``lam``
    of the loops ``coeffs`` (n, nk, 2), entry-first: (2, 2, 2, n); at each
    of a sequence of m points ``lam``, (2, 2, m, 2, n), from one sum."""
    out = _entry_sums(coeffs, lo, np.concatenate([_lambda_weights(
        lo, coeffs.shape[1], repr(complex(p))) for p in np.atleast_1d(lam)],
        axis=1))
    return out if np.ndim(lam) == 0 else out.reshape(2, 2, len(lam), 2, -1)


def circle_entries(coeffs, lo, m):
    """Values at the m-th roots of unity exp(2 pi i s/m), s = 0..m-1, of
    the loops ``coeffs`` (n, nk, 2) with lowest power ``lo``, entry-first:
    (2, 2, m, n)."""
    return _entry_sums(coeffs, lo, _root_powers(lo, coeffs.shape[1], m, m))


def half_circle_entries(coeffs, lo, m):
    """Values at lambda = exp(i pi s/m), s = 0..m-1, of the loops
    ``coeffs`` (n, nk, 2) with lowest power ``lo``, entry-first:
    (2, 2, m, n).

    Their squares are the m-th roots of unity, so for a twisted loop,
    X(-lambda) = s X(lambda) s with s = diag(1, -1), these points give
    every entry modulus the loop takes at the 2m-th roots of unity."""
    return _entry_sums(coeffs, lo,
                       _root_powers(lo, coeffs.shape[1], m, 2 * m))


def mul_entries(a, b):
    """2x2 products of point values held entry-first, (2, 2, ...): entry
    (i, j) is a[i, 0] b[0, j] + a[i, 1] b[1, j]."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


# ---------------------------------------------------------------------------
# LoopMat operations

def mul(a: LoopMat, b: LoopMat) -> LoopMat:
    """Exact Cauchy product, trimmed of all-zero end coefficients."""
    return LoopMat(a.lo + b.lo, conv(a.coeffs, b.coeffs, b.lo)).trim(0.0)


def plus_defect(a: LoopMat) -> float:
    """Distance of ``a`` from the plus loops (no negative powers): the
    largest entry of a negative power; 0 means a plus loop."""
    return float(np.max(np.abs(a.coeffs[:max(0, -a.lo)]), initial=0.0))
