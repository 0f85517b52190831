"""Conversions between classical Weierstrass data and normalized potentials,
order validation at zeros/poles, and deformation families.

For data (mu, nu) with mu(z0) = 1 and nu(z0) = 0 the potential of the
constant-mean-curvature h deformation is off-diagonal (-h mu, -nu_z) at
power -1; otherwise the general form applies:

    upper = -h mu Gamma0 (conj(nu0) nu + 1)^2,
    lower = -nu_z / (Gamma0 (conj(nu0) nu + 1)^2),
    Gamma0 = conj(mu0) / (|mu0| (|nu0|^2 + 1)),

together with the initial unitary frame built from the data at z0.  The
inverse direction recovers (mu, nu) from (a, Q): with the frame known the
inversion is exact; without it, the basepoint-normalized choice
mu = a/2, nu = -int Q/a (real a(z0)) or its fourth-root-normalized variant
is returned.

Deformation families start from one of two carriers: classical data
(mu, nu) as a ``WeierstrassData``, which is the minimal member itself, or a
normalized potential (a, Q) as a ``PotentialSpec``.  :func:`member` is the
one place that turns either into the data of the CMC-h member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .frames import PotentialSpec, SurfaceOptions, surface_from_potential
from .grid import DomainGrid
from .mesh import SurfaceMesh
from .weier import WeierstrassData, InvalidDataError, initial_frame

__all__ = [
    "minimal_to_potential", "potential_to_minimal", "limit_member_data",
    "validate_orders", "OrderReport", "PointClassification", "member",
    "family",
]


# ---------------------------------------------------------------------------
# Weierstrass data -> normalized potential

def minimal_to_potential(w: WeierstrassData, h: float) -> PotentialSpec:
    """Normalized potential of the CMC-h member of the family through the
    minimal surface with data ``w`` (kept just as valid at h = 0, where the
    potential degenerates to the minimal one).
    """
    mu0, nu0 = w.mu0, w.nu0
    if not np.isfinite(mu0) or abs(mu0) < 1e-300:
        raise InvalidDataError("mu must be finite and nonzero at the basepoint")
    nu_z = ex.diff(w.nu)
    gamma0 = np.conj(mu0) / (abs(mu0) * (abs(nu0) ** 2 + 1.0))
    q = ex.Const(-2.0) * w.mu * nu_z
    if nu0 == 0 and abs(gamma0 - 1.0) < 1e-15:
        # normalized data: upper -h mu, lower -nu_z
        a = ex.Const(2.0) * w.mu
    else:
        shape = ex.Const(gamma0) * (ex.Const(np.conj(nu0)) * w.nu + 1) ** 2
        a = ex.Const(2.0) * w.mu * shape
    e0 = initial_frame(w)
    return PotentialSpec(h=float(h), z0=w.z0, a=a, Q=q, E0=e0)


# ---------------------------------------------------------------------------
# Normalized potential -> Weierstrass data

def limit_member_data(p: PotentialSpec) -> WeierstrassData:
    """Weierstrass data of the h = 0 member tangent to the loop-group
    family built from ``p`` with its stored initial frame: the frame enters
    as a Moebius action on the primitive q = int_{z0} Q/a."""
    e0 = p.initial_frame()
    a0c = complex(ex.evaluate(p.a, p.z0))
    if not np.isfinite(a0c) or a0c == 0:
        raise InvalidDataError("a must be finite and nonzero at the basepoint")
    q = ex.primitive(ex.Div(p.Q, p.a), p.z0)
    A0, B0 = e0[0, 0], e0[0, 1]
    if abs(B0) < 1e-15 and abs(A0 - 1.0) < 1e-15:
        # nu = -q, mu = a/2
        return WeierstrassData(ex.Const(0.5) * p.a, ex.Neg(q), p.z0)
    # general initial frame: nu = (conj(B0) - conj(A0) q)/(A0 + B0 q),
    # mu = (a/2) (A0 + B0 q)^2
    nu = (ex.Const(-np.conj(A0)) * q + ex.Const(np.conj(B0))) \
        / (ex.Const(B0) * q + ex.Const(A0))
    mu = ex.Const(0.5) * p.a * (ex.Const(A0) + ex.Const(B0) * q) ** 2
    return WeierstrassData(mu, nu, p.z0)


def potential_to_minimal(a, Q, z0=0j, E0=None) -> WeierstrassData:
    """Weierstrass data of the minimal member for normalized data (a, Q).

    With an initial frame ``E0`` the inversion is exact (round trips
    through :func:`minimal_to_potential` reproduce the data).  Without it,
    a real a(z0) yields the basepoint-normalized mu = a/2,
    nu = -int Q/a; a non-real a(z0) is normalized by the principal fourth
    root so that mu(z0) > 0 (the leftover phase is a rigid rotation).
    """
    a = ex.as_expr(a)
    Q = ex.as_expr(Q)
    z0 = complex(z0)
    a0 = complex(ex.evaluate(a, z0))
    if not np.isfinite(a0) or a0 == 0:
        raise InvalidDataError("a(z0) must be finite and nonzero")
    if E0 is not None or abs(a0.imag) <= 1e-12 * abs(a0):
        return limit_member_data(PotentialSpec(h=0.0, z0=z0, a=a, Q=Q, E0=E0))
    # |a0| e^{i phi}: bar A0 = e^{i phi / 2} from the principal fourth root
    bar_a0 = (a0 / np.conj(a0)) ** 0.25
    nu = ex.Const(-bar_a0 ** 2) * ex.primitive(ex.Div(Q, a), z0)
    mu = ex.Const(0.5 / bar_a0 ** 2) * a
    return WeierstrassData(mu, nu, z0)


# ---------------------------------------------------------------------------
# Zero/pole order validation

@dataclass
class PointClassification:
    z: complex
    ord_a: int | None
    ord_q: int | None
    tag: str              # a-holo-nonzero | thm-case-1 | thm-case-2 |
    #                       branch-point | invalid | indeterminate
    valid: bool
    r: int | None = None
    sigma_star: bool = False
    residual: float = 0.0


@dataclass
class OrderReport:
    points: list


def _find_r(target_ord_q, base, max_r=64):
    """Smallest r >= 1 with target = base/(2r) - 2 or (base+2)/(2r) - 2."""
    for r in range(1, max_r + 1):
        for num in (base, base + 2):
            if num % (2 * r) == 0 and num // (2 * r) - 2 == target_ord_q:
                return r
    return None


def classify_point(ord_a, ord_q):
    """Case analysis of the zero/pole order conditions for (a, Q)."""
    if ord_a is None or (ord_a != 0 and ord_q is None):
        return "indeterminate", False, None, False
    if ord_a == 0:
        return "a-holo-nonzero", True, None, True
    if ord_a > 0:
        if ord_q >= ord_a:
            # potential entries holomorphic but the surface branches
            return "branch-point", False, None, False
        r = _find_r(ord_q, ord_a)
        if r is not None:
            sigma = 2 * ord_q == ord_a - 2  # second condition with r = 1
            return "thm-case-2", True, r, sigma
        return "invalid", False, None, False
    # ord_a < 0
    if ord_a == -2:
        return "thm-case-1", True, None, False
    r = _find_r(ord_q, -ord_a)
    if r is not None:
        return "thm-case-1", True, r, False
    return "invalid", False, None, False


def validate_orders(a, Q, points, radius=1e-3) -> OrderReport:
    """Classify sample points by the zero/pole orders of (a, Q).

    Orders come from the two-circle exponent fit; an ambiguous fit
    propagates as an indeterminate classification rather than a guess.
    """
    a = ex.as_expr(a)
    Q = ex.as_expr(Q)
    out = []
    for z in points:
        z = complex(z)
        ra = ex.order_at(a, z, radius=radius)
        rq = ex.order_at(Q, z, radius=radius)
        tag, valid, r, sigma = classify_point(ra.order, rq.order)
        out.append(PointClassification(
            z=z, ord_a=ra.order, ord_q=rq.order, tag=tag, valid=valid, r=r,
            sigma_star=sigma, residual=max(ra.residual, rq.residual)))
    return OrderReport(out)


# ---------------------------------------------------------------------------
# Deformation families

def member(data, h):
    """Data of the CMC-h member of the family through ``data``: classical
    data unchanged at h = 0 and as their potential otherwise; a potential
    with its ``h`` replaced."""
    if isinstance(data, WeierstrassData):
        return data if h == 0 else minimal_to_potential(data, h)
    return data.with_h(h)


def family(data, h_list, grid: DomainGrid,
           options: SurfaceOptions | None = None) -> list[SurfaceMesh]:
    """One mesh per h, all tangent at the basepoint with f(z0) = 0.

    ``data`` is either WeierstrassData or a normalized PotentialSpec whose
    ``h`` field is ignored in favor of ``h_list``.
    """
    return [surface_from_potential(member(data, h), grid, options)
            for h in h_list]
