"""Named example data sets with pinned grids and deformation parameters.

Each entry reproduces one of the classical families: the round sphere from
plane data, the catenoid and helicoid families, Enneper surfaces and their
constant-mean-curvature companions (Smyth surfaces), a potential with an
order-5 rotational symmetry, and Kusner's projective-plane minimal surface.
Grids shrink for large mean curvature, where the surface wraps a sphere of
radius 1/h and only a small disc around the basepoint is informative.

Each entry keeps its data in one carrier, ``GalleryEntry.data``: classical
data (mu, nu) as a ``WeierstrassData``, or a normalized potential (a, Q) as
a ``PotentialSpec`` (order5).  ``convert.member`` gives the member at each
h, and the basepoint is ``data.z0``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import expr as ex
from .frames import PotentialSpec
from .grid import DomainGrid
from .weier import WeierstrassData

__all__ = ["GalleryEntry", "GALLERY", "get_entry", "entry_names"]


@dataclass
class GalleryEntry:
    name: str
    description: str
    h_list: tuple
    data: WeierstrassData | PotentialSpec
    grids: tuple = ()              # ((hmin, hmax, half, n), ...) first match
    symmetry: tuple = None         # ("rotational", n) | ("reflective",)
    expect_symmetry_pass: bool = True

    def grid_for(self, h) -> DomainGrid:
        for hmin, hmax, half, n in self.grids:
            if hmin <= abs(h) <= hmax:
                return DomainGrid.square(half, n, self.data.z0)
        hmin, hmax, half, n = self.grids[-1]
        return DomainGrid.square(half, n, self.data.z0)


def _potential(a, p):
    """Normalized data from a and the lower potential entry p = Q/a."""
    a = ex.parse(a)
    return PotentialSpec(h=0.0, a=a, Q=ex.Mul(a, ex.parse(p)))


GALLERY = {
    "sphere": GalleryEntry(
        name="sphere",
        description="plane data; the CMC h member is a round sphere of radius 1/h",
        data=WeierstrassData("1", "0"),
        h_list=(1.0,),
        grids=((0.0, 1e9, 1.0, 61),),
    ),
    "catenoid": GalleryEntry(
        name="catenoid",
        description="catenoid family, basepoint on the waist",
        data=WeierstrassData("-exp(-z)/2", "-exp(z)"),
        h_list=(1e-10, 0.1, 10.0),
        grids=((5.0, 1e9, 0.15, 41), (0.0, 5.0, 1.0, 41)),
        symmetry=("reflective",),
    ),
    "helicoid": GalleryEntry(
        name="helicoid",
        description="helicoid family (catenoid data with mu times i)",
        data=WeierstrassData("-i*exp(-z)/2", "-exp(z)"),
        h_list=(1e-10, 0.1, 5.0),
        grids=((4.0, 1e9, 0.2, 41), (0.0, 4.0, 1.0, 41)),
        symmetry=("reflective",),
        expect_symmetry_pass=False,
    ),
    "enneper": GalleryEntry(
        name="enneper",
        description="Enneper surface of order k (minimal member only)",
        data=WeierstrassData("1", "z^2"),
        h_list=(0.0,),
        grids=((0.0, 1e9, 1.0, 41),),
        symmetry=("rotational", 3),
    ),
    "smyth": GalleryEntry(
        name="smyth",
        description="CMC companions of Enneper order k ((k+1)-legged surfaces)",
        data=WeierstrassData("1", "z^2"),
        h_list=(1e-8, 1.0),
        grids=((0.0, 1e9, 0.9, 61),),
        symmetry=("rotational", 3),
    ),
    "order5": GalleryEntry(
        name="order5",
        description="potential with an order-5 rotational symmetry",
        data=_potential("5.1 + 1.5*z^5 + 0.35*z^10", "1.25*z^3 + 4.15*z^8"),
        h_list=(1e-8, 2.0),
        grids=((0.0, 1e9, 0.4, 51),),
        symmetry=("rotational", 5),
    ),
    "kusner": GalleryEntry(
        name="kusner",
        description="Kusner's minimal surface and its CMC companions",
        data=WeierstrassData(
            "i*(sqrt(5)*z^3+1)^2/(z^6+sqrt(5)*z^3-1)^2",
            "z^2*(z^3-sqrt(5))/(sqrt(5)*z^3+1)"),
        h_list=(1.0,),
        grids=((0.0, 1e9, 0.3, 41),),
        symmetry=("rotational", 3),
    ),
}

ALIASES = {
    "plane": "sphere",
    "catenoid-family": "catenoid",
    "helicoid-family": "helicoid",
}


def entry_names():
    return sorted(GALLERY) + sorted(ALIASES)


def get_entry(name, k=None) -> GalleryEntry:
    """Gallery entry by name; ``k`` re-parameterizes the Enneper-type
    entries (data nu = z^k, rotation order k+1)."""
    key = ALIASES.get(name, name)
    if key not in GALLERY:
        raise KeyError(f"unknown gallery entry {name!r}; "
                       f"choose from {', '.join(entry_names())}")
    entry = GALLERY[key]
    if k is not None and key in ("enneper", "smyth"):
        entry = replace(entry, data=replace(entry.data, nu=f"z^{int(k)}"),
                        symmetry=("rotational", int(k) + 1))
    return entry
