import numpy as np
import pytest

from loopcmc.grid import Chain, DomainGrid, bfs_tree
from loopcmc.weier import WeierstrassData


CATENOID_MU = "-exp(-z)/2"
CATENOID_NU = "-exp(z)"
HELICOID_MU = "-i*exp(-z)/2"
KUSNER_MU = "i*(sqrt(5)*z^3+1)^2/(z^6+sqrt(5)*z^3-1)^2"
KUSNER_NU = "z^2*(z^3-sqrt(5))/(sqrt(5)*z^3+1)"
ORDER5_A = "5.1 + 1.5*z^5 + 0.35*z^10"
ORDER5_P = "1.25*z^3 + 4.15*z^8"


@pytest.fixture
def catenoid():
    return WeierstrassData(CATENOID_MU, CATENOID_NU, 0j)


@pytest.fixture
def helicoid():
    return WeierstrassData(HELICOID_MU, CATENOID_NU, 0j)


def enneper(k):
    return WeierstrassData("1", f"z^{k}", 0j)


def walk_edges(mask, j0, i0):
    """A reference for ``grid.walk``, one edge at a time, built node by
    node: the (parent, node) pairs of flat node indices in the walk's edge
    order, and the mask of the nodes the walk reaches.

    Every node but the basepoint first takes the last edge of its
    row-first path: along the basepoint row east, then west, then down and
    then up the columns, one row at a time.  Each valid node whose
    row-first path crosses an invalid node, and that ``bfs_tree`` reaches,
    then takes its edge from its tree parent, in the tree's visit order.
    The last edge into a node ends its path; the nodes reached are the
    valid ones whose row-first path is clear, and the rerouted ones."""
    ny, nx = mask.shape

    def clear(j, i):
        # the row-first path from the basepoint to (j, i) crosses no
        # invalid node
        return all(mask[j0, k] for k in range(min(i0, i), max(i0, i) + 1)) \
            and all(mask[k, i] for k in range(min(j0, j), max(j0, j) + 1))

    edges = [((j0, i - 1), (j0, i)) for i in range(i0 + 1, nx)]
    edges += [((j0, i + 1), (j0, i)) for i in range(i0 - 1, -1, -1)]
    edges += [((j - 1, i), (j, i)) for j in range(j0 + 1, ny)
              for i in range(nx)]
    edges += [((j + 1, i), (j, i)) for j in range(j0 - 1, -1, -1)
              for i in range(nx)]
    reached = np.zeros((ny, nx), dtype=bool)
    for j, i in np.ndindex(ny, nx):
        reached[j, i] = bool(mask[j, i]) and clear(j, i)
    for src, dst in bfs_tree(mask, j0, i0):
        if not clear(*dst):
            edges.append((src, dst))
            reached[dst] = True
    return [(a * nx + b, c * nx + d) for (a, b), (c, d) in edges], reached


def walk_paths(mask, j0, i0):
    """{node: its path}, the flat indices of the edges' ends from the
    basepoint to the node, for each node ``walk_edges`` reaches."""
    edges, reached = walk_edges(mask, j0, i0)
    parent = {node: src for src, node in edges}
    paths = {}
    for node in np.flatnonzero(reached).tolist():
        path = [node]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        paths[node] = path[::-1]
    return paths


def one_edge_walk(g):
    """``walk_edges`` of the grid ``g`` as ``DomainGrid.walk`` returns a
    walk: one chain of one step per edge, in the same edge order."""
    edges, reached = walk_edges(g.mask, g.j0, g.i0)
    return [Chain(np.array([a]), np.array([[b]]), 2)
            for a, b in edges], reached


def max_l1_pathlength(grid):
    """The longest |dx| + |dy| from the basepoint to a node of ``grid``."""
    return float(np.max(np.abs(grid.xs - grid.z0.real))
                 + np.max(np.abs(grid.ys - grid.z0.imag)))


@pytest.fixture
def grid21():
    return DomainGrid.square(1.0, 21)


@pytest.fixture
def grid41():
    return DomainGrid.square(1.0, 41)


def catenoid_oracle(grid):
    """Closed form of the catenoid mesh produced by the package conventions
    (antiderivative of the Weierstrass integrand, f(0) = 0):
    f = (2(cosh x cos y - 1), -2 cosh x sin y, -2x)."""
    zz = grid.zz
    x, y = zz.real, zz.imag
    return np.stack([2 * (np.cosh(x) * np.cos(y) - 1),
                     -2 * np.cosh(x) * np.sin(y),
                     -2 * x], axis=-1)


def sphere_oracle(grid, h):
    """Closed form of the plane-data CMC mesh: the sphere of radius 1/h
    through the origin, f = 2/(1 + h^2 |z|^2) (x, y, h |z|^2)."""
    zz = grid.zz
    n2 = 1.0 / (1.0 + (h * np.abs(zz)) ** 2)
    return np.stack([2 * n2 * zz.real, 2 * n2 * zz.imag,
                     2 * h * n2 * np.abs(zz) ** 2], axis=-1)


def _twist_index(lo, nk):
    """(slot, row, column) index arrays, each (nk, 2), of the entries a
    twisted stack with lowest power ``lo`` can make nonzero: the entry of
    column c at power lo + k sits in row (lo + k + c) mod 2."""
    k = np.arange(nk)[:, None]
    c = np.arange(2)[None, :]
    return k, (lo + k + c) % 2, c


def compact(dense, lo):
    """The compact coefficients (..., nk, 2) of the twisted dense stack
    ``dense`` (..., nk, 2, 2) with lowest power ``lo`` (the library's
    layout; its off-twist entries are dropped)."""
    dense = np.asarray(dense, dtype=complex)
    return dense[(...,) + _twist_index(lo, dense.shape[-3])]


def expand(coeffs, lo):
    """The dense stack (..., nk, 2, 2) of the compact coefficients
    ``coeffs`` (..., nk, 2) with lowest power ``lo``."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros(coeffs.shape + (2,), dtype=complex)
    out[(...,) + _twist_index(lo, coeffs.shape[-2])] = coeffs
    return out


def dense_values(coeffs, lo, lams):
    """Values (..., m, 2, 2) of the compact loops ``coeffs`` (..., nk, 2)
    with lowest power ``lo`` at the points ``lams`` (m,), summed over their
    dense form."""
    ks = lo + np.arange(np.shape(coeffs)[-2])
    pows = np.reshape(np.asarray(lams, dtype=complex), (-1, 1)) ** ks
    return np.einsum("sk,...kij->...sij", pows, expand(coeffs, lo))


def unitary_gap(coeffs, lo, m=64):
    """max |F F* - I| of the compact loops ``coeffs`` (..., nk, 2) with
    lowest power ``lo`` over the m-th roots of unity, from dense values."""
    f = dense_values(coeffs, lo, np.exp(2j * np.pi * np.arange(m) / m))
    return np.max(np.abs(f @ np.conj(np.swapaxes(f, -1, -2)) - np.eye(2)))


def off_twist(dense, lo):
    """Mask (nk, 2, 2) of the entries of a dense stack with lowest power
    ``lo`` that a twisted loop leaves zero."""
    power = lo + np.arange(np.shape(dense)[-3])[:, None, None]
    return (power + np.arange(2)[:, None] + np.arange(2)) % 2 == 1


def dense_loop(dense, lo):
    """A LoopMat from a twisted dense stack (nk, 2, 2)."""
    from loopcmc.loops import LoopMat
    return LoopMat(lo, compact(dense, lo))


def rand_twisted_loop(rng, band=4, scale=0.05):
    """Identity plus a random twisted perturbation over the given band
    (determinant is close to, but not exactly, one)."""
    c = np.zeros((2 * band + 1, 2, 2), dtype=complex)
    for k in range(-band, band + 1):
        m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * scale
        if k % 2 == 0:
            m[0, 1] = m[1, 0] = 0
        else:
            m[0, 0] = m[1, 1] = 0
        c[k + band] = m
    c[band] += np.eye(2)
    return dense_loop(c, -band)


def rand_unimodular_twisted(rng, band=4, scale=0.05):
    """Random twisted loop with determinant exactly one: a product of
    elementary triangular loops with entries at odd powers."""
    from loopcmc.loops import mul
    out = None
    for k in range(-band, band + 1):
        if k % 2 == 0:
            continue
        for slot in ((0, 1), (1, 0)):
            c = np.zeros((abs(k) * 2 + 1, 2, 2), dtype=complex)
            c[abs(k)] = np.eye(2)
            c[k + abs(k)][slot] = scale * (rng.normal() + 1j * rng.normal())
            elem = dense_loop(c, -abs(k)).trim()
            out = elem if out is None else mul(out, elem)
    return out


def gallery_exprs():
    """Expression texts used across the example gallery."""
    return [
        "z^2", "-exp(-z)/2", "-exp(z)", "exp(z)", "1", "z^3",
        ORDER5_A, ORDER5_P, KUSNER_MU, KUSNER_NU,
        "(1+0.1*z)^2", "2+z",
    ]
