"""Rectangular sampling grids on a domain in the complex plane.

A :class:`DomainGrid` is a rectangular node lattice with a per-node validity
mask.  The basepoint must be an unmasked node.  :func:`walk` gives the one
set of paths from the basepoint that the frame and Weierstrass integrators
share, as chains (:class:`Chain`), runs of steps that each continue the
nodes the one before reached: the basepoint row east and west, the columns
down and up, whole rows a step, then breadth-first around masked nodes,
one chain per tree depth, for the valid nodes those cut off.
:func:`chain_sums` accumulates values along them, one cumulative sum (or
maximum) per chain: the integrators' edge integrals, the paths' lengths.

A grid and a mask that are their own mirror images about the basepoint
row, or column, admit a reflection through the basepoint
(:func:`reflections`); the integrators decide from their node values
whether their data keep it (:func:`matches`), then integrate the
fundamental domain only (:func:`fundamental_domain`), fill every other
node from its partner (:func:`image_blocks`) and check the fill
(:func:`mirror_deviation`); no other module counts from the basepoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["DomainGrid", "GridError", "walk", "bfs_tree", "Chain",
           "chain_ends", "chain_sums", "reflections", "matches",
           "fundamental_domain", "image_blocks", "mirror_deviation"]


class GridError(ValueError):
    pass


@dataclass
class DomainGrid:
    xs: np.ndarray
    ys: np.ndarray
    i0: int
    j0: int
    mask: np.ndarray = field(default=None)  # (ny, nx) True = valid

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.mask is None:
            self.mask = np.ones((self.ny, self.nx), dtype=bool)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (self.ny, self.nx):
            raise GridError("mask shape does not match grid")
        if not self.mask[self.j0, self.i0]:
            raise GridError("basepoint node is masked")

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, xmin, xmax, nx, ymin, ymax, ny, z0=0j):
        """Uniform grid; ``z0`` must land on a node (within 1e-9 of spacing)."""
        xs = np.linspace(xmin, xmax, nx)
        ys = np.linspace(ymin, ymax, ny)
        i0 = int(np.argmin(np.abs(xs - z0.real)))
        j0 = int(np.argmin(np.abs(ys - z0.imag)))
        dx = xs[1] - xs[0] if nx > 1 else 1.0
        dy = ys[1] - ys[0] if ny > 1 else 1.0
        if abs(xs[i0] - z0.real) > 1e-9 * abs(dx) or abs(ys[j0] - z0.imag) > 1e-9 * abs(dy):
            raise GridError(f"basepoint {z0} is not a grid node")
        return cls(xs, ys, i0, j0)

    @classmethod
    def square(cls, half, n, z0=0j):
        """Square grid [-half, half]^2 around the origin (odd n keeps 0 on a
        node), shifted so that it contains ``z0``."""
        return cls.make(z0.real - half, z0.real + half, n,
                        z0.imag - half, z0.imag + half, n, z0)

    # -- basic geometry ------------------------------------------------------

    @property
    def nx(self):
        return len(self.xs)

    @property
    def ny(self):
        return len(self.ys)

    @property
    def z0(self):
        return complex(self.xs[self.i0], self.ys[self.j0])

    @property
    def zz(self):
        return self.xs[None, :] + 1j * self.ys[:, None]

    @property
    def dx(self):
        return float(self.xs[1] - self.xs[0]) if self.nx > 1 else 0.0

    @property
    def dy(self):
        return float(self.ys[1] - self.ys[0]) if self.ny > 1 else 0.0

    def node(self, j, i):
        return complex(self.xs[i], self.ys[j])

    def index_of(self, z, tol=1e-9):
        i = int(np.argmin(np.abs(self.xs - z.real)))
        j = int(np.argmin(np.abs(self.ys - z.imag)))
        scale = max(abs(self.dx), abs(self.dy), 1e-30)
        if abs(self.xs[i] - z.real) > tol * scale or abs(self.ys[j] - z.imag) > tol * scale:
            raise GridError(f"{z} is not a grid node")
        return j, i

    def interior(self, ring=1):
        """Mask of nodes whose full (2*ring+1)-square neighborhood is valid."""
        return _erode(self.mask, ring, outside=False)

    def with_mask(self, mask):
        return DomainGrid(self.xs, self.ys, self.i0, self.j0, mask)

    def walk(self):
        """:func:`walk` over this grid's nodes and mask."""
        return walk(self.mask, self.j0, self.i0)


def row_first_blocked(mask, j0, i0):
    """Valid nodes whose row-first path from the basepoint crosses an
    invalid node (they need breadth-first rerouting)."""
    bad = ~mask
    rowbad = np.zeros(mask.shape[1], dtype=bool)
    rowbad[i0:] = np.cumsum(bad[j0, i0:]) > 0
    rowbad[:i0 + 1] |= (np.cumsum(bad[j0, i0::-1]) > 0)[::-1]
    colbad = np.zeros_like(bad)
    colbad[j0:, :] = np.cumsum(bad[j0:, :], axis=0) > 0
    colbad[:j0 + 1, :] |= (np.cumsum(bad[j0::-1, :], axis=0) > 0)[::-1, :]
    return mask & (rowbad[None, :] | colbad)


# breadth-first neighbour order (dj, di): E, W, N, S
_NEIGHBOURS = np.array([(0, 1), (0, -1), (1, 0), (-1, 0)])


def bfs_depths(mask, j0, i0):
    """Breadth-first search of the valid nodes of ``mask`` from the
    basepoint, one depth at a time: yields ``(parents, nodes)`` per depth
    1, 2, ..., flat node indices in visit order.  Neighbours are taken in
    E, W, N, S order, so a node's parent is the first node of the depth
    above, in visit order, that has it as a valid neighbour: the queue
    search's tree and order, each depth as one array operation.  A caller
    that needs only some nodes stops iterating once it has them."""
    ny, nx = mask.shape
    seen = ~np.asarray(mask, dtype=bool).ravel()
    frontier = np.array([j0 * nx + i0])
    seen[frontier] = True
    while len(frontier):
        j = frontier[:, None] // nx + _NEIGHBOURS[:, 0]
        i = frontier[:, None] % nx + _NEIGHBOURS[:, 1]
        inside = ((j >= 0) & (j < ny) & (i >= 0) & (i < nx)).ravel()
        cand = (j * nx + i).ravel()[inside]
        parents = np.repeat(frontier, len(_NEIGHBOURS))[inside]
        fresh = ~seen[cand]
        cand, parents = cand[fresh], parents[fresh]
        first = np.sort(np.unique(cand, return_index=True)[1])
        frontier = cand[first]
        seen[frontier] = True
        if len(frontier):
            yield parents[first], frontier


def bfs_tree(mask, j0, i0):
    """Breadth-first spanning tree of the valid nodes from the basepoint;
    returns a list of ((jfrom, ifrom), (jto, ito)) steps in visit order.
    Deterministic: neighbors in E, W, N, S order."""
    nx = mask.shape[1]
    return [(divmod(int(p), nx), divmod(int(n), nx))
            for parents, nodes in bfs_depths(mask, j0, i0)
            for p, n in zip(parents, nodes)]


class Chain(NamedTuple):
    """Consecutive steps of a walk, each continuing the nodes the one
    before reached: ``seed`` (n,) holds the flat indices of the nodes the
    first step starts from, ``nodes`` (d, n) those the d steps reach, row k
    from row k - 1 (from ``seed`` for k = 0).  ``phase`` is where the steps
    come from: 0 along the basepoint line one node a step, 1 whole lines a
    step, 2 one reroute step."""
    seed: np.ndarray
    nodes: np.ndarray
    phase: int


def walk(mask, j0, i0):
    """The chains (:class:`Chain`) that carry values from the basepoint
    (j0, i0) to the valid nodes of ``mask`` (ny, nx), and the mask of the
    nodes they reach.

    The chains come in this order, a side with no node left out: the
    basepoint row east, then west, from the basepoint one node a step
    (phase 0); the columns down, then up, from row ``j0`` one whole row a
    step (phase 1).  So every node is reached along its row-first path.
    Valid nodes whose row-first path crosses an invalid node are then
    reached along the breadth-first tree of ``mask``, one chain of one step
    per tree depth (phase 2): ``seed`` holds the parents and ``nodes`` the
    nodes at that depth, in visit order.  A node's parent is one depth up,
    or reached by the lattice chains, so it holds its value before the
    node's chain runs.  Invalid nodes, and valid ones no path of valid
    nodes reaches, are not reached.  The chains' edges, chain by chain and
    each chain's ``nodes`` in C order, are the walk's edges in the order
    :func:`chain_ends` and :func:`chain_sums` take them.  The column-first
    walk is ``walk(mask.T, i0, j0)`` with every flat index taken to the
    untransposed lattice and the reached mask transposed.
    """
    ny, nx = mask.shape
    index = np.arange(ny * nx).reshape(ny, nx)
    base = index[j0, i0:i0 + 1]
    lattice = [(base, index[j0, i0 + 1:, None], 0),
               (base, index[j0, :i0][::-1, None], 0),
               (index[j0], index[j0 + 1:], 1),
               (index[j0], index[:j0][::-1], 1)]
    chains = [Chain(*c) for c in lattice if len(c[1])]
    blocked = row_first_blocked(mask, j0, i0)
    reached = mask & ~blocked
    left = np.count_nonzero(blocked)
    if left:
        # the search stops at the depth of the last blocked node it meets
        want = blocked.ravel()
        for parents, nodes in bfs_depths(mask, j0, i0):
            sel = want[nodes]
            if not sel.any():
                continue
            chains.append(Chain(parents[sel], nodes[sel][None], 2))
            reached.flat[nodes[sel]] = True
            left -= np.count_nonzero(sel)
            if not left:
                break
    return chains, reached


def chain_ends(chains):
    """The flat node indices at the starts and at the ends of the edges of
    ``chains``, in their edge order."""
    empty = [np.zeros(0, dtype=int)]
    start = np.concatenate(empty + [
        np.concatenate([c.seed[None], c.nodes[:-1]]).ravel() for c in chains])
    end = np.concatenate(empty + [c.nodes.ravel() for c in chains])
    return start, end


def chain_sums(chains, edge_vals, vals, op=np.add):
    """Add the values ``edge_vals`` (edges, ...) of the edges of ``chains``,
    in their edge order, along each chain into ``vals`` (nodes, ...), flat
    over the nodes and C-contiguous, in place: a chain's nodes take
    ``op.accumulate`` from its seed's value, so each node adds the edges of
    its path in order, one by one (``np.maximum``: keeps their largest).
    The results are scattered a node at a time as one opaque item (a
    ``np.void`` view of its row), not value by value."""
    if not vals.flags.c_contiguous:
        raise ValueError("chain_sums writes into C-contiguous values only")
    row = np.dtype((np.void, vals.itemsize * math.prod(vals.shape[1:])))
    rows = vals.reshape(len(vals), -1).view(row)[:, 0]
    pos = 0
    for seed, nodes, _ in chains:
        n = nodes.size
        edges = edge_vals[pos:pos + n].reshape(nodes.shape
                                               + edge_vals.shape[1:])
        pos += n
        path = np.empty((len(nodes) + 1,) + edges.shape[1:], vals.dtype)
        path[0], path[1:] = vals[seed], edges
        op.accumulate(path, axis=0, out=path)
        rows[nodes] = path[1:].reshape(nodes.shape + (-1,)).view(row)[..., 0]


def reflections(grid: DomainGrid, mask):
    """The reflections of ``grid`` through its basepoint that the grid and
    ``mask`` (ny, nx) keep, row before column, as ``(axis, sign, half,
    image)``: ``axis`` "row" is z -> zbar about the basepoint row and "col"
    is z -> -zbar about the basepoint column, ``sign`` is the map's
    derivative (1 for the row, -1 for the column), ``half`` indexes the
    nodes of (ny, nx, ...) tables from the basepoint row (column) on and
    ``image`` their mirror images, in the same order.  A relation between
    a node's values and its image's that is its own mirror image holds at
    every node once it holds on ``half``.  A reflection needs the
    basepoint row (column) on the real (imaginary) axis and the
    coordinates and the mask their own mirror images about it, to 1e-12 of
    the spacing, with at least one row (column) to fill: j0 >= 2
    (i0 >= 2).  Whether the data keep it is for the caller to decide from
    their node values."""
    out = []
    j0, i0 = grid.j0, grid.i0
    for axis, coords, c0, step, sign, half, image in (
            ("row", grid.ys, j0, grid.dy, 1.0, (slice(j0, None),),
             (slice(j0, None, -1),)),
            ("col", grid.xs, i0, grid.dx, -1.0,
             (slice(None), slice(i0, None)),
             (slice(None), slice(i0, None, -1)))):
        tol = 1e-12 * abs(step)
        if (c0 >= 2 and len(coords) == 2 * c0 + 1 and abs(coords[c0]) <= tol
                and np.max(np.abs(coords + coords[::-1])) <= tol
                and np.array_equal(mask[half], mask[image])):
            out.append((axis, sign, half, image))
    return out


def matches(values, expected):
    """Whether ``values`` equal ``expected`` to 1e-14 of the largest of
    ``expected``."""
    return bool(np.max(np.abs(values - expected))
                <= 1e-14 * np.max(np.abs(expected)))


def fundamental_domain(grid: DomainGrid, mirror):
    """The fundamental domain of the reflections ``mirror`` (each with an
    ``axis``, "row" or "col"), as ``(own, part)``: ``own`` indexes its
    nodes in (ny, nx) tables, the rows from j0 - 1 on with a row
    reflection and the columns from i0 - 1 on with a column one, and
    ``part`` is the grid over them, with its mask; with no reflection,
    ``grid`` itself."""
    axes = {r.axis for r in mirror}
    top = grid.j0 - 1 if "row" in axes else 0
    left = grid.i0 - 1 if "col" in axes else 0
    own = (slice(top, None), slice(left, None))
    if not mirror:
        return own, grid
    return own, DomainGrid(grid.xs[left:], grid.ys[top:], grid.i0 - left,
                           grid.j0 - top, grid.mask[own])


def image_blocks(mirror, j0, i0):
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


def mirror_deviation(mirror, j0, i0, f, good, image):
    """The largest distance between the positions ``f`` (ny, nx, 3) of row
    j0 - 1 (column i0 - 1) and ``image(r, far)``, (n, 3), those that the
    reflection ``r`` of ``mirror`` maps them to from the nodes ``far``
    (an index pair) of row j0 + 1 (column i0 + 1), over the pairs where
    ``good`` (ny, nx) holds at both, 0.0 with none: both rows lie in the
    fundamental domain, so this checks the fill."""
    worst = 0.0
    for r in mirror:
        if r.axis == "row":
            both = np.flatnonzero(good[j0 - 1] & good[j0 + 1])
            near, far = (j0 - 1, both), (j0 + 1, both)
        else:
            both = np.flatnonzero(good[:, i0 - 1] & good[:, i0 + 1])
            near, far = (both, i0 - 1), (both, i0 + 1)
        worst = max(worst, float(np.max(np.linalg.norm(
            f[near] - image(r, far), axis=-1), initial=0.0)))
    return worst


def _erode(mask, rings, outside):
    """Grow the invalid (False) region of a mask by ``rings`` rings of the
    3x3 neighborhood; nodes beyond the lattice count as ``outside``."""
    m = np.array(mask, dtype=bool)
    for _ in range(rings):
        p = np.pad(m, 1, constant_values=outside)
        m = (p[1:-1, 1:-1] & p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2]
             & p[1:-1, 2:] & p[:-2, :-2] & p[:-2, 2:] & p[2:, :-2] & p[2:, 2:])
    return m
