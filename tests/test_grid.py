from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopcmc import expr as ex
from loopcmc.grid import (DomainGrid, bfs_tree, chain_ends, chain_sums,
                          row_first_blocked, sweep, walk_chains)
from loopcmc.weier import _cumulative_grid_integral
from conftest import lattice_steps, one_sided_walk


@pytest.fixture
def walled():
    """21x21 grid on [-1, 1]^2 with basepoint 0: a masked wall crosses the
    basepoint column above the basepoint (the row-first paths of the nodes
    behind it are cut), and a masked ring encloses one valid node that no
    path of valid nodes reaches."""
    g = DomainGrid.square(1.0, 21)
    mask = np.ones((g.ny, g.nx), dtype=bool)
    mask[g.j0 + 4, g.i0 - 5:g.i0 + 6] = False
    mask[1:4, 1:4] = False
    mask[2, 2] = True
    return g.with_mask(mask)


def reached(g):
    """Nodes joined to the basepoint by a path of valid nodes."""
    out = np.zeros_like(g.mask)
    out[g.j0, g.i0] = True
    while True:
        p = np.pad(out, 1)
        grown = g.mask & (out | p[:-2, 1:-1] | p[2:, 1:-1]
                          | p[1:-1, :-2] | p[1:-1, 2:])
        if np.array_equal(grown, out):
            return out
        out = grown


class TestSweep:
    def test_reroute_reaches_every_connected_node(self, walled):
        g = walled
        state = np.full((g.ny, g.nx), np.nan, dtype=complex)
        state[g.j0, g.i0] = 0.0
        g.sweep(state, lambda s, za, zb, k: s + (zb - za))
        conn = reached(g)
        assert np.count_nonzero(g.mask & ~conn) == 1
        # the nodes right behind the wall are only reached by rerouting
        assert conn[g.j0 + 5, g.i0]
        assert np.max(np.abs(state - (g.zz - g.z0))[conn]) <= 1e-14
        assert np.all(np.isnan(state[~conn]))

    def test_reroutes_one_step_per_tree_depth(self, walled):
        # the rerouted nodes are reached one breadth-first depth at a
        # time, with the states the tree's edges taken one by one give
        g = walled
        steps, reached = g.walk()
        blocked = row_first_blocked(g.mask, g.j0, g.i0)
        tree = bfs_tree(g.mask, g.j0, g.i0)
        depth = {(g.j0, g.i0): 0}
        for src, dst in tree:
            depth[dst] = depth[src] + 1
        rerouted = [(src, dst) for src, dst in tree if blocked[dst]]
        lattice = lattice_steps(g.nx, g.ny, g.i0, g.j0)
        assert len(steps) - lattice == len({depth[d] for _, d in rerouted})
        one_by_one = steps[:lattice] + rerouted

        def advance(s, za, zb, k):
            # ufuncs: on numpy scalars they round as on arrays
            return np.multiply(s, np.exp(zb - za)) \
                + np.exp(np.multiply(za, zb))
        states = []
        for walk in (steps, one_by_one):
            state = np.full((g.ny, g.nx), np.nan, dtype=complex)
            state[g.j0, g.i0] = 0.3
            sweep(g.zz, walk, reached, state, advance)
            states.append(state)
        assert states[0].tobytes() == states[1].tobytes()
        assert np.count_nonzero(np.isfinite(states[0])) \
            == np.count_nonzero(reached)

    def test_cumulative_integral_behind_the_wall(self, walled):
        g = walled
        vals = _cumulative_grid_integral(
            lambda pts, edges: ex.evaluate(ex.parse("exp(z)"), pts)[None],
            g, 1)
        conn = reached(g)
        exact = np.exp(g.zz) - np.exp(g.z0)
        assert np.max(np.abs(vals[..., 0] - exact)[conn]) <= 1e-12
        behind = conn & (np.arange(g.ny)[:, None] > g.j0 + 4) \
            & (np.abs(np.arange(g.nx) - g.i0) <= 5)[None, :]
        assert np.count_nonzero(behind) > 0
        assert np.all(np.isnan(vals[~conn]))


@st.composite
def masked_grids(draw, largest=9):
    """Grid shapes from 1 x n and n x 1 up, even and odd, basepoints at
    corners, edges or off centre, and random masks that keep the
    basepoint."""
    nx = draw(st.integers(1, largest))
    ny = draw(st.integers(1, largest))
    i0, j0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
    valid = draw(st.floats(0.5, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random((ny, nx)) < valid
    mask[j0, i0] = True
    return DomainGrid(np.linspace(-1.0, 0.7, nx), np.linspace(-0.4, 1.1, ny),
                      i0, j0, mask)


def step_nodes(g, part):
    """The flat node indices, in step order, of one side ``part`` of a
    step: one node, index arrays or whole rows."""
    return np.ravel(np.arange(g.nx * g.ny).reshape(g.ny, g.nx)[part])


class TestWalkProperties:
    @settings(max_examples=150, deadline=None)
    @given(g=masked_grids())
    def test_each_node_reached_once_from_earlier_nodes(self, g):
        steps, got = g.walk()
        assert np.array_equal(got, reached(g))
        lattice = lattice_steps(g.nx, g.ny, g.i0, g.j0)
        assert lattice == max(g.i0, g.nx - 1 - g.i0) \
            + max(g.j0, g.ny - 1 - g.j0)
        assert len(steps) >= lattice
        base = g.j0 * g.nx + g.i0
        done = {base}
        count = np.zeros(g.nx * g.ny, dtype=int)
        for k, (src, dst) in enumerate(steps):
            s, d = step_nodes(g, src), step_nodes(g, dst)
            assert len(s) == len(d) == len(set(d))
            # sources are the basepoint or earlier destinations, and a
            # reroute step starts from nodes the walk reaches
            assert set(s) <= done
            if k >= lattice:
                assert np.all(got.ravel()[s])
            done |= set(d)
            count[d] += 1
        # the lattice steps reach every node once, the basepoint aside;
        # the reroute steps then reach once each reached node whose
        # row-first path the mask cuts, and no other
        blocked = row_first_blocked(g.mask, g.j0, g.i0).ravel()
        expect = 1 + (got.ravel() & blocked)
        expect[base] = 0
        assert np.array_equal(count, expect)

    @settings(max_examples=100, deadline=None)
    @given(g=masked_grids())
    def test_sweep_matches_the_one_sided_walk(self, g):
        # order-sensitive advance: each node's state depends on its whole
        # path, so equal bytes mean equal paths
        def advance(s, za, zb, k):
            return np.multiply(s, np.exp(zb - za)) \
                + np.exp(np.multiply(za, zb))
        states = []
        for steps, reached in (g.walk(),
                               one_sided_walk(g.mask, g.j0, g.i0)):
            state = np.full((g.ny, g.nx), np.nan, dtype=complex)
            state[g.j0, g.i0] = 0.3
            sweep(g.zz, steps, reached, state, advance)
            states.append(state)
        assert states[0].tobytes() == states[1].tobytes()


def queue_bfs(mask, j0, i0):
    """The breadth-first spanning tree by a queue, one node at a time:
    ((jfrom, ifrom), (jto, ito)) steps in visit order, neighbours in E, W,
    N, S order.  The reference for ``bfs_tree`` and the walk's reroutes."""
    ny, nx = mask.shape
    seen = np.zeros_like(mask)
    seen[j0, i0] = True
    steps = []
    q = deque([(j0, i0)])
    while q:
        j, i = q.popleft()
        for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            jj, ii = j + dj, i + di
            if 0 <= jj < ny and 0 <= ii < nx and mask[jj, ii] \
                    and not seen[jj, ii]:
                seen[jj, ii] = True
                steps.append(((j, i), (jj, ii)))
                q.append((jj, ii))
    return steps


class TestBreadthFirst:
    """The breadth-first search runs one depth at a time as array
    operations; its tree, depths and visit order are the queue search's."""

    @settings(max_examples=150, deadline=None)
    @given(g=masked_grids(largest=30))
    def test_tree_is_the_queue_search(self, g):
        assert bfs_tree(g.mask, g.j0, g.i0) == queue_bfs(g.mask, g.j0, g.i0)

    @settings(max_examples=150, deadline=None)
    @given(g=masked_grids(largest=30))
    def test_reroutes_are_the_queue_search(self, g):
        assert_reroutes_are_the_queue_search(g)

    def test_masked_basepoint_row(self):
        # a zero of the data on the basepoint row cuts off most of the
        # grid: the nodes behind it are rerouted around it
        g = DomainGrid.square(0.5, 101)
        g = g.with_mask(np.abs(g.zz - 0.3) > 0.015)
        assert np.count_nonzero(~g.mask) == 9
        assert np.count_nonzero(row_first_blocked(g.mask, g.j0, g.i0)) \
            == 2213
        assert np.array_equal(g.walk()[1], g.mask)
        assert_reroutes_are_the_queue_search(g)


def assert_reroutes_are_the_queue_search(g):
    """The walk's reroute steps are each tree depth's blocked nodes, in
    visit order, with their parents, as the queue search finds them."""
    steps, reached = g.walk()
    blocked = row_first_blocked(g.mask, g.j0, g.i0)
    depth, levels = {(g.j0, g.i0): 0}, {}
    for src, dst in queue_bfs(g.mask, g.j0, g.i0):
        depth[dst] = depth[src] + 1
        if blocked[dst]:
            levels.setdefault(depth[dst], []).append(src + dst)
    reroutes = steps[lattice_steps(g.nx, g.ny, g.i0, g.j0):]
    assert len(reroutes) == len(levels)
    for ((js, is_), (jd, id_)), d in zip(reroutes, sorted(levels)):
        assert np.stack([js, is_, jd, id_], axis=1).tolist() \
            == [list(t) for t in levels[d]]


class TestChains:
    """The walk's steps regrouped into chains: each chain's cumulative sums
    are the step-by-step sweep's, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(g=masked_grids())
    def test_chain_sums_are_the_sweep(self, g):
        n = g.nx * g.ny
        rng = np.random.default_rng(n)
        # an edge's value by its two nodes' flat indices
        table = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        index = np.arange(n, dtype=float).reshape(g.ny, g.nx)
        chains, reached = walk_chains(g)
        start, end = chain_ends(chains)
        vals = np.full(n, np.nan, dtype=complex)
        vals[g.j0 * g.nx + g.i0] = 0.3
        chain_sums(chains, table[start, end], vals)
        vals = vals.reshape(g.ny, g.nx)
        vals[~reached] = np.nan
        state = np.full((g.ny, g.nx), np.nan, dtype=complex)
        state[g.j0, g.i0] = 0.3
        steps, walked = g.walk()
        sweep(index, steps, walked, state,
              lambda s, a, b, k: s + table[a.astype(int), b.astype(int)])
        assert np.array_equal(reached, walked)
        assert vals.tobytes() == state.tobytes()
        # one chain per side of the basepoint along the row and the
        # columns, one per reroute step
        lattice = lattice_steps(g.nx, g.ny, g.i0, g.j0)
        sides = (g.i0 > 0) + (g.i0 < g.nx - 1) + (g.j0 > 0) + (g.j0 < g.ny - 1)
        assert len(chains) == sides + len(steps) - lattice
        assert len(start) == n - 1 + sum(
            np.size(index[d]) for _, d in steps[lattice:])
