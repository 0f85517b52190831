from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopcmc import expr as ex
from loopcmc.grid import (Chain, DomainGrid, bfs_tree, chain_ends,
                          chain_sums, row_first_blocked, walk)
from loopcmc.weier import _cumulative_grid_integral
from conftest import walk_paths


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


def carry(g, chains, edge_value, reached, start=0.3):
    """``start`` at the basepoint carried along ``chains`` (a walk of
    ``g``) by ``chain_sums``, each edge adding ``edge_value(a, b)`` of its
    flat end indices, (ny, nx), NaN outside ``reached``."""
    a, b = chain_ends(chains)
    vals = np.full(g.nx * g.ny, np.nan, dtype=complex)
    vals[g.j0 * g.nx + g.i0] = start
    chain_sums(chains, edge_value(a, b), vals)
    vals = vals.reshape(g.ny, g.nx)
    vals[~reached] = np.nan
    return vals


def edge_table(g):
    """Random complex values of the edges of ``g``, by their two ends'
    flat indices."""
    n = g.nx * g.ny
    rng = np.random.default_rng(n)
    table = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return lambda a, b: table[a, b]


class TestSweep:
    def test_reroute_reaches_every_connected_node(self, walled):
        g = walled
        chains, got = g.walk()
        zz = g.zz.ravel()
        state = carry(g, chains, lambda a, b: zz[b] - zz[a], got, 0.0)
        conn = reached(g)
        assert np.array_equal(got, conn)
        assert np.count_nonzero(g.mask & ~conn) == 1
        # the nodes right behind the wall are only reached by rerouting
        assert conn[g.j0 + 5, g.i0]
        assert np.max(np.abs(state - (g.zz - g.z0))[conn]) <= 1e-14
        assert np.all(np.isnan(state[~conn]))

    def test_reroutes_one_step_per_tree_depth(self, walled):
        # the rerouted nodes are reached one breadth-first depth at a
        # time, with the values the tree's edges taken one by one give
        g = walled
        chains, reached = g.walk()
        blocked = row_first_blocked(g.mask, g.j0, g.i0)
        tree = bfs_tree(g.mask, g.j0, g.i0)
        depth = {(g.j0, g.i0): 0}
        for src, dst in tree:
            depth[dst] = depth[src] + 1
        rerouted = [(src, dst) for src, dst in tree if blocked[dst]]
        lattice = [c for c in chains if c.phase < 2]
        assert len(chains) - len(lattice) \
            == len({depth[d] for _, d in rerouted})
        flat = np.arange(g.nx * g.ny).reshape(g.ny, g.nx)
        one_by_one = lattice + [Chain(flat[src][None], flat[dst][None, None],
                                      2) for src, dst in rerouted]
        edge_value = edge_table(g)
        states = [carry(g, walk, edge_value, reached)
                  for walk in (chains, one_by_one)]
        assert states[0].tobytes() == states[1].tobytes()
        assert np.count_nonzero(np.isfinite(states[0])) \
            == np.count_nonzero(reached)

    def test_cumulative_integral_behind_the_wall(self, walled):
        g = walled
        vals = _cumulative_grid_integral(
            lambda pts, edges: ex.evaluate(ex.parse("exp(z)"), pts)[None],
            g, 1, g.walk())
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


class TestWalkProperties:
    @settings(max_examples=150, deadline=None)
    @given(g=masked_grids())
    def test_each_node_reached_once_from_earlier_nodes(self, g):
        chains, got = g.walk()
        assert np.array_equal(got, reached(g))
        # the lattice chains: the basepoint row east and west, one node a
        # step, then the columns down and up, one whole row a step; a side
        # with no node has no chain
        phases = [c.phase for c in chains]
        assert phases == sorted(phases)
        lengths = {p: [len(c.nodes) for c in chains if c.phase == p]
                   for p in (0, 1)}
        assert lengths[0] == [d for d in (g.nx - 1 - g.i0, g.i0) if d]
        assert lengths[1] == [d for d in (g.ny - 1 - g.j0, g.j0) if d]
        assert all(c.nodes.shape[1] == (1, g.nx, len(c.seed))[c.phase]
                   for c in chains)
        base = g.j0 * g.nx + g.i0
        done = {base}
        count = np.zeros(g.nx * g.ny, dtype=int)
        for c in chains:
            for s, d in zip([c.seed, *c.nodes[:-1]], c.nodes):
                assert len(s) == len(d) == len(set(d.tolist()))
                # sources are the basepoint or earlier destinations, and a
                # reroute step starts from nodes the walk reaches
                assert set(s.tolist()) <= done
                if c.phase == 2:
                    assert np.all(got.ravel()[s])
                done |= set(d.tolist())
                count[d] += 1
        # the lattice chains reach every node once, the basepoint aside;
        # the reroute chains then reach once each reached node whose
        # row-first path the mask cuts, and no other
        blocked = row_first_blocked(g.mask, g.j0, g.i0).ravel()
        expect = 1 + (got.ravel() & blocked)
        expect[base] = 0
        assert np.array_equal(count, expect)

    @settings(max_examples=150, deadline=None)
    @given(g=masked_grids())
    def test_lattice_chains_do_not_depend_on_the_mask(self, g):
        # the basepoint row's and the columns' chains are those of the
        # walk of the unmasked lattice, in its order, and come before
        # every reroute chain: the h = 0 pass reads the masked walk's
        # first edges from its primitives' pass over the lattice
        chains, _ = walk(g.mask, g.j0, g.i0)
        lattice, _ = walk(np.ones_like(g.mask), g.j0, g.i0)
        assert all(c.phase < 2 for c in lattice)
        assert len(chains) >= len(lattice)
        assert all(c.phase == 2 for c in chains[len(lattice):])
        for c, ref in zip(chains, lattice):
            assert c.phase == ref.phase
            assert np.array_equal(c.seed, ref.seed)
            assert np.array_equal(c.nodes, ref.nodes)


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
    """The walk's reroute chains are each tree depth's blocked nodes, in
    visit order, with their parents, as the queue search finds them."""
    chains, reached = g.walk()
    blocked = row_first_blocked(g.mask, g.j0, g.i0)
    depth, levels = {(g.j0, g.i0): 0}, {}
    for src, dst in queue_bfs(g.mask, g.j0, g.i0):
        depth[dst] = depth[src] + 1
        if blocked[dst]:
            levels.setdefault(depth[dst], []).append(src + dst)
    reroutes = [c for c in chains if c.phase == 2]
    assert len(reroutes) == len(levels)
    for c, d in zip(reroutes, sorted(levels)):
        assert c.nodes.shape == (1, len(c.seed))
        (js, is_), (jd, id_) = (divmod(a, g.nx) for a in (c.seed, c.nodes[0]))
        assert np.stack([js, is_, jd, id_], axis=1).tolist() \
            == [list(t) for t in levels[d]]


class TestChains:
    """The walk's chains, summed by ``chain_sums``: each node's value is
    the sum of the edges of its row-then-column path, or of its
    breadth-first reroute, added one by one, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(g=masked_grids())
    def test_chain_sums_are_the_path_sums(self, g):
        edge_value = edge_table(g)
        chains, reached = g.walk()
        vals = carry(g, chains, edge_value, reached).ravel()
        ref = np.full(g.nx * g.ny, np.nan, dtype=complex)
        for node, path in walk_paths(g.mask, g.j0, g.i0).items():
            v = 0.3 + 0j
            for a, b in zip(path, path[1:]):
                v = v + complex(edge_value(a, b))
            ref[node] = v
        assert np.array_equal(reached.ravel(), np.isfinite(ref))
        assert vals.tobytes() == ref.tobytes()
        # one chain per side of the basepoint along the row and the
        # columns, one per reroute depth
        start, _ = chain_ends(chains)
        depths = sum(c.phase == 2 for c in chains)
        sides = (g.i0 > 0) + (g.i0 < g.nx - 1) + (g.j0 > 0) + (g.j0 < g.ny - 1)
        assert len(chains) == sides + depths
        assert len(start) == g.nx * g.ny - 1 + np.count_nonzero(
            reached & row_first_blocked(g.mask, g.j0, g.i0))

    def test_chain_sums_write_contiguous_values_only(self):
        # the sums are scattered as whole rows of the values; a strided
        # view is refused rather than written through a copy
        g = DomainGrid.square(1.0, 5)
        chains, _ = g.walk()
        edges = np.ones((g.nx * g.ny - 1, 2))
        vals = np.zeros((g.nx * g.ny, 2))
        chain_sums(chains, edges, vals)
        assert vals[g.j0 * g.nx + g.i0].tolist() == [0.0, 0.0]
        assert np.max(vals) == g.nx // 2 + g.ny // 2
        with pytest.raises(ValueError, match="C-contiguous"):
            chain_sums(chains, edges, np.zeros((2, g.nx * g.ny)).T)
