import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopcmc import expr as ex
from loopcmc import factor, frames
from loopcmc.convert import member, minimal_to_potential
from loopcmc.dressing import (_left_multiply, dress_frame, dress_surface,
                              h_independent_dressing)
from loopcmc.frames import (FrameError, PotentialSpec, SurfaceOptions,
                            _sym_bobenko, _trimmed_band, extract_curvature,
                            flatness_residual, integrate_frame,
                            surface_from_potential)
from loopcmc.gallery import get_entry
from loopcmc.grid import (Chain, DomainGrid, bfs_tree, row_first_blocked,
                          walk)
from loopcmc.loops import LoopMat, conv, entries_at, hat_extend, identity
from loopcmc.symmetry import SymmetrySpec, verify_mesh_symmetry
from loopcmc.weier import (WeierstrassData, _cumulative_grid_integral,
                           minimal_surface)
from conftest import (CATENOID_MU, CATENOID_NU, KUSNER_MU, KUSNER_NU,
                      compact, dense_loop, enneper, expand, max_l1_pathlength,
                      one_edge_walk, sphere_oracle, unitary_gap)
from test_loops import random_su2


EPS = float(np.finfo(float).eps)


def plane_potential(h, a0=2.0):
    return PotentialSpec.normalized(str(a0), "0", h)


def sym_point(loop, h, lam0=1.0):
    """The Sym-Bobenko point of the unitary frame ``loop`` at ``lam0``, from
    its value and lambda-derivative there."""
    v = entries_at(loop.coeffs[None], loop.lo, lam0)
    return _sym_bobenko(v[..., 0, :], v[..., 1, :], h, lam0)[0][0]


def column_first_deviation(pot, grid, monkeypatch):
    """Max deviation between the row-first frames and those of the
    column-first walk, which is the same chains on the transposed lattice,
    over the nodes valid in both and the powers both keep: both must reach
    the same nodes, and each masks under ``tail`` and ``quadrature`` the
    nodes whose own path's bound or error estimate fails."""
    row = integrate_frame(pot, grid)

    def col_first(g):
        chains, reached = walk(g.mask.T, g.i0, g.j0)
        # flat indices of the transposed lattice -> of the grid's
        flat = np.arange(g.ny * g.nx).reshape(g.ny, g.nx).T.ravel()
        return [Chain(flat[c.seed], flat[c.nodes], c.phase)
                for c in chains], reached.T
    with monkeypatch.context() as m:
        m.setattr(DomainGrid, "walk", col_first)
        col = integrate_frame(pot, grid)
    assert np.array_equal(row.ok | path_masked(row), col.ok | path_masked(col))
    assert np.all(np.isfinite(col.coeffs[col.ok]))
    both = row.ok & col.ok
    n = min(row.coeffs.shape[2], col.coeffs.shape[2])
    return float(np.max(np.abs(row.coeffs[..., -n:, :]
                               - col.coeffs[..., -n:, :])[both]))


# a = 1, Q = 1/(z - 0.5): Q/a has a pole on the node at the middle of the
# grid's east edge, on the basepoint row
POLE_CASE = (PotentialSpec.normalized("1", "1/(z-0.5)", 1.0),
             DomainGrid.square(0.5, 21))


class TestIntegrateFrame:
    def test_minimal_limit_two_coefficients(self, catenoid):
        # h = 0: the frame is [[1, 0], [g lam^-1, 1]] with g the primitive
        # of Q/a; exactly two nonzero coefficient slots
        pot = minimal_to_potential(catenoid, 1.0).with_h(0.0)
        pot_id = PotentialSpec(h=0.0, z0=0j, a=pot.a, Q=pot.Q)  # E0 = I
        g = DomainGrid.square(0.8, 17)
        fg = integrate_frame(pot_id, g)
        zt = 0.6 - 0.4j
        j, i = g.index_of(zt)
        # slot k holds power fg.lo + k: power 0 is the last slot
        c = fg.coeffs[j, i]
        assert fg.lo + c.shape[0] - 1 == 0
        gval = ex.integrate_path(ex.Div(pot.a * 0 + pot.Q, pot.a), 0j, zt)
        assert np.allclose(c[-1], [1, 1], atol=1e-10)       # the identity
        assert c[-2, 0] == pytest.approx(gval, abs=1e-9)    # (1, 0) entry
        assert abs(c[-2, 1]) < 1e-12                        # (0, 1) entry
        assert np.max(np.abs(c[:-2]), initial=0.0) < 1e-10

    def test_plane_data_closed_form(self):
        # A is constant nilpotent: the series terminates after one step and
        # Phi = [[1, -(h/2) a0 z lam^-1], [0, 1]]
        p = plane_potential(1.0)
        g = DomainGrid.square(1.0, 11)
        fg = integrate_frame(p, g)
        for zt in (0.4 + 0.6j, -1.0 - 1.0j):
            j, i = g.index_of(zt)
            c = fg.coeffs[j, i]
            # the (0, 1) entry at power -1 and the identity at power 0
            assert c[-1 - fg.lo, 1] == pytest.approx(-zt, abs=1e-13)
            assert np.allclose(c[-fg.lo], [1, 1], atol=1e-13)

    def test_initial_condition(self, catenoid):
        # the frames are Psi with Psi(z0) = I; the initial frame rides
        # along, and its twisted extension times Psi(z0) is E0hat
        pot = minimal_to_potential(catenoid, 1.0)
        g = DomainGrid.square(0.5, 11)
        fg = integrate_frame(pot, g)
        assert np.array_equal(fg.E0, pot.initial_frame())
        assert not np.allclose(fg.E0, np.eye(2))
        c = fg.coeffs[g.j0, g.i0]
        assert fg.lo == -fg.ntrunc
        assert np.array_equal(c[-1], [1, 1]) and not np.any(c[:-1])
        e0hat = hat_extend(fg.E0)
        x = LoopMat(fg.lo + e0hat.lo, conv(e0hat.coeffs, c[None], fg.lo)[0])
        for k in (-1, 0, 1):
            assert np.allclose(x.coeff(k), e0hat.coeff(k), atol=1e-14)

    def test_identity_initial_frame_skips_the_product(self, catenoid):
        # integrate_frame never multiplies by the initial frame: the frames
        # of a potential with E0 are those of the same potential with
        # E0 = I, bit for bit, in powers -ntrunc..0
        pot = minimal_to_potential(catenoid, 1.0)
        g = DomainGrid.square(0.6, 13)
        fg = integrate_frame(pot, g)
        bare = integrate_frame(dataclasses.replace(pot, E0=None), g)
        assert np.array_equal(bare.E0, np.eye(2))
        assert fg.lo == bare.lo == 1 - fg.coeffs.shape[2] == -fg.ntrunc
        assert fg.ok.all() and np.array_equal(fg.ok, bare.ok)
        assert fg.coeffs.tobytes() == bare.coeffs.tobytes()

    def test_flatness(self, catenoid):
        pot = minimal_to_potential(catenoid, 1.0)
        fg = integrate_frame(pot, DomainGrid.square(0.4, 81))
        assert flatness_residual(pot, fg) <= 1e-8

    def test_sweep_evaluates_each_entry_once(self, monkeypatch):
        # the masks take one grid-shaped call per entry and the sweep one
        # call per entry on its whole substep lattice; evaluating per edge
        # makes thousands
        pot = minimal_to_potential(enneper(2), 1.0)
        calls = []
        evaluate = ex.evaluate

        def counted(e, z):
            calls.append(np.shape(z))
            return evaluate(e, z)
        monkeypatch.setattr(ex, "evaluate", counted)
        integrate_frame(pot, DomainGrid.square(0.9, 61))
        assert len(calls) <= 4

    @pytest.mark.parametrize("data, grid", [
        (WeierstrassData(CATENOID_MU, CATENOID_NU, 0j),
         DomainGrid.square(1.0, 11)),
        (enneper(2), DomainGrid.square(0.9, 11)),
    ], ids=["catenoid", "smyth"])
    def test_panels_converge_at_gl_order(self, data, grid):
        # Gauss-Legendre collocation of WALK_GL_N = 4 points is of order 8
        # at the nodes: halving the panels cuts the error by 2^8 = 256
        # until it reaches rounding, and one panel is already within 1e-11
        # (a fourth-order step per edge is off by 1e-8 to 1e-7 here); a
        # misplaced point or weight drops the order
        pot = minimal_to_potential(data, 1.0)

        def frame(panels):
            return integrate_frame(pot, grid, SurfaceOptions(
                substeps=panels)).coeffs
        ref = frame(8)
        scale = np.max(np.abs(ref))
        errs = [np.max(np.abs(frame(p) - ref)) for p in (1, 2)]
        assert ex.WALK_GL_N == 4
        assert errs[0] <= 1e-11 * scale
        assert errs[1] <= max(errs[0] / 100, 4 * EPS * scale)

    @pytest.mark.parametrize("mu, nu, grid", [
        ("1", "z^2", DomainGrid.square(0.9, 61)),           # smyth, smooth
        (KUSNER_MU, KUSNER_NU, DomainGrid.square(0.85, 25)),  # near ends
    ])
    def test_entries_evaluated_once_over_the_grid(self, mu, nu, grid,
                                                   monkeypatch):
        # the mask and the paths' maxima reuse the entries the sweep
        # evaluates: one grid-shaped evaluation per entry, both entries and
        # a in one call, and one call at the collocation points and those
        # of the quadrature estimate per panel count, 1, 2, 4 and 8 next to
        # the ends; a call with several expressions counts each
        pot = minimal_to_potential(WeierstrassData(mu, nu, 0j), 1.0)
        shapes, calls = [], []
        evaluate = ex.evaluate

        def counted(e, z):
            many = isinstance(e, (list, tuple))
            shapes.extend([np.shape(z)] * (len(e) if many else 1))
            calls.append(np.shape(z))
            return evaluate(e, z)
        monkeypatch.setattr(ex, "evaluate", counted)
        fg = integrate_frame(pot, grid)
        # upper, lower, and a for the metric
        assert shapes.count(grid.zz.shape) == 3
        panels = 1 if mu == "1" else frames.PANEL_CAP
        assert fg.meta["panels"] == panels
        assert calls.count(grid.zz.shape) == 1
        assert len(calls) == 2 + int(np.log2(panels))

    def test_walks_the_grid_once(self, monkeypatch):
        # every series level takes the chains of one walk: of the
        # fundamental domain, rows and columns from j0 - 1 and i0 - 1 on,
        # for this member symmetric about both, of the whole grid otherwise
        walks = []
        walk = DomainGrid.walk

        def counted(g):
            walks.append(g)
            return walk(g)
        monkeypatch.setattr(DomainGrid, "walk", counted)
        pot = PotentialSpec.normalized("2", "-4*z", 1.0)
        grid = DomainGrid.square(0.5, 21)
        fg = integrate_frame(pot, grid)
        assert axes(fg) == ("row", "col") and fg.ntrunc > 1
        assert len(walks) == 1
        assert np.array_equal(walks[0].zz,
                              grid.zz[grid.j0 - 1:, grid.i0 - 1:])
        walks.clear()
        full_grid(monkeypatch)
        fg = integrate_frame(pot, grid)
        assert not fg.mirror and fg.ntrunc > 1
        assert len(walks) == 1 and walks[0] is fg.grid

    def test_path_independence(self, catenoid, monkeypatch):
        # the column-first walk is the same chains on the transposed lattice
        pot = minimal_to_potential(catenoid, 1.0)
        dev = column_first_deviation(pot, DomainGrid.square(1.0, 41),
                                     monkeypatch)
        assert dev <= 1e-8

    def test_path_independence_through_reroutes(self, monkeypatch):
        # a pole of Q/a on a node of the grid's edge has valid nodes behind
        # it that only rerouting reaches, so the reroute edges must read
        # their own lattice values; the masked block touches the edge, so
        # no two paths wind around the pole
        pot, grid = POLE_CASE
        chains, _ = integrate_frame(pot, grid).grid.walk()
        assert any(c.phase == 2 for c in chains)
        assert column_first_deviation(pot, grid, monkeypatch) <= 1e-8

    @pytest.mark.parametrize("data, grid, tol", [
        (WeierstrassData(CATENOID_MU, CATENOID_NU, 0j),
         DomainGrid.square(1.0, 41), 1e-13),
        (enneper(2), DomainGrid.square(0.9, 61), 1e-13),
        # next to the ends, where each walk masks the nodes its own paths
        # fail the tail bound or the quadrature estimate on
        (WeierstrassData(KUSNER_MU, KUSNER_NU, 0j),
         DomainGrid.square(0.85, 25), 1e-10),
        # rerouted around a pole on a node, next to it
        POLE_CASE + (1e-10,),
    ], ids=["catenoid", "smyth", "kusner", "pole"])
    def test_row_and_column_first_walks_agree(self, data, grid, tol,
                                              monkeypatch):
        # the column-first walk drives the integrator through its own
        # chains (so the frames are not the same bytes); the two paths to a
        # node differ by the collocation error
        pot = data if isinstance(data, PotentialSpec) \
            else minimal_to_potential(data, 1.0)
        fg = integrate_frame(pot, grid)
        scale = np.max(np.abs(fg.coeffs[fg.ok]))
        dev = column_first_deviation(pot, grid, monkeypatch)
        assert 0 < dev <= tol * scale

    @pytest.mark.parametrize("pot, grid, valid, tail, quadrature", [
        # the Jorge-Meeks 3-noid next to its ends, where the entries grow
        (minimal_to_potential(WeierstrassData("1/(z^3-1)^2", "z^2"), 1.0),
         DomainGrid.square(0.95, 41), 1538, 143, 0),
        # smooth data with a large range: the paths into the large end
        (PotentialSpec.normalized("exp(10*z)", "1", 1.0),
         DomainGrid.square(1.0, 31), 389, 572, 0),
    ], ids=["3noid", "exp10z"])
    def test_masked_meshes_keep_their_masks(self, pot, grid, valid, tail,
                                            quadrature):
        # which nodes have frames is decided by each node's path, not by
        # the integrator: the valid nodes are those the walk reaches less
        # those whose tail bound, or quadrature estimate, stays above
        # TAIL_FAIL at its cap, every masked node is counted under its
        # cause, and the counts are pinned
        fg = integrate_frame(pot, grid)
        over = path_masked(fg)
        assert np.array_equal(fg.ok, fg.grid.walk()[1] & ~over)
        mesh = surface_from_potential(pot, grid)
        assert np.array_equal(mesh.mask, fg.ok)
        assert np.count_nonzero(mesh.mask) == valid
        assert mesh.meta["mask_causes"] == dict(
            dict.fromkeys(frames.MASK_CAUSES, 0), tail=tail,
            quadrature=quadrature)
        assert fg.ntrunc == 24 and fg.tail_bound <= frames.TAIL_FAIL

    def test_tail_bound_masks_nodes(self):
        # far from the basepoint the bound stays above TAIL_FAIL at the
        # cap: those nodes are masked under their own cause, and the rest
        # of the grid keeps its frames, at an order within the cap
        p = PotentialSpec.normalized("2", "-4*z", 40.0)
        fg = integrate_frame(p, DomainGrid.square(1.0, 11),
                             options=SurfaceOptions(ntrunc_cap=8))
        causes = fg.meta["mask_causes"]
        assert fg.ntrunc <= 8 and fg.tail_bound <= frames.TAIL_FAIL
        assert causes["tail"] > 0 and fg.ok[fg.grid.j0, fg.grid.i0]
        assert sum(causes.values()) == np.count_nonzero(~fg.ok)

    def test_quadrature_masks_the_paths_past_a_pole(self):
        # a = z - 0.31: Q/a has a pole on the basepoint row between the
        # nodes 0.30 and 0.35, which no node value sees.  The row's edge
        # across it keeps its quadrature estimate far above TAIL_FAIL at
        # PANEL_CAP panels, so the nodes whose paths take it, the columns
        # from 0.35 on, are masked, under tail where their bound fails
        # first and under quadrature elsewhere; every other node is kept
        p = PotentialSpec.normalized("z-0.31", "1", 0.1)
        grid = DomainGrid.make(-0.5, 0.5, 21, -0.5, 0.5, 21)
        fg = integrate_frame(p, grid)
        causes = fg.meta["mask_causes"]
        assert fg.meta["panels"] == frames.PANEL_CAP
        assert causes["quadrature"] > 0 and causes["tail"] > 0
        assert np.array_equal(fg.ok, np.broadcast_to(grid.xs < 0.32,
                                                     fg.ok.shape))
        assert causes["quadrature"] + causes["tail"] \
            == np.count_nonzero(~fg.ok)

    @pytest.mark.parametrize("pot, grid", [
        (member(get_entry(name).data, 1.0), get_entry(name).grid_for(1.0))
        for name in ("smyth", "kusner")] + [
        (minimal_to_potential(WeierstrassData("1/(z^3-1)^2", "z^2"), 1.0),
         DomainGrid.square(0.8, 41)),
        (PotentialSpec.normalized("exp(10*z)", "1", 1.0),
         DomainGrid.square(1.0, 31))],
        ids=["smyth", "kusner", "3noid", "exp10z"])
    def test_tail_bound_holds(self, pot, grid):
        # at every node valid in both runs, the levels that the default run
        # drops, as a run to a much smaller tolerance computes them, sum to
        # no more than the default run's tail bound, and so does the level
        # right after the order.  The bound and the quadrature estimate
        # never fall along a path, so no kept node's walk parent is masked
        # under tail or quadrature
        fg = integrate_frame(pot, grid)
        deep = integrate_frame(pot, grid, SurfaceOptions(ntrunc_cap=40,
                                                         tail_tol=1e-30))
        assert deep.ntrunc > fg.ntrunc
        both = fg.ok & deep.ok
        # slot k holds power lo + k: the powers -ntrunc - 1 and below
        dropped = deep.coeffs[both][:, :-fg.ntrunc - deep.lo]
        assert dropped.shape[1] == deep.ntrunc - fg.ntrunc
        assert np.all(np.max(np.abs(dropped[:, -1]), axis=-1)
                      <= fg.tail_bound)
        assert np.all(np.sum(np.max(np.abs(dropped), axis=-1), axis=-1)
                      <= fg.tail_bound)
        over = path_masked(fg)
        for c in fg.grid.walk()[0]:
            nodes, parents = c.nodes, np.concatenate([c.seed[None],
                                                      c.nodes[:-1]])
            assert not np.any(fg.ok.flat[nodes] & over.flat[parents])


def path_masked(fg):
    """The nodes ``fg`` masks under ``tail`` or ``quadrature``: reached by
    the walk, with no frame and no other cause counted after them."""
    causes = fg.meta["mask_causes"]
    assert causes["frame"] == 0
    masked = fg.grid.walk()[1] & ~fg.ok
    assert np.count_nonzero(masked) == causes["tail"] + causes["quadrature"]
    return masked


def reroute_depths(mask, j0, i0):
    """The number of breadth-first depths at which the walk reroutes."""
    blocked = row_first_blocked(mask, j0, i0)
    depth, levels = {(j0, i0): 0}, set()
    for src, dst in bfs_tree(mask, j0, i0):
        depth[dst] = depth[src] + 1
        if blocked[dst]:
            levels.add(depth[dst])
    return len(levels)


SWEEP_CASES = {
    "smyth": (WeierstrassData("1", "z^2", 0j), DomainGrid.square(0.9, 21)),
    "off_centre": (PotentialSpec.normalized("1+0.2*z", "z^2", 1.0),
                   DomainGrid.make(-0.3, 0.9, 17, -0.8, 0.2, 11)),
    "e0": (WeierstrassData(CATENOID_MU, CATENOID_NU, 0j),
           DomainGrid.square(0.8, 17)),
    "pole": POLE_CASE,
}


class TestPairedSweep:
    """The frame integrator takes the walk's chains, one per side of the
    basepoint along its row and the columns, and one per reroute depth,
    in one pass per series level.  Each node keeps its row-then-column
    path, so the frames are those of the reference walk that takes one
    edge at a time (``conftest.walk_edges``) byte for byte.  A symmetric
    member walks its fundamental domain, and both fill the other nodes by
    the same reflections."""

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_advances_and_bytes(self, case, monkeypatch):
        data, grid = SWEEP_CASES[case]
        pot = data if isinstance(data, PotentialSpec) \
            else minimal_to_potential(data, 1.0)
        passes, walked = [], []
        chain_sums = frames.chain_sums
        walk = DomainGrid.walk

        def counted(chains, *args):
            passes.append([c.nodes.shape for c in chains])
            return chain_sums(chains, *args)

        def recorded(g):
            walked.append(g)
            return walk(g)
        with monkeypatch.context() as m:
            m.setattr(frames, "chain_sums", counted)
            m.setattr(DomainGrid, "walk", recorded)
            fg = integrate_frame(pot, grid)
        assert axes(fg) == {"smyth": ("row", "col"), "e0": ("row", "col"),
                            "pole": ("row",), "off_centre": ()}[case]
        work, = walked
        nx, ny, i0, j0 = work.nx, work.ny, work.i0, work.j0
        depths = reroute_depths(work.mask, j0, i0)
        # one pass of the chains per series level, and one each for the
        # paths' quadrature estimates, lengths and maxima per panel count
        # tried, the same chains each
        tries = 1 + int(np.log2(fg.meta["panels"]))
        assert len(passes) == fg.ntrunc + 3 * tries
        assert all(shapes == passes[0] for shapes in passes)
        sides = (i0 > 0) + (i0 < nx - 1) + (j0 > 0) + (j0 < ny - 1)
        assert len(passes[0]) == sides + depths
        assert sum(d for d, _ in passes[0]) == nx - 1 + ny - 1 + depths
        assert sum(d * n for d, n in passes[0]) == nx * ny - 1 \
            + np.count_nonzero(row_first_blocked(work.mask, j0, i0)
                               & work.walk()[1])
        if case == "off_centre":
            assert (grid.i0, grid.j0) == (4, 8)
        if case == "e0":
            assert not np.allclose(pot.initial_frame(), np.eye(2))
        assert (depths > 0) == (case == "pole")
        with monkeypatch.context() as m:
            m.setattr(DomainGrid, "walk", one_edge_walk)
            ref = integrate_frame(pot, grid)
        assert (fg.lo, fg.ntrunc) == (ref.lo, ref.ntrunc)
        assert np.array_equal(fg.ok, ref.ok)
        assert fg.coeffs.tobytes() == ref.coeffs.tobytes()


class TestTimesPotential:
    def test_matches_dense_product(self):
        from loopcmc.frames import _times_potential
        rng = np.random.default_rng(7)

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # the product with the potential at power p sits at power p - 1
        lo = -4
        psi = cplx(3, 4, 5, 2)
        for u, l in ((cplx(3, 4), cplx(3, 4)), (0.3 - 1.2j, -0.7 + 0.4j)):
            a = np.zeros(np.shape(u) + (2, 2), dtype=complex)
            a[..., 0, 1] = u
            a[..., 1, 0] = l
            dense = expand(psi, lo) @ a[..., None, :, :]
            got = _times_potential(psi, np.stack([l, u], axis=-1))
            assert got.shape == psi.shape
            assert np.max(np.abs(expand(got, lo - 1) - dense)) \
                <= 1e-15 * np.max(np.abs(dense))

class TestCollocationWeights:
    @pytest.mark.parametrize("panels", [1, 2, 3])
    def test_polynomials_integrate_exactly(self, panels):
        # along an edge from 0 to 1: the last row is the composite
        # Gauss-Legendre rule, exact to degree 2 WALK_GL_N - 1; the others
        # integrate each panel's interpolant up to each collocation point,
        # exact to degree WALK_GL_N - 1
        n = ex.WALK_GL_N
        t = ex.panel_points(n, panels)
        w = ex.interpolant_integrals(n, panels, panels)
        assert w.shape == (len(t) + 1, len(t)) == (n * panels + 1,
                                                   n * panels)
        assert np.all(np.diff(t) > 0) and 0 < t[0] and t[-1] < 1
        assert not w.flags.writeable
        for deg in range(2 * n):
            got = w @ t ** deg
            assert got[-1] == pytest.approx(1 / (deg + 1), abs=4 * EPS)
            if deg < n:
                assert np.max(np.abs(got[:-1] - t ** (deg + 1) / (deg + 1))) \
                    <= 4 * EPS
        assert abs(w[-1] @ t ** (2 * n) - 1 / (2 * n + 1)) > 1e-6 / panels ** 8

    @pytest.mark.parametrize("walled", [False, True], ids=["plain", "walled"])
    def test_one_rule_serves_both_integrators(self, walled):
        # Psi_1 = int (lower, upper) dz along the walk: the frame
        # integrator's lambda^-1 slot is the h = 0 sweep's integral of the
        # two entries, to rounding, on a plain grid and on one whose wall
        # above the basepoint reroutes the nodes behind it, at the panels
        # the quadrature estimate doubles the integrator's to.  The edges
        # are long enough that a sweep at 5 points per edge is 3e-13 of the
        # scale off
        pot = PotentialSpec.normalized("1 + z/3", "exp(2*z)", 0.1)
        grid = DomainGrid.square(1.0, 9)
        if walled:
            mask = np.ones((grid.ny, grid.nx), dtype=bool)
            mask[grid.j0 + 1, grid.i0 - 2:grid.i0 + 3] = False
            grid = grid.with_mask(mask)
        fg = integrate_frame(pot, grid)
        chains, reached = fg.grid.walk()
        assert any(c.phase == 2 for c in chains) == walled
        assert fg.meta["panels"] > 1
        entries = frames.potential_entries(pot)[::-1]
        sweep = _cumulative_grid_integral(
            lambda pts, edges: np.stack(ex.evaluate(entries, pts)),
            fg.grid, 2, (chains, reached), fg.meta["panels"])
        size = max(np.max(np.abs(ex.evaluate(e, grid.zz))) for e in entries)
        assert np.array_equal(fg.ok, reached)
        assert np.max(np.abs(fg.coeffs[..., -2, :] - sweep)[reached]) \
            <= 1e-14 * size * max_l1_pathlength(grid)


class TestSymBobenko:
    def test_identity_maps_to_zero(self):
        assert np.allclose(sym_point(identity(), 1.0), 0.0)

    def test_zero_form_loops(self):
        # loops [[A, -lam conj(B)], [lam^-1 B, conj(A)]] give zero for any h
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            n = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            c = np.zeros((3, 2, 2), dtype=complex)
            c[0, 1, 0] = b / n
            c[1, 0, 0] = a / n
            c[1, 1, 1] = np.conj(a) / n
            c[2, 0, 1] = -np.conj(b) / n
            loop = dense_loop(c, -1)
            for h in (0.5, 1.0, 2.0):
                assert np.max(np.abs(sym_point(loop, h))) <= 1e-13

    def test_hat_extended_initial_conditions_map_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            loop = hat_extend(random_su2(rng))
            assert np.max(np.abs(sym_point(loop, 1.0))) <= 1e-13

    def test_plane_frame_on_sphere(self):
        # closed-form factorization of the plane-data frame at z
        for z in (0.3 + 0.4j, -0.8j, 1.0 + 1.0j):
            w = -1.0 * z          # h = 1, a0 = 2: upper coefficient -h z
            d = np.sqrt(1 + abs(w) ** 2)
            c = np.zeros((3, 2, 2), dtype=complex)
            c[0, 0, 1] = w / d              # lam^-1 slot
            c[1, 0, 0] = 1 / d
            c[1, 1, 1] = 1 / d
            c[2, 1, 0] = -np.conj(w) / d
            assert unitary_gap(compact(c, -1), -1) < 1e-12
            pt = sym_point(dense_loop(c, -1), 1.0)
            center = np.array([0.0, 0.0, 1.0])
            assert abs(np.linalg.norm(pt - center) - 1.0) <= 1e-12

    def test_rejects_non_unitary(self):
        # with a zero unitarity tolerance no node's F counts as unitary, so
        # the mesh has no basepoint to evaluate the formula at
        with pytest.raises(FrameError):
            surface_from_potential(plane_potential(1.0),
                                   DomainGrid.square(0.5, 11),
                                   SurfaceOptions(unitary_tol=0.0))

    @pytest.mark.parametrize("lam0", [2.0, 0.5j, 0.0])
    def test_rejects_off_circle_lambda0(self, lam0):
        # an off-circle lambda0 would give a valid-looking mesh of the
        # wrong size (2.0 wide at lambda0 = 2 where the sphere is 1.6)
        with pytest.raises(ValueError):
            surface_from_potential(plane_potential(1.0),
                                   DomainGrid.square(0.5, 11),
                                   SurfaceOptions(lambda0=lam0))


class TestSurfaceFromPotential:
    def test_sphere(self):
        g = DomainGrid.square(1.0, 41)
        mesh = surface_from_potential(plane_potential(1.0), g)
        err = np.linalg.norm(mesh.f - sphere_oracle(g, 1.0), axis=-1)
        assert np.max(err[mesh.mask]) <= 1e-6
        j0, i0 = mesh.basepoint_index()
        center = mesh.f[j0, i0] + mesh.normal[j0, i0]
        d = np.linalg.norm(mesh.f[mesh.mask] - center, axis=-1)
        assert np.max(np.abs(d - 1.0)) <= 1e-6

    def test_h_zero_dispatches_to_weierstrass(self):
        p = PotentialSpec.normalized("2", "-4*z", 0.0)
        g = DomainGrid.square(1.0, 21)
        mesh = surface_from_potential(p, g)
        direct = minimal_surface(
            __import__("loopcmc.convert", fromlist=["limit_member_data"])
            .limit_member_data(p), g)
        assert np.allclose(mesh.f, direct.f, atol=1e-12)
        assert mesh.h == 0.0

    def test_classical_data_take_the_classical_construction(self, catenoid,
                                                            grid41):
        mesh = surface_from_potential(catenoid, grid41)
        direct = minimal_surface(catenoid, grid41)
        for name in ("f", "normal", "eu", "fz", "mask"):
            assert np.array_equal(getattr(mesh, name), getattr(direct, name),
                                  equal_nan=name != "mask"), name
        assert mesh.h == direct.h == 0.0

    def test_minimal_limit(self, catenoid, grid41):
        classical = minimal_surface(catenoid, grid41)
        loop_mesh = surface_from_potential(
            minimal_to_potential(catenoid, 1e-6), grid41)
        both = classical.mask & loop_mesh.mask
        dev = np.linalg.norm(classical.f - loop_mesh.f, axis=-1)
        assert np.max(dev[both]) <= 1e-4

    def test_conformality(self, catenoid, grid41):
        mesh = surface_from_potential(minimal_to_potential(catenoid, 1.0),
                                      grid41)
        r1, r2 = mesh.conformality_residuals()
        assert r1 <= 1e-6 and r2 <= 1e-6

    def test_metric_matches_minimal_limit_formula(self, catenoid):
        # |f_x| = (1 + |g|^2) |a| at the h -> 0 limit
        g = DomainGrid.square(0.6, 21)
        pot = minimal_to_potential(catenoid, 1e-6)
        mesh = surface_from_potential(pot, g)
        prim = np.vectorize(lambda z: ex.integrate_path(
            ex.Div(pot.Q, pot.a), 0j, complex(z)))(g.zz)
        expected = (1 + np.abs(prim) ** 2) * np.abs(ex.evaluate(pot.a, g.zz))
        fx, _ = mesh.fx_fy()
        rel = np.abs(np.linalg.norm(fx, axis=-1) - expected) / expected
        assert np.max(rel[mesh.mask]) <= 1e-6

    def test_pole_containing_domain_masks_not_aborts(self):
        # Kusner data on a domain containing the potential's singular rings:
        # the nodes whose paths pass too close to them are masked, the rest
        # of the mesh is produced, and neither the series truncation nor
        # the quadrature costs anything there: a run to order 40 at 16
        # panels per edge puts the same nodes within 1e-13 of the
        # diameter.  The kept nodes come within a few cells of the ends,
        # where the curvature stencil of 25 nodes is off by 0.044 and that
        # of 49 nodes by 0.0067: H is checked at 49, and its error must
        # fall with the stencil's order
        pot = minimal_to_potential(
            WeierstrassData(KUSNER_MU, KUSNER_NU, 0j), 1.0)
        errs = []
        for n in (25, 49):
            grid = DomainGrid.square(0.85, n)
            mesh = surface_from_potential(pot, grid)
            assert 0.1 < mesh.masked_fraction() < 0.95
            assert sum(mesh.meta["mask_causes"].values()) \
                == np.count_nonzero(~mesh.mask)
            assert np.all(np.isfinite(mesh.f[mesh.mask]))
            cf = extract_curvature(mesh)
            errs.append(np.nanmax(np.abs(cf.H[cf.valid] - 1.0)))
            if n == 25:
                deep = surface_from_potential(pot, grid, SurfaceOptions(
                    ntrunc_cap=40, tail_tol=1e-30, substeps=16))
                both = mesh.mask & deep.mask
                assert np.max(np.abs(mesh.f[both] - deep.f[both])) \
                    <= 1e-13 * deep.diameter()
        assert errs[1] <= min(0.02, errs[0] / 4)

    def test_trimmed_band_drops_only_rounding(self):
        eps = np.finfo(float).eps
        sizes = np.array([[1e-20, 1e-17, 1.0, 0.5, 1e-17, 1e-16],
                          [2e-16, 1.0, 1e-16, 1e-16, 0.0, 0.0],
                          [0.0, 2.0, 0.0, 0.0, 0.0, 3.0]])
        coeffs = np.zeros(sizes.shape + (2,), dtype=complex)
        coeffs[..., 1] = sizes
        first, stop = _trimmed_band(coeffs)
        assert first.tolist() == [2, 0, 1]
        assert stop.tolist() == [4, 3, 6]
        for row, k0, k1 in zip(sizes, first, stop):
            dropped = row[:k0].sum() + row[k1:].sum()
            assert dropped <= eps * row.max()

    def test_frames_factor_at_their_trimmed_band(self, catenoid,
                                                 monkeypatch):
        # every chunk is cut to the band of its nodes, sorted by band, and
        # the frames' plus factors pass the convergence check at the first
        # section, so no node grows past band + MARGIN_START
        calls = []

        def record(lo, coeffs, *args, **kwargs):
            out = factor.iwasawa_batch(lo, coeffs, *args, **kwargs)
            calls.append((coeffs.shape[1], out["section"]))
            return out
        monkeypatch.setattr(frames, "iwasawa_batch", record)
        monkeypatch.setattr(frames, "CHUNK", 64)
        pot = minimal_to_potential(catenoid, 1.0)
        g = DomainGrid.square(0.8, 21)
        fg = integrate_frame(pot, g)
        mesh = surface_from_potential(pot, g)
        bands = [nk for nk, _ in calls]
        assert len(calls) > 2 and bands == sorted(bands)
        assert bands[-1] <= fg.coeffs.shape[2]
        for nk, section in calls:
            assert np.all(section == nk + factor.MARGIN_START)
        assert mesh.meta["max_section"] == bands[-1] + factor.MARGIN_START
        assert 1.0 <= mesh.meta["max_condition"] < 1e3

    def test_condition_p99_of_the_accepted_nodes(self, catenoid,
                                                  monkeypatch):
        # the 99th percentile of the accepted nodes' condition estimates,
        # next to their maximum; a node rejected for its residual does not
        # count, and the value repeats exactly.  On the whole grid, where
        # each factored node is one grid node (the mirrored count:
        # TestMirror.test_condition_p99_of_the_whole_grid)
        full_grid(monkeypatch)
        conds = []

        def record(lo, coeffs):
            out = factor.iwasawa_batch(lo, coeffs)
            out["residual"][-1] = 1.0
            out["condition"][-1] = 1e9
            conds.append(out["condition"][:-1])
            return out
        monkeypatch.setattr(frames, "iwasawa_batch", record)
        monkeypatch.setattr(frames, "CHUNK", 64)
        pot = minimal_to_potential(catenoid, 1.0)
        g = DomainGrid.square(0.8, 21)
        meta = surface_from_potential(pot, g).meta
        cond = np.concatenate(conds)
        assert meta["mask_causes"]["residual"] == len(conds)
        assert meta["max_condition"] == np.max(cond) < 1e9
        assert meta["condition_p99"] == np.percentile(cond, 99)
        assert 1.0 <= meta["condition_p99"] < meta["max_condition"]
        assert surface_from_potential(pot, g).meta["condition_p99"] \
            == meta["condition_p99"]

    @pytest.mark.parametrize("data, h, grid, lam0", [
        # Smyth h = 1: E0 is the identity, frames in powers <= 0
        (WeierstrassData("1", "z^2"), 1.0, DomainGrid.square(0.9, 21), 1.0),
        # catenoid h = 0.1: E0 is not the identity, frames reach power +1
        (WeierstrassData(CATENOID_MU, CATENOID_NU), 0.1,
         DomainGrid.square(1.0, 21), 1.0),
        (WeierstrassData(CATENOID_MU, CATENOID_NU), 0.1,
         DomainGrid.square(1.0, 21), np.exp(0.5j)),
    ])
    def test_closed_form_matches_series(self, data, h, grid, lam0,
                                        monkeypatch):
        # F(lam0) = X(lam0) B^-1(lam0) and its derivative give the mesh
        # that summing the solved Fourier series of F at lam0 gives, F of
        # the loops X read out, an image node's mapped from its partner's
        # and factored again here; the members are mirrored about both
        # axes, at any lam0, and both factor the quadrant of rows and
        # columns from j0 - 1 on
        calls = []

        def series_at(x, lo, binv, lam):
            b = factor.iwasawa_batch(lo, x)["b"]
            f, _, _ = factor.unitary_loops(lo, x, b)
            calls.append(len(f))
            v = entries_at(f, lo, lam)
            return v[..., 0, :], v[..., 1, :]
        pot = minimal_to_potential(data, h)
        opts = SurfaceOptions(lambda0=lam0)
        mesh = surface_from_potential(pot, grid, opts)
        monkeypatch.setattr(frames, "_frame_at", series_at)
        ref = surface_from_potential(pot, grid, opts)
        side = grid.nx - grid.i0 + 1
        assert [r["axis"] for r in mesh.meta["mirrored"]] == ["row", "col"]
        assert mesh.meta["factored_nodes"] == ref.meta["factored_nodes"] \
            == side * side
        # the quadrant's nodes once as factored and once mapped by each
        # reflection and by both
        assert sum(calls) == 4 * side * side
        assert mesh.mask.all() and ref.mask.all()
        tol = 1e-12 * ref.diameter()
        assert np.max(np.abs(mesh.f - ref.f)) <= tol
        assert np.max(np.abs(mesh.normal - ref.normal)) <= tol

    @pytest.mark.parametrize("h, lam0", [(1.0, 1.0), (0.1, np.exp(0.5j))])
    def test_initial_frame_is_a_rotation(self, catenoid, h, lam0):
        # the mesh of Psi with E0 beside it is the mesh of the frames
        # E0hat Psi, where E0hat enters the factorization
        pot = minimal_to_potential(catenoid, h)
        g = DomainGrid.square(0.8, 21)
        opts = SurfaceOptions(lambda0=lam0)
        fg = integrate_frame(pot, g, opts)
        e0hat = hat_extend(fg.E0)
        # E0hat Psi is factored on the whole grid: the reflections' map is
        # that of Psi
        product = dataclasses.replace(
            fg, lo=fg.lo + e0hat.lo, E0=np.eye(2), mirror=(),
            coeffs=conv(e0hat.coeffs, fg.coeffs, fg.lo))
        rot = frames._initial_rotation(fg.E0, lam0)
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) <= 4 * EPS
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=4 * EPS)
        assert np.max(np.abs(rot - np.eye(3))) > 0.1
        assert np.array_equal(frames._initial_rotation(np.eye(2), lam0),
                              np.eye(3))
        mesh = frames._assemble_mesh(pot, fg, opts)
        ref = frames._assemble_mesh(pot, product, opts)
        assert mesh.mask.all() and ref.mask.all()
        tol = 1e-12 * ref.diameter()
        for name in ("f", "normal", "fz"):
            assert np.max(np.abs(getattr(mesh, name) - getattr(ref, name))) \
                <= tol, name
        assert ref.meta["max_section"] == mesh.meta["max_section"] + 2

    def test_rejections_are_counted_by_cause(self, monkeypatch):
        # the last four nodes of every chunk fail the factorization, the
        # residual, the unitarity, and both residuals: each masked node is
        # counted once, under its first failed check.  On the whole grid,
        # where each factored node is one grid node (the mirrored count:
        # TestMirror.test_rejections_count_their_mirror_images)
        full_grid(monkeypatch)

        def flag(lo, coeffs, *args, **kwargs):
            out = factor.iwasawa_batch(lo, coeffs, *args, **kwargs)
            out["ok"][-1] = False
            out["residual"][-2] = 1.0
            out["unitary_residual"][-3] = 1.0
            out["residual"][-4] = out["unitary_residual"][-4] = 1.0
            return out
        monkeypatch.setattr(frames, "iwasawa_batch", flag)
        monkeypatch.setattr(frames, "CHUNK", 27)
        mesh = surface_from_potential(plane_potential(1.0),
                                      DomainGrid.square(0.5, 9))
        assert mesh.meta["mask_causes"] == {
            "domain": 0, "entry": 0, "unreachable": 0, "tail": 0,
            "quadrature": 0, "frame": 0, "factorization": 3, "residual": 6,
            "unitarity": 3}
        assert np.count_nonzero(~mesh.mask) == 12

    def test_lambda0_associated_family_smoke(self, catenoid):
        g = DomainGrid.square(0.5, 11)
        opts = SurfaceOptions(lambda0=np.exp(0.5j))
        mesh = surface_from_potential(minimal_to_potential(catenoid, 1.0),
                                      g, opts)
        cf = extract_curvature(mesh, stencil=2)
        assert np.all(np.isfinite(mesh.f[mesh.mask]))
        assert np.nanmax(np.abs(cf.H[cf.valid] - 1.0)) <= 0.05


def full_grid(monkeypatch):
    """Make every member run on the whole grid, as if none were
    symmetric."""
    monkeypatch.setattr(frames, "_reflections", lambda *args: ())


def axes(fg):
    """The axes of the reflections a FrameGrid is mirrored about."""
    return tuple(r.axis for r in fg.mirror)


def assert_matches_whole_grid(mesh, ref, tol):
    """``mesh`` is ``ref``, the whole grid's mesh: the same mask and mask
    causes, positions within ``tol`` of the diameter, and normals, f_z and
    the conformal factor within 1e-13 of their largest value."""
    assert np.array_equal(mesh.mask, ref.mask)
    assert mesh.meta["mask_causes"] == ref.meta["mask_causes"]
    ok = ref.mask
    assert np.max(np.abs(mesh.f - ref.f)[ok]) <= tol * ref.diameter()
    for name in ("normal", "fz", "eu"):
        got, want = getattr(mesh, name)[ok], getattr(ref, name)[ok]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), \
            name


# the (nu, d) of each reflection of the gallery's loop-group members,
# measured by brute force over nu, d in {1, -1, i, -i} on whole-grid frames
GALLERY_REFLECTIONS = {
    "sphere": {"row": (1, 1), "col": (1, -1)},
    "catenoid": {"row": (1, 1), "col": (1, -1)},
    "helicoid": {"row": (1j, -1j), "col": (1j, 1j)},
    "smyth": {"row": (1, 1), "col": (1j, 1j)},
    "order5": {"row": (1, 1)},
    "kusner": {"row": (1j, -1j)},
}
GALLERY_CASES = [(name, h, None) for name in GALLERY_REFLECTIONS
                 for h in get_entry(name).h_list] + [
    ("catenoid", 0.1, "lambda0"), ("helicoid", 0.1, "E0")]


def _poly(coeffs):
    return " + ".join(f"({c!r})*z^{k}" for k, c in coeffs.items())


@st.composite
def symmetric_data(draw):
    """Random data with real coefficients times phases: a = e^(i alpha) p,
    p nonvanishing on the grid (|p(0)| >= 1, the other terms at most 0.6),
    even or not; Q = e^(i beta) q, q even, odd or of both parities, beta a
    multiple of pi/4.  Returns the potential, the grid and the axes the
    data keep: the row for beta a multiple of pi/2, the column as well
    when p is even and q even or odd."""
    size = st.floats(0.2, 0.5) | st.floats(-0.5, -0.2)
    alpha = draw(st.floats(0.0, 2 * np.pi))
    k = draw(st.integers(0, 7))
    even_a = draw(st.booleans())
    parity = draw(st.sampled_from(["even", "odd", "both"]))
    p = {0: draw(st.sampled_from([1.0, -1.2])), 2: draw(size)}
    if not even_a:
        p[1] = draw(size)
    powers = {"even": (0, 2), "odd": (1, 3), "both": (0, 1, 2)}[parity]
    q = {n: draw(size) for n in powers}
    a = f"exp(({alpha!r})*i)*({_poly(p)})"
    Q = f"exp(({k * np.pi / 4!r})*i)*({_poly(q)})"
    nx, ny = (draw(st.sampled_from(range(9, 22, 2))) for _ in range(2))
    grid = DomainGrid.make(-0.5, 0.5, nx, -0.5, 0.5, ny)
    keep = ()
    if k % 2 == 0:
        keep = ("row", "col") if even_a and parity != "both" else ("row",)
    return PotentialSpec.normalized(a, Q, 1.0), grid, keep


class TestMirror:
    """A member whose frames keep reflections of the grid through the
    basepoint is integrated and factored on the fundamental domain, the
    rows and columns from the ones before the basepoint's on, and every
    other node is read out from its partner's factors through the
    reflections' map."""

    CATENOID = WeierstrassData(CATENOID_MU, CATENOID_NU, 0j)

    def test_reflective_member_is_mirrored(self):
        pot = minimal_to_potential(self.CATENOID, 1.0)
        grid = DomainGrid.square(0.8, 41)
        fg = integrate_frame(pot, grid)
        assert axes(fg) == ("row", "col")
        assert fg.coeffs.shape[:2] == (41, 41)
        row, col = fg.mirror
        j0, i0 = grid.j0, grid.i0
        assert np.array_equal(fg.coeffs[:j0 - 1],
                              row.image(fg.coeffs[:j0 + 1:-1], fg.lo))
        assert np.array_equal(fg.coeffs[:, :i0 - 1],
                              col.image(fg.coeffs[:, :i0 + 1:-1], fg.lo))
        mesh = surface_from_potential(pot, grid)
        assert mesh.meta["mirrored"] == [
            {"axis": "row", "nu": 1, "d": 1}, {"axis": "col", "nu": 1, "d": -1}]
        assert mesh.meta["factored_nodes"] == (41 - j0 + 1) * (41 - i0 + 1)
        assert 0 <= mesh.meta["mirror_deviation"] <= 1e-14
        assert verify_mesh_symmetry(mesh, SymmetrySpec.reflective()) <= 1e-14

    REFUSED = {"off_axis": ("col",), "off_axis_column": ("row",),
               "even_ny": ("col",), "asymmetric_mask": (),
               "three_rows": ("col",), "phase": ()}

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_refused(self, case):
        # the reflections a case keeps; the other is refused
        keep = self.REFUSED[case]
        data = self.CATENOID
        grid = DomainGrid.square(0.8, 41)
        if case == "off_axis":
            # plane data are symmetric about every row; the basepoint row
            # is not the real axis
            data = plane_potential(1.0)
            grid = DomainGrid.square(0.8, 41, z0=0.2j)
        elif case == "off_axis_column":
            data = plane_potential(1.0)
            grid = DomainGrid.square(0.8, 41, z0=0.2)
        elif case == "even_ny":
            grid = DomainGrid.make(-0.8, 0.8, 41, -0.8, 0.84, 42)
            assert grid.j0 == 20
        elif case == "asymmetric_mask":
            mask = np.ones((41, 41), dtype=bool)
            mask[3, 7] = False
            grid = grid.with_mask(mask)
        elif case == "three_rows":
            # no row to fill: row j0 - 1 = 0 is computed anyway
            grid = DomainGrid.make(-0.8, 0.8, 41, -0.04, 0.04, 3)
            assert grid.j0 == 1
        elif case == "phase":
            # Q(zbar) = exp(i/2) conj Q(z) needs nu^2 = exp(-i/2), whose
            # map would move the sampled checks' points; Q(-zbar) is no
            # phase times conj Q(z)
            data = PotentialSpec.normalized("1", "exp(0.25*i)*(1 + z)", 1.0)
        pot = data if isinstance(data, PotentialSpec) \
            else minimal_to_potential(data, 1.0)
        fg = integrate_frame(pot, grid)
        assert axes(fg) == keep
        mesh = surface_from_potential(pot, grid)
        if not keep:
            assert "mirrored" not in mesh.meta
            assert "mirror_deviation" not in mesh.meta
            assert mesh.meta["factored_nodes"] == np.count_nonzero(fg.ok)

    def test_element_breaking_the_reflection_is_factored_in_full(
            self, monkeypatch):
        # the catenoid's twisted initial frame E0hat, folded into the
        # element, is fixed by neither reflection's map
        pot = minimal_to_potential(self.CATENOID, 1.0)
        fg = integrate_frame(pot, DomainGrid.square(0.8, 41))
        assert fg.mirror
        dressed = _left_multiply(identity(), fg)
        assert not dressed.mirror
        calls = []
        batch = frames.iwasawa_batch

        def record(lo, coeffs):
            calls.append(len(coeffs))
            return batch(lo, coeffs)
        monkeypatch.setattr(frames, "iwasawa_batch", record)
        mesh = frames._assemble_mesh(pot, dressed, SurfaceOptions())
        assert sum(calls) == mesh.meta["factored_nodes"] == 41 * 41
        assert "mirrored" not in mesh.meta

    CONSTANT = PotentialSpec.normalized("1", "1", 1.0)
    # criterion 8: (1 + 0.1 z)^2 and Q = 1 are real on the real axis, and
    # the element [[1, -0.1 lam], [0, 1]] is real too
    CRIT8 = PotentialSpec.normalized("(1+0.1*z)^2", "1", 1.0)

    def test_element_keeping_the_reflection_is_mirrored(self):
        res = h_independent_dressing("(1+0.1*z)^2", "1", "1")
        grid = DomainGrid.square(0.8, 41)
        fg = integrate_frame(self.CRIT8, grid)
        assert axes(fg) == ("row",)
        dressed = _left_multiply(res.h_plus, fg)
        assert dressed.mirror == fg.mirror
        mesh = frames._assemble_mesh(self.CRIT8, dressed, SurfaceOptions())
        assert mesh.meta["mirrored"] == [{"axis": "row", "nu": 1, "d": 1}]
        assert mesh.meta["factored_nodes"] == (41 - grid.j0 + 1) * 41 == 902
        ref = frames._assemble_mesh(
            self.CRIT8, dataclasses.replace(dressed, mirror=()),
            SurfaceOptions())
        assert ref.meta["factored_nodes"] == 41 * 41
        assert mesh.mask.all()
        assert_matches_whole_grid(mesh, ref, 1e-13)
        # dress_surface takes the same path
        full = dress_surface(res.h_plus, self.CRIT8, grid)
        assert full.meta["factored_nodes"] == 902
        assert np.array_equal(full.f, mesh.f)
        # dress_frame factors every node: its output is the whole grid's,
        # bit for bit
        got = dress_frame(res.h_plus, fg)
        want = dress_frame(res.h_plus, dataclasses.replace(fg, mirror=()))
        assert got.mirror == fg.mirror and want.mirror == ()
        assert got.lo == want.lo and got.meta == want.meta
        for name in ("coeffs", "ok"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @settings(max_examples=25, deadline=None)
    @given(case=st.fixed_dictionaries({
        name: st.sampled_from(["zero", "real", "imaginary", "complex"])
        for name in ("b1", "b3")} | {
        "a": st.sampled_from(["real", "complex"]),
        "size": st.floats(0.05, 0.3), "phase": st.floats(0.1, 1.4)}))
    def test_random_elements_keep_the_reflections_they_fix(self, case):
        # [[a, b1 lam + b3 lam^3], [0, 1/a]] on constant data, which keep
        # the row with (nu, d) = (1, 1) and the column with (1, -1): the
        # row's map conjugates every entry, the column's also negates the
        # upper-right one, so the row is kept iff a, b1 and b3 are real and
        # the column iff a is real and b1, b3 are imaginary
        unit = {"zero": 0.0, "real": 1.0, "imaginary": 1j,
                "complex": np.exp(1j * case["phase"])}
        a = 1.0 + case["size"] * unit[case["a"]]
        b1, b3 = (case["size"] * unit[case[k]] for k in ("b1", "b3"))
        hp = LoopMat(0, [[a, 1 / a], [0, b1], [0, 0], [0, b3]])
        fg = integrate_frame(self.CONSTANT, DomainGrid.square(0.6, 15))
        assert [(r.axis, r.nu, r.d) for r in fg.mirror] == [
            ("row", 1, 1), ("col", 1, -1)]
        kinds = {case[k] for k in ("a", "b1", "b3")}
        keep = (("row",) if kinds <= {"zero", "real"} else ()) + (
            ("col",) if case["a"] == "real"
            and {case["b1"], case["b3"]} <= {"zero", "imaginary"} else ())
        dressed = _left_multiply(hp, fg)
        assert axes(dressed) == keep
        mesh = frames._assemble_mesh(self.CONSTANT, dressed, SurfaceOptions())
        ref = frames._assemble_mesh(
            self.CONSTANT, dataclasses.replace(dressed, mirror=()),
            SurfaceOptions())
        assert mesh.meta["factored_nodes"] == {
            (): 15 * 15, ("row",): 9 * 15, ("col",): 9 * 15,
            ("row", "col"): 9 * 9}[keep]
        assert_matches_whole_grid(mesh, ref, 1e-13)

    def test_masked_3noid_counts_the_whole_grid(self, monkeypatch):
        # the Jorge-Meeks 3-noid next to its ends, whose masks are mirror
        # images: the image nodes take their partners' tail and quadrature
        # masks, so the mirrored mesh keeps the valid nodes and the causes
        # of the whole grid's run
        pot = minimal_to_potential(WeierstrassData("1/(z^3-1)^2", "z^2"), 1.0)
        grid = DomainGrid.square(0.95, 41)
        fg = integrate_frame(pot, grid)
        mesh = surface_from_potential(pot, grid)
        full_grid(monkeypatch)
        ref = surface_from_potential(pot, grid)
        assert axes(fg) == ("row",) and "mirrored" not in ref.meta
        over = path_masked(fg)
        assert np.array_equal(fg.ok, fg.grid.walk()[1] & ~over)
        assert np.array_equal(mesh.mask, ref.mask)
        assert np.count_nonzero(mesh.mask) == 1538
        assert mesh.meta["mask_causes"] == ref.meta["mask_causes"] == dict(
            dict.fromkeys(frames.MASK_CAUSES, 0), tail=143)
        ok = mesh.mask
        assert np.max(np.abs(mesh.f[ok] - ref.f[ok])) \
            <= 1e-14 * ref.diameter()

    @pytest.mark.parametrize("data, h, half, n", [
        (WeierstrassData("1", "z^2"), 1.0, 0.9, 41),
        (WeierstrassData(CATENOID_MU, CATENOID_NU), 0.1, 1.0, 41),
        (WeierstrassData(CATENOID_MU, CATENOID_NU), 10.0, 0.15, 41),
    ], ids=["smyth", "catenoid_0.1", "catenoid_10"])
    @pytest.mark.parametrize("seed", [None, 3])
    def test_matches_the_whole_grid(self, data, h, half, n, seed,
                                    monkeypatch):
        # with a random SU(2) initial frame, which turns the planes of
        # reflection, the map is taken before the rotation
        pot = minimal_to_potential(data, h)
        if seed is not None:
            pot = dataclasses.replace(
                pot, E0=random_su2(np.random.default_rng(seed)))
        grid = DomainGrid.square(half, n)
        mesh = surface_from_potential(pot, grid)
        full_grid(monkeypatch)
        ref = surface_from_potential(pot, grid)
        assert [r["axis"] for r in mesh.meta["mirrored"]] == ["row", "col"]
        assert mesh.mask.all()
        assert_matches_whole_grid(mesh, ref, 1e-14)
        # the statistics of the whole grid, an image node with its
        # partner's values
        for key in ("max_condition", "condition_p99"):
            assert mesh.meta[key] == pytest.approx(ref.meta[key], rel=1e-12)
        for key in ("max_unitary_residual", "max_iwasawa_residual"):
            assert mesh.meta[key] <= 2 * ref.meta[key] + EPS, key

    @pytest.mark.parametrize("name, h, variant", GALLERY_CASES, ids=[
        f"{name}-{h:g}" + (f"-{v}" if v else "")
        for name, h, v in GALLERY_CASES])
    def test_gallery_member_matches_the_whole_grid(self, name, h, variant,
                                                   monkeypatch):
        # every symmetric gallery member at its pinned h, twisted
        # reflections included, also at an off-axis lambda0 and with a
        # random SU(2) initial frame: the reflections found are the
        # measured ones, the quadrant (a half without a column reflection)
        # is factored, and the mesh is the whole grid's; near-minimal
        # members to the 1/h rounding floor of their positions
        entry = get_entry(name)
        pot = member(entry.data, h)
        grid = entry.grid_for(h)
        opts = SurfaceOptions()
        if variant == "lambda0":
            opts = SurfaceOptions(lambda0=np.exp(1j * np.pi / 7))
        elif variant == "E0":
            pot = dataclasses.replace(
                pot, E0=random_su2(np.random.default_rng(5)))
        mesh = surface_from_potential(pot, grid, opts)
        full_grid(monkeypatch)
        ref = surface_from_potential(pot, grid, opts)
        want = GALLERY_REFLECTIONS[name]
        assert [(r["axis"], r["nu"], r["d"]) for r in mesh.meta["mirrored"]] \
            == [(axis, nu, d) for axis, (nu, d) in want.items()]
        rows = grid.ny - grid.j0 + 1
        cols = grid.nx - grid.i0 + 1 if "col" in want else grid.nx
        assert mesh.meta["factored_nodes"] == rows * cols
        assert ref.meta["factored_nodes"] == grid.nx * grid.ny
        assert mesh.mask.all()
        assert_matches_whole_grid(mesh, ref, 1e-13 if h >= 0.1 else 1e-5)
        assert mesh.meta["mirror_deviation"] \
            <= (1e-14 if h >= 0.1 else 1e-5)

    @settings(max_examples=30, deadline=None)
    @given(case=symmetric_data())
    def test_random_symmetric_data_match_the_whole_grid(self, case):
        # the decision keeps exactly the reflections the data have, with
        # any phase d, and a mirrored mesh is the whole grid's
        pot, grid, keep = case
        fg = integrate_frame(pot, grid)
        assert axes(fg) == keep
        for r in fg.mirror:
            assert r.nu in (1, 1j) and abs(abs(r.d) - 1) <= 1e-15
        mesh = frames._assemble_mesh(pot, fg, SurfaceOptions())
        assert mesh.meta["max_unitary_residual"] <= 1e-10
        if keep:
            whole = dataclasses.replace(fg, mirror=())
            ref = frames._assemble_mesh(pot, whole, SurfaceOptions())
            assert_matches_whole_grid(mesh, ref, 1e-12)

    def test_condition_p99_of_the_whole_grid(self, monkeypatch):
        # the grid of test_condition_p99_of_the_accepted_nodes, mirrored:
        # the percentile of the accepted nodes of the whole grid, a node
        # of the quadrant standing for its images too (two past the
        # basepoint's row and column, each doubles), and the rejected
        # nodes masking their images as well
        conds, weights, rejected = [], [], []
        grid = DomainGrid.square(0.8, 21)
        j0, i0 = grid.j0, grid.i0

        def record(lo, coeffs):
            out = factor.iwasawa_batch(lo, coeffs)
            out["residual"][-1] = 1.0
            out["condition"][-1] = 1e9
            return out
        chunks = frames._factor_chunks

        def rows(*args):
            for sel, lo, x, out, good in chunks(*args):
                j, i = np.divmod(sel, grid.nx)
                weight = (1 + (j >= j0 + 2)) * (1 + (i >= i0 + 2))
                conds.append(out["condition"][good])
                weights.append(weight[good])
                rejected.append(weight[~good])
                yield sel, lo, x, out, good
        monkeypatch.setattr(frames, "iwasawa_batch", record)
        monkeypatch.setattr(frames, "_factor_chunks", rows)
        monkeypatch.setattr(frames, "CHUNK", 64)
        pot = minimal_to_potential(self.CATENOID, 1.0)
        mesh = surface_from_potential(pot, grid)
        meta = mesh.meta
        assert [r["axis"] for r in meta["mirrored"]] == ["row", "col"]
        assert sum(len(c) + len(r) for c, r in zip(conds, rejected)) \
            == meta["factored_nodes"] \
            == (grid.nx - i0 + 1) * (grid.ny - j0 + 1)
        rejected = np.concatenate(rejected)
        assert np.count_nonzero(~mesh.mask) == np.sum(rejected) \
            == meta["mask_causes"]["residual"] > len(rejected)
        cond = np.repeat(np.concatenate(conds), np.concatenate(weights))
        assert meta["max_condition"] == np.max(cond) < 1e9
        assert meta["condition_p99"] == np.percentile(cond, 99)
        assert 1.0 <= meta["condition_p99"] < meta["max_condition"]

    def test_rejections_count_their_mirror_images(self, monkeypatch):
        # the last node of every chunk fails its residual: a rejected node
        # of the quadrant masks its images too, and each masked node is
        # counted once
        def flag(lo, coeffs):
            out = factor.iwasawa_batch(lo, coeffs)
            out["residual"][-1] = 1.0
            return out
        monkeypatch.setattr(frames, "iwasawa_batch", flag)
        pot = minimal_to_potential(self.CATENOID, 1.0)
        grid = DomainGrid.square(0.8, 41)
        mesh = surface_from_potential(pot, grid)
        masked = np.count_nonzero(~mesh.mask)
        j0, i0 = grid.j0, grid.i0
        assert masked > np.count_nonzero(~mesh.mask[j0 - 1:, i0 - 1:])
        assert mesh.meta["mask_causes"] == dict(
            dict.fromkeys(frames.MASK_CAUSES, 0), residual=masked)
        assert np.array_equal(mesh.mask[:j0 - 1], mesh.mask[:j0 + 1:-1])
        assert np.array_equal(mesh.mask[:, :i0 - 1],
                              mesh.mask[:, :i0 + 1:-1])


class TestExtractCurvature:
    def test_sphere_umbilic(self):
        g = DomainGrid.square(1.0, 41)
        mesh = surface_from_potential(plane_potential(1.0), g)
        cf = extract_curvature(mesh)
        assert np.max(np.abs(cf.kplus[cf.valid] - 1.0)) <= 1e-3
        assert np.max(np.abs(cf.kminus[cf.valid] - 1.0)) <= 1e-3

    def test_enneper2_basepoint_curvatures(self):
        # umbilic basepoint: kappa_pm(z0) = h
        g = DomainGrid.square(0.9, 61)
        for h in (0.5, 1.0):
            mesh = surface_from_potential(
                PotentialSpec.normalized("2", "-4*z", h), g)
            cf = extract_curvature(mesh)
            j0, i0 = mesh.basepoint_index()
            assert cf.kplus[j0, i0] == pytest.approx(h, abs=1e-3)
            assert cf.kminus[j0, i0] == pytest.approx(h, abs=1e-3)

    def test_catenoid_h0_hopf_minus_one(self, catenoid, grid41):
        mesh = minimal_surface(catenoid, grid41)
        cf = extract_curvature(mesh)
        assert np.max(np.abs(cf.Q[cf.valid] + 1.0)) <= 0.02

    def test_mean_curvature_one_percent(self, catenoid, grid41):
        for h in (0.5, 1.0):
            mesh = surface_from_potential(minimal_to_potential(catenoid, h),
                                          grid41)
            cf = extract_curvature(mesh)
            assert np.max(np.abs(cf.H[cf.valid] - h)) <= 0.01 * h

    def test_hopf_preserved(self, catenoid, grid41):
        # |Q_num - Q| <= 2 percent away from umbilics (here Q = -1)
        mesh = surface_from_potential(minimal_to_potential(catenoid, 1.0),
                                      grid41)
        cf = extract_curvature(mesh)
        assert np.max(np.abs(cf.Q[cf.valid] + 1.0)) <= 0.02

    def test_second_order_stencil_available(self, catenoid, grid41):
        mesh = surface_from_potential(minimal_to_potential(catenoid, 1.0),
                                      grid41)
        cf = extract_curvature(mesh, stencil=2)
        assert np.max(np.abs(cf.H[cf.valid] - 1.0)) <= 0.01
