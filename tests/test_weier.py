import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loopcmc import expr as ex
from loopcmc import weier
from loopcmc.cli import curvature_summary, main
from loopcmc.convert import limit_member_data
from loopcmc.frames import PotentialSpec, extract_curvature
from loopcmc.grid import DomainGrid
from loopcmc.weier import (InvalidDataError, WeierstrassData,
                           _cumulative_grid_integral, _fz_components,
                           _walk_primitive, initial_frame, metric_hopf,
                           minimal_surface)
from conftest import (KUSNER_MU, KUSNER_NU, ORDER5_A, ORDER5_P,
                      catenoid_oracle, enneper, max_l1_pathlength,
                      walk_edges)


class TestIntegrand:
    def test_enneper_order_one(self):
        # f_z = (1 - z^2) e1 - i (1 + z^2) e2 - 2 z e3 for mu = 1, nu = z
        w = enneper(1)
        pts = np.array([0.3 + 0.1j, -0.5j, 1.0])
        mu = w.mu(pts)
        nu = w.nu(pts)
        assert np.allclose(mu * (1 - nu ** 2), 1 - pts ** 2)
        assert np.allclose(-1j * mu * (1 + nu ** 2), -1j * (1 + pts ** 2))
        assert np.allclose(-2 * mu * nu, -2 * pts)


class TestMinimalSurface:
    def test_basepoint_at_origin(self, catenoid, grid21):
        mesh = minimal_surface(catenoid, grid21)
        assert np.allclose(mesh.f[grid21.j0, grid21.i0], 0.0)

    def test_panels_refine_the_sweep(self, catenoid):
        # --substeps reaches the h = 0 sweep: f_z of the catenoid is not a
        # polynomial, so the 4-point rule's error on one panel per edge
        # shows against per-node quadrature, and halving the panels cuts
        # it by the rule's order
        grid = DomainGrid.square(1.0, 5)
        mu, nu = catenoid.mu, catenoid.nu
        ref = 2.0 * np.stack([ex.integrate_path(e, grid.z0, grid.zz) for e in
                              (mu * (1 - nu ** 2), -1j * mu * (1 + nu ** 2),
                               -2 * mu * nu)], axis=-1).real
        size = np.max(np.abs(ref))
        err = [np.max(np.abs(minimal_surface(catenoid, grid, panels).f - ref))
               for panels in (1, 2, 4)]
        assert err[0] <= 1e-11 * size
        assert err[1] <= 1e-13 * size < err[0]
        assert err[2] <= 1e-15 * size < err[1]

    def test_catenoid_closed_form(self, catenoid, grid41):
        mesh = minimal_surface(catenoid, grid41)
        err = np.linalg.norm(mesh.f - catenoid_oracle(grid41), axis=-1)
        assert np.max(err[mesh.mask]) <= 1e-6

    def test_minimality(self, catenoid, grid41):
        mesh = minimal_surface(catenoid, grid41)
        cf = extract_curvature(mesh)
        assert np.max(np.abs(cf.H[cf.valid])) <= 1e-3

    def test_conformal_factor_matches_formula(self, catenoid, grid41):
        mesh = minimal_surface(catenoid, grid41)
        eu_fn, _ = metric_hopf(catenoid)
        expected = eu_fn(grid41.zz)
        rel = np.abs(mesh.eu - expected) / np.abs(expected)
        assert np.max(rel[mesh.mask]) <= 1e-6
        # discrete cross-check: |f_x| = 2 e^u from the analytic tangents
        fx, _ = mesh.fx_fy()
        assert np.max(np.abs(np.linalg.norm(fx, axis=-1) / 2 - expected)
                      [mesh.mask] / expected[mesh.mask]) <= 1e-6

    def test_hopf_against_extraction(self, catenoid, grid41):
        mesh = minimal_surface(catenoid, grid41)
        cf = extract_curvature(mesh)
        _, q = metric_hopf(catenoid)
        expected = ex.evaluate(q, grid41.zz)
        rel = np.abs(cf.Q - expected) / np.abs(expected)
        assert np.max(rel[cf.valid]) <= 0.02

    def test_numeric_nu_path(self, grid21):
        # nu given only through its derivative (non-polynomial integrand)
        q = ex.primitive("exp(z)", 0j)
        assert isinstance(q, ex.Prim)
        nu = q - 1.0
        nu_direct = "exp(z)-2"   # same function: e^z - 1 - 1
        w_num = WeierstrassData("1", nu, 0j)
        w_sym = WeierstrassData("1", nu_direct, 0j)
        m_num = minimal_surface(w_num, grid21)
        m_sym = minimal_surface(w_sym, grid21)
        both = m_num.mask & m_sym.mask
        assert np.max(np.linalg.norm(m_num.f - m_sym.f, axis=-1)[both]) <= 1e-7


class TestAntiderivativeBatch:
    # q = int_{z0} exp(z)/(z-3): non-polynomial, so values come from the
    # quadrature; z0 is off the lattice axes so both legs have length
    Z0 = 0.1 - 0.2j
    INTEGRAND = "exp(z)/(z-3)"

    def points(self):
        rng = np.random.default_rng(5)
        far = self.Z0 + 0.9 * np.exp(2j * np.pi * rng.random(20))
        near = self.Z0 + 0.1 * (rng.random(20) - 0.5 + 1j * rng.random(20))
        return np.concatenate([
            [self.Z0],
            self.Z0.real + 1j * np.array([-0.7, -0.05, 0.3, 0.8]),   # column
            np.array([-0.6, 0.02, 0.45, 0.95]) + 1j * self.Z0.imag,  # row
            far, near])

    def test_matches_scalar_path_integral(self):
        prim = ex.primitive(self.INTEGRAND, self.Z0)
        assert isinstance(prim, ex.Prim)
        q = prim + 0.25j
        pts = self.points()
        got = q(pts)
        e = ex.parse(self.INTEGRAND)
        ref = np.array([0.25j + ex.integrate_path(e, self.Z0, complex(z))
                        for z in pts])
        assert np.max(np.abs(got - ref)) <= 1e-15
        assert got[0] == 0.25j

    def test_closed_form(self):
        q = ex.primitive("exp(z)", self.Z0)
        pts = self.points()
        assert np.max(np.abs(q(pts) - (np.exp(pts) - np.exp(self.Z0)))) <= 1e-12

    def test_shapes(self):
        q = ex.primitive(self.INTEGRAND, self.Z0)
        assert type(q(0.3 + 0.4j)) is complex
        assert type(q(np.array(0.3 + 0.4j))) is complex
        grid = self.points()[1:].reshape(8, 6)
        vals = q(grid)
        assert vals.shape == (8, 6)
        assert vals[2, 3] == q(complex(grid[2, 3]))

    def test_evaluate_calls_do_not_grow_with_points(self, monkeypatch):
        # one array call groups the legs by piece count: the legs of these
        # points are at most 0.35 long, so there are at most two groups
        # (one or two pieces of length <= 0.25) for any number of points;
        # only evaluations of the integrand count, not of the primitive
        q = ex.primitive(self.INTEGRAND, self.Z0)
        calls = []
        evaluate = ex.evaluate

        def counted(e, z):
            if e is q.integrand:
                calls.append(np.size(z))
            return evaluate(e, z)
        monkeypatch.setattr(ex, "evaluate", counted)
        for n in (5, 500):
            calls.clear()
            rng = np.random.default_rng(n)
            q(self.Z0 + 0.7 * (rng.random(n) - 0.5 + 1j * rng.random(n) - 0.5j))
            assert 1 <= len(calls) <= 2


def order5_data():
    """order5's h = 0 member: nu = -int Q/a is a Prim (Q/a is polynomial
    in value, not in form)."""
    return limit_member_data(PotentialSpec.normalized(
        ORDER5_A, f"({ORDER5_A})*({ORDER5_P})", 0.0))


class TestWalkPrimitive:
    """Primitives on a mesh grid take their values from one cumulative
    pass along the row-then-column walk of the lattice, which follows
    integrate_path's horizontal-then-vertical path to every node and to
    every sweep point of the basepoint row and the columns; a reroute
    edge's points add the edge's own partial integrals to its start
    node's value."""

    @settings(max_examples=30, deadline=None)
    @given(nx=st.integers(2, 9), ny=st.integers(2, 9),
           half=st.tuples(st.floats(0.02, 1.5), st.floats(0.02, 1.5)),
           centre=st.complex_numbers(max_magnitude=1.0),
           base=st.tuples(st.floats(0, 1), st.floats(0, 1)),
           poles=st.lists(st.tuples(st.floats(0, 2 * np.pi),
                                    st.floats(1.0, 3.0),
                                    st.complex_numbers(max_magnitude=2.0)),
                          min_size=1, max_size=3),
           c0=st.complex_numbers(max_magnitude=2.0), nudge=st.booleans(),
           wall=st.booleans(), panels=st.integers(1, 3))
    @example(nx=9, ny=5, half=(0.1, 0.1), centre=0.2 - 0.1j, base=(0.3, 0.8),
             poles=[(1.0, 1.0, 1.0 + 0j)], c0=0j, nudge=False,
             wall=False, panels=1)  # short
    @example(nx=3, ny=4, half=(1.5, 1.2), centre=0j, base=(1.0, 0.0),
             poles=[(2.0, 1.0, 1j)], c0=1 + 0j, nudge=True,
             wall=False, panels=1)  # up to 1.5 long
    @example(nx=3, ny=4, half=(1.5, 1.2), centre=0j, base=(1.0, 0.0),
             poles=[(2.0, 1.0, 1j)], c0=1 + 0j, nudge=True,
             wall=True, panels=2)  # long reroute edges, rows and columns
    def test_values_match_integrate_path(self, nx, ny, half, centre, base,
                                         poles, c0, nudge, wall, panels):
        # nudge: the primitive starts off the basepoint node by less than
        # the grid's node tolerance; wall: the node next to the basepoint
        # in its column is masked, so the walk reroutes the nodes behind
        # it; panels: the sweep's panels per edge (--substeps)
        if nx == ny:
            ny += 1
        ny = max(ny, 4) if wall else ny
        xs = centre.real + np.linspace(-half[0], half[0], nx)
        ys = centre.imag + np.linspace(-half[1], half[1], ny)
        i0, j0 = round(base[0] * (nx - 1)), round(base[1] * (ny - 1))
        mask = np.ones((ny, nx), dtype=bool)
        if wall:
            mask[j0 + (1 if j0 + 2 < ny else -1), i0] = False
        grid = DomainGrid(xs, ys, i0, j0, mask)
        # each pole lies at least 1.0 outside the rectangle
        reach = np.hypot(*half)
        integrand = ex.Const(c0)
        for angle, gap, c in poles:
            p = centre + (reach + gap) * np.exp(1j * angle)
            integrand = integrand + ex.Const(c) / (ex.parse("z") - p)
        z0 = grid.z0 + (1e-11 * min(half) * (1 - 1j) if nudge else 0)
        nodes, points = _walk_primitive(ex.Prim(integrand, z0), grid, panels)
        ref_nodes = ex.integrate_path(integrand, z0, grid.zz)
        chains, _ = grid.walk()
        assert any(c.phase == 2 for c in chains) == wall
        points, along = points(chains)
        # the points arrive flat, in the walk's edge order: the basepoint
        # row east then west, the rows down then up, then the reroutes
        src, dst = np.array(walk_edges(grid.mask, grid.j0, grid.i0)[0]).T
        zz = grid.zz.ravel()
        t = ex.panel_points(ex.WALK_GL_N, panels)
        pts = zz[src] + t[:, None] * (zz[dst] - zz[src])
        assert points.shape == pts.shape
        # the poles lie outside the rectangle, so the values continued
        # along the reroutes are the lattice's too
        got = np.concatenate([nodes.ravel(), along.ravel(), points.ravel()])
        ref = np.concatenate([ref_nodes.ravel(), ref_nodes.ravel(),
                              ex.integrate_path(integrand, z0, pts).ravel()])
        scale = np.max(np.abs(integrand(grid.zz))) * max_l1_pathlength(grid)
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    def test_order5_mesh_integrates_no_path(self, monkeypatch):
        # one quadrature per edge piece: 12 integrand points on each of the
        # 50 + 51 * 50 edges (all shorter than 0.25), no per-point path
        w = order5_data()
        prim = w.nu.arg
        assert isinstance(prim, ex.Prim)
        paths, points = [], []
        integrate_path, evaluate = ex.integrate_path, ex.evaluate

        def counted_path(*args, **kwargs):
            paths.append(args)
            return integrate_path(*args, **kwargs)

        def counted_evaluate(e, z, *args):
            if e is prim.integrand:
                points.append(np.size(z))
            return evaluate(e, z, *args)
        monkeypatch.setattr(ex, "integrate_path", counted_path)
        monkeypatch.setattr(ex, "evaluate", counted_evaluate)
        mesh = minimal_surface(w, DomainGrid.square(0.4, 51))
        assert mesh.mask.all()
        assert paths == []
        assert sum(points) <= 12 * (50 + 51 * 50)

    def test_primitive_pass_is_sliced_by_block_points(self, monkeypatch):
        # the primitive's edges are evaluated in slices of at most
        # BLOCK_POINTS points, as the pass's are, with the same bytes at
        # the nodes and at the sweep points
        prim = order5_data().nu.arg
        grid = DomainGrid.square(0.4, 21)
        chains = grid.walk()[0]

        def values():
            nodes, points = weier._walk_primitive(prim, grid, 1)
            return nodes.tobytes(), points(chains)[0].tobytes()
        ref = values()
        sizes = []
        evaluate = ex.evaluate

        def counted_evaluate(e, z, *args):
            if e is prim.integrand:
                sizes.append(np.size(z))
            return evaluate(e, z, *args)
        monkeypatch.setattr(ex, "evaluate", counted_evaluate)
        monkeypatch.setattr(weier, "BLOCK_POINTS", 100)
        assert values() == ref
        assert len(sizes) > 1 and max(sizes) <= 100
        assert sum(sizes) == 12 * (20 + 21 * 20)

    def test_primitive_pass_memory_is_bounded(self):
        # on 201 x 201 nodes the traced peak of the order5 mesh, whose nu is
        # a Prim, stays within twice that of Enneper's, which has none (it
        # read 46 MB against 12 MB when every lattice edge was evaluated in
        # one call)
        def peak(w, grid):
            tracemalloc.start()
            try:
                minimal_surface(w, grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        enneper = peak(WeierstrassData("1", "z^2"), DomainGrid.square(1.0, 201))
        order5 = peak(order5_data(), DomainGrid.square(0.4, 201))
        assert order5 <= 2 * enneper

    def test_order5_mesh_walks_the_grid_twice(self, monkeypatch):
        # one walk of the whole lattice for the primitive's values, shared
        # by its edge integrals and its cumulative pass, and one of the
        # masked grid for the mesh's integral
        walks = []
        walk = DomainGrid.walk

        def counted(g):
            walks.append(g)
            return walk(g)
        monkeypatch.setattr(DomainGrid, "walk", counted)
        minimal_surface(order5_data(), DomainGrid.square(0.5, 51))
        assert len(walks) == 2

    def test_reroute_around_a_zero_of_a(self, tmp_path, monkeypatch):
        # a = z - 0.3 vanishes on the basepoint row: its 3 x 3 block is
        # masked and the nodes behind it are reached by rerouting, whose
        # points take nu from the lattice pass too, with no path integral
        # per point and no walk beyond the lattice's and the masked
        # grid's; the nodes in front of it keep the per-point sweep's
        # positions, and the nodes behind the zero, where nu = -int 1/a
        # along the walk is not the lattice's, are masked under "path"
        argv = ["mesh", "--a", "z-0.3", "--Q", "1", "--h", "0",
                "--grid", "21", "--xrange", "-0.5", "0.5",
                "--yrange", "-0.5", "0.5", "--out", str(tmp_path)]
        assert main(argv) == 0
        with open(tmp_path / "report.json") as fh:
            item = json.load(fh)["items"][0]
        assert item["mask_causes"]["regularity"] == 9
        assert item["mask_causes"]["path"] > 0
        assert sum(item["mask_causes"].values()) \
            == round(item["masked_fraction"] * 21 * 21)
        w = limit_member_data(PotentialSpec.normalized("z-0.3", "1", 0.0))
        grid = DomainGrid.square(0.5, 21)
        paths, walks = [], []
        integrate_path, walk = ex.integrate_path, DomainGrid.walk

        def counted(*args, **kwargs):
            paths.append(args)
            return integrate_path(*args, **kwargs)

        def counted_walk(g):
            walks.append(g)
            return walk(g)
        with monkeypatch.context() as m:
            m.setattr(ex, "integrate_path", counted)
            m.setattr(DomainGrid, "walk", counted_walk)
            mesh = minimal_surface(w, grid)
        assert paths == []
        assert len(walks) == 2
        assert any(c.phase == 2 for c in mesh.grid.walk()[0])
        per_point = 2.0 * _cumulative_grid_integral(
            lambda pts, edges: _fz_components(w.mu(pts), w.nu(pts)).T,
            mesh.grid, 3, mesh.grid.walk()).real
        per_point -= per_point[grid.j0, grid.i0]
        front = mesh.mask & (grid.zz.real <= 0.2)
        assert np.count_nonzero(mesh.mask & ~front) > 0
        assert np.max(np.abs(mesh.f - per_point)[front]) <= 1e-12

    @pytest.mark.parametrize("a", ["z-0.3", "z-0.3-0.3*i", "(z-0.3)^2"])
    def test_nodes_behind_a_zero_of_a_are_masked_or_consistent(self, a):
        # nu = -int Q/a has a pole of its integrand at the zero; every node
        # left valid has positions whose central differences are the
        # mesh's own 2 Re f_z to the differences' O(dx^2), behind the zero
        # as in front of it (2.5 times |f_x| off behind z - 0.3 when the
        # rerouted nodes kept the lattice's nu)
        w = limit_member_data(PotentialSpec.normalized(a, "1", 0.0))
        grid = DomainGrid.square(0.5, 21)
        mesh = minimal_surface(w, grid)
        assert mesh.meta["mask_causes"]["regularity"] == 9
        assert mesh.meta["mask_causes"]["path"] > 0
        assert np.count_nonzero(~mesh.mask) \
            == sum(mesh.meta["mask_causes"].values())
        f, m = mesh.f, mesh.mask
        both = m[:, 2:] & m[:, :-2] & m[:, 1:-1]
        fx = (f[:, 2:] - f[:, :-2]) / (2 * (grid.xs[1] - grid.xs[0]))
        ref = 2.0 * mesh.fz[:, 1:-1].real
        err = np.linalg.norm(fx - ref, axis=-1) \
            / np.linalg.norm(ref, axis=-1)
        behind = both & (grid.zz[:, 1:-1].real > 0.2)
        assert np.count_nonzero(behind) > 0
        assert np.max(err[both]) <= 0.15


class TestBlockedIntegral:
    """The pass (one integrand call per slice of the walk's edges, node
    values by one cumulative sum along the walk's chains) against per-node
    quadrature of f_z.  The data make f_z a polynomial of degree 6, which
    both the sweep's and integrate_path's rules integrate exactly, so the
    two differ by rounding only, whatever path the walk takes."""

    W = WeierstrassData("1 + z/3 - i*z^2/5", "z - 0.2 + i*z^2/4", 0j)

    def reference(self, grid):
        """integrate_path of f_z at the nodes, and max|f_z| times the
        longest l1 path, the scale of the rounding."""
        mu, nu = self.W.mu, self.W.nu
        ref = np.stack([ex.integrate_path(e, grid.z0, grid.zz) for e in
                        (mu * (1 - nu ** 2), -1j * mu * (1 + nu ** 2),
                         -2 * mu * nu)], axis=-1)
        size = np.max(np.abs(_fz_components(mu(grid.zz), nu(grid.zz))))
        return ref, size * max_l1_pathlength(grid)

    @pytest.mark.parametrize("shape", ["wide", "one_row", "one_column",
                                       "wall"])
    @pytest.mark.parametrize("bound", [None, 16])
    def test_matches_per_node_quadrature(self, shape, bound, monkeypatch):
        # bound 16: four edges' points, so the slices cut the rows and
        # the chains
        if bound is not None:
            monkeypatch.setattr(weier, "BLOCK_POINTS", bound)
        xs, ys = np.linspace(-0.7, 0.5, 13), np.linspace(-0.3, 0.9, 8)
        mask = None
        if shape == "one_row":
            ys = ys[3:4]
        elif shape == "one_column":
            xs = xs[9:10]
        elif shape == "wall":
            # a wall across the basepoint column above the basepoint row:
            # the nodes behind it are rerouted
            mask = np.ones((len(ys), len(xs)), dtype=bool)
            mask[5, 4:12] = False
        grid = DomainGrid(xs, ys, min(9, len(xs) - 1), min(2, len(ys) - 1),
                          mask)
        chains, reached = grid.walk()
        got = _cumulative_grid_integral(
            lambda pts, edges: _fz_components(self.W.mu(pts),
                                              self.W.nu(pts)).T,
            grid, 3, (chains, reached))
        assert np.array_equal(np.all(np.isfinite(got), axis=-1), reached)
        if shape == "wall":
            assert any(c.phase == 2 for c in chains)
        ref, scale = self.reference(grid)
        assert np.max(np.abs(got - ref)[reached]) <= 1e-13 * scale

    @pytest.mark.parametrize("bound", [None, 16])
    def test_minimal_surface_positions(self, bound, monkeypatch):
        # minimal_surface integrates (mu, mu nu, mu nu^2) and combines
        if bound is not None:
            monkeypatch.setattr(weier, "BLOCK_POINTS", bound)
        grid = DomainGrid(np.linspace(-0.7, 0.5, 13),
                          np.linspace(-0.3, 0.9, 8), 9, 2)
        mesh = minimal_surface(self.W, grid)
        assert mesh.mask.all()
        # positions are 2 Re F, within twice the bound on F
        ref, scale = self.reference(grid)
        assert np.max(np.abs(mesh.f - 2.0 * ref.real)) <= 2e-13 * scale


class TestMetricHopf:
    def test_plane_zero_hopf(self):
        w = WeierstrassData("1", "0.3", 0j)
        _, q = metric_hopf(w)
        assert ex.evaluate(q, 0.7 + 0.2j) == pytest.approx(0.0)

    def test_enneper_hopf(self):
        for k in (1, 2, 3):
            _, q = metric_hopf(enneper(k))
            z = 0.4 - 0.3j
            assert ex.evaluate(q, z) == pytest.approx(-2 * k * z ** (k - 1))

    def test_catenoid_hopf_constant(self, catenoid):
        # mu = -e^{-z}/2, nu = -e^z: Q = -2 mu nu_z = -1 identically
        _, q = metric_hopf(catenoid)
        pts = np.array([0j, 1.2 - 0.7j, -0.4 + 0.9j])
        assert np.allclose(ex.evaluate(q, pts), -1.0)


class TestInitialFrame:
    def test_normalized_data_gives_identity(self):
        e0 = initial_frame(WeierstrassData("1", "z^2", 0j))
        assert np.allclose(e0, np.eye(2))

    def test_catenoid_moduli(self, catenoid):
        e0 = initial_frame(catenoid)
        assert abs(e0[0, 0]) == pytest.approx(1 / np.sqrt(2))
        assert abs(e0[0, 1]) == pytest.approx(1 / np.sqrt(2))
        assert np.allclose(e0 @ e0.conj().T, np.eye(2), atol=1e-14)
        assert np.linalg.det(e0) == pytest.approx(1.0)

    def test_diagonal_case(self):
        # nu(z0) = 0 with complex mu0: diagonal frame diag(A0, conj(A0))
        w = WeierstrassData("i*(1+z)", "z", 0j)
        e0 = initial_frame(w)
        assert abs(e0[0, 1]) == 0.0
        assert e0[0, 0] == pytest.approx(np.exp(1j * np.pi / 4))

    def test_vanishing_mu_rejected(self):
        with pytest.raises(InvalidDataError):
            initial_frame(WeierstrassData("z", "1", 0j))


class TestRegularityReport:
    def test_enneper_regular_at_zero(self):
        from loopcmc.weier import regularity_report
        rows = regularity_report(enneper(2), [0j, 0.5 + 0.2j])
        assert all(r["regular"] and r["mu_nu2_holomorphic"] for r in rows)

    def test_compensated_zero_of_mu(self):
        # mu = z^2, nu = 1/z: Ord(mu) = 2 = -2 Ord(nu): regular, and
        # mu nu^2 = 1 holomorphic
        from loopcmc.weier import regularity_report, WeierstrassData
        w = WeierstrassData("z^2", "1/z", 1.0 + 0j)
        row = regularity_report(w, [0j])[0]
        assert row["ord_mu"] == 2 and row["ord_nu"] == -1
        assert row["regular"] and row["mu_nu2_holomorphic"]

    def test_odd_zero_not_regular(self):
        from loopcmc.weier import regularity_report, WeierstrassData
        w = WeierstrassData("z", "1", 1.0 + 0j)
        row = regularity_report(w, [0j])[0]
        assert not row["regular"]


class TestGaussMap:
    def test_holomorphy_proxy_small(self, catenoid):
        # a minimal surface has H = 0: on the Weierstrass meshes the
        # curvature read-out, which differences the analytic f_z once,
        # stays within its own difference error of that against the
        # curvature scale (7.5e-11, 2.3e-15 and 2.4e-7 measured)
        for w, half, bound in (
                (catenoid, 1.0, 1e-9), (enneper(2), 1.0, 1e-13),
                (WeierstrassData(KUSNER_MU, KUSNER_NU, 0j), 0.3, 1e-6)):
            mesh = minimal_surface(w, DomainGrid.square(half, 41))
            summary = curvature_summary(mesh)
            assert summary["valid_nodes"] == 37 * 37
            assert summary["h_num_max_err"] \
                <= bound * summary["kappa_scale_median"]

    def test_normals_unit_and_orthogonal(self, catenoid, grid21):
        mesh = minimal_surface(catenoid, grid21)
        n = mesh.normal[mesh.mask]
        assert np.allclose(np.linalg.norm(n, axis=-1), 1.0)
        fx, fy = mesh.fx_fy()
        assert np.max(np.abs(np.einsum("...i,...i", fx, mesh.normal)
                             [mesh.mask])) <= 1e-10
        assert np.max(np.abs(np.einsum("...i,...i", fy, mesh.normal)
                             [mesh.mask])) <= 1e-10
