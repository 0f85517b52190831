import numpy as np
import pytest

from loopcmc import expr as ex
from loopcmc.frames import extract_curvature
from loopcmc.grid import DomainGrid
from loopcmc.weier import (AntiderivativeFunc, ExprFunc, InvalidDataError,
                           WeierstrassData, initial_frame, metric_hopf,
                           minimal_surface, pcomponent_residual)
from conftest import catenoid_oracle, enneper


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
        nu = AntiderivativeFunc("exp(z)", 0j, constant=-1.0)
        nu_direct = ExprFunc("exp(z)-2")   # same function: e^z - 1 - 1
        assert nu.expr is None
        w_num = WeierstrassData(ExprFunc("1"), nu, 0j)
        w_sym = WeierstrassData(ExprFunc("1"), nu_direct, 0j)
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
        q = AntiderivativeFunc(self.INTEGRAND, self.Z0, constant=0.25j)
        assert q.expr is None
        pts = self.points()
        got = q(pts)
        e = ex.parse(self.INTEGRAND)
        ref = np.array([0.25j + ex.integrate_path(e, self.Z0, complex(z))
                        for z in pts])
        assert np.max(np.abs(got - ref)) <= 1e-15
        assert got[0] == 0.25j

    def test_closed_form(self):
        q = AntiderivativeFunc("exp(z)", self.Z0)
        pts = self.points()
        assert np.max(np.abs(q(pts) - (np.exp(pts) - np.exp(self.Z0)))) <= 1e-12

    def test_shapes(self):
        q = AntiderivativeFunc(self.INTEGRAND, self.Z0)
        assert type(q(0.3 + 0.4j)) is complex
        assert type(q(np.array(0.3 + 0.4j))) is complex
        grid = self.points()[1:].reshape(8, 6)
        vals = q(grid)
        assert vals.shape == (8, 6)
        assert vals[2, 3] == q(complex(grid[2, 3]))

    def test_evaluate_calls_do_not_grow_with_points(self, monkeypatch):
        # one array call groups the legs by piece count: the legs of these
        # points are at most 0.35 long, so there are at most two groups
        # (one or two pieces of length <= 0.25) for any number of points
        q = AntiderivativeFunc(self.INTEGRAND, self.Z0)
        calls = []
        evaluate = ex.evaluate

        def counted(e, z):
            calls.append(np.size(z))
            return evaluate(e, z)
        monkeypatch.setattr(ex, "evaluate", counted)
        for n in (5, 500):
            calls.clear()
            rng = np.random.default_rng(n)
            q(self.Z0 + 0.7 * (rng.random(n) - 0.5 + 1j * rng.random(n) - 0.5j))
            assert 1 <= len(calls) <= 2


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
        g = DomainGrid.square(0.5, 41)
        assert pcomponent_residual(catenoid, g) <= 1e-3

    def test_normals_unit_and_orthogonal(self, catenoid, grid21):
        mesh = minimal_surface(catenoid, grid21)
        n = mesh.normal[mesh.mask]
        assert np.allclose(np.linalg.norm(n, axis=-1), 1.0)
        fx, fy = mesh.fx_fy()
        assert np.max(np.abs(np.einsum("...i,...i", fx, mesh.normal)
                             [mesh.mask])) <= 1e-10
        assert np.max(np.abs(np.einsum("...i,...i", fy, mesh.normal)
                             [mesh.mask])) <= 1e-10
