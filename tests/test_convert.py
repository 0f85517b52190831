import numpy as np
import pytest

from loopcmc import expr as ex
from loopcmc.convert import (classify_point, family, limit_member_data,
                             member, minimal_to_potential,
                             potential_to_minimal, validate_orders)
from loopcmc.frames import PotentialSpec, extract_curvature
from loopcmc.grid import DomainGrid
from loopcmc.weier import WeierstrassData
from conftest import enneper, metric_hopf, regularity_report


def ring(radius=0.6, count=40, center=0j):
    return center + radius * np.exp(2j * np.pi * (np.arange(count) + 0.17) / count)


class TestMinimalToPotential:
    def test_enneper_entries(self):
        # literal theorem formula: entries (-h mu, -nu_z) = (-h, -k z^{k-1});
        # equal to the conventional (h, k z^{k-1}) up to simultaneous
        # off-diagonal negation, i.e. a rigid motion
        for k in (1, 2, 3):
            pot = minimal_to_potential(enneper(k), 0.7)
            zs = ring()
            upper = -0.35 * ex.evaluate(pot.a, zs)          # -(h/2) a
            lower = ex.evaluate(ex.Div(pot.Q, pot.a), zs)
            assert np.allclose(upper, -0.7)
            assert np.allclose(lower, -k * zs ** (k - 1))
            assert np.allclose(pot.initial_frame(), np.eye(2))

    def test_catenoid_printed_formulas(self, catenoid):
        # upper = -(h/4) e^{-z} (e^z + 1)^2, lower = -2 e^z (e^z + 1)^{-2}
        h = 1.3
        pot = minimal_to_potential(catenoid, h)
        zs = ring()
        upper = ex.evaluate(ex.Mul(ex.Const(-h / 2), pot.a), zs)
        lower = ex.evaluate(ex.Div(pot.Q, pot.a), zs)
        assert np.allclose(upper, -(h / 4) * np.exp(-zs) * (np.exp(zs) + 1) ** 2)
        assert np.allclose(lower, -2 * np.exp(zs) * (np.exp(zs) + 1) ** -2)

    def test_plane_data(self):
        # constants mu0, nu0: upper -h |mu0|(1 + |nu0|^2), lower 0
        w = WeierstrassData("2*i", "0.5", 0j)
        pot = minimal_to_potential(w, 1.0)
        zs = ring()
        upper = ex.evaluate(ex.Mul(ex.Const(-0.5), pot.a), zs)
        assert np.allclose(upper, -1.0 * 2.0 * 1.25)
        assert np.allclose(ex.evaluate(pot.Q, zs), 0.0)

    def test_hopf_is_minus_two_mu_nuz(self, catenoid):
        pot = minimal_to_potential(catenoid, 2.0)
        _, q = metric_hopf(catenoid)
        zs = ring()
        assert np.allclose(ex.evaluate(pot.Q, zs), ex.evaluate(q, zs),
                           atol=1e-12)

    def test_basepoint_value_real_positive(self, catenoid, helicoid):
        for w in (catenoid, helicoid):
            pot = minimal_to_potential(w, 1.0)
            a0 = ex.evaluate(pot.a, 0j)
            assert abs(a0.imag) < 1e-14 and a0.real > 0


class TestPotentialToMinimal:
    def test_enneper_roundtrip_data(self):
        # a = 2, Q = -2 k z^{k-1}  ->  mu = 1, nu = z^k (symbolically)
        for k in (1, 2, 3):
            w = potential_to_minimal("2", f"-2*{k}*z^{k-1}" if k > 1
                                     else "-2", 0j)
            zs = ring()
            assert np.allclose(w.mu(zs), 1.0)
            assert np.allclose(w.nu(zs), zs ** k)

    def test_plane(self):
        w = potential_to_minimal("2", "0", 0j)
        zs = ring()
        assert np.allclose(w.mu(zs), 1.0)
        assert np.allclose(w.nu(zs), 0.0)

    def test_constant_hopf_antiderivative(self):
        # a = 2, Q = -2: nu = -int(-1) = z; cross-check via the round trip
        w = potential_to_minimal("2", "-2", 0j)
        zs = ring()
        assert np.allclose(w.nu(zs), zs)
        pot = minimal_to_potential(WeierstrassData(w.mu, w.nu, 0j), 1.0)
        assert np.allclose(ex.evaluate(pot.a, zs), 2.0)
        assert np.allclose(ex.evaluate(pot.Q, zs), -2.0)

    def test_nonreal_basepoint_normalization(self):
        # a(z0) = 2i: fourth-root normalization gives mu(z0) = |a0|/2 > 0
        w = potential_to_minimal("2*i", "0", 0j)
        assert w.mu(0j) == pytest.approx(1.0)

    def test_roundtrip_normalized(self):
        # identity on (mu, nu) with mu(z0) = 1, nu(z0) = 0
        for k in (1, 2, 3):
            pot = minimal_to_potential(enneper(k), 0.9)
            w = potential_to_minimal(pot.a, pot.Q, 0j, E0=pot.initial_frame())
            zs = ring()
            assert np.max(np.abs(w.mu(zs) - 1.0)) <= 1e-10
            assert np.max(np.abs(w.nu(zs) - zs ** k)) <= 1e-10

    def test_roundtrip_catenoid_exact(self, catenoid):
        # frame-aware inversion reproduces (mu, nu) with nu(z0) != 0
        pot = minimal_to_potential(catenoid, 1.0)
        w = potential_to_minimal(pot.a, pot.Q, 0j, E0=pot.initial_frame())
        zs = ring(0.5, 100)
        assert np.max(np.abs(w.mu(zs) - catenoid.mu(zs))) <= 1e-10
        assert np.max(np.abs(w.nu(zs) - catenoid.nu(zs))) <= 1e-10

    def test_hopf_consistency(self, catenoid):
        # Q of the converted data equals the potential's Q
        pot = minimal_to_potential(catenoid, 1.0)
        w = potential_to_minimal(pot.a, pot.Q, 0j, E0=pot.initial_frame())
        zs = ring(0.5, 30)
        q_back = -2.0 * w.mu(zs) * ex.evaluate(ex.diff(w.nu), zs)
        assert np.max(np.abs(q_back - ex.evaluate(pot.Q, zs))) <= 1e-10

    def test_q_formula_derived_check(self, catenoid):
        # the Moebius combination (conj(B0) - A0 nu)/(conj(A0) + B0 nu)
        # agrees with the primitive of the lower potential entry
        from loopcmc.weier import initial_frame
        e0 = initial_frame(catenoid)
        a0, b0 = e0[0, 0], e0[0, 1]
        pot = minimal_to_potential(catenoid, 1.0)
        p_entry = ex.Div(pot.Q, pot.a)
        for zt in (0.4 - 0.2j, -0.3 + 0.5j, 0.6):
            nu = catenoid.nu(zt)
            q_formula = (np.conj(b0) - a0 * nu) / (np.conj(a0) + b0 * nu)
            q_integral = ex.integrate_path(p_entry, 0j, complex(zt))
            assert abs(q_formula - q_integral) <= 1e-10


class TestValidateOrders:
    def test_holomorphic_nonvanishing(self):
        rep = validate_orders("2+z", "1", [0j])
        assert rep.points[0].tag == "a-holo-nonzero"
        assert rep.points[0].valid

    def test_even_zero_case(self):
        # Ord(a) = 2k with Ord(Q) = k-1: valid with r = 1
        for k in (1, 2, 3):
            rep = validate_orders(f"z^{2 * k}", f"z^{k - 1}" if k > 1 else "1",
                                  [0j])
            pc = rep.points[0]
            assert pc.tag == "thm-case-2" and pc.valid and pc.r == 1
            assert pc.sigma_star

    def test_double_pole_accepted(self):
        rep = validate_orders("1/z^2", "1", [0j])
        pc = rep.points[0]
        assert pc.tag == "thm-case-1" and pc.valid

    def test_branch_point_flagged(self):
        rep = validate_orders("z^2", "z^3", [0j])
        pc = rep.points[0]
        assert pc.tag == "branch-point" and not pc.valid

    def test_rejects_odd_zero(self):
        rep = validate_orders("z", "1", [0j])
        pc = rep.points[0]
        assert pc.tag == "invalid" and not pc.valid

    def test_indeterminate_propagates(self):
        rep = validate_orders("sqrt(z)", "1", [0j])
        assert rep.points[0].tag == "indeterminate"

    def test_classify_point_table(self):
        assert classify_point(0, 5) == ("a-holo-nonzero", True, None, True)
        assert classify_point(4, 1)[:3] == ("thm-case-2", True, 1)
        assert classify_point(-4, 0)[:3] == ("thm-case-1", True, 1)
        assert classify_point(-2, 7)[:2] == ("thm-case-1", True)
        assert classify_point(1, 0)[:2] == ("invalid", False)
        assert classify_point(2, 5)[:2] == ("branch-point", False)


class TestFamily:
    def test_single_zero_sweep_is_classical(self):
        g = DomainGrid.square(1.0, 21)
        meshes = family(enneper(2), [0.0], g)
        from loopcmc.weier import minimal_surface
        direct = minimal_surface(enneper(2), g)
        assert np.allclose(meshes[0].f, direct.f, atol=1e-12)

    def test_minimal_limit_member(self, catenoid):
        g = DomainGrid.square(1.0, 31)
        meshes = family(catenoid, [1e-6, 1.0], g)
        base = family(catenoid, [0.0], g)[0]
        both = meshes[0].mask & base.mask
        dev = np.linalg.norm(meshes[0].f - base.f, axis=-1)
        assert np.max(dev[both]) <= 1e-4

    def test_tangency_at_basepoint(self, catenoid):
        g = DomainGrid.square(1.0, 21)
        meshes = family(catenoid, [0.0, 1e-6, 0.5, 1.0], g)
        j0, i0 = meshes[0].basepoint_index()
        for m in meshes:
            assert np.max(np.abs(m.f[j0, i0])) <= 1e-8
            assert np.max(np.abs(m.normal[j0, i0]
                                 - meshes[0].normal[j0, i0])) <= 1e-8
            # tangent directions agree too
            assert np.max(np.abs(m.fz[j0, i0] - meshes[0].fz[j0, i0])) <= 1e-8

    def test_shared_hopf(self, catenoid):
        g = DomainGrid.square(1.0, 31)
        meshes = family(catenoid, [1e-6, 0.5, 1.0], g)
        ref = None
        for m in meshes:
            cf = extract_curvature(m)
            q = np.where(cf.valid, cf.Q, np.nan)
            if ref is None:
                ref = q
            else:
                both = np.isfinite(q) & np.isfinite(ref)
                assert np.max(np.abs(q[both] - ref[both])
                              / np.abs(ref[both])) <= 0.02


class TestMember:
    def test_classical_data_at_h_zero_are_returned(self, catenoid):
        assert member(catenoid, 0.0) is catenoid

    def test_classical_data_at_h_one_give_their_potential(self, catenoid):
        got = member(catenoid, 1.0)
        want = minimal_to_potential(catenoid, 1.0)
        assert isinstance(got, PotentialSpec)
        assert got.h == 1.0
        assert ex.to_text(got.a) == ex.to_text(want.a)
        assert ex.to_text(got.Q) == ex.to_text(want.Q)
        assert np.array_equal(got.E0, want.E0)

    def test_potential_gets_only_its_h_replaced(self):
        e0 = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
        p = PotentialSpec.normalized("2+z", "z^2", 0.0, 0.1j, E0=e0)
        got = member(p, 2.5)
        assert got.h == 2.5
        assert (got.z0, got.a, got.Q, got.E0) == (p.z0, p.a, p.Q, p.E0)
        assert p.h == 0.0


class TestLimitMemberData:
    def test_identity_frame_case(self):
        p = PotentialSpec.normalized("2", "-4*z", 0.0)
        w = limit_member_data(p)
        zs = ring()
        assert np.allclose(w.mu(zs), 1.0)
        assert np.allclose(w.nu(zs), zs ** 2)

    def test_general_frame_tangent_scale(self, catenoid):
        # a(z0) = 2 e^{u(z0)}: the limit member's conformal factor at the
        # basepoint matches the original data's
        pot = minimal_to_potential(catenoid, 1.0)
        w = limit_member_data(pot)
        eu0 = abs(w.mu(0j)) * (1 + abs(w.nu(0j)) ** 2)
        a0 = ex.evaluate(pot.a, 0j)
        assert eu0 == pytest.approx(abs(a0) / 2)


class TestRoundTripPrimitive:
    # Q/a is not a polynomial, so q = int Q/a is a quadrature node and the
    # limit-member data carry it inside their expression trees
    A, Q = "1+z+0.3*z^2", "exp(z)"

    @pytest.fixture(params=["identity", "rotation"])
    def spec(self, request):
        e0 = None if request.param == "identity" \
            else np.array([[0.6, 0.8], [-0.8, 0.6]])
        return PotentialSpec.normalized(self.A, self.Q, 0.0, E0=e0)

    def test_potential_reproduced(self, spec):
        w = limit_member_data(spec)
        pot = minimal_to_potential(w, 1)
        zs = ring()
        a, q = ex.parse(self.A), ex.parse(self.Q)
        assert np.max(np.abs(ex.evaluate(pot.a, zs) - ex.evaluate(a, zs))) <= 1e-12
        assert np.max(np.abs(ex.evaluate(pot.Q, zs) - ex.evaluate(q, zs))) <= 1e-12

    def test_regularity_classified(self, spec):
        rows = regularity_report(limit_member_data(spec), [0j, 0.3 - 0.2j])
        assert all(r["ord_mu"] == 0 and r["ord_nu"] >= 0 for r in rows)
        assert all(r["regular"] and r["mu_nu2_holomorphic"] for r in rows)

    def test_one_quadrature_per_evaluation(self, monkeypatch):
        # nu's Moebius tree holds q twice; one evaluation integrates it once
        spec = PotentialSpec.normalized(
            self.A, self.Q, 0.0, E0=np.array([[0.6, 0.8], [-0.8, 0.6]]))
        nu = limit_member_data(spec).nu
        zs = ring()
        q = ex.evaluate(ex.primitive(ex.Div(spec.Q, spec.a), 0j), zs)
        expected = (-0.6 * q + 0.8) / (0.8 * q + 0.6)
        calls = []
        integrate_path = ex.integrate_path

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate_path(*args, **kwargs)
        monkeypatch.setattr(ex, "integrate_path", counted)
        got = ex.evaluate(nu, zs)
        assert len(calls) == 1
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_hopf_is_an_expression(self, spec):
        w = limit_member_data(spec)
        _, q = metric_hopf(w)
        assert isinstance(q, ex.ExprNode)
        zs = ring()
        assert np.max(np.abs(ex.evaluate(q, zs) - ex.evaluate(ex.parse(self.Q), zs))) <= 1e-12
