import numpy as np
import pytest

from loopcmc import expr as ex
from conftest import gallery_exprs, KUSNER_NU


class TestParse:
    def test_power(self):
        e = ex.parse("z^2")
        assert isinstance(e, ex.Pow)
        assert isinstance(e.base, ex.Var)
        assert e.power == 2

    def test_catenoid_mu_shape(self):
        # Div(Neg(Exp(Neg(Var z))), 2): unary minus binds inside the grammar
        e = ex.parse("-exp(-z)/2")
        assert isinstance(e, ex.Div)
        assert isinstance(e.left, ex.Neg)
        assert isinstance(e.left.arg, ex.Exp)
        assert isinstance(e.left.arg.arg, ex.Neg)
        assert e.right == ex.Const(2.0 + 0j)

    def test_syntax_error_position(self):
        with pytest.raises(ex.ExprSyntaxError) as err:
            ex.parse("z+")
        assert err.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("w + 1")
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("sin(z)")

    def test_empty(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("   ")

    def test_negative_exponent(self):
        e = ex.parse("(exp(z)+1)^-2")
        assert e.power == -2

    def test_imaginary_unit(self):
        assert ex.evaluate(ex.parse("i*i"), 0.3) == pytest.approx(-1.0)

    def test_roundtrip_through_text(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=5) + 1j * rng.normal(size=5)
        for text in gallery_exprs():
            e = ex.parse(text)
            e2 = ex.parse(ex.to_text(e))
            assert np.allclose(ex.evaluate(e, pts), ex.evaluate(e2, pts))


class TestEvaluate:
    def test_square(self):
        assert ex.evaluate(ex.parse("z^2"), 1 + 1j) == pytest.approx(2j)

    def test_catenoid_mu_at_zero(self):
        assert ex.evaluate(ex.parse("-exp(-z)/2"), 0j) == pytest.approx(-0.5)

    def test_exp_identity(self):
        assert ex.evaluate(ex.parse("exp(z)"), 0j) == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self):
        e = ex.parse(KUSNER_NU)
        pts = np.array([0.1 + 0.2j, -0.3j, 0.25])
        vec = ex.evaluate(e, pts)
        for p, v in zip(pts, vec):
            assert ex.evaluate(e, complex(p)) == pytest.approx(v)

    def test_pole_flagged_nonfinite(self):
        val = ex.evaluate(ex.parse("1/z"), 0j)
        assert not np.isfinite(val)

    def test_sqrt_squares_back(self):
        e = ex.parse("sqrt(z)")
        pts = np.array([0.3 + 0.4j, -2.0 + 0.1j, 5.0])
        assert np.allclose(ex.evaluate(e, pts) ** 2, pts)


class TestDiff:
    def test_power_rule(self):
        for k in (1, 2, 5):
            d = ex.diff(ex.Pow(ex.Z, k))
            z = 0.7 - 0.2j
            assert ex.evaluate(d, z) == pytest.approx(k * z ** (k - 1))

    def test_constant(self):
        assert ex.diff(ex.Const(3.0)) == ex.ZERO

    def test_chain_rule_exp(self):
        d = ex.diff(ex.parse("exp(-z)"))
        z = 0.2 + 0.1j
        assert ex.evaluate(d, z) == pytest.approx(-np.exp(-z))

    def test_against_central_difference(self):
        # |eval(diff e) - centered difference| <= 1e-6 (1 + |eval(diff e)|)
        rng = np.random.default_rng(11)
        step = 1e-5
        for text in gallery_exprs():
            e = ex.parse(text)
            d = ex.diff(e)
            pts = 0.15 + rng.uniform(-0.4, 0.4, 100) \
                + 1j * rng.uniform(-0.4, 0.4, 100)
            dv = ex.evaluate(d, pts)
            fd = (ex.evaluate(e, pts + step) - ex.evaluate(e, pts - step)) \
                / (2 * step)
            good = np.isfinite(dv) & np.isfinite(fd)
            assert np.all(np.abs(dv - fd)[good] <= 1e-6 * (1 + np.abs(dv[good])))


class TestOrderAt:
    def test_simple_zero_order(self):
        assert ex.order_at_int(ex.parse("z^3"), 0j) == 3

    def test_pole_order(self):
        assert ex.order_at_int(ex.parse("1/z^2"), 0j) == -2

    def test_kusner_lower_entry_simple_zero(self):
        # lower potential entry: -2 sqrt5 i z (z^6 + sqrt5 z^3 - 1) / (sqrt5 z^3 + 1)^2
        p = ex.parse("-2*sqrt(5)*i*z*(z^6+sqrt(5)*z^3-1)/(sqrt(5)*z^3+1)^2")
        assert ex.order_at_int(p, 0j) == 1

    def test_offset_point(self):
        e = ex.parse("(z - 0.5)^2 * exp(z)")
        assert ex.order_at_int(e, 0.5 + 0j) == 2
        assert ex.order_at_int(e, 0j) == 0

    def test_stability_under_radius_halving(self):
        for text in gallery_exprs():
            e = ex.parse(text)
            r1 = ex.order_at(e, 0.21 + 0.13j, radius=1e-3)
            r2 = ex.order_at(e, 0.21 + 0.13j, radius=5e-4)
            assert r1.order == r2.order

    def test_branch_point_indeterminate(self):
        res = ex.order_at(ex.parse("sqrt(z)"), 0j)
        assert res.indeterminate
        with pytest.raises(ex.IndeterminateOrderError):
            ex.order_at_int(ex.parse("sqrt(z)"), 0j)


class TestIntegratePath:
    def test_constant(self):
        z = 0.7 + 0.3j
        assert ex.integrate_path(ex.ONE, 0j, z) == pytest.approx(z)

    def test_polynomial_antiderivative(self):
        for k in (1, 2, 4):
            e = ex.Const(k) * ex.Pow(ex.Z, k - 1)
            z = -0.4 + 0.8j
            assert ex.integrate_path(e, 0j, z) == pytest.approx(z ** k)

    def test_exponential_closed_form(self):
        val = ex.integrate_path(ex.parse("exp(z)"), 0j, 1.0 + 0j)
        assert abs(val - (np.e - 1.0)) <= 1e-12

    def test_closed_rectangle_is_zero(self):
        # Cauchy's theorem as the oracle, on a pole-free rectangle
        for text in ("exp(z)", "1/(z-3)", KUSNER_NU):
            e = ex.parse(text)
            corners = [0j, 0.5 + 0j, 0.5 + 0.4j, 0.4j, 0j]
            total = 0.0
            for za, zb in zip(corners[:-1], corners[1:]):
                total += ex.gauss_segment(lambda p: ex.evaluate(e, p), za, zb,
                                          max_step=0.05)
            assert abs(total) <= 1e-10


class TestContinuedSqrt:
    def test_continuity_across_branch_cut(self):
        # mu = exp(2 i t) walks across the principal cut; the continued
        # root must stay continuous while the principal root jumps
        t = np.linspace(0, 2 * np.pi, 201)
        vals = np.exp(2j * t)
        s = ex.continued_sqrt(vals)
        steps = np.abs(np.diff(s))
        assert np.max(steps) < 0.1
        assert np.max(np.abs(s ** 2 - vals)) < 1e-12

    def test_first_pin(self):
        vals = np.array([4.0, 4.1, 4.2])
        s = ex.continued_sqrt(vals, first=-2.0)
        assert s[0] == pytest.approx(-2.0)
        assert np.all(s.real < 0)
