import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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

    def test_constant_division_by_zero_nonfinite(self):
        # a subtree without z is evaluated in numpy at a scalar point too
        for e in (ex.parse("1/0"), ex.Pow(ex.Const(0), -1)):
            val = ex.evaluate(e, 0.5)
            assert type(val) is complex and not np.isfinite(val)

    def test_sqrt_squares_back(self):
        e = ex.parse("sqrt(z)")
        pts = np.array([0.3 + 0.4j, -2.0 + 0.1j, 5.0])
        assert np.allclose(ex.evaluate(e, pts) ** 2, pts)


class TestAsExpr:
    def test_node_passes_through(self):
        e = ex.parse("exp(z)")
        assert ex.as_expr(e) is e

    def test_text_is_parsed(self):
        assert ex.as_expr("z^2 + 1") == ex.parse("z^2 + 1")
        with pytest.raises(ex.ExprSyntaxError):
            ex.as_expr("z+")

    def test_numbers_are_wrapped(self):
        for x in (2, 0.5, 1 - 2j, np.float64(3.0)):
            e = ex.as_expr(x)
            assert isinstance(e, ex.Const) and e.value == complex(x)

    def test_other_types_rejected(self):
        for x in (None, [1], b"z"):
            with pytest.raises(TypeError):
                ex.as_expr(x)
        with pytest.raises(TypeError):
            ex.parse(2)


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


def _binom_half_series(x, n):
    """Coefficients of (1 + x s)^(1/2) in s, m = 0..n-1."""
    out = np.ones(np.shape(x) + (n,), dtype=complex)
    for m in range(1, n):
        out[..., m] = out[..., m - 1] * (0.5 - (m - 1)) / m * x
    return out


def _conv(u, v):
    n = u.shape[-1]
    return np.stack([np.sum(u[..., :m + 1] * v[..., m::-1], axis=-1)
                     for m in range(n)], axis=-1)


class TestTaylor:
    DEPTH = 12
    PTS = np.array([0.0, 0.3 + 0.2j, -0.25 - 0.4j, 0.5j])

    def closed_forms(self):
        z = self.PTS[:, None]
        m = np.arange(self.DEPTH + 1)
        fact = np.array([math.factorial(k) for k in m])
        inv = 1.0 / (2.0 - z) ** (m + 1)
        expo = np.exp(z) / fact
        # sqrt(1+z^2) = sqrt(1+z0^2) (1 + s/(z0-i))^(1/2) (1 + s/(z0+i))^(1/2)
        z0 = self.PTS
        root = np.sqrt(1 + z0 ** 2)[:, None] * _conv(
            _binom_half_series(1 / (z0 - 1j), self.DEPTH + 1),
            _binom_half_series(1 / (z0 + 1j), self.DEPTH + 1))
        return {"1/(2-z)": inv, "exp(z)": expo, "sqrt(1+z^2)": root,
                "exp(z)*sqrt(1+z^2)/(2-z)": _conv(_conv(expo, root), inv)}

    def test_closed_form_coefficients(self):
        for text, ref in self.closed_forms().items():
            got = ex.taylor(ex.parse(text), self.PTS, self.DEPTH)
            assert got.shape == (len(self.PTS), self.DEPTH + 1)
            assert np.max(np.abs(got - ref)) <= 1e-13, text

    def test_powers(self):
        got = ex.taylor(ex.parse("z^5"), 0j, 7)
        assert np.array_equal(got, np.eye(8)[5])
        z0 = 0.6 - 0.3j
        m = np.arange(9)
        ref = (-1.0) ** m * (m + 1) * z0 ** (-(m + 2.0))
        got = ex.taylor(ex.parse("z^-2"), z0, 8)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_shapes(self):
        e = ex.parse("sqrt(1+z^2)*exp(z)")
        assert ex.taylor(e, 0.25, 4).shape == (5,)
        grid = (np.linspace(-0.3, 0.3, 3)[None, :]
                + 1j * np.linspace(-0.2, 0.2, 2)[:, None])
        got = ex.taylor(e, grid, 4)
        assert got.shape == (2, 3, 5)
        assert np.allclose(got[..., 0], ex.evaluate(e, grid))
        assert ex.taylor(ex.ONE, grid, 2).shape == (2, 3, 3)

    def test_pole_is_nonfinite_not_an_error(self):
        got = ex.taylor(ex.parse("1/(2-z)"), np.array([2.0, 0.5]), 4)
        assert not np.any(np.isfinite(got[0]))
        assert np.allclose(got[1], 1 / 1.5 ** np.arange(1, 6))


# random expression trees of at most six leaves, for the property test
_CONSTS = st.builds(lambda re, im: ex.Const(complex(re, im)),
                    st.floats(-2, 2), st.floats(-2, 2))
_TREES = st.recursive(
    st.one_of(st.just(ex.Z), _CONSTS),
    lambda kids: st.one_of(
        st.builds(ex.Add, kids, kids), st.builds(ex.Sub, kids, kids),
        st.builds(ex.Mul, kids, kids), st.builds(ex.Div, kids, kids),
        st.builds(ex.Neg, kids), st.builds(ex.Pow, kids, st.integers(-2, 3)),
        st.builds(ex.Exp, kids), st.builds(ex.Sqrt, kids)),
    max_leaves=6)


def _tame(e, z):
    """Every subtree of ``e`` is at most 10 in size at ``z``, and every
    divisor, square-root argument and base of a negative power at least 0.5:
    then neither derivative formula loses more than a few digits to
    cancellation, and a relative check is meaningful."""
    kids = [getattr(e, f, None) for f in ("left", "right", "arg", "base")]
    kids = [k for k in kids if isinstance(k, ex.ExprNode)]
    near = None
    if isinstance(e, ex.Div):
        near = e.right
    elif isinstance(e, ex.Sqrt) or (isinstance(e, ex.Pow) and e.power < 0):
        near = kids[0]
    if near is not None and abs(ex.evaluate(near, z)[0]) < 0.5:
        return False
    return abs(ex.evaluate(e, z)[0]) <= 10 and all(_tame(k, z) for k in kids)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(e=_TREES, re=st.floats(-0.5, 0.5), im=st.floats(0.05, 0.5))
def test_taylor_matches_iterated_diff(e, re, im):
    # m! u_m is the m-th derivative; symbolic diff is the oracle
    z = np.array([complex(re, im)])
    assume(_tame(e, z))
    got = ex.taylor(e, z, 4)[0] * [math.factorial(m) for m in range(5)]
    ref, d = [], e
    for _ in range(5):
        ref.append(ex.evaluate(d, z)[0])
        d = ex.diff(d)
    ref = np.array(ref)
    assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


# trees whose leaves are mostly constants, so that many subtrees hold no z
_EXACT = st.sampled_from([ex.ZERO, ex.ONE, ex.Const(2), ex.Const(5),
                          ex.Const(1j)])
_CONST_TREES = st.recursive(
    st.one_of(st.just(ex.Z), _CONSTS, _EXACT, _CONSTS, _EXACT),
    lambda kids: st.one_of(
        st.builds(ex.Add, kids, kids), st.builds(ex.Sub, kids, kids),
        st.builds(ex.Mul, kids, kids), st.builds(ex.Div, kids, kids),
        st.builds(ex.Neg, kids), st.builds(ex.Pow, kids, st.integers(-3, 3)),
        st.builds(ex.Exp, kids), st.builds(ex.Sqrt, kids)),
    max_leaves=8)


def _full_array_eval(e, z):
    """``e`` at ``z`` with every constant spread over ``z`` as an array:
    the reference for constants evaluated once as scalars."""
    if isinstance(e, ex.Const):
        return np.full(z.shape, e.value, dtype=complex)
    if isinstance(e, ex.Var):
        return z
    if isinstance(e, ex.Neg):
        return -_full_array_eval(e.arg, z)
    if isinstance(e, ex.Pow):
        return _full_array_eval(e.base, z) ** e.power
    if isinstance(e, (ex.Exp, ex.Sqrt)):
        fn = np.exp if isinstance(e, ex.Exp) else np.sqrt
        return fn(_full_array_eval(e.arg, z))
    a, b = _full_array_eval(e.left, z), _full_array_eval(e.right, z)
    return {ex.Add: np.add, ex.Sub: np.subtract, ex.Mul: np.multiply,
            ex.Div: np.divide}[type(e)](a, b)


class TestScalarConstants:
    """A subtree without z is evaluated once, as a numpy scalar, and gives
    the values a constant spread over every point gives, bit for bit."""

    POINTS = np.array([[0.3 + 0.1j, -0.7j, 1.2, -0.4 - 0.9j],
                       [0.05j, 2.0 - 1.0j, -1.5 + 0.5j, 0.0]])

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(e=_CONST_TREES)
    @example(e=ex.parse("sqrt(5)*z^3 + 1"))
    @example(e=ex.parse("2^3 - z/3"))
    @example(e=ex.parse("1/(1-1) + z"))
    @example(e=ex.parse("(0.1+0.2*i)*(0.3-0.7*i)^2 - (1/3)^-1*z"))
    def test_matches_full_array_constants(self, e):
        z = self.POINTS
        with np.errstate(all="ignore"):
            ref = np.asarray(_full_array_eval(e, z), dtype=complex)
        ref = np.broadcast_to(ref, z.shape)
        got = ex.evaluate(e, z)
        assert got.shape == z.shape and got.dtype == complex
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
        for idx in np.ndindex(z.shape):
            one = ex.evaluate(e, complex(z[idx]))
            assert type(one) is complex
            assert np.array([one]).tobytes() == got[idx].tobytes()

    def test_constant_only_tree_broadcasts(self):
        e = ex.parse("sqrt(5) + 2^3")
        got = ex.evaluate(e, self.POINTS)
        assert got.shape == self.POINTS.shape
        assert np.all(got == np.sqrt(5) + 8)
        assert type(ex.evaluate(e, 0.5j)) is complex
        assert ex.evaluate(e, np.zeros((0, 3))).shape == (0, 3)

    def test_zero_constant_denominator_is_nonfinite(self):
        e = ex.parse("1/(1-1)")
        for z in (0.5, self.POINTS):
            assert not np.any(np.isfinite(ex.evaluate(e, z)))


class TestSharedNodes:
    """Several expressions in one evaluate call: a node that occurs more
    than once among them is evaluated once, and each value is the one a
    call of its own gives, byte for byte."""

    POINTS = TestScalarConstants.POINTS

    def test_shared_subtree_evaluated_once(self, monkeypatch):
        # the potential's two entries hold a, and Q = a p holds it again
        a = ex.parse("2+exp(z)")
        upper = ex.Const(-0.5) * a
        lower = ex.Div(ex.Mul(a, ex.parse("z^3")), a)
        calls = []
        exp = np.exp

        def counted(x):
            calls.append(np.shape(x))
            return exp(x)
        with monkeypatch.context() as m:
            m.setattr(np, "exp", counted)
            got = ex.evaluate((upper, lower), self.POINTS)
            assert len(calls) == 1
            apart = [ex.evaluate(e, self.POINTS) for e in (upper, lower)]
            assert len(calls) == 2 + 1
        for g, ref in zip(got, apart):
            assert g.tobytes() == ref.tobytes()

    def test_shared_prim_integrated_once(self, monkeypatch):
        prim = ex.Prim(ex.parse("exp(z)/(z-3)"), 0.1j)
        exprs = [prim * ex.Z, ex.Exp(prim) + prim]
        calls = []
        integrate_path = ex.integrate_path

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate_path(*args, **kwargs)
        monkeypatch.setattr(ex, "integrate_path", counted)
        got = ex.evaluate(exprs, self.POINTS)
        assert len(calls) == 1
        for e, g in zip(exprs, got):
            assert g.tobytes() == ex.evaluate(e, self.POINTS).tobytes()
        # given values stand for the node in every expression
        values = np.full(self.POINTS.shape, 0.5 - 2j)
        got = ex.evaluate(exprs, self.POINTS, [(prim, values)])
        assert len(calls) == 3
        assert got[0].tobytes() == (values * self.POINTS).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(t=_CONST_TREES, u=_CONST_TREES)
    def test_matches_separate_calls(self, t, u):
        exprs = [ex.Add(t, u), ex.Mul(t, ex.Neg(t)), t, u, t]
        got = ex.evaluate(exprs, self.POINTS)
        assert isinstance(got, list) and len(got) == len(exprs)
        for e, g in zip(exprs, got):
            assert g.shape == self.POINTS.shape and g.dtype == complex
            assert g.tobytes() == ex.evaluate(e, self.POINTS).tobytes()
        # equal entries come back as separate arrays
        for i, g in enumerate(got):
            for h in got[i + 1:]:
                assert not np.shares_memory(g, h)
        one = ex.evaluate(tuple(exprs), complex(self.POINTS[0, 1]))
        for e, v in zip(exprs, one):
            assert type(v) is complex
            assert np.array([v]).tobytes() == np.array(
                [ex.evaluate(e, complex(self.POINTS[0, 1]))]).tobytes()

    def test_results_are_fresh_arrays(self):
        # z itself, or a Prim whose values are given, comes back as a new
        # array, alone or in a list call: writing into a result leaves the
        # caller's points and values as they were
        z = self.POINTS.copy()
        prim = ex.Prim(ex.parse("exp(z)"), 0j)
        values = np.full(z.shape, 0.5 - 2j)
        subs = [(prim, values)]
        for e in (ex.Z, prim, [ex.Z, prim, ex.Z], [prim, prim * ex.Z]):
            got = ex.evaluate(e, z, subs)
            for g in (got if isinstance(got, list) else [got]):
                assert not np.shares_memory(g, z)
                assert not np.shares_memory(g, values)
                g[...] = 7.0
            assert np.array_equal(z, self.POINTS)
            assert np.all(values == 0.5 - 2j)


class TestOrderAt:
    def test_simple_zero_order(self):
        assert ex.order_at(ex.parse("z^3"), 0j).order == 3

    def test_pole_order(self):
        assert ex.order_at(ex.parse("1/z^2"), 0j).order == -2

    def test_kusner_lower_entry_simple_zero(self):
        # lower potential entry: -2 sqrt5 i z (z^6 + sqrt5 z^3 - 1) / (sqrt5 z^3 + 1)^2
        p = ex.parse("-2*sqrt(5)*i*z*(z^6+sqrt(5)*z^3-1)/(sqrt(5)*z^3+1)^2")
        assert ex.order_at(p, 0j).order == 1

    def test_offset_point(self):
        e = ex.parse("(z - 0.5)^2 * exp(z)")
        assert ex.order_at(e, 0.5 + 0j).order == 2
        assert ex.order_at(e, 0j).order == 0

    def test_stability_under_radius_halving(self):
        for text in gallery_exprs():
            e = ex.parse(text)
            r1 = ex.order_at(e, 0.21 + 0.13j, radius=1e-3)
            r2 = ex.order_at(e, 0.21 + 0.13j, radius=5e-4)
            assert r1.order == r2.order

    def test_branch_point_indeterminate(self):
        res = ex.order_at(ex.parse("sqrt(z)"), 0j)
        assert res.indeterminate
        assert res.order is None


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

    def test_batched_segments_match_scalar(self):
        # array endpoints broadcast; each segment gives what the scalar
        # call gives, and zero-length segments give 0
        e = ex.parse("exp(z)/(z-3)")
        f = lambda p: ex.evaluate(e, p)
        za = 0.2 - 0.1j
        zb = np.array([[za, za + 0.1, za + 0.9j], [za - 0.6 + 0.3j, -1.0, 2j]])
        got = ex.gauss_segment(f, za, zb)
        assert got.shape == zb.shape
        assert got[0, 0] == 0
        for idx in np.ndindex(*zb.shape):
            ref = ex.gauss_segment(f, za, complex(zb[idx]))
            assert isinstance(ref, complex)
            assert got[idx] == ref
        with pytest.raises(ValueError):
            ex.gauss_segment(f, za, np.array([1.0, np.nan]))


class TestPrimitive:
    def test_polynomial_is_symbolic(self):
        q = ex.primitive("3*z^2 - 1", 0.5)
        assert ex.as_polynomial(q) is not None
        assert ex.evaluate(q, 0.5) == 0
        z = 0.2 - 0.7j
        assert ex.evaluate(q, z) == pytest.approx(z ** 3 - z - 0.125 + 0.5)

    def test_quadrature_node(self):
        q = ex.primitive("exp(z)/(z-3)", 0.1j)
        assert q == ex.Prim(ex.parse("exp(z)/(z-3)"), 0.1j)
        assert ex.diff(q) is q.integrand
        assert ex.evaluate(q, 0.1j) == 0
        assert not np.isfinite(ex.evaluate(q / q, 0.1j))
        assert ex.to_text(-q) == "-int(exp(z)/(z - 3))"
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse(ex.to_text(q))


_POLYS = st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1,
                  max_size=9)
_POINTS = st.complex_numbers(max_magnitude=1.0)


def _poly_expr(coeffs):
    """sum_k c_k z^k as a tree of constants, powers and sums."""
    terms = [ex.Const(c) * ex.Pow(ex.Z, k) for k, c in enumerate(coeffs)]
    return functools.reduce(ex.Add, terms)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coeffs=_POLYS, z0=_POINTS, z=_POINTS)
def test_primitive_symbolic_matches_quadrature(coeffs, z0, z):
    # degree <= 8: the symbolic antiderivative and the forced quadrature
    # node agree to 1e-12 of the magnitude of the terms they sum
    e = _poly_expr(coeffs)
    sym = ex.primitive(e, z0)
    assert not isinstance(sym, ex.Prim)
    got, ref = ex.evaluate(sym, z), ex.evaluate(ex.Prim(e, z0), z)
    scale = sum(abs(c) * (abs(z) ** (k + 1) + abs(z0) ** (k + 1)) / (k + 1)
                for k, c in enumerate(coeffs))
    assert abs(got - ref) <= 1e-12 * max(scale, abs(ref), 1e-300)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(e=st.one_of(_TREES, _POLYS.map(_poly_expr)), z0=_POINTS,
       re=st.floats(-0.5, 0.5), im=st.floats(0.05, 0.5))
def test_derivative_of_primitive_is_integrand(e, z0, re, im):
    z = np.array([complex(re, im)])
    assume(_tame(e, z))
    got = ex.evaluate(ex.diff(ex.primitive(e, z0)), z)
    ref = ex.evaluate(e, z)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
