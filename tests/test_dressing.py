import dataclasses
import json

import numpy as np
import pytest

from loopcmc import expr as ex
from loopcmc.convert import minimal_to_potential
from loopcmc.dressing import (DressingError, _WuSystem, _left_multiply,
                              dress_frame, dress_surface, gauge_potential,
                              gauge_ode_residual, h_independent_dressing,
                              relation_residuals, wu_recursion)
from loopcmc.frames import (PotentialSpec, integrate_frame,
                            surface_from_potential, extract_curvature)
from loopcmc.grid import DomainGrid
from loopcmc.loops import LoopMat, conv, hat_extend, identity, mul
from conftest import rand_unimodular_twisted
from test_loops import plus_p_defect


A_PAIR = "(1+0.1*z)^2"     # a = Q (1+0.1 z)^2 with Q = 1
AT_PAIR = "1"
Q_PAIR = "1"


def _power(fg, k):
    """Coefficient array of power k of a frame grid (zeros outside)."""
    idx = k - fg.lo
    if 0 <= idx < fg.coeffs.shape[2]:
        return fg.coeffs[:, :, idx]
    return np.zeros(fg.coeffs.shape[:2] + (2,), dtype=complex)


def higher_coefficient_max(co):
    out = 0.0
    for n, d in co.values.items():
        for w, arr in d.items():
            if n == 0 or (n == 1 and w == "b"):
                continue
            out = max(out, float(np.max(np.abs(arr))))
    return out


class TestGaugePotential:
    def test_identity(self):
        a2, q2 = gauge_potential("2+z", "1", "1")
        zs = np.linspace(0, 1, 7) + 0.2j
        assert np.allclose(ex.evaluate(a2, zs), 2 + zs)

    def test_constant(self):
        a2, _ = gauge_potential("2+z", "1", "3")
        zs = np.linspace(0, 1, 7)
        assert np.allclose(ex.evaluate(a2, zs), 9 * (2 + zs))

    def test_nontrivial(self):
        a2, q2 = gauge_potential("1", "1", "1+0.1*z")
        zs = np.linspace(-0.5, 0.5, 9) + 0.3j
        assert np.allclose(ex.evaluate(a2, zs), (1 + 0.1 * zs) ** 2)
        assert np.allclose(ex.evaluate(q2, zs), 1.0)


class TestHIndependent:
    def test_trivial_pair(self):
        res = h_independent_dressing("2+z", "2+z", "1")
        zs = np.linspace(0, 0.5, 5)
        assert np.allclose(ex.evaluate(res.a0, zs), 1.0)
        assert np.allclose(ex.evaluate(res.b1, zs), 0.0)
        assert res.verdict
        assert np.allclose(res.h_plus.coeff(0), np.eye(2))

    def test_constant_rescale(self):
        res = h_independent_dressing("9*(2+z)", "2+z", "1")
        zs = np.linspace(0, 0.5, 5)
        assert np.allclose(ex.evaluate(res.a0, zs), 3.0)
        assert np.allclose(ex.evaluate(res.b1, zs), 0.0)
        assert res.verdict

    def test_linear_pair(self):
        res = h_independent_dressing(A_PAIR, AT_PAIR, Q_PAIR)
        zs = np.linspace(-0.5, 0.5, 11) + 0.1j
        assert np.allclose(ex.evaluate(res.a0, zs), 1 + 0.1 * zs)
        assert np.max(np.abs(ex.evaluate(res.b1, zs) - 0.1)) <= 1e-10
        assert res.verdict
        hp = res.h_plus
        assert hp.coeff(0)[0, 0] == pytest.approx(1.0)
        assert hp.coeff(1)[0, 1] == pytest.approx(-0.1)
        assert plus_p_defect(hp) <= 1e-12

    def test_negative_verdict(self):
        # a0 = sqrt(1+z): b1 = (1/Q) a0' is not constant
        res = h_independent_dressing("1+z", "1", "1")
        assert not res.verdict
        assert res.h_plus is None

    def test_hypothesis_on_q(self):
        with pytest.raises(DressingError):
            h_independent_dressing("1", "1", "z^2")
        # simple root at the basepoint is allowed
        res = h_independent_dressing("2+z", "2+z", "z",
                                     samples=np.array([0.3, 0.4]))
        assert res.verdict


def _wu_reference(a, atilde, Q, h, K, path):
    """``wu_recursion`` and its checks' input the way they are built
    without reuse: every level's jets afresh for each odd level, at z0 and
    at the collocation points, and the checks' series from a new
    ``_WuSystem`` on the samples.  Returns (b_init, jets, data)."""
    a, atilde, Q = (ex.as_expr(e) for e in (a, atilde, Q))
    z0, z1, ns = path
    zs = np.linspace(complex(z0), complex(z1), ns)
    dz = (zs[1:] - zs[:-1])[:, None]
    m = ex.WALK_GL_N
    pts = zs[:-1, None] + ex.panel_points(m, 1) * dz
    sys_ = _WuSystem(a, atilde, Q, h, K,
                     np.append(np.hstack([zs[:-1, None], pts]), zs[-1]))
    at0, q0 = complex(sys_.at[0, 0]), complex(sys_.q[0, 0])
    b_init = {}
    for n in sys_.odd:
        aprev = sys_.jets(0, b_init)[n - 1]["a"]
        b_init[n] = complex(aprev[1]) * at0 / q0
    # (s b_n)' = s c0_n with s = exp(-int c1), by the weights' integrals
    # over each step to its points and its end
    index = np.arange(pts.size + len(pts)).reshape(-1, m + 1)[:, 1:]
    weights = ex.interpolant_integrals(m, 1, 1)

    def integrals(f):
        part = (f @ weights.T) * dz
        ends = np.concatenate([[0.0], np.cumsum(part[:, -1])])
        return ends, ends[:-1, None] + part[:, :-1]
    s_nodes, s_pts = (np.exp(-v) for v in integrals(sys_.c1[index, 0]))
    bnodes, bpts = {}, {}
    for n in sys_.odd:
        c0 = sys_.jets(index, bpts)[n]["c0"][..., 0]
        at_nodes, at_pts = integrals(s_pts * c0)
        bnodes[n] = (b_init[n] + at_nodes) / s_nodes
        bpts[n] = (b_init[n] + at_pts) / s_pts
    checks = _WuSystem(a, atilde, Q, h, K, zs)
    return (b_init, checks.jets(slice(None), bnodes),
            (checks.a, checks.at, checks.q))


class TestWuRecursion:
    @pytest.mark.parametrize("a, atilde, Q, path", [
        (A_PAIR, AT_PAIR, Q_PAIR, (0j, 0.8, 81)),
        ("1+z+0.3*z^2", "1+0.2*z", "exp(z)", (0j, 0.5 + 0.3j, 61)),
        ("2-z", "(1-0.2*z)^2", "1+z^2/3", (0.1j, 0.6, 41))])
    def test_levels_built_once_match_a_rebuild(self, a, atilde, Q, path):
        # each level built once and the checks reading the recursion's own
        # jets give the bits of a rebuild level by level
        for h in (0.5, 2.0):
            co = wu_recursion(a, atilde, Q, h, K=6, path=path)
            b_init, jets, data = _wu_reference(a, atilde, Q, h, 6, path)
            assert co.b_init == b_init
            assert co.jets.keys() == jets.keys() == co.values.keys()
            for n, level in jets.items():
                assert co.jets[n].keys() == level.keys()
                for w, series in level.items():
                    assert np.array_equal(co.jets[n][w], series)
                    assert np.array_equal(co.values[n][w], series[:, 0])
            for mine, ref in zip(co.data, data):
                assert np.array_equal(mine, ref)
            rebuilt = dataclasses.replace(co, jets=jets, data=data)
            assert relation_residuals(co) == relation_residuals(rebuilt)
            assert gauge_ode_residual(co) == gauge_ode_residual(rebuilt)

    @pytest.mark.parametrize("a, atilde, Q, path", [
        ("1+z^2", "2", "1+z", (0j, 1.0, 200)),
        ("1+z^2", "2", "1+z", (0j, 0.8, 81)),
        (A_PAIR, AT_PAIR, Q_PAIR, (0j, 0.8, 81))],
        ids=["generic", "generic-dress-path", "criterion8"])
    def test_converged_at_the_path_end(self, a, atilde, Q, path):
        # the step error, which no residual check sees: the odd
        # coefficients at the path's end are those of a much finer run
        z0, z1, _ = path
        co = wu_recursion(a, atilde, Q, 1.0, K=6, path=path)
        fine = wu_recursion(a, atilde, Q, 1.0, K=6, path=(z0, z1, 6401))
        for n in (1, 3, 5):
            for w in ("b", "c"):
                assert abs(co.values[n][w][-1] - fine.values[n][w][-1]) \
                    <= 1e-13, (n, w)

    def test_a0_continued_across_the_branch_cut(self):
        # a/atilde crosses the negative real axis at z = 0.2: a0 keeps the
        # basepoint's principal branch along the path, so it ends at minus
        # the principal root, and the levels above it converge
        a = "-1-0.1*i+0.5*i*z"
        co = wu_recursion(a, "1", "1", 1.0, K=4, path=(0j, 0.8, 81))
        fine = wu_recursion(a, "1", "1", 1.0, K=4, path=(0j, 0.8, 801))
        a0 = co.values[0]["a"]
        assert a0[0] == pytest.approx(np.sqrt(-1 - 0.1j), abs=1e-15)
        assert a0[-1] == pytest.approx(-np.sqrt(-1 + 0.3j), abs=1e-15)
        assert np.max(np.abs(np.diff(a0))) <= 0.01
        for n in (1, 3):
            assert abs(co.values[n]["b"][-1] - fine.values[n]["b"][-1]) \
                <= 1e-13, n
        assert max(relation_residuals(co).values()) <= 1e-9
        assert gauge_ode_residual(co) <= 1e-9

    def test_checks_expand_no_series(self, monkeypatch):
        co = wu_recursion("2", "2+z", "1", 1.0, K=4, path=(0j, 0.8, 41))
        calls = []
        taylor = ex.taylor

        def counted(*args, **kwargs):
            calls.append(args)
            return taylor(*args, **kwargs)
        monkeypatch.setattr(ex, "taylor", counted)
        relation_residuals(co)
        gauge_ode_residual(co)
        assert calls == []

    def test_trivial_pair_all_zero(self):
        co = wu_recursion("2+z", "2+z", "1", 1.0, K=6, path=(0j, 0.8, 41))
        assert np.max(np.abs(co.values[0]["a"] - 1.0)) <= 1e-10
        assert higher_coefficient_max(co) <= 1e-10
        assert np.max(np.abs(co.values[1]["b"])) <= 1e-10

    def test_h_independent_pair_truncates(self):
        for h in (0.5, 1.0, 2.0):
            co = wu_recursion(A_PAIR, AT_PAIR, Q_PAIR, h, K=6,
                              path=(0j, 0.8, 81))
            assert np.max(np.abs(co.values[1]["b"] - 0.1)) <= 1e-9
            assert higher_coefficient_max(co) <= 1e-9

    def test_generic_pair_relations(self):
        co = wu_recursion("2", "2+z", "1", 1.0, K=4, path=(0j, 0.8, 161))
        rr = relation_residuals(co)
        assert max(rr.values()) <= 1e-8

    def test_gauge_ode_oracle(self):
        # first principles: the coefficients solve d W = W etat - eta W
        co = wu_recursion("2", "2+z", "1", 1.0, K=4, path=(0j, 0.8, 161))
        assert gauge_ode_residual(co) <= 1e-9

    def test_gauge_ode_oracle_nonconstant_hopf(self):
        # polynomial, quotient, square-root and exponential data
        for a, atilde, Q in [
                ("1+0.2*z", "(1+0.2*z)*(1+0.1*z)^2", "1+0.3*z"),
                ("1/(2-z)", "1", "1"),
                ("sqrt(1+z^2)", "1+0.1*z", "1+0.3*z"),
                ("exp(0.3*z)/(2-z)", "1", "1+0.3*z")]:
            co = wu_recursion(a, atilde, Q, 1.0, K=4, path=(0j, 0.5, 161))
            assert gauge_ode_residual(co) <= 1e-9, a
            assert max(relation_residuals(co).values()) <= 1e-9, a

    def test_consistency_with_closed_form(self):
        # when the gauge is h-independent the recursion reproduces
        # (a0, b1, zeros) at every h
        res = h_independent_dressing(A_PAIR, AT_PAIR, Q_PAIR)
        for h in (0.5, 1.0, 2.0):
            co = wu_recursion(A_PAIR, AT_PAIR, Q_PAIR, h, K=6,
                              path=(0j, 0.8, 81))
            a0 = ex.evaluate(res.a0, co.z)
            b1 = ex.evaluate(res.b1, co.z)
            assert np.max(np.abs(co.values[0]["a"] - a0)) <= 1e-8
            assert np.max(np.abs(co.values[1]["b"] - b1)) <= 1e-8

    def test_custom_initial_value(self):
        co = wu_recursion("2", "2+z", "1", 1.0, K=2, path=(0j, 0.5, 41),
                          b_init={1: 0.25})
        assert co.values[1]["b"][0] == pytest.approx(0.25)

    def test_h_zero_rejected(self):
        with pytest.raises(DressingError):
            wu_recursion("2", "2+z", "1", 0.0)
        with pytest.raises(DressingError):
            wu_recursion("2", "2+z", "1", 1.0, K=2).at_h(0.0)

    def test_q_zero_on_path_rejected(self):
        with pytest.raises(DressingError):
            wu_recursion("2", "2+z", "z-0.5", 1.0, path=(0j, 1.0, 41),
                         b_init={1: 0.0})

    def test_q_zero_at_basepoint_rejected(self):
        # a simple root of Q at z0 used to give NaN coefficients silently
        with pytest.raises(DressingError):
            wu_recursion("2+z", "2+z", "z", 1.0, K=2, path=(0j, 0.5, 41),
                         b_init={1: 0})

    def test_a_zero_on_path_rejected(self):
        # a double zero of a on the path used to give coefficients ~1e192
        with pytest.raises(DressingError):
            wu_recursion("(0.5-z)^2", "1", "1", 1.0, K=6, path=(0j, 0.8, 81))
        with pytest.raises(DressingError):
            wu_recursion("1", "(0.5-z)^2", "1", 1.0, K=6, path=(0j, 0.8, 81))


def assert_rescaled(got, want, rtol):
    """``got`` (rescaled) holds ``want``'s (a direct run's) h and its
    coefficients, the values and the jets of every level and key within
    ``rtol`` of that array's largest entry, bit for bit when ``rtol`` is
    0; the checks' data are the same arrays."""
    assert got.h == want.h
    assert got.jets.keys() == want.jets.keys() == got.values.keys()
    for n, level in want.jets.items():
        assert got.jets[n].keys() == level.keys()
        for w, series in level.items():
            for mine, ref in ((got.jets[n][w], series),
                              (got.values[n][w], want.values[n][w])):
                assert np.max(np.abs(mine - ref)) \
                    <= rtol * np.max(np.abs(ref)), (n, w)
    assert got.b_init.keys() == want.b_init.keys()
    for n, v in want.b_init.items():
        assert abs(got.b_init[n] - v) <= rtol * abs(v), n
    for mine, ref in zip(got.data, want.data):
        assert np.array_equal(mine, ref)


class TestAtH:
    """The recursion is homogeneous in h: one run rescaled gives every
    other h's coefficients."""

    PAIRS = [(A_PAIR, AT_PAIR, Q_PAIR, (0j, 0.8, 81)),
             ("1+z+0.3*z^2", "1+0.2*z", "exp(z)", (0j, 0.5 + 0.3j, 61))]

    @pytest.mark.parametrize("a, atilde, Q, path", PAIRS,
                             ids=["criterion8", "generic"])
    @pytest.mark.parametrize("h", [0.3, -0.7, 7.0, 1e-3])
    def test_matches_a_direct_run(self, a, atilde, Q, path, h):
        base = wu_recursion(a, atilde, Q, 1.0, K=6, path=path)
        direct = wu_recursion(a, atilde, Q, h, K=6, path=path)
        assert_rescaled(base.at_h(h), direct, 1e-14)

    @pytest.mark.parametrize("a, atilde, Q, path", PAIRS,
                             ids=["criterion8", "generic"])
    def test_power_of_two_ratios_are_bit_identical(self, a, atilde, Q, path):
        # the rescaling multiplies by powers of two, as the recursion's
        # own arithmetic at the other h does
        base = wu_recursion(a, atilde, Q, 0.5, K=6, path=path)
        for h in (1.0, 2.0, -4.0, 0.125, 0.5):
            direct = wu_recursion(a, atilde, Q, h, K=6, path=path)
            assert_rescaled(base.at_h(h), direct, 0.0)
            assert relation_residuals(base.at_h(h)) \
                == relation_residuals(direct)

    def test_custom_initial_values_are_rescaled(self):
        b_init = {1: 0.25, 3: 0.1 + 0.2j, 5: -0.05j}
        path = (0j, 0.5, 41)
        base = wu_recursion("2", "2+z", "1", 1.0, K=6, path=path,
                            b_init=b_init)
        for h, rtol in ((0.3, 1e-14), (-0.7, 1e-14), (4.0, 0.0)):
            want = {n: v * (1.0 / h) ** ((n - 1) // 2)
                    for n, v in b_init.items()}
            got = base.at_h(h)
            assert got.b_init == pytest.approx(want, rel=1e-15)
            direct = wu_recursion("2", "2+z", "1", h, K=6, path=path,
                                  b_init=got.b_init)
            assert_rescaled(got, direct, rtol)

    def test_dress_job_runs_one_recursion(self, tmp_path, monkeypatch):
        from loopcmc import cli
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return wu_recursion(*args, **kwargs)
        monkeypatch.setattr(cli, "wu_recursion", counted)
        rc = cli.main(["dress", "--a", A_PAIR, "--Q", Q_PAIR,
                       "--atilde", AT_PAIR, "--h", "0.5,1,2", "--K", "6",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert calls == [0.5]
        with open(tmp_path / "report.json") as fh:
            wu = json.load(fh)["wu_recursion"]
        assert list(wu) == ["h=0.5", "h=1", "h=2"]
        for h in (0.5, 1.0, 2.0):
            co = wu_recursion(A_PAIR, AT_PAIR, Q_PAIR, h, K=6,
                              path=(0j, 0.8, 81))
            assert wu[f"h={h:g}"] == {
                "max_relation_residual": max(relation_residuals(co).values()),
                "max_higher_coefficient": higher_coefficient_max(co)}


class TestDressFrame:
    def test_identity_element(self, catenoid):
        pot = minimal_to_potential(catenoid, 1.0)
        g = DomainGrid.square(0.5, 11)
        fg = integrate_frame(pot, g)
        dressed = dress_frame(identity(), fg)
        base = dress_frame(identity(), dressed)
        for k in range(max(dressed.lo, base.lo),
                       max(dressed.lo, base.lo) + 20):
            c1 = _power(dressed, k)
            c2 = _power(base, k)
            assert np.max(np.abs(c1 - c2)) <= 1e-10

    def test_sphere_rigid(self):
        # diag(c, 1/c) dresses plane data to rescaled plane data: the mesh
        # stays a round sphere of radius 1/h
        c = 1.3
        hp = LoopMat(0, [[c, 1 / c]])                  # diag(c, 1/c)
        p = PotentialSpec.normalized("2", "0", 1.0)
        g = DomainGrid.square(1.0, 31)
        mesh = dress_surface(hp, p, g)
        j0, i0 = mesh.basepoint_index()
        center = mesh.f[j0, i0] + mesh.normal[j0, i0]
        d = np.linalg.norm(mesh.f[mesh.mask] - center, axis=-1)
        assert np.max(np.abs(d - 1.0)) <= 1e-6

    def test_cross_pipeline_match(self):
        # dressing by the h-independent element maps the (a, Q) surface to
        # the (atilde, Q) surface
        res = h_independent_dressing(A_PAIR, AT_PAIR, Q_PAIR)
        g = DomainGrid.square(0.8, 31)
        h = 1.0
        dressed = dress_surface(res.h_plus,
                                PotentialSpec.normalized(A_PAIR, Q_PAIR, h), g)
        direct = surface_from_potential(
            PotentialSpec.normalized(AT_PAIR, Q_PAIR, h), g)
        both = dressed.mask & direct.mask
        dev = np.max(np.linalg.norm(dressed.f[both] - direct.f[both], axis=-1))
        assert dev <= 1e-4

    def test_group_action(self, catenoid):
        # dress(h2, dress(h1, .)) = dress(h2 h1, .) on the unitary parts
        rng = np.random.default_rng(3)
        pot = minimal_to_potential(catenoid, 1.0)
        g = DomainGrid.square(0.4, 9)
        fg = integrate_frame(pot, g)
        h1 = None
        from loopcmc.factor import iwasawa
        h1 = iwasawa(rand_unimodular_twisted(rng, band=2, scale=0.05)).plus_part
        h2 = iwasawa(rand_unimodular_twisted(rng, band=2, scale=0.05)).plus_part
        once = dress_frame(h1, fg)
        twice = dress_frame(h2, once)
        combined = dress_frame(mul(h2, h1), fg)
        lo = min(twice.lo, combined.lo)
        hi = max(twice.lo + twice.coeffs.shape[2],
                 combined.lo + combined.coeffs.shape[2])
        for k in range(lo, hi):
            assert np.max(np.abs(_power(twice, k)
                                 - _power(combined, k))) <= 1e-8

    def test_chunks_placed_at_their_own_powers(self, catenoid, monkeypatch):
        # chunks cut to different bands start their unitary parts at
        # different powers; each node must match its own factorization
        from loopcmc import frames
        from loopcmc.factor import iwasawa
        monkeypatch.setattr(frames, "CHUNK", 16)
        rng = np.random.default_rng(5)
        hp = iwasawa(rand_unimodular_twisted(rng, band=2, scale=0.05)).plus_part
        fg = integrate_frame(minimal_to_potential(catenoid, 1.0),
                             DomainGrid.square(0.8, 9))
        out = dress_frame(hp, fg)
        # the frames act with their initial frame: h+ E0hat Psi
        hpe = mul(hp, hat_extend(fg.E0))
        prod = conv(hpe.coeffs, fg.coeffs, fg.lo)
        first, _ = frames._trimmed_band(prod.reshape(-1, *prod.shape[2:]))
        assert len(set(first.tolist())) >= 2
        assert out.ok.all()
        for j, i in np.ndindex(out.ok.shape):
            f = iwasawa(LoopMat(hpe.lo + fg.lo, prod[j, i])).unitary_part
            node = LoopMat(out.lo, out.coeffs[j, i])
            for k in range(min(f.lo, out.lo),
                           max(f.hi, out.lo + out.coeffs.shape[2] - 1) + 1):
                assert np.max(np.abs(node.coeff(k) - f.coeff(k))) <= 1e-13

    def test_residual_reported_over_accepted_nodes(self, monkeypatch):
        # a node rejected for its residual is masked and left out of
        # max_iwasawa_residual
        from loopcmc import dressing, factor, frames

        def one_bad_node(*args, **kwargs):
            out = factor.iwasawa_batch(*args, **kwargs)
            out["residual"][0] = 1.0
            return out
        monkeypatch.setattr(frames, "iwasawa_batch", one_bad_node)
        monkeypatch.setattr(dressing, "iwasawa_batch", one_bad_node)
        fg = integrate_frame(PotentialSpec.normalized("2", "-4*z", 1.0),
                             DomainGrid.square(0.5, 7))
        out = dress_frame(identity(), fg)
        assert np.count_nonzero(fg.ok & ~out.ok) == 1
        assert out.meta["mask_causes"]["residual"] == 1
        assert out.meta["max_iwasawa_residual"] <= 1e-12

    def test_meshes_never_solve_the_series(self, catenoid, monkeypatch):
        # the mesh reads F at lambda0 from X and B^-1 there: with the series
        # solve made to fail, plain and dressed meshes are still built
        from loopcmc import dressing, factor, frames
        from loopcmc.factor import iwasawa
        rng = np.random.default_rng(7)
        hp = iwasawa(rand_unimodular_twisted(rng, band=2, scale=0.05)).plus_part

        def refuse(*args, **kwargs):
            raise AssertionError("the series of F was solved")
        for mod in (factor, frames, dressing):
            if hasattr(mod, "unitary_loops"):
                monkeypatch.setattr(mod, "unitary_loops", refuse)
        pot = minimal_to_potential(catenoid, 1.0)
        g = DomainGrid.square(0.5, 9)
        assert surface_from_potential(pot, g).mask.all()
        assert dress_surface(hp, pot, g).mask.all()
        with pytest.raises(AssertionError):
            dress_frame(hp, integrate_frame(pot, g))

    @pytest.mark.parametrize("b1, kept", [
        (0.1, ("row",)), (0.1j, ("col",)), (0.0, ("row", "col"))])
    def test_image_nodes_take_their_partners_products(self, b1, kept):
        # the product is taken on the fundamental domain of the reflections
        # it keeps, the column's twisted by d = -1, and mapped to the other
        # nodes: those hold the whole grid's product to rounding
        fg = integrate_frame(PotentialSpec.normalized("1", "1", 1.0),
                             DomainGrid.square(0.6, 15))
        hp = LoopMat(0, [[1.2, 1 / 1.2], [0.0, b1]])
        dressed = _left_multiply(hp, fg)
        assert tuple(r.axis for r in dressed.mirror) == kept
        whole = conv(mul(hp, hat_extend(fg.E0)).coeffs, fg.coeffs, fg.lo)
        assert dressed.coeffs.shape == whole.shape
        assert np.max(np.abs(dressed.coeffs - whole)) \
            <= 1e-15 * np.max(np.abs(whole))

    def test_hopf_invariant_under_dressing(self):
        res = h_independent_dressing(A_PAIR, AT_PAIR, Q_PAIR)
        g = DomainGrid.square(0.8, 31)
        mesh = dress_surface(res.h_plus,
                             PotentialSpec.normalized(A_PAIR, Q_PAIR, 1.0), g)
        cf = extract_curvature(mesh)
        assert np.max(np.abs(cf.Q[cf.valid] - 1.0)) <= 0.02

    def test_rejects_non_plus(self):
        bad = LoopMat(-1, [[1.0, 0.0], [1.0, 1.0]])    # (1, 0) at power -1
        p = PotentialSpec.normalized("2", "0", 1.0)
        grid = DomainGrid.square(0.3, 5)
        with pytest.raises(DressingError):
            dress_surface(bad, p, grid)
        with pytest.raises(DressingError):
            dress_frame(bad, integrate_frame(p, grid))
