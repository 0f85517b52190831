import numpy as np
import pytest

from loopcmc import loops
from loopcmc.loops import (LoopMat, check_membership, circle_values, conv,
                           eval_lambda, from_text, half_circle_values,
                           hat_extend, identity,
                           lambda_derivative_at, mul, retwist, star,
                           to_text, unitary_defect, untwist, values_at)
from conftest import rand_twisted_loop


def phi0_loop(g):
    """Minimal-limit holomorphic frame [[1, 0], [g lam^-1, 1]]."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 1, 0] = g
    c[1, 0, 0] = 1
    c[1, 1, 1] = 1
    return LoopMat(-1, c)


def f0_b0_closed_form(g):
    """Explicit factorization of phi0: unitary part
    (1+|g|^2)^{-1/2} [[1, -lam conj(g)], [lam^-1 g, 1]] and plus part
    [[d, lam conj(g)/d], [0, 1/d]], d = sqrt(1+|g|^2)."""
    d = np.sqrt(1 + abs(g) ** 2)
    f = np.zeros((3, 2, 2), dtype=complex)
    f[0, 1, 0] = g / d
    f[1, 0, 0] = 1 / d
    f[1, 1, 1] = 1 / d
    f[2, 0, 1] = -np.conj(g) / d
    b = np.zeros((2, 2, 2), dtype=complex)
    b[0, 0, 0] = d
    b[0, 1, 1] = 1 / d
    b[1, 0, 1] = np.conj(g) / d
    return LoopMat(-1, f), LoopMat(0, b)


def random_su2(rng):
    a = rng.normal(size=4)
    a /= np.linalg.norm(a)
    return np.array([[a[0] + 1j * a[1], a[2] + 1j * a[3]],
                     [-a[2] + 1j * a[3], a[0] - 1j * a[1]]])


class TestMul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rand_twisted_loop(rng)
        p = mul(identity(), a)
        for k in a.powers:
            assert np.allclose(p.coeff(k), a.coeff(k))

    def test_hat_extend_inverse(self):
        rng = np.random.default_rng(1)
        e0 = random_su2(rng)
        h = hat_extend(e0)
        hinv = hat_extend(e0.conj().T)
        p = mul(h, hinv)
        assert np.allclose(eval_lambda(p, 1.0), np.eye(2), atol=1e-14)
        assert check_membership(p, "unitary") < 1e-13

    def test_explicit_factorization_recomposes(self):
        # unitary part times plus part reproduces the minimal-limit frame
        for g in (0.3 - 1.2j, 2.5j, -1.0 + 0.4j):
            f, b = f0_b0_closed_form(g)
            prod = mul(f, b)
            phi = phi0_loop(g)
            for k in range(-2, 3):
                assert np.allclose(prod.coeff(k), phi.coeff(k), atol=1e-12)

    def test_associative_without_truncation(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rand_twisted_loop(rng, band=2)
            b = rand_twisted_loop(rng, band=2)
            c = rand_twisted_loop(rng, band=2)
            lhs = mul(mul(a, b), c)
            rhs = mul(a, mul(b, c))
            for k in range(-6, 7):
                assert np.allclose(lhs.coeff(k), rhs.coeff(k), atol=1e-13)

    def test_parity_preserved(self):
        rng = np.random.default_rng(3)
        a = rand_twisted_loop(rng)
        b = rand_twisted_loop(rng)
        assert check_membership(mul(a, b), "twisted") < 1e-14
        assert check_membership(hat_extend(random_su2(rng)), "twisted") == 0.0


class TestHatExtend:
    def test_identity_stays_identity(self):
        h = hat_extend(np.eye(2))
        assert h.lo == 0 and h.hi == 0
        assert np.allclose(h.coeff(0), np.eye(2))

    def test_offdiagonal_moves_to_odd_powers(self):
        rng = np.random.default_rng(6)
        e0 = random_su2(rng)
        h = hat_extend(e0)
        assert h.coeff(1)[0, 1] == pytest.approx(e0[0, 1])
        assert h.coeff(-1)[1, 0] == pytest.approx(e0[1, 0])
        assert h.coeff(0)[0, 0] == pytest.approx(e0[0, 0])
        assert h.coeff(0)[0, 1] == 0

    def test_diagonal_input_is_lambda_free(self):
        th = 0.7
        e0 = np.diag([np.exp(1j * th), np.exp(-1j * th)])
        h = hat_extend(e0)
        assert h.lo == 0 and h.hi == 0

    def test_non_unitary_rejected(self):
        with pytest.raises(loops.LoopError):
            hat_extend(np.array([[2.0, 0], [0, 0.5]]))


class TestEval:
    def test_identity_everywhere(self):
        for lam in (1.0, 1j, np.exp(0.3j)):
            assert np.allclose(eval_lambda(identity(), lam), np.eye(2))

    def test_hat_extend_at_one(self):
        rng = np.random.default_rng(7)
        e0 = random_su2(rng)
        assert np.allclose(eval_lambda(hat_extend(e0), 1.0), e0)

    def test_phi0_at_one(self):
        g = 0.8 - 0.1j
        v = eval_lambda(phi0_loop(g), 1.0)
        assert np.allclose(v, np.array([[1, 0], [g, 1]]))

    def test_derivative_constant_zero(self):
        assert np.allclose(lambda_derivative_at(identity(), 1.0), 0.0)

    def test_derivative_single_power(self):
        c = np.zeros((1, 2, 2), dtype=complex)
        c[0, 0, 1] = 2.0
        a = LoopMat(1, c)
        assert np.allclose(lambda_derivative_at(a, 1.0), c[0])

    def test_unit_determinant_on_circle(self):
        rng = np.random.default_rng(8)
        f = hat_extend(random_su2(rng))
        for _ in range(2):
            f = mul(f, hat_extend(random_su2(rng)))
        for lam in np.exp(2j * np.pi * np.arange(16) / 16):
            assert abs(np.linalg.det(eval_lambda(f, lam)) - 1.0) < 1e-10


class TestMembership:
    def test_identity_belongs_everywhere(self):
        i = identity()
        for which in ("twisted", "unitary", "plus", "minus-star", "plus-P"):
            assert check_membership(i, which) <= 1e-15

    def test_explicit_unitary_part(self):
        f, b = f0_b0_closed_form(1.1 + 0.7j)
        assert check_membership(f, "unitary") <= 1e-12
        assert check_membership(b, "plus-P") <= 1e-14

    def test_phi0_minus_star(self):
        assert check_membership(phi0_loop(2.0 - 1.0j), "minus-star") == 0.0

    def test_nonmember_detected(self):
        assert check_membership(phi0_loop(1.0), "plus") == 1.0
        c = np.zeros((1, 2, 2), dtype=complex)
        c[0] = np.diag([2.0, 0.5])
        assert check_membership(LoopMat(0, c), "unitary") > 1.0


class TestBatchedKernels:
    def test_stack_matches_per_loop(self):
        # every kernel on a (3, 4, nk, 2, 2) stack agrees with the LoopMat
        # operations applied loop by loop
        rng = np.random.default_rng(10)
        lo, nk = -5, 7
        stack = rng.normal(size=(3, 4, nk, 2, 2)) \
            + 1j * rng.normal(size=(3, 4, nk, 2, 2))
        left = rand_twisted_loop(rng, band=2)
        prods = conv(left.coeffs, stack)
        lam = np.exp(0.7j)
        vals = values_at(stack, lo, lam)
        ders = values_at(stack, lo, lam, derivative=True)
        circ = circle_values(stack, lo, 16)
        roots = np.exp(2j * np.pi * np.arange(16) / 16)
        for j, i in np.ndindex(3, 4):
            a = LoopMat(lo, stack[j, i])
            p = mul(left, a)
            q = LoopMat(left.lo + lo, prods[j, i])
            for k in range(q.lo, q.hi + 1):
                assert np.allclose(q.coeff(k), p.coeff(k), atol=1e-14)
            assert np.array_equal(vals[j, i], eval_lambda(a, lam))
            assert np.array_equal(ders[j, i], lambda_derivative_at(a, lam))
            for s, r in enumerate(roots):
                assert np.allclose(circ[j, i, s], eval_lambda(a, r),
                                   atol=1e-13)

    def test_unitary_defect_of_star(self):
        # F F* = I on the circle exactly when F* (the adjoint loop) is the
        # pointwise inverse there
        f, _ = f0_b0_closed_form(0.5 - 0.3j)
        fv = circle_values(f.coeffs, f.lo, 32)
        sv = circle_values(star(f).coeffs, star(f).lo, 32)
        assert np.allclose(sv, np.conj(np.swapaxes(fv, -1, -2)), atol=1e-14)
        assert unitary_defect(fv) <= 1e-13
        assert unitary_defect(2 * fv) == pytest.approx(3.0)


def random_twisted_stack(rng, lo, nk, lead=(3,)):
    """Random coefficients with the off-twist entries set to zero."""
    shape = lead + (nk, 2, 2)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    power = lo + np.arange(nk)[:, None, None]
    c[..., (power + np.arange(2)[:, None] + np.arange(2)) % 2 == 1] = 0
    return c


class TestUntwist:
    @pytest.mark.parametrize("lo", [-6, -5, 0, 3])
    @pytest.mark.parametrize("nk", [1, 4, 7, 12])
    def test_round_trip_is_exact(self, lo, nk):
        rng = np.random.default_rng(20 + nk)
        c = random_twisted_stack(rng, lo, nk, lead=(2, 3))
        lo_y, y = untwist(c, lo)
        assert lo_y == lo // 2
        assert np.array_equal(retwist(y, lo_y, lo, nk), c)
        # the same numbers on half the powers: nothing is dropped or made up
        assert np.count_nonzero(y) == np.count_nonzero(c)
        assert y.shape[-3] <= nk // 2 + 2

    def test_circle_values_are_conjugated_lambda_values(self):
        # Y(mu_t) = D^-1 X(lambda_t) D at mu_t = exp(2 pi i t/m), lambda_t =
        # exp(pi i t/m), D = diag(lambda_t^1/2, lambda_t^-1/2); X summed
        # directly, with the exponents reduced mod 2m before the exp
        rng = np.random.default_rng(30)
        m = 8
        t = np.arange(m)
        half = np.exp(1j * np.pi * t / (2 * m))
        d = np.stack([half, 1 / half], axis=-1)
        for lo in (-6, -5, 0, 3):
            for nk in (1, 4, 7, 12):
                c = random_twisted_stack(rng, lo, nk)
                p = lo + np.arange(nk)
                lam_p = np.exp(1j * np.pi * ((t[:, None] * p) % (2 * m)) / m)
                xv = np.einsum("tk,nkij->ntij", lam_p, c)
                ref = xv / d[:, :, None] * d[:, None, :]
                lo_y, y = untwist(c, lo)
                yv = circle_values(y, lo_y, m)
                # roundoff relative to the sum of |coefficients| of each
                # entry, which bounds its values on the circle
                l1 = np.abs(c).sum(axis=-3)[:, None]
                assert np.all(np.abs(yv - ref) <= 1e-15 * l1)

    @pytest.mark.parametrize("lo", [-6, -5, 0, 3])
    @pytest.mark.parametrize("nk", [1, 4, 7, 12])
    def test_half_circle_values_are_lambda_values(self, lo, nk):
        # the values at exp(i pi s/m), s < m, are the first m of the 2m
        # roots of unity; for a twisted stack the other m repeat their
        # entry moduli, so both halves give the same maxima
        rng = np.random.default_rng(40 + nk)
        m = 8
        c = random_twisted_stack(rng, lo, nk, lead=(2, 3))
        hv = half_circle_values(c, lo, m)
        full = circle_values(c, lo, 2 * m)
        l1 = np.abs(c).sum(axis=-3)[..., None, :, :]
        assert hv.shape == (2, 3, m, 2, 2)
        assert np.all(np.abs(hv - full[..., :m, :, :]) <= 1e-15 * l1)
        assert np.all(np.abs(np.abs(full[..., m:, :, :]) - np.abs(hv))
                      <= 1e-15 * l1)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        a = rand_twisted_loop(rng, band=3)
        b = from_text(to_text(a))
        assert b.lo == a.lo and b.hi == a.hi
        assert np.allclose(a.coeffs, b.coeffs)
