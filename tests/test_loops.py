import numpy as np
import pytest

from loopcmc import loops
from loopcmc.loops import (LoopMat, circle_values, conv, half_circle_values,
                           hat_extend, identity, mul, plus_defect,
                           unitary_defect, values_at)
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


def twist_defect(a):
    """Largest entry of the loop ``a`` off the twist: a diagonal entry at
    an odd power or an off-diagonal entry at an even one."""
    power = a.lo + np.arange(a.coeffs.shape[0])[:, None, None]
    off = (power + np.arange(2)[:, None] + np.arange(2)) % 2 == 1
    return float(np.max(np.abs(a.coeffs * off)))


def plus_p_defect(b):
    """Distance of ``b`` from the plus loops whose power-0 coefficient is
    diag(rho, 1/rho) with rho > 0."""
    c0 = b.coeff(0)
    rho = c0[0, 0].real
    if rho <= 0:
        return np.inf
    return max(plus_defect(b),
               float(np.max(np.abs(c0 - np.diag([rho, 1.0 / rho])))))


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
        assert np.allclose(values_at(p.coeffs, p.lo, 1.0), np.eye(2),
                           atol=1e-14)
        assert unitary_defect(circle_values(p.coeffs, p.lo, 64)) < 1e-13

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
        assert twist_defect(mul(a, b)) < 1e-14
        assert twist_defect(hat_extend(random_su2(rng))) == 0.0


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
            assert np.allclose(values_at(identity().coeffs, 0, lam),
                               np.eye(2))

    def test_hat_extend_at_one(self):
        rng = np.random.default_rng(7)
        e0 = random_su2(rng)
        h = hat_extend(e0)
        assert np.allclose(values_at(h.coeffs, h.lo, 1.0), e0)

    def test_phi0_at_one(self):
        g = 0.8 - 0.1j
        v = values_at(phi0_loop(g).coeffs, -1, 1.0)
        assert np.allclose(v, np.array([[1, 0], [g, 1]]))

    def test_derivative_constant_zero(self):
        assert np.allclose(values_at(identity().coeffs, 0, 1.0,
                                     derivative=True), 0.0)

    def test_derivative_single_power(self):
        c = np.zeros((1, 2, 2), dtype=complex)
        c[0, 0, 1] = 2.0
        assert np.allclose(values_at(c, 1, 1.0, derivative=True), c[0])

    def test_unit_determinant_on_circle(self):
        rng = np.random.default_rng(8)
        f = hat_extend(random_su2(rng))
        for _ in range(2):
            f = mul(f, hat_extend(random_su2(rng)))
        for lam in np.exp(2j * np.pi * np.arange(16) / 16):
            assert abs(np.linalg.det(values_at(f.coeffs, f.lo, lam))
                       - 1.0) < 1e-10


class TestMembership:
    def test_identity_belongs_everywhere(self):
        i = identity()
        assert twist_defect(i) <= 1e-15
        assert unitary_defect(circle_values(i.coeffs, i.lo, 64)) <= 1e-15
        assert plus_defect(i) <= 1e-15
        assert plus_p_defect(i) <= 1e-15

    def test_explicit_unitary_part(self):
        f, b = f0_b0_closed_form(1.1 + 0.7j)
        assert unitary_defect(circle_values(f.coeffs, f.lo, 64)) <= 1e-12
        assert plus_p_defect(b) <= 1e-14

    def test_nonmember_detected(self):
        assert plus_defect(phi0_loop(1.0)) == 1.0
        c = np.zeros((1, 2, 2), dtype=complex)
        c[0] = np.diag([2.0, 0.5])
        assert unitary_defect(circle_values(c, 0, 64)) > 1.0


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
            assert np.array_equal(vals[j, i], values_at(a.coeffs, lo, lam))
            assert np.array_equal(ders[j, i], values_at(a.coeffs, lo, lam,
                                                        derivative=True))
            for s, r in enumerate(roots):
                assert np.allclose(circ[j, i, s], values_at(a.coeffs, lo, r),
                                   atol=1e-13)

    def test_unitary_defect_of_star(self):
        # F F* = I on the circle exactly when F* (the adjoint loop: power k
        # to -k, each coefficient conjugate-transposed) is the pointwise
        # inverse there
        f, _ = f0_b0_closed_form(0.5 - 0.3j)
        star = np.conj(np.swapaxes(f.coeffs[::-1], -1, -2))
        fv = circle_values(f.coeffs, f.lo, 32)
        sv = circle_values(star, -f.hi, 32)
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
    """A twisted stack's values on the upper half circle give its maxima
    over the whole circle, with no untwisting into mu = lambda^2."""

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
