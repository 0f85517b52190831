import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopcmc import loops
from loopcmc.factor import _gram_defect
from loopcmc.loops import (LoopMat, circle_entries, conv, entries_at,
                           half_circle_entries, hat_extend, identity, mul,
                           plus_defect)
from conftest import (compact, dense_loop, expand, off_twist,
                      rand_twisted_loop, unitary_gap)


def value_at(coeffs, lo, lam, derivative=False):
    """The 2x2 value (or lambda-derivative) at ``lam`` of the one loop
    ``coeffs`` (nk, 2) with lowest power ``lo``, from :func:`entries_at`."""
    vals = entries_at(np.asarray(coeffs)[None], lo, lam)
    return vals[:, :, int(derivative), 0]


def phi0_loop(g):
    """Minimal-limit holomorphic frame [[1, 0], [g lam^-1, 1]]."""
    return LoopMat(-1, [[g, 0], [1, 1]])


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
    return dense_loop(f, -1), dense_loop(b, 0)


def dense_cauchy(a, b):
    """Cauchy product of the dense loop ``a`` (na, 2, 2) with each dense
    loop of the stack ``b`` (..., nb, 2, 2), block by block."""
    out = np.zeros(b.shape[:-3] + (len(a) + b.shape[-3] - 1, 2, 2),
                   dtype=complex)
    for k, blk in enumerate(a):
        for t in range(b.shape[-3]):
            out[..., k + t, :, :] += blk @ b[..., t, :, :]
    return out


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
        for k in range(a.lo, a.hi + 1):
            assert np.allclose(p.coeff(k), a.coeff(k))

    def test_hat_extend_inverse(self):
        rng = np.random.default_rng(1)
        e0 = random_su2(rng)
        h = hat_extend(e0)
        hinv = hat_extend(e0.conj().T)
        p = mul(h, hinv)
        assert np.allclose(value_at(p.coeffs, p.lo, 1.0), np.eye(2),
                           atol=1e-14)
        assert unitary_gap(p.coeffs, p.lo) < 1e-13

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
        # the dense product of twisted loops is twisted: nothing is lost by
        # keeping only the compact entries
        rng = np.random.default_rng(3)
        a = rand_twisted_loop(rng)
        b = rand_twisted_loop(rng)
        dense = dense_cauchy(expand(a.coeffs, a.lo), expand(b.coeffs, b.lo))
        assert not np.any(dense[off_twist(dense, a.lo + b.lo)])
        assert np.allclose(expand(mul(a, b).coeffs, a.lo + b.lo), dense,
                           atol=1e-14)


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
            assert np.allclose(value_at(identity().coeffs, 0, lam),
                               np.eye(2))

    def test_hat_extend_at_one(self):
        rng = np.random.default_rng(7)
        e0 = random_su2(rng)
        h = hat_extend(e0)
        assert np.allclose(value_at(h.coeffs, h.lo, 1.0), e0)

    def test_phi0_at_one(self):
        g = 0.8 - 0.1j
        v = value_at(phi0_loop(g).coeffs, -1, 1.0)
        assert np.allclose(v, np.array([[1, 0], [g, 1]]))

    def test_derivative_constant_zero(self):
        assert np.allclose(value_at(identity().coeffs, 0, 1.0,
                                    derivative=True), 0.0)

    def test_derivative_single_power(self):
        c = np.zeros((1, 2, 2), dtype=complex)
        c[0, 0, 1] = 2.0
        assert np.allclose(value_at(compact(c, 1), 1, 1.0, derivative=True),
                           c[0])

    def test_unit_determinant_on_circle(self):
        rng = np.random.default_rng(8)
        f = hat_extend(random_su2(rng))
        for _ in range(2):
            f = mul(f, hat_extend(random_su2(rng)))
        for lam in np.exp(2j * np.pi * np.arange(16) / 16):
            assert abs(np.linalg.det(value_at(f.coeffs, f.lo, lam))
                       - 1.0) < 1e-10


class TestMembership:
    def test_identity_belongs_everywhere(self):
        i = identity()
        assert unitary_gap(i.coeffs, i.lo) <= 1e-15
        assert plus_defect(i) <= 1e-15
        assert plus_p_defect(i) <= 1e-15

    def test_explicit_unitary_part(self):
        f, b = f0_b0_closed_form(1.1 + 0.7j)
        assert unitary_gap(f.coeffs, f.lo) <= 1e-12
        assert plus_p_defect(b) <= 1e-14

    def test_nonmember_detected(self):
        assert plus_defect(phi0_loop(1.0)) == 1.0
        c = np.array([[2.0, 0.5]], dtype=complex)     # diag(2, 1/2)
        assert unitary_gap(c, 0) > 1.0


class TestBatchedKernels:
    def test_stack_matches_per_loop(self):
        # conv on a (3, 4, nk, 2) stack agrees with the LoopMat product
        # applied loop by loop
        rng = np.random.default_rng(10)
        lo, nk = -5, 7
        stack = rng.normal(size=(3, 4, nk, 2)) \
            + 1j * rng.normal(size=(3, 4, nk, 2))
        left = rand_twisted_loop(rng, band=2)
        prods = conv(left.coeffs, stack, lo)
        for j, i in np.ndindex(3, 4):
            p = mul(left, LoopMat(lo, stack[j, i]))
            q = LoopMat(left.lo + lo, prods[j, i])
            for k in range(q.lo, q.hi + 1):
                assert np.allclose(q.coeff(k), p.coeff(k), atol=1e-14)

    def test_unitary_defect_of_star(self):
        # F F* = I on the circle exactly when F* (the adjoint loop: power k
        # to -k, each coefficient conjugate-transposed) is the pointwise
        # inverse there; the closed-form check of F F* - I reads it from
        # the entry-first values of F^T
        f, _ = f0_b0_closed_form(0.5 - 0.3j)
        dense = expand(f.coeffs, f.lo)
        star = compact(np.conj(np.swapaxes(dense[::-1], -1, -2)), -f.hi)
        fv = circle_entries(f.coeffs[None], f.lo, 32)
        sv = circle_entries(star[None], -f.hi, 32)
        assert np.allclose(sv, np.conj(fv.swapaxes(0, 1)), atol=1e-14)
        assert _gram_defect(fv.swapaxes(0, 1)) <= 1e-13
        assert _gram_defect(2 * fv.swapaxes(0, 1)) == pytest.approx(3.0)


def random_twisted_stack(rng, nk, lead=(3,)):
    """Random compact coefficients (lead..., nk, 2)."""
    shape = lead + (nk, 2)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


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
        c = random_twisted_stack(rng, nk, lead=(6,))
        hv = half_circle_entries(c, lo, m)
        full = circle_entries(c, lo, 2 * m)
        # entry-first bound (2, 2, 1, n): the summed entry moduli
        l1 = np.moveaxis(np.abs(expand(c, lo)).sum(axis=-3), 0, -1)[:, :, None]
        assert hv.shape == (2, 2, m, 6)
        assert np.all(np.abs(hv - full[:, :, :m]) <= 1e-15 * l1)
        assert np.all(np.abs(np.abs(full[:, :, m:]) - np.abs(hv))
                      <= 1e-15 * l1)


def cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


SEEDS = st.integers(0, 2 ** 32 - 1)
LOS = st.integers(-9, 4)
BANDS = st.integers(1, 14)


class TestCompactLayout:
    """The compact kernels against dense 2x2 references on random twisted
    loops."""

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, lo_a=st.integers(-2, 1), na=st.integers(1, 4),
           lo_b=LOS, nb=BANDS)
    def test_conv_is_the_dense_cauchy_product(self, seed, lo_a, na, lo_b, nb):
        rng = np.random.default_rng(seed)
        a, b = cplx(rng, na, 2), cplx(rng, 3, nb, 2)
        dense = dense_cauchy(expand(a, lo_a), expand(b, lo_b))
        got = expand(conv(a, b, lo_b), lo_a + lo_b)
        assert not np.any(dense[..., off_twist(dense, lo_a + lo_b)])
        assert np.max(np.abs(got - dense)) \
            <= 4e-16 * np.max(np.abs(a)) * np.max(np.abs(b)) * min(na, nb)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, lo=LOS, nk=BANDS, m=st.integers(1, 24),
           lam_arg=st.floats(0.0, 2 * np.pi))
    def test_values_are_those_of_the_dense_form(self, seed, lo, nk, m,
                                                lam_arg):
        # every sampler of the entry-first layout (2, 2, points, n) against
        # the sums of the dense coefficients: entries_at (value and
        # lambda-derivative), half_circle_entries and circle_entries
        rng = np.random.default_rng(seed)
        c = cplx(rng, 3, nk, 2)
        dense = expand(c, lo)
        ks = lo + np.arange(nk)
        lam = np.exp(1j * lam_arg)
        l1 = np.moveaxis(np.abs(dense).sum(axis=-3), 0, -1)[:, :, None]

        def ref(weights):
            return np.einsum("sk,nkij->ijsn", weights, dense)
        got = entries_at(c, lo, lam)
        assert got.shape == (2, 2, 2, 3)
        assert np.all(np.abs(got[:, :, :1] - ref(lam ** ks[None]))
                      <= 1e-14 * l1)
        assert np.all(np.abs(got[:, :, 1:] - ref(ks * lam ** (ks[None] - 1.0)))
                      <= 1e-14 * np.abs(ks).max() * l1)
        for sampler, q in ((half_circle_entries, 1), (circle_entries, 2)):
            # lambda_s = exp(i pi q s/m) and its powers, reduced exactly
            pw = q * np.outer(np.arange(m), ks) % (2 * m)
            assert np.all(np.abs(sampler(c, lo, m)
                                 - ref(np.exp(1j * np.pi * pw / m)))
                          <= 1e-14 * l1)


class TestWeightTables:
    """The samplers' weight tables are built once per shape and kept in
    bounded caches: read-only, and byte for byte the tables a fresh build
    gives."""

    @settings(max_examples=60, deadline=None)
    @given(lo=st.integers(-30, 4), nk=st.integers(1, 30),
           m=st.sampled_from([1, 2, 3, 8, 16, 32, 64]),
           lam_arg=st.floats(0.0, 2 * np.pi))
    def test_cached_tables_are_fresh_tables(self, lo, nk, m, lam_arg):
        ks = lo + np.arange(nk)
        for q, n in ((2, m), (1, 2 * m)):
            fresh = np.exp(q * 1j * np.pi / m * (np.outer(ks, np.arange(m))
                                                 % n))
            got = loops._root_powers(lo, nk, m, n)
            assert got.tobytes() == fresh.tobytes()
            assert got is loops._root_powers(lo, nk, m, n)
            assert not got.flags.writeable
        lam = complex(np.exp(1j * lam_arg))
        fresh = np.stack([lam ** ks, [k * lam ** (k - 1) if k != 0 else 0.0
                                      for k in ks]], axis=1)
        got = loops._lambda_weights(lo, nk, repr(lam))
        assert got.tobytes() == fresh.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 0.0

    def test_samplers_read_the_cached_tables(self):
        # the samplers' values are the sums over the cached tables, and
        # the signs of a zero part of lambda key their own table
        rng = np.random.default_rng(3)
        c = cplx(rng, 4, 7, 2)
        for sampler, n in ((circle_entries, 8), (half_circle_entries, 16)):
            first = sampler(c, -5, 8)
            assert sampler(c, -5, 8).tobytes() == first.tobytes()
            assert first.tobytes() == loops._entry_sums(
                c, -5, loops._root_powers(-5, 7, 8, n)).tobytes()
        for lam in (complex(1.0, 0.0), complex(1.0, -0.0)):
            assert entries_at(c, -5, lam).tobytes() == loops._entry_sums(
                c, -5, loops._lambda_weights(-5, 7, repr(lam))).tobytes()
        assert loops._lambda_weights(-5, 7, repr(complex(1.0, 0.0))) \
            is not loops._lambda_weights(-5, 7, repr(complex(1.0, -0.0)))
