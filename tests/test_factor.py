import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopcmc import factor as fa
from loopcmc.factor import FactorError, iwasawa, iwasawa_batch
from loopcmc.loops import (LoopMat, circle_entries, half_circle_entries,
                           identity, mul)
from conftest import (compact, expand, off_twist, rand_twisted_loop,
                      rand_unimodular_twisted, unitary_gap)
from test_loops import (f0_b0_closed_form, phi0_loop, plus_p_defect,
                        random_su2, value_at)


def matrices(v):
    """Entry-first point values (2, 2, m, n) as 2x2 matrices (n, m, 2, 2)."""
    return v.transpose(3, 2, 0, 1)


class TestIwasawa:
    def test_identity(self):
        r = iwasawa(identity())
        f, b = r.unitary_part, r.plus_part
        assert np.allclose(value_at(f.coeffs, f.lo, 1.0), np.eye(2))
        assert np.allclose(value_at(b.coeffs, b.lo, 1.0), np.eye(2))
        assert r.residual < 1e-14

    def test_minimal_limit_closed_form(self):
        # the printed explicit factorization, coefficientwise
        rng = np.random.default_rng(0)
        for _ in range(12):
            g = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
            if abs(g) > 3:
                g *= 3 / abs(g)
            r = iwasawa(phi0_loop(g))
            fexp, bexp = f0_b0_closed_form(g)
            for k in range(-3, 4):
                assert np.max(np.abs(r.unitary_part.coeff(k)
                                     - fexp.coeff(k))) < 1e-10
                assert np.max(np.abs(r.plus_part.coeff(k)
                                     - bexp.coeff(k))) < 1e-10

    def test_random_perturbation_reconstructs(self):
        rng = np.random.default_rng(1)
        for _ in range(6):
            x = rand_unimodular_twisted(rng, band=4, scale=0.05)
            r = iwasawa(x)
            assert r.residual <= 1e-9
            f = r.unitary_part
            assert unitary_gap(f.coeffs, f.lo) <= 1e-9
            assert plus_p_defect(r.plus_part) <= 1e-9

    def test_uniqueness(self):
        # factoring F B recovers the same F and B
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = hatprod(rng)
            b = iwasawa(rand_unimodular_twisted(rng, band=2, scale=0.05)).plus_part
            x = mul(f, b)
            r = iwasawa(x)
            for k in range(min(f.lo, r.unitary_part.lo),
                           max(f.hi, r.unitary_part.hi) + 1):
                assert np.max(np.abs(r.unitary_part.coeff(k)
                                     - f.coeff(k))) < 1e-8
            for k in range(0, max(b.hi, r.plus_part.hi) + 1):
                assert np.max(np.abs(r.plus_part.coeff(k)
                                     - b.coeff(k))) < 1e-8

    def test_gauge_covariance_reconstruction(self):
        # right factor by a constant diagonal unitary: reconstruction holds
        rng = np.random.default_rng(3)
        x = rand_twisted_loop(rng, band=2, scale=0.05)
        th = rng.uniform(0, 2 * np.pi)
        d = LoopMat(0, [[np.exp(1j * th), np.exp(-1j * th)]])
        r = iwasawa(mul(x, d))
        assert r.residual <= 1e-10

    def test_not_positive_definite(self):
        # an everywhere-singular loop: second column identically zero, so
        # the Gram symbol is rank one and its sections are not PD
        with pytest.raises(FactorError):
            iwasawa(LoopMat(-1, [[0.5, 0.0], [1.0, 0.0]]))

    def test_rho_positive(self):
        rng = np.random.default_rng(4)
        r = iwasawa(rand_twisted_loop(rng, band=4, scale=0.05))
        assert r.rho > 0


# ---------------------------------------------------------------------------
# The batched core against dense references: the full block-Toeplitz section
# with its Cholesky factor, and the forward-substitution solve for F.

def twisted_chunk(rng, band, n=6, scale=1.0, decay=0.6):
    """n random twisted loops of unit determinant over powers -band..band:
    X = [[1, u], [0, 1]] [[1, 0], [v, 1]] with u, v odd Laurent polynomials
    whose random coefficients decay geometrically, as compact coefficients
    (n, nk, 2) from power -band."""
    ks = np.arange(-band, band + 1)
    w = np.where((ks % 2 == 1) & (np.abs(ks) <= band // 2),
                 scale * decay ** np.abs(ks), 0.0)
    u, v = w * (rng.normal(size=(2, n, ks.size))
                + 1j * rng.normal(size=(2, n, ks.size)))
    c = np.zeros((n, ks.size, 2, 2), dtype=complex)
    c[:, :, 0, 1] = u
    c[:, :, 1, 0] = v
    for i in range(n):
        c[i, :, 0, 0] = np.convolve(u[i], v[i])[band:3 * band + 1]
    c[:, band] += np.eye(2)
    return compact(c, -band)


def dense_gram(dense):
    """P_m = sum_j X_j^H X_{j+m}, m = 0..nk-1, of the dense stacks
    ``dense`` (n, nk, 2, 2), lag by lag; (n, nk, 2, 2)."""
    nk = dense.shape[1]
    herm = np.conj(np.swapaxes(dense, -1, -2))
    return np.stack([np.sum(herm[:, :nk - m] @ dense[:, m:], axis=1)
                     for m in range(nk)], axis=1)


def gram_lags(gram):
    """The dense lags P_m (n, nb, 2, 2) that hold the compact Gram
    ``gram`` (n, nb, 2): entry (r, r + m mod 2) of P_m is gram[:, m, r],
    and the twisting leaves the others zero."""
    m, r = np.ogrid[:gram.shape[1], :2]
    out = np.zeros(gram.shape + (2,), dtype=complex)
    out[:, m, r, (r + m) % 2] = gram
    return out


def dense_section(p_pos, ncap):
    """T[i,j] = P_{j-i} as a scalar matrix of size 2(ncap+1)."""
    n, nb = p_pos.shape[:2]
    t = np.zeros((n, ncap + 1, 2, ncap + 1, 2), dtype=complex)
    for i in range(ncap + 1):
        for j in range(ncap + 1):
            d = j - i
            if 0 <= d < nb:
                t[:, i, :, j] = p_pos[:, d]
            elif 0 < -d < nb:
                t[:, i, :, j] = np.conj(np.swapaxes(p_pos[:, -d], 1, 2))
    return t.reshape(n, 2 * (ncap + 1), 2 * (ncap + 1))


def dense_bauer(coeffs, margin):
    """B_k from the bottom block-row of the dense Cholesky factor."""
    ncap = coeffs.shape[1] - 1 + margin
    chol = np.linalg.cholesky(dense_section(gram_lags(fa._gram_coeffs(coeffs)),
                                            ncap))
    last = 2 * ncap
    bcoef = np.stack([np.conj(np.swapaxes(
        chol[:, last:last + 2, last - 2 * k:last - 2 * k + 2], 1, 2))
        for k in range(ncap + 1)], axis=1)
    diag = np.einsum("nii->ni", chol).real
    return bcoef, (diag.max(axis=1) / diag.min(axis=1)) ** 2


def bauer_factor(coeffs, margin):
    """B_0..B_ncap and the condition estimates from the last block row of
    the section of nk + margin blocks, as iwasawa_batch reads them."""
    ncap = coeffs.shape[1] - 1 + margin
    chol, ok = fa._section_cholesky(coeffs, ncap)
    return fa._row_factor(chol, ncap), ok, fa._condition(chol)


def forward_substitution(coeffs, bcoef, extra, tail_tol=1e-13):
    """F with F B = X power by power (B_0 diagonal), truncated where a
    coefficient past the input band falls below tail_tol."""
    n, nk = coeffs.shape[:2]
    nb = bcoef.shape[1]
    nf = nk + extra
    scale = max(float(np.max(np.abs(coeffs))), 1.0)
    f = np.zeros((n, nf, 2, 2), dtype=complex)
    inv_b0 = np.zeros_like(bcoef[:, 0])
    inv_b0[:, 0, 0] = 1.0 / bcoef[:, 0, 0, 0]
    inv_b0[:, 1, 1] = 1.0 / bcoef[:, 0, 1, 1]
    for m in range(nf):
        rhs = coeffs[:, m].copy() if m < nk else np.zeros((n, 2, 2), complex)
        for j in range(1, min(m, nb - 1) + 1):
            rhs -= f[:, m - j] @ bcoef[:, j]
        f[:, m] = rhs @ inv_b0
        if m >= nk and float(np.max(np.abs(f[:, m]))) < tail_tol * scale:
            return f[:, :m + 1]
    return f


BANDS = (3, 4, 7, 12, 18, 25)


class TestCompactFactor:
    """The factorization on the compact layout against dense references."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), lo=st.integers(-12, 2),
           nk=st.integers(1, 30), spread=st.floats(0.0, 6.0))
    def test_gram_is_the_dense_lags(self, seed, lo, nk, spread):
        # one correlation per lag gives the entries of sum_j X_j^H X_{j+m}
        # the twisting leaves nonzero, to rounding of that sum
        rng = np.random.default_rng(seed)
        c = (rng.normal(size=(3, nk, 2)) + 1j * rng.normal(size=(3, nk, 2))) \
            * 10.0 ** rng.uniform(-spread / 2, spread / 2, size=(nk, 1))
        dense = expand(c, lo)
        ref = dense_gram(dense)
        size = dense_gram(np.abs(dense)).real
        err = np.abs(gram_lags(fa._gram_coeffs(c)) - ref)
        assert np.all(err <= 1e-15 * size)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), band=st.integers(1, 6))
    def test_unitary_part_is_exactly_twisted(self, seed, band):
        # F's coefficients come from the FFT of its column sums, so its
        # dense form has no off-twist roundoff, and F is unitary with
        # F B = X
        rng = np.random.default_rng(seed)
        x = rand_unimodular_twisted(rng, band=band, scale=0.3)
        r = iwasawa(x)
        f = r.unitary_part
        dense = expand(f.coeffs, f.lo)
        assert not np.any(dense[off_twist(dense, f.lo)])
        assert unitary_gap(f.coeffs, f.lo) <= 1e-12
        assert r.residual <= 1e-12


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), band=st.integers(1, 12),
           n=st.integers(1, 9), scale=st.floats(0.1, 3.0),
           decay=st.floats(0.3, 0.9), factors=st.booleans())
    def test_checks_are_the_dense_products(self, seed, band, n, scale,
                                           decay, factors):
        # the residuals formed from the closed-form entries of the
        # Hermitian X* X, B* B and F F* are those of the dense 2x2
        # products of the same half-circle samples, to their rounding:
        # for the loops' own factors, and for random plus loops in their
        # place, whose residuals are of order one in every entry
        rng = np.random.default_rng(seed)
        coeffs = twisted_chunk(rng, band, n=n, scale=scale, decay=decay)
        if factors:
            out = iwasawa_batch(-band, coeffs)
        else:
            b, g = scale * (rng.normal(size=(2, n, band + 1, 2))
                            + 1j * rng.normal(size=(2, n, band + 1, 2)))
            ones = np.ones(n)
            with mock.patch.object(fa, "_converged_factor", return_value=(
                    b, g, ones > 0, ones, ones.astype(int))):
                out = iwasawa_batch(-band, coeffs)
        ms = fa.NSAMPLE // 2
        # sampled as iwasawa_batch samples them, B and B^-1 in one stack,
        # and multiplied as dense 2x2 matrices
        xv = matrices(half_circle_entries(coeffs, -band, ms))
        bg = matrices(half_circle_entries(
            np.concatenate([out["b"], out["binv"]]), 0, ms))
        bv, gv = bg[:n], bg[n:]
        fv = xv @ gv
        xh, bh, fh = (np.conj(np.swapaxes(v, -1, -2)) for v in (xv, bv, fv))
        norm = np.maximum(np.max(np.abs(xv), axis=(1, 2, 3)), 1.0) ** 2
        resid = np.max(np.abs(xh @ xv - bh @ bv), axis=(1, 2, 3)) / norm
        unit = np.max(np.abs(fv @ fh - np.eye(2)), axis=(1, 2, 3))
        # the sampled entry scales of the rounded results: |X*| |X| +
        # |B*| |B| (over the norm), and |X| |B^-1| |F*|, since F is itself
        # the sampled product X B^-1, or 1, the scale of F F* - I
        gram_size = np.max(np.abs(xh) @ np.abs(xv) + np.abs(bh) @ np.abs(bv),
                           axis=(1, 2, 3)) / norm
        ff_size = np.maximum(np.max(
            (np.abs(xv) @ np.abs(gv)) @ np.abs(fh), axis=(1, 2, 3)), 1.0)
        assert np.all(np.abs(out["residual"] - resid) <= 1e-15 * gram_size)
        assert np.all(np.abs(out["unitary_residual"] - unit)
                      <= 1e-15 * ff_size)


class TestIwasawaCore:
    @pytest.mark.parametrize("band", BANDS)
    def test_section_splits_by_twist_parity(self, band):
        rng = np.random.default_rng(100 + band)
        ncap = 2 * band + 8
        gram = fa._gram_coeffs(twisted_chunk(rng, band))
        t = dense_section(gram_lags(gram), ncap)
        i, r = np.divmod(np.arange(2 * (ncap + 1)), 2)
        par = (i + r) % 2
        cross = par[:, None] != par[None, :]
        assert np.all(t[:, cross] == 0)
        halves = fa._parity_halves(gram, ncap)
        for c in (0, 1):
            keep = np.nonzero(par == c)[0]
            assert np.array_equal(halves[:, c], t[:, keep][:, :, keep])

    @pytest.mark.parametrize("band", BANDS)
    def test_halves_gather_table(self, band):
        # one gather by the cached table moves the Gram entries where the
        # sliding window over the padded lags puts them, byte for byte
        rng = np.random.default_rng(300 + band)
        gram = fa._gram_coeffs(twisted_chunk(rng, band))
        nb = gram.shape[1]
        for ncap in (nb - 1, nb, 2 * nb + 7):
            pos = np.swapaxes(gram, 1, 2)
            m = np.arange(nb)
            neg = np.conj(pos[:, (np.arange(2)[:, None] + m) % 2, m])
            t = np.zeros((len(gram), 2, 2 * ncap + 1), dtype=complex)
            t[:, :, ncap - nb + 1:ncap] = neg[:, :, :0:-1]
            t[:, :, ncap:ncap + nb] = pos
            win = np.lib.stride_tricks.sliding_window_view(t, ncap + 1,
                                                            axis=2)
            idx = np.arange(ncap + 1)
            ref = win[:, (idx + np.arange(2)[:, None]) % 2, ncap - idx]
            got = fa._parity_halves(gram, ncap)
            assert got.shape == ref.shape
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
            table = fa._halves_table(nb - 1, ncap)
            assert table is fa._halves_table(nb - 1, ncap)
            assert not table.flags.writeable

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("margin", [7, 8])     # odd and even ncap
    def test_split_cholesky_matches_dense(self, band, margin):
        rng = np.random.default_rng(200 + band)
        coeffs = twisted_chunk(rng, band)
        bcoef, ok, cond = bauer_factor(coeffs, margin)
        dense_b, dense_cond = dense_bauer(coeffs, margin)
        assert ok.all()
        assert np.max(np.abs(expand(bcoef, 0) - dense_b)) <= 1e-13
        assert np.max(np.abs(cond - dense_cond) / dense_cond) <= 1e-13

    @pytest.mark.parametrize("band", BANDS)
    def test_fft_solve_matches_forward_substitution(self, band):
        rng = np.random.default_rng(300 + band)
        coeffs = twisted_chunk(rng, band)
        bcoef, _, _ = bauer_factor(coeffs, 8)
        f, _, _ = fa.unitary_loops(-band, coeffs, bcoef)
        ref = forward_substitution(expand(coeffs, -band), expand(bcoef, 0),
                                   fa.EXTRA)
        assert f.shape == ref.shape[:-1]
        assert np.max(np.abs(expand(f, -band) - ref)) <= 1e-13

    def test_window_doubles_on_slow_decay(self):
        # band 7 with slowly decaying coefficients: F's tail test has not
        # passed within the first m = 32 twisted coefficients, so the solve
        # doubles m and keeps the length forward substitution finds
        band = 7
        rng = np.random.default_rng(507)
        coeffs = twisted_chunk(rng, band, scale=0.3, decay=0.9)
        bcoef, ok, _ = bauer_factor(coeffs, 8)
        f, _, _ = fa.unitary_loops(-band, coeffs, bcoef)
        ref = forward_substitution(expand(coeffs, -band), expand(bcoef, 0),
                                   fa.EXTRA)
        assert ok.all()
        assert f.shape == ref.shape[:-1]
        assert 1 << bcoef.shape[1].bit_length() < f.shape[1] \
            < coeffs.shape[1] + fa.EXTRA
        assert np.max(np.abs(expand(f, -band) - ref)) <= 1e-13

    @pytest.mark.parametrize("band", BANDS)
    def test_checks_match_lambda_samples(self, band):
        # the checks sample 16 points of mu; the 32 lambda points give the
        # same maxima of X* X - B* B and of F = X B^-1 up to roundoff in
        # the sampled products
        rng = np.random.default_rng(600 + band)
        coeffs = twisted_chunk(rng, band)
        out = iwasawa_batch(-band, coeffs)
        xv = matrices(circle_entries(coeffs, -band, 32))
        bv = matrices(circle_entries(out["b"], 0, 32))
        gv = matrices(circle_entries(out["binv"], 0, 32))
        fv = xv @ gv
        fh = np.conj(np.swapaxes(fv, -1, -2))
        xh, bh = (np.conj(np.swapaxes(v, -1, -2)) for v in (xv, bv))
        norm = np.maximum(np.max(np.abs(xv), axis=(1, 2, 3)), 1.0) ** 2
        resid = np.max(np.abs(xh @ xv - bh @ bv), axis=(1, 2, 3)) / norm
        unit = np.max(np.abs(fv @ fh - np.eye(2)), axis=(1, 2, 3))
        # sizes of the sampled products each check rounds: X* X and B* B,
        # and F F* with F itself the product X B^-1, whose rounding scales
        # with |X| |B^-1| rather than with |F|
        gram_size = np.max(np.abs(xh) @ np.abs(xv) + np.abs(bh) @ np.abs(bv),
                           axis=(1, 2, 3)) / norm
        ff_size = np.max((np.abs(xv) @ np.abs(gv)) @ np.abs(fh),
                         axis=(1, 2, 3))
        assert np.all(np.abs(out["residual"] - resid) <= 1e-15 * gram_size)
        assert np.all(np.abs(out["unitary_residual"] - unit)
                      <= 1e-15 * ff_size)

    @pytest.mark.parametrize("band", BANDS)
    def test_loop_residuals_match_lambda_samples(self, band):
        # the residuals of the solved loops sample 16 points of mu; the 32
        # lambda points give the same maxima of |F B - X| and |F F* - I|
        rng = np.random.default_rng(600 + band)
        coeffs = twisted_chunk(rng, band)
        out = iwasawa_batch(-band, coeffs)
        f, recon, unit_f = fa.unitary_loops(-band, coeffs, out["b"])
        xv = matrices(circle_entries(coeffs, -band, 32))
        fv = matrices(circle_entries(f, -band, 32))
        fh = np.conj(np.swapaxes(fv, -1, -2))
        bv = matrices(circle_entries(out["b"], 0, 32))
        resid = np.max(np.abs(fv @ bv - xv), axis=(1, 2, 3))
        unit = np.max(np.abs(fv @ fh - np.eye(2)), axis=(1, 2, 3))
        fb_size = np.max(np.abs(fv) @ np.abs(bv), axis=(1, 2, 3))
        ff_size = np.max(np.abs(fv) @ np.abs(fh), axis=(1, 2, 3))
        assert np.all(np.abs(recon - resid) <= 1e-15 * fb_size)
        assert np.all(np.abs(unit_f - unit) <= 1e-15 * ff_size)

    @pytest.mark.parametrize("band", BANDS)
    def test_inverse_row_inverts_the_factor(self, band):
        # the last row of the inverse Cholesky factor gives B^-1 of the
        # same section: B binv = I on the circle, to the accuracy of the
        # factorization; failed nodes get the identity
        rng = np.random.default_rng(700 + band)
        coeffs = twisted_chunk(rng, band)
        coeffs[0, :, 1] = 0.0
        out = iwasawa_batch(-band, coeffs)
        assert out["ok"].tolist() == [False] + [True] * (len(coeffs) - 1)
        assert np.array_equal(out["binv"][0, 0], [1, 1])
        assert not np.any(out["binv"][0, 1:])
        prod = matrices(circle_entries(out["b"][1:], 0, 32)) \
            @ matrices(circle_entries(out["binv"][1:], 0, 32))
        assert np.max(np.abs(prod - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("band", BANDS)
    def test_shorter_row_is_shorter_section(self, band):
        # block row ncap - 2 of one factor is the factor of the section two
        # blocks shorter: the convergence gap needs no second Cholesky
        rng = np.random.default_rng(700 + band)
        coeffs = twisted_chunk(rng, band)
        ncap = coeffs.shape[1] - 1 + 4
        chol, ok = fa._section_cholesky(coeffs, ncap)
        short, _, _ = bauer_factor(coeffs, 2)
        assert ok.all()
        assert np.max(np.abs(fa._row_factor(chol, ncap - 2) - short)) <= 1e-13

    @pytest.mark.parametrize("band", [12, 18, 25])
    def test_slow_decay_converges_or_fails(self, band):
        # wide bands with slowly decaying coefficients need sections far
        # past band + 2: every node either converges to a unitary factor
        # or comes back ok = False, never ok = True with a large residual
        rng = np.random.default_rng(800 + band)
        coeffs = twisted_chunk(rng, band, scale=1.0, decay=0.9)
        out = iwasawa_batch(-band, coeffs)
        assert np.all(~out["ok"] | (out["unitary_residual"] <= 1e-10))
        assert np.all(~out["ok"] | (out["residual"] <= 1e-10))
        assert np.all(out["section"] > coeffs.shape[1] + fa.MARGIN_START)
        assert np.all(out["section"] <= coeffs.shape[1] + fa.MARGIN_CAP)
        if band == 12:
            assert out["ok"].all()

    def test_unit_determinant_minus_loops_have_polynomial_factors(self):
        # X polynomial in lambda^-1 of degree N with unit determinant, like
        # the frames: B and B^-1 = adj B are polynomials of degree N, and
        # the section is exact once it holds about 2N blocks, so the
        # doubling stops below margin 2N
        rng = np.random.default_rng(900)
        n, nk = 6, 11
        # X = [[1, u], [0, 1]] [[1, 0], [v, 1]], u and v odd polynomials
        # in lambda^-1 of degree 5: powers -10..0
        u, v = np.zeros((2, n, nk), dtype=complex)
        u[:, 5::2], v[:, 5::2] = rng.normal(size=(2, n, 3)) \
            + 1j * rng.normal(size=(2, n, 3))
        x = np.zeros((n, nk, 2, 2), dtype=complex)
        x[:, :, 0, 1] = u
        x[:, :, 1, 0] = v
        for i in range(n):
            x[i, :, 0, 0] = np.convolve(u[i], v[i])[nk - 1:]
        x[:, -1] += np.eye(2)
        out = iwasawa_batch(1 - nk, compact(x, 1 - nk))
        assert out["ok"].all()
        assert np.all(out["section"] < nk + 2 * (nk - 1))
        assert np.max(np.abs(out["b"][:, nk:])) <= 1e-12
        assert np.max(out["unitary_residual"]) <= 1e-12

    def test_non_positive_definite_node_is_isolated(self):
        rng = np.random.default_rng(400)
        band = 3
        coeffs = twisted_chunk(rng, band, n=5)
        # second column identically zero: a rank-one Gram symbol
        coeffs[2] = 0.0
        coeffs[2, band, 0] = 1.0            # X_00 at power 0
        coeffs[2, band - 1, 0] = 0.5        # X_10 at power -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = iwasawa_batch(-band, coeffs)
            f, recon, unit = fa.unitary_loops(-band, coeffs, out["b"])
        assert out["ok"].tolist() == [True, True, False, True, True]
        assert np.array_equal(out["b"][2, 0], [1, 1])
        assert not np.any(out["b"][2, 1:])
        for v in (f, recon, unit, out["b"], out["binv"], out["residual"],
                  out["unitary_residual"]):
            assert np.all(np.isfinite(v))
        rest = iwasawa_batch(-band, np.delete(coeffs, 2, axis=0))
        f_rest, _, _ = fa.unitary_loops(-band, np.delete(coeffs, 2, axis=0),
                                        rest["b"])
        keep = [0, 1, 3, 4]
        assert f.shape[1:] == f_rest.shape[1:]
        assert np.max(np.abs(f[keep] - f_rest)) <= 1e-13


def hatprod(rng, n=3):
    from loopcmc.loops import hat_extend
    out = None
    for _ in range(n):
        h = hat_extend(random_su2(rng))
        out = h if out is None else mul(out, h)
    return out
