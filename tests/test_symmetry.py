from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loopcmc import expr as ex, frames
from loopcmc.convert import minimal_to_potential
from loopcmc.frames import PotentialSpec, surface_from_potential
from loopcmc.grid import DomainGrid
from loopcmc.symmetry import (SymmetrySpec, _spline_eval,
                              check_reflective_data, check_rotational_data,
                              ring_samples, verify_mesh_symmetry)
from conftest import enneper, ORDER5_A, ORDER5_P


SAMPLES = ring_samples(0.7, 24)


def order5_potential(h):
    a = ex.parse(ORDER5_A)
    q = ex.Mul(a, ex.parse(ORDER5_P))
    return PotentialSpec(h=h, z0=0j, a=a, Q=q)


class TestReflectiveData:
    def test_catenoid_symmetric(self, catenoid):
        assert check_reflective_data(catenoid, SAMPLES) <= 1e-12

    def test_enneper_symmetric(self):
        for k in (1, 2, 3):
            assert check_reflective_data(enneper(k), SAMPLES) <= 1e-12

    def test_helicoid_negative_control(self, helicoid):
        assert check_reflective_data(helicoid, np.array([0j])) >= 0.5

    def test_potential_form(self, catenoid, helicoid):
        assert check_reflective_data(minimal_to_potential(catenoid, 1.0),
                                     SAMPLES) <= 1e-12
        assert check_reflective_data(minimal_to_potential(helicoid, 1.0),
                                     SAMPLES) >= 1e-2


class TestRotationalData:
    def test_enneper_order(self):
        # nu = z^k: rotation order n = k+1 (e^{ik theta} = e^{-i theta})
        for k in (1, 2, 3, 4):
            assert check_rotational_data(enneper(k), k + 1, SAMPLES) <= 1e-12

    def test_order5_data(self):
        assert check_rotational_data(order5_potential(1.0), 5, SAMPLES) <= 1e-12

    def test_enneper2_wrong_order_fails(self):
        # nu = z^2 has order 3, not 2, in both conventions: classically and
        # as the potential entries a = 2, p = -2z
        for data in (enneper(2), minimal_to_potential(enneper(2), 1.0)):
            assert check_rotational_data(data, 3, SAMPLES) <= 1e-12
            r = check_rotational_data(data, 2, ring_samples(1.0, 16))
            assert r >= 0.1

    def test_h_independent_residual(self):
        # potential entries tested are (a, Q/a); the h value cannot matter
        rs = [check_rotational_data(order5_potential(h), 5, SAMPLES)
              for h in (1e-6, 0.5, 1.0, 2.0)]
        assert np.ptp(rs) == 0.0


class TestMeshSymmetry:
    def test_sphere_any_order(self):
        g = DomainGrid.square(1.0, 41)
        mesh = surface_from_potential(PotentialSpec.normalized("2", "0", 1.0), g)
        for n in (2, 3, 5):
            dev = verify_mesh_symmetry(mesh, SymmetrySpec.rotational(n))
            assert dev <= 1e-6

    def test_smyth_order3(self):
        g = DomainGrid.square(0.9, 61)
        mesh = surface_from_potential(
            PotentialSpec.normalized("2", "-4*z", 1.0), g)
        dev = verify_mesh_symmetry(mesh, SymmetrySpec.rotational(3))
        assert dev <= 1e-5

    def test_data_symmetry_implies_mesh_symmetry(self):
        # preservation across the deformation family
        g = DomainGrid.square(0.9, 41)
        for h in (1e-6, 0.5, 1.0):
            mesh = surface_from_potential(
                PotentialSpec.normalized("2", "-4*z", h), g)
            dev = verify_mesh_symmetry(mesh, SymmetrySpec.rotational(3))
            assert dev <= 1e-5

    def test_catenoid_reflective_mesh(self, catenoid, monkeypatch):
        # on the whole grid: a mirrored member's rows below j0 - 1 are the
        # reflection of the others by construction
        monkeypatch.setattr(frames, "_reflections", lambda *args: ())
        g = DomainGrid.square(1.0, 41)
        mesh = surface_from_potential(minimal_to_potential(catenoid, 1.0), g)
        assert "mirrored" not in mesh.meta
        dev = verify_mesh_symmetry(mesh, SymmetrySpec.reflective())
        assert dev <= 1e-8

    def test_helicoid_reflective_negative_control(self, helicoid):
        g = DomainGrid.square(1.0, 41)
        mesh = surface_from_potential(minimal_to_potential(helicoid, 0.1), g)
        dev = verify_mesh_symmetry(mesh, SymmetrySpec.reflective())
        assert dev >= 1e-2

    def test_bilinear_fallback(self):
        g = DomainGrid.square(0.9, 61)
        mesh = surface_from_potential(
            PotentialSpec.normalized("2", "-4*z", 1.0), g)
        mesh.mask[0, 0] = False   # force the masked-grid path
        dev = verify_mesh_symmetry(mesh, SymmetrySpec.rotational(3),
                                   method="bilinear")
        assert dev <= 1e-3
        assert verify_mesh_symmetry(mesh, SymmetrySpec.rotational(3)) == dev
        with pytest.raises(ValueError, match="fully valid"):
            verify_mesh_symmetry(mesh, SymmetrySpec.rotational(3),
                                 method="spline")

    def test_auto_falls_back_below_four_nodes(self):
        # a 3 x 3 grid has no cubic spline; only the centre node maps
        # inside the margin, onto itself
        g = DomainGrid.square(0.9, 3)
        mesh = surface_from_potential(
            PotentialSpec.normalized("2", "-4*z", 1.0), g)
        dev = verify_mesh_symmetry(mesh, SymmetrySpec.rotational(3))
        assert dev == 0.0
        with pytest.raises(ValueError, match="4 nodes"):
            verify_mesh_symmetry(mesh, SymmetrySpec.rotational(3),
                                 method="spline")

    def test_rejects_asymmetric_grid(self):
        g = DomainGrid.make(-1, 1, 21, -0.5, 1.0, 16, 0j)
        mesh = surface_from_potential(PotentialSpec.normalized("2", "0", 1.0), g)
        with pytest.raises(ValueError):
            verify_mesh_symmetry(mesh, SymmetrySpec.reflective())


class TestSymmetrySpec:
    def test_rotation_matrix(self):
        s = SymmetrySpec.rotational(4)
        assert s.theta == pytest.approx(np.pi / 2)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            SymmetrySpec.rotational(1)


class TestSplineResampler:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(4, 14),
           ny=st.integers(4, 14), width=st.floats(0.2, 3.0),
           aspect=st.floats(0.3, 2.5))
    @example(seed=0, nx=4, ny=9, width=1.0, aspect=0.5)
    @example(seed=1, nx=11, ny=4, width=2.0, aspect=1.7)
    def test_matches_fitpack(self, seed, nx, ny, width, aspect):
        # the resampler is FITPACK's interpolating spline kx = ky = 3,
        # s = 0, to rounding, on grids with nx != ny and dx != dy
        from scipy.interpolate import RectBivariateSpline
        rng = np.random.default_rng(seed)
        if nx == ny:
            ny += 1
        x0, y0 = rng.uniform(-1.0, 1.0, 2)
        xs = np.linspace(x0, x0 + width, nx)
        ys = np.linspace(y0, y0 + width * aspect * 1.01, ny)
        yy, xx = np.meshgrid(ys, xs, indexing="ij")
        k, phase = rng.uniform(-3.0, 3.0, (2, 3, 3))
        f = np.stack([np.sin(k[c, 0] * xx + k[c, 1] * yy + phase[c, 0])
                      + phase[c, 1] * xx * yy + phase[c, 2] * xx ** 3
                      for c in range(3)], axis=-1)
        mesh = SimpleNamespace(grid=SimpleNamespace(xs=xs, ys=ys), f=f)
        wre = rng.uniform(xs[0], xs[-1], 64)
        wim = rng.uniform(ys[0], ys[-1], 64)
        ref = np.stack([RectBivariateSpline(ys, xs, f[..., c], kx=3, ky=3,
                                            s=0).ev(wim, wre)
                        for c in range(3)], axis=-1)
        got = _spline_eval(mesh, wre, wim)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(f))
