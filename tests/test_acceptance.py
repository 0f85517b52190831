"""Acceptance suite: each test prints one pass/fail line for its criterion.

Tolerances are pinned here and nowhere else.  The mean-curvature bound of
criterion 5 is interpreted dimensionally: |H_num - h| <= 1% of
max(|h|, mesh curvature scale), the scale being the median of
(|kappa+| + |kappa-|)/2 — for the genuinely non-minimal members this is the
plain relative 1% bound; for near-minimal members (h ~ 1e-10) it is 1% of
the surface's own curvature magnitude.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from loopcmc import expr as ex
from loopcmc.convert import (member, minimal_to_potential,
                             potential_to_minimal, validate_orders)
from loopcmc.dressing import (dress_surface, h_independent_dressing,
                              wu_recursion)
from loopcmc.factor import iwasawa
from loopcmc.frames import (PotentialSpec, extract_curvature,
                            surface_from_potential)
from loopcmc.gallery import get_entry
from loopcmc.grid import DomainGrid
from loopcmc.symmetry import (SymmetrySpec, check_reflective_data,
                              check_rotational_data, ring_samples,
                              verify_mesh_symmetry)
from loopcmc.weier import WeierstrassData, minimal_surface
from conftest import (CATENOID_MU, CATENOID_NU, HELICOID_MU, ORDER5_A,
                      ORDER5_P, enneper)
from test_loops import f0_b0_closed_form, phi0_loop


def report(num, text, value, tol, op="<="):
    ok = value <= tol if op == "<=" else value >= tol
    print(f"ACCEPTANCE {num}: {text}: {value:.3e} ({op} {tol:.1e}) "
          f"-> {'PASS' if ok else 'FAIL'}")
    return ok


def kabsch_align(p, q):
    """Rigid alignment (rotation + translation) of point set p onto q."""
    pc = p - p.mean(axis=0)
    qc = q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(qc.T @ pc)
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    return pc @ r.T + q.mean(axis=0)


def test_criterion_1_sphere_radius():
    # plane data mu0 = 1, nu0 = 0, h = 1, 61x61 grid on [-1,1]^2
    p = minimal_to_potential(WeierstrassData("1", "0"), 1.0)
    mesh = surface_from_potential(p, DomainGrid.square(1.0, 61))
    j0, i0 = mesh.basepoint_index()
    center = mesh.f[j0, i0] + mesh.normal[j0, i0] / mesh.h
    dev = float(np.max(np.abs(
        np.linalg.norm(mesh.f[mesh.mask] - center, axis=-1) - 1.0)))
    assert report(1, "sphere radius deviation", dev, 1e-6)


def test_criterion_2_closed_form_iwasawa():
    # 50 random g with |g| <= 3: numerical factorization matches the
    # printed unitary and plus factors coefficientwise
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        g = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
        if abs(g) > 3:
            g *= 3 / abs(g)
        r = iwasawa(phi0_loop(g))
        fexp, bexp = f0_b0_closed_form(g)
        for k in range(-3, 4):
            worst = max(worst,
                        float(np.max(np.abs(r.unitary_part.coeff(k)
                                            - fexp.coeff(k)))),
                        float(np.max(np.abs(r.plus_part.coeff(k)
                                            - bexp.coeff(k)))))
    assert report(2, "closed-form factorization coefficient error", worst, 1e-10)


def test_criterion_3_minimal_limit():
    # catenoid data on [-1,1]^2, 41x41: the h = 1e-6 member against the
    # classical integral with the same basepoint normalization
    w = WeierstrassData(CATENOID_MU, CATENOID_NU, 0j)
    grid = DomainGrid.square(1.0, 41)
    classical = minimal_surface(w, grid)
    loop_mesh = surface_from_potential(minimal_to_potential(w, 1e-6), grid)
    both = classical.mask & loop_mesh.mask
    dev = float(np.max(np.linalg.norm(
        classical.f[both] - loop_mesh.f[both], axis=-1)))
    assert report(3, "minimal limit sup deviation", dev, 1e-4)


def test_criterion_4_hopf_preservation():
    grid = DomainGrid.square(0.9, 61)
    zz = grid.zz
    ring_sel = np.abs(zz) >= 0.2
    worst_q = 0.0
    worst_kappa = 0.0
    for h in (1e-6, 0.5, 1.0):
        mesh = surface_from_potential(
            PotentialSpec.normalized("2", "-4*z", h), grid)
        cf = extract_curvature(mesh)
        sel = cf.valid & ring_sel
        qrel = np.abs(cf.Q[sel] - (-4 * zz[sel])) / np.abs(4 * zz[sel])
        worst_q = max(worst_q, float(np.max(qrel)))
        if h in (0.5, 1.0):
            j0, i0 = mesh.basepoint_index()
            worst_kappa = max(worst_kappa,
                              abs(cf.kplus[j0, i0] - h),
                              abs(cf.kminus[j0, i0] - h))
    ok = report(4, "Hopf function relative error (|z| >= 0.2)", worst_q, 0.02)
    ok &= report(4, "umbilic basepoint principal curvatures vs h",
                 worst_kappa, 1e-3)
    assert ok


GALLERY_FOR_5 = ("sphere", "catenoid", "helicoid", "smyth", "order5", "kusner")


def test_criterion_5_cmc_and_conformality():
    worst_h = 0.0
    worst_conf = 0.0
    for name in GALLERY_FOR_5:
        entry = get_entry(name)
        for h in entry.h_list:
            if h == 0:
                continue
            mesh = surface_from_potential(member(entry.data, h),
                                          entry.grid_for(h))
            cf = extract_curvature(mesh)
            scale = max(abs(h), float(np.median(
                0.5 * (np.abs(cf.kplus[cf.valid])
                       + np.abs(cf.kminus[cf.valid])))))
            herr = float(np.max(np.abs(cf.H[cf.valid] - h))) / scale
            worst_h = max(worst_h, herr)
            c1, c2 = mesh.conformality_residuals()
            worst_conf = max(worst_conf, c1, c2)
    ok = report(5, "mean curvature relative error over the gallery",
                worst_h, 0.01)
    ok &= report(5, "conformality residual over the gallery", worst_conf, 1e-6)
    assert ok


def test_criterion_6_round_trip():
    worst = 0.0
    zs = ring_samples(0.6, 100)
    for k in (1, 2, 3):
        w = enneper(k)
        pot = minimal_to_potential(w, 0.8)
        back = potential_to_minimal(pot.a, pot.Q, 0j, E0=pot.initial_frame())
        worst = max(worst,
                    float(np.max(np.abs(back.mu(zs) - w.mu(zs)))),
                    float(np.max(np.abs(back.nu(zs) - w.nu(zs)))))
    w = WeierstrassData(CATENOID_MU, CATENOID_NU, 0j)
    pot = minimal_to_potential(w, 1.0)
    back = potential_to_minimal(pot.a, pot.Q, 0j, E0=pot.initial_frame())
    worst = max(worst,
                float(np.max(np.abs(back.mu(zs) - w.mu(zs)))),
                float(np.max(np.abs(back.nu(zs) - w.nu(zs)))))
    assert report(6, "round-trip data reproduction", worst, 1e-10)


def test_criterion_7_symmetry_preservation():
    grid = DomainGrid.square(0.9, 61)
    worst_mesh = 0.0
    for h in (1e-6, 1.0):
        mesh = surface_from_potential(
            PotentialSpec.normalized("2", "-4*z", h), grid)
        worst_mesh = max(worst_mesh, verify_mesh_symmetry(
            mesh, SymmetrySpec.rotational(3)))
    ok = report(7, "order-3 mesh symmetry deviation (Smyth k=2)",
                worst_mesh, 1e-5)

    a5 = ex.parse(ORDER5_A)
    pot5 = PotentialSpec(h=1.0, z0=0j, a=a5, Q=ex.Mul(a5, ex.parse(ORDER5_P)))
    r5 = check_rotational_data(pot5, 5, ring_samples(0.35, 24))
    ok &= report(7, "order-5 data-level residual", r5, 1e-12)

    heli = WeierstrassData(HELICOID_MU, CATENOID_NU, 0j)
    rneg = check_reflective_data(heli, ring_samples(0.5, 24))
    ok &= report(7, "helicoid reflective residual (negative control)",
                 rneg, 1e-2, op=">=")
    assert ok


def test_criterion_8_dressing():
    a_txt, at_txt, q_txt = "(1+0.1*z)^2", "1", "1"
    res = h_independent_dressing(a_txt, at_txt, q_txt, 0j)
    zs = np.linspace(-0.5, 0.5, 41) + 0.2j
    b1dev = float(np.max(np.abs(ex.evaluate(res.b1, zs) - 0.1)))
    ok = report(8, "b1 constant 0.1 deviation", b1dev, 1e-10)

    worst_high = 0.0
    for h in (0.5, 1.0, 2.0):
        co = wu_recursion(a_txt, at_txt, q_txt, h, K=6, path=(0j, 0.8, 81))
        for n, d in co.values.items():
            for which, arr in d.items():
                if n == 0 or (n == 1 and which == "b"):
                    continue
                worst_high = max(worst_high, float(np.max(np.abs(arr))))
    ok &= report(8, "higher recursion coefficients at K=6", worst_high, 1e-9)

    grid = DomainGrid.square(0.8, 41)
    dressed = dress_surface(res.h_plus,
                            PotentialSpec.normalized(a_txt, q_txt, 1.0), grid)
    direct = surface_from_potential(
        PotentialSpec.normalized(at_txt, q_txt, 1.0), grid)
    both = dressed.mask & direct.mask
    aligned = kabsch_align(dressed.f[both], direct.f[both])
    dev = float(np.max(np.linalg.norm(aligned - direct.f[both], axis=-1)))
    ok &= report(8, "dressed vs direct surface after rigid alignment",
                 dev, 1e-4)
    assert ok


def test_criterion_9_order_validation():
    ok = True
    for k in (1, 2, 3):
        rep = validate_orders(f"z^{2 * k}",
                              "1" if k == 1 else f"z^{k - 1}", [0j])
        pc = rep.points[0]
        ok &= pc.valid and pc.tag == "thm-case-2" and pc.r == 1
    rep = validate_orders("1/z^2", "1", [0j])
    ok &= rep.points[0].valid and rep.points[0].tag == "thm-case-1"
    rep = validate_orders("z^2", "z^3", [0j])
    ok &= (not rep.points[0].valid) and rep.points[0].tag == "branch-point"
    rep = validate_orders("z", "1", [0j])
    ok &= (not rep.points[0].valid) and rep.points[0].tag == "invalid"
    print(f"ACCEPTANCE 9: order classifier case table -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_10_figure_regression(tmp_path):
    golden = pathlib.Path(__file__).parent / "golden"
    if not golden.exists():
        pytest.fail("golden meshes missing; run tests/make_goldens.py once")
    from make_goldens import generate
    fresh = generate(tmp_path / "regen")
    golden_files = sorted(p.relative_to(golden)
                          for p in golden.rglob("*") if p.is_file())
    assert golden_files, "golden directory is empty"
    mismatches = []
    for rel in golden_files:
        new = fresh / rel
        if not new.exists():
            mismatches.append(f"missing {rel}")
            continue
        if new.read_bytes() != (golden / rel).read_bytes():
            mismatches.append(f"differs {rel}")
    extra = sorted(set(p.relative_to(fresh) for p in fresh.rglob("*")
                       if p.is_file()) - set(golden_files))
    mismatches += [f"extra {rel}" for rel in extra]
    print(f"ACCEPTANCE 10: gallery regression, {len(golden_files)} files "
          f"bit-compared -> {'PASS' if not mismatches else 'FAIL'}")
    assert not mismatches, mismatches


def test_make_goldens_imports_without_pythonpath(tmp_path):
    # a fresh checkout has no installed package and no PYTHONPATH; importing
    # the script (not running it) must resolve loopcmc and write nothing
    script = pathlib.Path(__file__).parent / "make_goldens.py"
    golden = script.parent / "golden"
    before = sorted((p, p.stat().st_mtime_ns) for p in golden.rglob("*"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = ("import importlib.util as u\n"
            f"s = u.spec_from_file_location('make_goldens', {str(script)!r})\n"
            "m = u.module_from_spec(s)\n"
            "s.loader.exec_module(m)\n"
            "print(m.main.__module__)\n")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "loopcmc.cli"
    assert sorted((p, p.stat().st_mtime_ns) for p in golden.rglob("*")) \
        == before


def test_make_goldens_reports_deltas(tmp_path):
    # the comparison the script prints after regenerating, run on two
    # scratch trees; tests/golden/ is neither read nor written
    from make_goldens import golden_deltas, read_files
    golden = pathlib.Path(__file__).parent / "golden"
    before = sorted((p, p.stat().st_mtime_ns) for p in golden.rglob("*"))
    old, new = tmp_path / "old", tmp_path / "new"
    for base in (old, new):
        (base / "m").mkdir(parents=True)
    mesh = ("# m\nv 1.000000000000e+00 0.000000000000e+00 2.0e+00\n"
            "v 0.0 1.0 0.0\nvn 0.0 0.0 1.0\nvn 0.0 1.0 0.0\nf 1 2 1\n")
    (old / "m" / "a.obj").write_text(mesh)
    (new / "m" / "a.obj").write_text(mesh.replace("2.0e+00", "2.5e+00")
                                     .replace("vn 0.0 1.0", "vn 0.0 1.25"))
    (old / "m" / "same.obj").write_text(mesh)
    (new / "m" / "same.obj").write_text(mesh)
    (old / "m" / "report.json").write_text(
        '{"items": [{"h": 1.0, "r": 2.0, "ok": true, "name": "x"}], "n": 3}')
    (new / "m" / "report.json").write_text(
        '{"items": [{"h": 1.0, "r": 2.001, "ok": false, "name": "y"}],'
        ' "n": 5}')
    (old / "m" / "gone.obj").write_text(mesh)
    (new / "m" / "added.obj").write_text(mesh)
    lines = golden_deltas(read_files(old), read_files(new))
    assert lines == [
        "m/a.obj: max vertex delta 5.0e-01, max normal delta 2.5e-01",
        "m/added.obj: new file",
        "m/gone.obj: removed",
        "m/report.json: 2 numbers changed, max delta 2.0e+00 at n",
        "m/same.obj: unchanged",
    ]
    assert sorted((p, p.stat().st_mtime_ns) for p in golden.rglob("*")) \
        == before
