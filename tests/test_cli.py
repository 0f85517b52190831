import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from loopcmc import cli
from loopcmc.cli import main, parse_complex
from loopcmc.loops import LoopError
from conftest import CATENOID_MU, CATENOID_NU, HELICOID_MU, ORDER5_A, ORDER5_P


def read_report(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)


def obj_vertices(path):
    with open(path) as fh:
        return sum(line.startswith("v ") for line in fh)


def assert_partial(item, nodes, cap):
    """The report ``item`` of a mesh of ``nodes`` nodes is a partial mesh
    cut by the series cap: its order within ``cap``, nodes masked under
    tail, and every masked node counted once."""
    causes = item["mask_causes"]
    masked = round(item["masked_fraction"] * nodes)
    assert item["ntrunc"] <= cap and causes["tail"] > 0
    assert sum(causes.values()) == masked < nodes


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("0.5") == 0.5
        assert parse_complex("-i") == -1j

    def test_empty_h_list_is_config_error(self, tmp_path):
        rc = main(["mesh", "--a", "2", "--Q", "0", "--h", "",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("h", ["nan", "inf", "1,nan"])
    def test_non_finite_h_is_config_error(self, tmp_path, capsys, h):
        rc = main(["mesh", "--a", "1", "--Q", "1", "--h", h, "--grid", "11",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--h" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_two_data_sources_rejected(self, tmp_path):
        rc = main(["mesh", "--a", "2", "--Q", "0", "--mu", "1", "--nu", "0",
                   "--h", "1", "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_expression_rejected(self, tmp_path):
        rc = main(["mesh", "--a", "2+", "--Q", "0", "--h", "1",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_series_cap_gives_a_partial_mesh(self, tmp_path):
        # absurd mean curvature on a large domain: the paths of most nodes
        # need a series order above the cap, so those nodes are masked
        # under tail and the rest make a partial mesh that says why
        rc = main(["mesh", "--a", "2", "--Q=-4*z", "--h", "80",
                   "--grid", "11", "--out", str(tmp_path)])
        assert rc == 0
        assert_partial(read_report(tmp_path)["items"][0], 11 * 11, cap=24)

    def test_pole_at_basepoint_fails_cleanly(self, tmp_path, capsys):
        # Q/a = 1/z has a pole at the basepoint: at h = 1 the frame has no
        # start there (not a series tail bound that asks to shrink the
        # domain), and at h = 0 nu = -int dz/z diverges there (not a
        # surface with nothing masked); a config error names the basepoint
        for h in ("1", "0"):
            out = tmp_path / f"h{h}"
            rc = main(["mesh", "--a", "1", "--Q=1/z", "--h", h,
                       "--grid", "21", "--out", str(out)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "basepoint" in err
            assert not out.exists()

    def test_masked_nodes_say_why(self, tmp_path):
        # exp(10 z) spans a range of e^20 over the square: the nodes whose
        # paths run far into the large end need more than the series cap,
        # and the report counts each masked node under its cause
        rc = main(["mesh", "--a", "exp(10*z)", "--Q", "1", "--h", "1",
                   "--grid", "31", "--out", str(tmp_path)])
        assert rc == 0
        item = read_report(tmp_path)["items"][0]
        causes = item["mask_causes"]
        masked = round(item["masked_fraction"] * 31 * 31)
        assert masked == causes["tail"] == 572
        assert sum(causes.values()) == masked

    @pytest.mark.parametrize("cmd", [
        ["mesh", "--a", "2", "--Q=-4*z", "--grid", "11"],
        ["gallery", "sphere"],
        ["dress", "--a", "(1+0.1*z)^2", "--Q", "1", "--atilde", "1",
         "--K", "2"],
    ], ids=["mesh", "gallery", "dress"])
    def test_negative_h_list(self, tmp_path, cmd):
        # a list that starts with a minus sign is a value, not a flag
        rc = main(cmd + ["--h", "-1,1", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        if cmd[0] == "dress":
            assert list(rep["wu_recursion"]) == ["h=-1", "h=1"]
        else:
            assert [item["h"] for item in rep["items"]] == [-1.0, 1.0]

    def test_negative_h_convert(self, tmp_path):
        # convert takes one h, which reads as a value when negative too
        rc = main(["convert", "--mu=-exp(-z)/2", "--nu=-exp(z)", "--h", "-1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert read_report(tmp_path)["potential"]["h"] == -1.0

    def test_weierstrass_masked_nodes_say_why(self, tmp_path):
        # the double pole of mu at 0.3 fails the regularity mask; the
        # classical construction counts those nodes under their cause too
        rc = main(["mesh", "--mu", "1/(z-0.3)^2", "--nu", "z", "--h", "0",
                   "--grid", "21", "--out", str(tmp_path)])
        assert rc == 0
        item = read_report(tmp_path)["items"][0]
        causes = item["mask_causes"]
        masked = round(item["masked_fraction"] * 21 * 21)
        assert masked > 0
        assert sorted(causes) == ["domain", "position", "regularity"]
        assert sum(causes.values()) == masked
        assert causes["regularity"] == masked

    def test_off_circle_lambda0_is_config_error(self, tmp_path):
        rc = main(["mesh", "--a", "2", "--Q", "0", "--h", "1",
                   "--grid", "11", "--lambda0", "2", "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, LoopError])
    def test_linear_algebra_errors_are_numerical(self, tmp_path,
                                                 monkeypatch, error):
        # both are ValueError subclasses, yet not configuration errors
        def fail(*args, **kwargs):
            raise error("singular")
        monkeypatch.setattr(cli, "surface_from_potential", fail)
        rc = main(["mesh", "--a", "2", "--Q", "0", "--h", "1",
                   "--grid", "11", "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("flag", [
        "--substeps=-1", "--substeps=0", "--trunc=0", "--trunc=-3",
        "--tol=0", "--tol=-1e-12", "--tol=nan", "--tol=inf"])
    def test_out_of_range_numeric_flag_is_config_error(self, tmp_path, flag):
        rc = main(["mesh", "--a", "2", "--Q=-4*z", "--h", "1",
                   "--grid", "5", flag, "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "report.json").exists()


    @pytest.mark.parametrize("grid", [["0"], ["-3"], ["5", "0"]])
    def test_grid_below_one_node_is_config_error(self, tmp_path, capsys,
                                                 grid):
        rc = main(["mesh", "--a", "1", "--Q", "1", "--h", "1", "--grid",
                   *grid, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--grid" in err
        assert not (tmp_path / "report.json").exists()

    def test_config_grid_below_one_node_is_config_error(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": ["1"], "a": "1", "Q": "1",
                                   "grid": [0]}))
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "mesh", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--grid" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--xrange", "0", "0"], ["--yrange", "1", "1"],
        ["--xrange", "nan", "1"], ["--yrange", "-1", "nan"],
        ["--xrange", "0", "inf"], ["--xrange", "1", "-1"]],
        ids=["x_zero_width", "y_zero_width", "x_nan", "y_nan", "x_inf",
             "x_reversed"])
    def test_degenerate_range_is_config_error(self, tmp_path, capsys, flags):
        # coincident nodes, or bounds the grid cannot place
        rc = main(["mesh", "--a", "1", "--Q", "1", "--h", "1", "--grid", "5",
                   *flags, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flags[0] in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("xrange", [0, 0]), ("yrange", ["nan", 1]), ("yrange", [0.5, -0.5])])
    def test_config_degenerate_range_is_config_error(self, tmp_path, capsys,
                                                     key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": ["1"], "a": "1", "Q": "1",
                                   "grid": [5], key: value}))
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "mesh", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--{key}" in err
        assert not out.exists()

    def test_one_row_grid_still_meshes(self, tmp_path):
        rc = main(["mesh", "--a", "1", "--Q", "1", "--h", "1", "--grid",
                   "5", "1", "--yrange", "0", "0", "--out", str(tmp_path)])
        assert rc == 0
        assert read_report(tmp_path)["items"][0]["masked_fraction"] == 0.0
        assert obj_vertices(tmp_path / "mesh_h1.obj") == 5

    def test_substeps_reach_an_h0_mesh(self, tmp_path):
        # the h = 0 sweep integrates at --substeps panels per edge, as the
        # frame integrator does: the catenoid's f_z is not a polynomial, so
        # the positions move
        meshes = []
        for n in ("1", "3"):
            out = tmp_path / n
            assert main(["mesh", "--mu=-exp(-z)/2", "--nu=-exp(z)", "--h",
                         "0", "--grid", "21", "--substeps", n,
                         "--out", str(out)]) == 0
            meshes.append((out / "mesh_h0.obj").read_bytes())
        assert meshes[0] != meshes[1]


class TestGallery:
    def test_sphere_radius_report(self, tmp_path):
        rc = main(["gallery", "sphere", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        sphere = rep["items"][0]["checks"]["sphere"]
        assert abs(sphere["radius_mean"] - 1.0) <= 1e-6
        assert sphere["radius_max_dev"] <= 1e-6
        assert (tmp_path / "sphere_h1.obj").exists()

    def test_report_carries_residuals(self, tmp_path):
        rc = main(["gallery", "sphere", "--out", str(tmp_path)])
        assert rc == 0
        item = read_report(tmp_path)["items"][0]
        assert "tail_bound" in item
        assert "max_iwasawa_residual" in item
        # plane data: Phi = I + (upper) lam^-1 is factored at its two
        # slots plus the starting margin, and is well conditioned
        assert item["max_section"] == 4
        assert 1.0 <= item["max_condition"] < 1e2
        assert 1.0 <= item["condition_p99"] <= item["max_condition"]

    def test_smyth_symmetry_report(self, tmp_path):
        rc = main(["gallery", "smyth", "--k", "2", "--h", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        checks = read_report(tmp_path)["items"][0]["checks"]
        assert checks["rotational_data_residual"] <= 1e-12
        assert checks["rotational_mesh_deviation"] <= 1e-5

    def test_mirror_is_reported(self, tmp_path):
        # the catenoid is real on the real axis and on the imaginary one:
        # the quadrant of rows and columns 19 .. 40 of its 41 x 41 grid is
        # factored, and row 19 and column 19 are also read out from their
        # partners, as the check of the mirror; the helicoid's reflections
        # are twisted (Q is imaginary on the real axis); Enneper's h = 0
        # mesh factors nothing, and keeps both reflections with the sign
        # matrices R = diag(1, -1, 1) and diag(-1, 1, -1)
        expect = {
            "catenoid": [{"axis": "row", "nu": [1.0, 0.0], "d": [1.0, 0.0]},
                         {"axis": "col", "nu": [1.0, 0.0], "d": [-1.0, 0.0]}],
            "helicoid": [{"axis": "row", "nu": [0.0, 1.0], "d": [0.0, -1.0]},
                         {"axis": "col", "nu": [0.0, 1.0], "d": [0.0, 1.0]}],
        }
        for name, mirrored in expect.items():
            rc = main(["gallery", name, "--h", "0.1",
                       "--out", str(tmp_path / name)])
            assert rc == 0
            item = read_report(tmp_path / name)["items"][0]
            assert item["mirrored"] == mirrored
            assert item["factored_nodes"] == 22 * 22
            assert 0 <= item["mirror_deviation"] <= 1e-14
        rc = main(["gallery", "enneper", "--out", str(tmp_path / "e")])
        assert rc == 0
        item = read_report(tmp_path / "e")["items"][0]
        assert item["mirrored"] == [{"axis": "row", "R": [1, -1, 1]},
                                    {"axis": "col", "R": [-1, 1, -1]}]
        assert 0 <= item["mirror_deviation"] <= 1e-14
        assert item["factored_nodes"] == 0

    def test_trunc_cap_is_honored(self, tmp_path):
        # smyth h = 1 needs a series order above 4: the cap must not be
        # raised behind the flag, so the nodes whose paths need more are
        # masked, as `mesh` masks them
        rc = main(["gallery", "smyth", "--h", "1", "--trunc", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert_partial(read_report(tmp_path)["items"][0], 61 * 61, cap=4)

    def test_unknown_entry(self, tmp_path):
        assert main(["gallery", "nope", "--out", str(tmp_path)]) == 2

    def test_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["gallery", "sphere", "--out", str(out)]) == 0
        for name in ("report.json", "sphere_h1.obj"):
            with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
                assert fa.read() == fb.read()

    def test_ply_output(self, tmp_path):
        rc = main(["gallery", "sphere", "--format", "both",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sphere_h1.ply").exists()
        with open(tmp_path / "sphere_h1.ply", "rb") as fh:
            assert fh.read(3) == b"ply"

    def test_config_file_defaults(self, tmp_path):
        # every key sets its flag, also one the parser has a default for
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": ["1"], "a": "2", "Q": "0",
                                   "grid": [11]}))
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "mesh", "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        assert rep["items"][0]["h"] == 1.0
        assert rep["config"]["grid"] == [11]
        assert obj_vertices(out / "mesh_h1.obj") == 121

    def test_command_line_overrides_config(self, tmp_path):
        # a flag given on the command line wins over the file's value,
        # also for the repeatable --h, which does not add to it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": ["1"], "a": "2", "Q": "0",
                                   "grid": [11], "prefix": "cfg"}))
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "mesh", "--grid", "9", "--h", "2",
                   "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        assert [item["h"] for item in rep["items"]] == [2.0]
        assert rep["config"]["grid"] == [9]
        assert obj_vertices(out / "cfg_h2.obj") == 81

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": ["1"], "a": "2", "Q": "0",
                                   "gird": [9]}))
        rc = main(["--config", str(cfg), "mesh", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'gird'" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("grid", "11"), ("trunc", "five"), ("trunc", 5.5),
        ("format", "xyz"), ("xrange", [-1]), ("reflective", 1)])
    def test_config_value_the_flag_rejects_is_config_error(
            self, tmp_path, capsys, key, value):
        # each file value goes through its flag's nargs, type and choices
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": ["1"], "a": "2", "Q": "0",
                                   "grid": [11], key: value}))
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "mesh", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{key}'" in err
        assert not out.exists()

    def test_config_value_spelled_as_on_the_command_line(self, tmp_path):
        # "5" passes --trunc's type as the command line's 5 does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": ["1"], "a": "2", "Q": "0",
                                   "grid": [11], "trunc": "5"}))
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "mesh", "--out", str(out)])
        assert rc == 0
        assert read_report(out)["config"]["trunc"] == 5


class TestMeshSymmetryFlag:
    def test_three_node_grid_falls_back_to_bilinear(self, tmp_path):
        # too few nodes for a cubic spline: the check resamples bilinearly
        # and the run still writes its report
        rc = main(["mesh", "--a", "2", "--Q=-4*z", "--h", "1", "--grid", "3",
                   "--symmetry", "3", "--out", str(tmp_path)])
        assert rc == 0
        dev = read_report(tmp_path)["items"][0]["checks"][
            "rotational_mesh_deviation"]
        assert math.isfinite(dev)

    @pytest.mark.parametrize("argv", [
        ["gallery", "smyth", "--h", "1"],
        ["mesh", "--a", "2", "--Q=-4*z", "--h", "1", "--grid", "21",
         "--symmetry", "3"]], ids=["gallery", "mesh"])
    def test_symmetry_check_imports_no_scipy(self, tmp_path, argv):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys\n"
                "from loopcmc import cli\n"
                f"rc = cli.main({argv + ['--out', str(tmp_path)]!r})\n"
                "print(rc, 'scipy' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 False"
        # the check ran: the 21-node mesh deviates by about 1.4e-4
        item = read_report(tmp_path)["items"][0]
        assert item["checks"]["rotational_mesh_deviation"] <= 1e-3


class TestParserOnce:
    def test_tree_built_once_and_config_does_not_leak(self, tmp_path,
                                                      monkeypatch):
        # two calls of main share one argparse tree; the --config values of
        # the first land in its namespace only, so the second call, given
        # no data, is a config error
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "loopcmc":
                built.append(self)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": ["1"], "a": "2", "Q": "0",
                                   "grid": [9]}))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["--config", str(cfg), "mesh", "--out", str(first)]) == 0
        assert main(["mesh", "--out", str(second)]) == 2
        assert len(built) == 1
        assert cli.build_parser() is built[0]
        assert read_report(first)["items"][0]["h"] == 1.0
        assert not (second / "report.json").exists()


class TestConvert:
    def test_two_data_sources_rejected(self, tmp_path):
        rc = main(["convert", "--mu", "1", "--nu", "z", "--h", "1",
                   "--a", "1", "--Q", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "report.json").exists()

    def test_h_rejected_for_potential_to_classical(self, tmp_path, capsys):
        rc = main(["convert", "--a", "2", "--Q=-2*z", "--h", "5",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--h" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_h_list_rejected_for_classical_to_potential(self, tmp_path,
                                                        capsys):
        rc = main(["convert", "--mu", "1", "--nu=z^2", "--h", "0.5,2",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--h" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_catenoid_potential_text(self, tmp_path, capsys):
        rc = main(["convert", f"--mu={CATENOID_MU}", f"--nu={CATENOID_NU}",
                   "--h", "1", "--round-trip", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        # evaluate the printed entries against the printed closed forms
        from loopcmc import expr as ex
        zs = np.array([0.3 - 0.2j, 0.1 + 0.4j])
        upper = ex.evaluate(ex.parse(rep["potential"]["upper"]), zs)
        lower = ex.evaluate(ex.parse(rep["potential"]["lower"]), zs)
        assert np.allclose(upper, -(1 / 4) * np.exp(-zs) * (np.exp(zs) + 1) ** 2)
        assert np.allclose(lower, -2 * np.exp(zs) * (np.exp(zs) + 1) ** -2)
        assert rep["round_trip"]["ok"]

    def test_potential_to_minimal_symbolic(self, tmp_path, capsys):
        rc = main(["convert", "--a", "2", "--Q=-2*z", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        from loopcmc import expr as ex
        zs = np.array([0.5 + 0.1j, -0.3j])
        nu = ex.evaluate(ex.parse(rep["weierstrass"]["nu"]), zs)
        assert np.allclose(nu, zs ** 2 / 2)
        mu = ex.evaluate(ex.parse(rep["weierstrass"]["mu"]), zs)
        assert np.allclose(mu, 1.0)

    def test_potential_to_minimal_primitive_text(self, tmp_path, capsys):
        # Q/a = 1/(1+z) is not a polynomial: nu is printed as a primitive
        rc = main(["convert", "--a", "1+z", "--Q", "1", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        assert rep["weierstrass"] == {"mu": "0.5*(1 + z)",
                                      "nu": "-int(1/(1 + z))"}


class TestCheck:
    def test_order5_rotational_pass(self, tmp_path):
        rc = main(["check", "--a", ORDER5_A,
                   "--Q", f"({ORDER5_A})*({ORDER5_P})",
                   "--symmetry", "5", "--tol", "1e-10", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        assert rep["checks"]["rotational"]["pass"]
        assert rep["checks"]["rotational"]["residual"] <= 1e-12

    def test_helicoid_reflective_fails(self, tmp_path):
        rc = main(["check", f"--mu={HELICOID_MU}", f"--nu={CATENOID_NU}",
                   "--reflective", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        assert not rep["checks"]["reflective"]["pass"]
        assert rep["checks"]["reflective"]["residual"] >= 1e-2

    def test_orders_report(self, tmp_path):
        rc = main(["check", "--a", "z^2", "--Q", "1", "--orders", "0;1+0i",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_report(tmp_path)["checks"]["orders"]
        assert rows[0]["tag"] == "thm-case-2" and rows[0]["valid"]
        assert rows[1]["tag"] == "a-holo-nonzero"

    def test_kusner_gallery_orders(self, tmp_path):
        rc = main(["gallery", "kusner", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_report(tmp_path)["items"][0]["checks"]["orders"]
        tags = [r["tag"] for r in rows]
        assert tags[0] == "a-holo-nonzero"
        assert tags.count("thm-case-1") == 6    # double poles of a
        assert tags.count("thm-case-2") == 3    # double zeros of a
        assert all(r["valid"] for r in rows)


class TestDress:
    def test_two_data_sources_rejected(self, tmp_path):
        rc = main(["dress", "--a", "2", "--Q", "1", "--atilde", "2",
                   "--mu", "1", "--nu", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "report.json").exists()

    def test_identity_gauge(self, tmp_path):
        rc = main(["dress", "--a", "2+z", "--Q", "1", "--rho", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        from loopcmc import expr as ex
        zs = np.array([0.2, 0.5 + 0.1j])
        assert np.allclose(ex.evaluate(ex.parse(rep["dressed"]["a"]), zs),
                           2 + zs)

    def test_rho_refuses_the_flags_it_ignores(self, tmp_path, capsys):
        # the gauge reads only the data: each flag of the --atilde job,
        # given on the command line or in --config, is named and refused;
        # the defaults of --grid and --K are not given flags
        base = ["dress", "--a", "2+z", "--Q", "1", "--rho", "1"]
        rc = main(base + ["--h", "0", "--grid", "11", "--K", "3",
                          "--xrange", "-1", "1", "--trunc", "5", "--tol",
                          "1e-9", "--substeps", "2", "--lambda0", "1",
                          "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.split(": ")[-1] == (
            "--rho gauges the data only; it takes no --h, --K, --grid, "
            "--xrange, --trunc, --tol, --substeps, --lambda0\n")
        assert not (tmp_path / "report.json").exists()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"yrange": [-1, 1]}))
        assert main(["--config", str(cfg)] + base) == 2
        assert capsys.readouterr().err.endswith("it takes no --yrange\n")
        assert main(base + ["--out", str(tmp_path)]) == 0

    def test_h_independent_report(self, tmp_path):
        rc = main(["dress", "--a", "(1+0.1*z)^2", "--Q", "1",
                   "--atilde", "1", "--h", "1", "--K", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        assert rep["h_independent"]["verdict"]
        assert rep["h_independent"]["max_db1"] <= 1e-10
        wu = rep["wu_recursion"]["h=1"]
        assert wu["max_relation_residual"] <= 1e-8
        assert wu["max_higher_coefficient"] <= 1e-9

    def test_quotient_potential_recursion(self, tmp_path):
        # the symbolic derivative towers of 1/(2-z) made this hang
        rc = main(["dress", "--a", "1/(2-z)", "--Q", "1", "--atilde", "1",
                   "--h", "1", "--K", "6", "--grid", "21",
                   "--out", str(tmp_path)])
        assert rc == 0
        wu = read_report(tmp_path)["wu_recursion"]["h=1"]
        assert np.isfinite(wu["max_relation_residual"])
        assert wu["max_relation_residual"] <= 1e-8

    def test_zero_of_a_on_path_is_config_error(self, tmp_path):
        rc = main(["dress", "--a", "(0.5-z)^2", "--Q", "1", "--atilde", "1",
                   "--h", "1", "--K", "6", "--out", str(tmp_path)])
        assert rc == 2

    def test_non_finite_report_is_strict_json(self, tmp_path):
        # |db1/dz| overflows to inf: the report says null and names the key
        rc = main(["dress", "--a", "exp(2000*z)", "--Q", "1", "--atilde", "1",
                   "--out", str(tmp_path)])
        assert rc == 0

        def reject(name):
            raise ValueError(f"non-finite constant {name} in report")
        with open(tmp_path / "report.json") as fh:
            rep = json.load(fh, parse_constant=reject)
        assert rep["h_independent"]["max_db1"] is None
        assert rep["non_finite"] == ["h_independent.max_db1"]

    def test_finite_report_has_no_non_finite_key(self, tmp_path):
        rc = main(["dress", "--a", "(1+0.1*z)^2", "--Q", "1", "--atilde", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "non_finite" not in read_report(tmp_path)

    @pytest.mark.parametrize("hs", ["0,1", "1,0"])
    def test_zero_h_rejected_before_any_work(self, hs, tmp_path, capsys,
                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")
        for name in ("h_independent_dressing", "wu_recursion"):
            monkeypatch.setattr(cli, name, refuse)
        rc = main(["dress", "--a", "(1+0.1*z)^2", "--Q", "1",
                   "--atilde", "1", "--h", hs, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--h" in err and "h_independent_dressing" not in err
        assert not (tmp_path / "report.json").exists()

    def test_cross_check_reports_the_mirror(self, tmp_path):
        # criterion 8's job: the element keeps the row reflection of the
        # dressed frames, so 22 of 41 rows are factored; the direct
        # constant data keep both reflections, a 22 x 22 quadrant
        rc = main(["dress", "--a", "(1+0.1*z)^2", "--Q", "1",
                   "--atilde", "1", "--h", "0.5,1,2", "--K", "6",
                   "--grid", "41", "--xrange", "-0.8", "0.8",
                   "--yrange", "-0.8", "0.8", "--out", str(tmp_path)])
        assert rc == 0
        cross = read_report(tmp_path)["cross_check"]
        assert cross["mirrored"] == [
            {"axis": "row", "nu": [1.0, 0.0], "d": [1.0, 0.0]}]
        assert cross["factored_nodes"] == {"dressed": 902, "direct": 484}
        assert cross["max_deviation"] <= 1e-4

    def test_cross_check_creates_missing_out_dir(self, tmp_path):
        out = tmp_path / "missing" / "nested"
        rc = main(["dress", "--a", "(1+0.1*z)^2", "--Q", "1",
                   "--atilde", "1", "--h", "1", "--K", "4", "--grid", "11",
                   "--out", str(out)])
        assert rc == 0
        assert read_report(out)["cross_check"]["max_deviation"] <= 1e-4
        assert (out / "dressed.obj").exists() and (out / "direct.obj").exists()
