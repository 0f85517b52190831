"""Command-line front end: mesh generation, data conversion, symmetry and
order checks, dressing, and the example gallery.

Subcommands: mesh | convert | check | dress | gallery.  Every run that
produces meshes also writes a single JSON report with the truncation tail
bound, the factorization residuals actually achieved, mask statistics and
any requested checks.  Outputs are deterministic: identical configuration
yields identical bytes.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import expr as ex
from .convert import (member, minimal_to_potential, potential_to_minimal,
                      validate_orders)
from .dressing import (DressingError, gauge_potential, h_independent_dressing,
                       relation_residuals, wu_recursion, dress_surface)
from .factor import FactorError
from .frames import (FrameError, PotentialSpec, SurfaceOptions,
                     extract_curvature, potential_entries,
                     surface_from_potential)
from .gallery import entry_names, get_entry
from .grid import DomainGrid, GridError
from .loops import LoopError
from .mesh import SurfaceMesh
from .meshio import write_mesh
from .symmetry import (SymmetrySpec, check_reflective_data,
                       check_rotational_data, ring_samples,
                       verify_mesh_symmetry)
from .weier import InvalidDataError, WeierstrassData

__all__ = ["main", "build_parser"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Small parsers

def parse_complex(text) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except (ValueError, AttributeError):
        pass
    try:
        return complex(ex.evaluate(ex.parse(text), 0j))
    except Exception as err:
        raise ConfigError(f"cannot parse complex number {text!r}: {err}")


def parse_h_list(values):
    if not values:
        raise ConfigError("at least one mean curvature value (--h) is required")
    out = []
    for v in values:
        for piece in str(v).split(","):
            if piece:
                h = float(piece)
                if not math.isfinite(h):
                    raise ConfigError(f"--h values must be finite, got {piece!r}")
                out.append(h)
    if not out:
        raise ConfigError("empty mean curvature list")
    return out


def build_grid(args, z0) -> DomainGrid:
    if min(args.grid) < 1:
        raise ConfigError("--grid sizes must be at least 1, got "
                          + " ".join(map(str, args.grid)))
    nx = args.grid[0]
    ny = args.grid[1] if len(args.grid) > 1 else args.grid[0]
    xr = args.xrange or [z0.real - 1.0, z0.real + 1.0]
    yr = args.yrange or [z0.imag - 1.0, z0.imag + 1.0]
    for flag, (lo, hi), n in (("--xrange", xr, nx), ("--yrange", yr, ny)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"{flag} bounds must be finite, got {lo} {hi}")
        if n > 1 and lo >= hi:
            raise ConfigError(f"{flag} must increase for {n} nodes, got "
                              f"{lo} {hi}; give lo < hi or one node")
    try:
        return DomainGrid.make(xr[0], xr[1], nx, yr[0], yr[1], ny, z0)
    except GridError as err:
        raise ConfigError(str(err))


def build_options(args) -> SurfaceOptions:
    opts = SurfaceOptions()
    if getattr(args, "trunc", None) is not None:
        if args.trunc < 1:
            raise ConfigError("--trunc must be at least 1")
        opts.ntrunc_cap = args.trunc
    if getattr(args, "tol", None) is not None:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ConfigError("--tol must be a finite positive number")
        opts.tail_tol = args.tol
    if getattr(args, "substeps", None) is not None:
        if args.substeps < 1:
            raise ConfigError("--substeps must be at least 1")
        opts.substeps = args.substeps
    if getattr(args, "lambda0", None) is not None:
        lam = parse_complex(args.lambda0)
        if abs(abs(lam) - 1) > 1e-12:
            raise ConfigError("--lambda0 must lie on the unit circle")
        opts.lambda0 = lam
    return opts


def load_data(args, from_basepoint=True):
    """The one data source of a command: a WeierstrassData from --mu/--nu
    or a PotentialSpec (h = 0) from --a/--Q.  A potential that the command
    integrates ``from_basepoint`` must have ``a`` finite and nonzero and
    Q/a finite there."""
    has_classical = bool(getattr(args, "mu", None)) or bool(getattr(args, "nu", None))
    has_normalized = bool(getattr(args, "a", None)) or bool(getattr(args, "Q", None))
    if has_classical == has_normalized:
        raise ConfigError("give exactly one data source: --mu/--nu or --a/--Q")
    z0 = parse_complex(args.basepoint) if args.basepoint else 0j
    try:
        if has_classical:
            if not (args.mu and args.nu):
                raise ConfigError("classical data needs both --mu and --nu")
            return WeierstrassData(args.mu, args.nu, z0)
        if not (args.a and args.Q):
            raise ConfigError("normalized data needs both --a and --Q")
        p = PotentialSpec.normalized(args.a, args.Q, 0.0, z0)
    except ex.ExprSyntaxError as err:
        raise ConfigError(f"bad expression: {err}")
    if not from_basepoint:
        return p
    # the frame starts at z0, and nu = -int Q/a from there
    with np.errstate(all="ignore"):
        a0, lower0 = ex.evaluate((p.a, ex.Div(p.Q, p.a)), z0)
    if not (np.isfinite(a0) and a0 != 0 and np.isfinite(lower0)):
        raise ConfigError(f"a = {a0} and Q/a = {lower0} at the basepoint "
                          f"{z0}: a must be finite and nonzero and Q/a "
                          "finite there; pick another --basepoint")
    return p


# ---------------------------------------------------------------------------
# Reports and mesh jobs

def curvature_summary(mesh: SurfaceMesh):
    cf = extract_curvature(mesh)
    if not np.any(cf.valid):
        return {"valid_nodes": 0}
    hvals = cf.H[cf.valid]
    c1, c2 = mesh.conformality_residuals()
    return {
        "valid_nodes": int(np.count_nonzero(cf.valid)),
        "h_num_median": float(np.median(hvals)),
        "h_num_max_err": float(np.max(np.abs(hvals - mesh.h))),
        "kappa_scale_median": float(np.median(
            0.5 * (np.abs(cf.kplus[cf.valid]) + np.abs(cf.kminus[cf.valid])))),
        "conformality_dot": c1,
        "conformality_ratio": c2,
    }


def sphere_radius_report(mesh: SurfaceMesh):
    if mesh.h == 0:
        return None
    j0, i0 = mesh.basepoint_index()
    center = mesh.f[j0, i0] + mesh.normal[j0, i0] / mesh.h
    d = np.linalg.norm(mesh.f[mesh.mask] - center, axis=-1)
    return {"radius_target": 1.0 / abs(mesh.h),
            "radius_mean": float(np.mean(d)),
            "radius_max_dev": float(np.max(np.abs(d - 1.0 / mesh.h)))}


def mesh_item_report(mesh: SurfaceMesh, name):
    rep = {
        "mesh": name,
        "h": mesh.h,
        "masked_fraction": mesh.masked_fraction(),
        "diameter": mesh.diameter(),
        "factored_nodes": mesh.meta.get("factored_nodes", 0),
    }
    for key in ("ntrunc", "tail_bound", "panels", "max_iwasawa_residual",
                "max_unitary_residual", "max_condition", "condition_p99",
                "max_section", "mask_causes", "lambda0", "mirrored",
                "mirror_deviation"):
        if key in mesh.meta:
            v = mesh.meta[key]
            rep[key] = (complex(v).real if key == "lambda0" and
                        complex(v).imag == 0 else v)
    if mesh.h != 0:
        rep["curvature"] = curvature_summary(mesh)
    return rep


def run_mesh_job(data, h_list, grid_for, opts, outdir, prefix, fmt,
                 checks=None):
    """Build one mesh per h from the family through ``data`` (either
    carrier), export, and assemble the report items."""
    items = []
    meshes = []
    for h in h_list:
        mesh = surface_from_potential(member(data, h), grid_for(h), opts)
        fname = f"{prefix}_h{h:g}.obj"
        if outdir:
            os.makedirs(outdir, exist_ok=True)
            if fmt in ("obj", "both"):
                write_mesh(mesh, os.path.join(outdir, fname), "obj",
                           comment=f"{prefix} h={h:g}")
            if fmt in ("ply", "both"):
                write_mesh(mesh, os.path.join(outdir, fname[:-4] + ".ply"), "ply")
        item = mesh_item_report(mesh, fname)
        if checks:
            item["checks"] = checks(mesh)
        items.append(item)
        meshes.append(mesh)
    return items, meshes


def emit_report(report, outdir):
    """Print the report as strict JSON (and write it to ``outdir``): each
    non-finite number becomes null, and the top-level ``non_finite`` list
    names its dotted key path."""
    bad = []
    report = _finite_only(report, (), bad)
    if bad:
        report["non_finite"] = sorted(bad)
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            fh.write(text + "\n")
    print(text)


def _finite_only(v, path, bad):
    """``v`` in plain JSON types, with each non-finite float replaced by
    None and its dotted key path appended to ``bad``."""
    if isinstance(v, dict):
        return {k: _finite_only(x, path + (str(k),), bad) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_only(x, path + (str(i),), bad) for i, x in enumerate(v)]
    if isinstance(v, complex):
        return _finite_only([v.real, v.imag], path, bad)
    if isinstance(v, np.ndarray):
        return _finite_only(v.tolist(), path, bad)
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        bad.append(".".join(path))
        return None
    return v


# ---------------------------------------------------------------------------
# Subcommands

def cmd_mesh(args):
    data = load_data(args)
    h_list = parse_h_list(args.h)
    opts = build_options(args)
    grid = build_grid(args, data.z0)

    def checks(mesh):
        out = {}
        if args.symmetry:
            spec = SymmetrySpec.rotational(args.symmetry)
            out["rotational_mesh_deviation"] = verify_mesh_symmetry(mesh, spec)
        if args.reflective:
            out["reflective_mesh_deviation"] = verify_mesh_symmetry(
                mesh, SymmetrySpec.reflective())
        return out

    items, _ = run_mesh_job(data, h_list, lambda h: grid, opts, args.out,
                            args.prefix, args.format,
                            checks if (args.symmetry or args.reflective) else None)
    emit_report({"command": "mesh", "items": items,
                 "config": _echo_config(args)}, args.out)
    return 0


def cmd_convert(args):
    data = load_data(args)
    report = {"command": "convert"}
    if isinstance(data, WeierstrassData):
        if not args.h:
            raise ConfigError("classical-to-potential needs --h")
        h_list = parse_h_list(args.h)
        if len(h_list) != 1:
            raise ConfigError(f"convert takes one --h value, got {len(h_list)}")
        h = h_list[0]
        p = minimal_to_potential(data, h)
        upper, lower = potential_entries(p)
        report["potential"] = {
            "h": h,
            "upper": ex.to_text(upper),
            "lower": ex.to_text(lower),
            "a": ex.to_text(p.a),
            "Q": ex.to_text(p.Q),
            "E0": p.initial_frame(),
        }
        print(f"eta = [[0, U], [L, 0]] lam^-1 dz  with")
        print(f"  U = {report['potential']['upper']}")
        print(f"  L = {report['potential']['lower']}")
        if args.round_trip:
            w2 = potential_to_minimal(p.a, p.Q, data.z0, E0=p.initial_frame())
            zs = ring_samples(0.5, 40, data.z0)
            dmu = np.max(np.abs(data.mu(zs) - w2.mu(zs)))
            dnu = np.max(np.abs(data.nu(zs) - w2.nu(zs)))
            report["round_trip"] = {"max_mu_dev": float(dmu),
                                    "max_nu_dev": float(dnu),
                                    "ok": bool(max(dmu, dnu) < 1e-8)}
            print(f"round trip: max |d mu| = {dmu:.3e}, max |d nu| = {dnu:.3e}")
    else:
        if args.h:
            raise ConfigError("--h does not apply to potential-to-classical "
                              "conversion, which gives the h = 0 data")
        w = potential_to_minimal(data.a, data.Q, data.z0)
        mu_text, nu_text = ex.to_text(w.mu), ex.to_text(w.nu)
        report["weierstrass"] = {"mu": mu_text, "nu": nu_text}
        print(f"mu = {mu_text}")
        print(f"nu = {nu_text}")
    emit_report(report, args.out)
    return 0


def cmd_check(args):
    data = load_data(args, from_basepoint=False)
    report = {"command": "check", "checks": {}}
    samples = ring_samples(args.sample_radius, 24, data.z0)
    if args.symmetry:
        r = check_rotational_data(data, args.symmetry, samples)
        report["checks"]["rotational"] = {
            "n": args.symmetry, "residual": r, "pass": bool(r <= args.tol)}
        print(f"rotational order {args.symmetry}: residual {r:.3e} "
              f"{'pass' if r <= args.tol else 'FAIL'}")
    if args.reflective:
        r = check_reflective_data(data, samples)
        report["checks"]["reflective"] = {
            "residual": r, "pass": bool(r <= args.tol)}
        print(f"reflective: residual {r:.3e} "
              f"{'pass' if r <= args.tol else 'FAIL'}")
    if args.orders:
        pot = member(data, 1.0)
        pts = [parse_complex(s) for s in args.orders.split(";") if s]
        rep = validate_orders(pot.a, pot.Q, pts)
        rows = []
        for pc in rep.points:
            rows.append({"z": pc.z, "ord_a": pc.ord_a, "ord_Q": pc.ord_q,
                         "tag": pc.tag, "valid": pc.valid, "r": pc.r})
            print(f"z = {pc.z}: Ord(a) = {pc.ord_a}, Ord(Q) = {pc.ord_q} "
                  f"-> {pc.tag}{'' if pc.r is None else f'(r={pc.r})'}"
                  f" [{'valid' if pc.valid else 'invalid'}]")
        report["checks"]["orders"] = rows
    emit_report(report, args.out)
    return 0


def cmd_dress(args):
    p = load_data(args)
    if isinstance(p, WeierstrassData):
        raise ConfigError("dressing needs normalized data --a and --Q")
    z0, a_e, q_e = p.z0, p.a, p.Q
    report = {"command": "dress"}
    if args.rho:
        # the gauge reads the data only: a flag of the --atilde job given
        # with it (on the command line or in --config) would be ignored
        ignored = [f"--{k}" for k in ("h", "K", "grid", "xrange", "yrange",
                                      "trunc", "tol", "substeps", "lambda0")
                   if k in args.given]
        if ignored:
            raise ConfigError("--rho gauges the data only; it takes no "
                              + ", ".join(ignored))
        at_e, q2 = gauge_potential(a_e, q_e, ex.parse(args.rho))
        report["dressed"] = {"a": ex.to_text(at_e), "Q": ex.to_text(q2)}
        print(f"dressed a = {report['dressed']['a']}")
        print(f"Q unchanged = {report['dressed']['Q']}")
        emit_report(report, args.out)
        return 0
    if not args.atilde:
        raise ConfigError("give --rho (gauge data) or --atilde (find element)")
    # every h is checked before any work: the recursion and the meshes
    # need h != 0, and the h = 0 gauge is the h-independent element
    h_list = parse_h_list(args.h) if args.h else []
    if 0.0 in h_list:
        raise ConfigError("dress needs nonzero --h values; at h = 0 only the "
                          "h-independent element applies")
    at_e = ex.parse(args.atilde)
    res = h_independent_dressing(a_e, at_e, q_e, z0)
    report["h_independent"] = {
        "verdict": res.verdict,
        "a0": ex.to_text(res.a0),
        "b1": ex.to_text(res.b1),
        "max_db1": res.max_db1,
    }
    print(f"a0 = {report['h_independent']['a0']}")
    print(f"b1 = {report['h_independent']['b1']}")
    print(f"h-independent: {'yes' if res.verdict else 'no'} "
          f"(max |db1/dz| = {res.max_db1:.3e})")
    if h_list:
        # one recursion; every h's gauge is its rescaling
        first = wu_recursion(a_e, at_e, q_e, h_list[0], K=args.K,
                             path=(z0, z0 + 0.8, 81))
        wu = {}
        for h in h_list:
            co = first.at_h(h)
            rr = relation_residuals(co)
            high = 0.0
            for n, d in co.values.items():
                for w_, arr in d.items():
                    if n == 0 or (n == 1 and w_ == "b"):
                        continue
                    high = max(high, float(np.max(np.abs(arr))))
            wu[f"h={h:g}"] = {"max_relation_residual": max(rr.values()),
                              "max_higher_coefficient": high}
        report["wu_recursion"] = wu
        if res.verdict and args.grid and args.out:
            h = h_list[0]
            grid = build_grid(args, z0)
            opts = build_options(args)
            dressed = dress_surface(res.h_plus, p.with_h(h), grid, opts)
            direct = surface_from_potential(
                PotentialSpec.normalized(at_e, q_e, h, z0), grid, opts)
            both = dressed.mask & direct.mask
            dev = float(np.max(np.linalg.norm(
                dressed.f[both] - direct.f[both], axis=-1)))
            report["cross_check"] = {
                "h": h, "max_deviation": dev,
                "mirrored": dressed.meta.get("mirrored", []),
                "factored_nodes": {"dressed": dressed.meta["factored_nodes"],
                                   "direct": direct.meta["factored_nodes"]}}
            print(f"dressed-vs-direct max deviation at h={h:g}: {dev:.3e}")
            os.makedirs(args.out, exist_ok=True)
            write_mesh(dressed, os.path.join(args.out, "dressed.obj"), "obj")
            write_mesh(direct, os.path.join(args.out, "direct.obj"), "obj")
    emit_report(report, args.out)
    return 0


def cmd_gallery(args):
    try:
        entry = get_entry(args.name, k=args.k)
    except KeyError as err:
        raise ConfigError(str(err))
    h_list = parse_h_list(args.h) if args.h else list(entry.h_list)
    opts = build_options(args)
    data = entry.data

    def checks(mesh):
        out = {}
        if entry.name == "sphere":
            out["sphere"] = sphere_radius_report(mesh)
        if entry.symmetry:
            samples = ring_samples(0.5 * min(
                g[2] for g in entry.grids), 24, data.z0)
            if entry.symmetry[0] == "rotational":
                n = entry.symmetry[1]
                r = check_rotational_data(data, n, samples)
                out["rotational_data_residual"] = r
                if mesh.mask.all():
                    out["rotational_mesh_deviation"] = verify_mesh_symmetry(
                        mesh, SymmetrySpec.rotational(n))
            else:
                r = check_reflective_data(data, samples)
                out["reflective_data_residual"] = r
                out["reflective_expected_pass"] = entry.expect_symmetry_pass
        if entry.name == "kusner":
            out["orders"] = _kusner_orders(data)
        return out

    items, _ = run_mesh_job(data, h_list, entry.grid_for, opts, args.out,
                            entry.name, args.format, checks)
    emit_report({"command": "gallery", "name": entry.name,
                 "description": entry.description, "items": items,
                 "config": _echo_config(args)}, args.out)
    return 0


def _kusner_orders(data):
    """Order report at the basepoint and at the numerically-found roots of
    the two factors in the data (zeros of a where the potential has poles,
    and the double zeros of a)."""
    pot = member(data, 1.0)
    s5 = np.sqrt(5.0)
    pole_roots = np.roots([1, 0, 0, s5, 0, 0, -1])       # z^6 + s5 z^3 - 1
    zero_roots = np.roots([s5, 0, 0, 1])                 # s5 z^3 + 1
    pts = [0j] + sorted(pole_roots, key=lambda c: (round(c.real, 9), round(c.imag, 9))) \
        + sorted(zero_roots, key=lambda c: (round(c.real, 9), round(c.imag, 9)))
    rep = validate_orders(pot.a, pot.Q, pts, radius=2e-4)
    return [{"z": pc.z, "ord_a": pc.ord_a, "ord_Q": pc.ord_q, "tag": pc.tag,
             "valid": pc.valid, "r": pc.r} for pc in rep.points]


# The values of the flags that neither the command line nor --config sets,
# per subcommand; every other flag stays None (or False).  check's --tol
# bounds a data residual, the others' is the series tail tolerance, whose
# default is SurfaceOptions'.
DEFAULTS = {
    "mesh": {"grid": [41], "format": "obj", "prefix": "mesh"},
    "convert": {},
    "check": {"sample_radius": 0.7, "tol": 1e-10},
    "dress": {"grid": [41], "K": 6},
    "gallery": {"format": "obj", "prefix": "mesh"},
}


def apply_config(args):
    """Fill each flag the command line left unset (None or False) from the
    JSON object of the ``--config`` file, then from the command's
    ``DEFAULTS``.  The file's keys are flag names as the namespace holds
    them (``sample_radius`` for ``--sample-radius``); a key that is no flag
    of the command is a config error.  ``args.given`` holds the keys the
    command line or the file set, before the defaults."""
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(str(err))
        if not isinstance(config, dict):
            raise ConfigError(f"{args.config}: not a JSON object")
        unknown = sorted(set(config) - set(vars(args))
                         - {"config", "cmd", "func"})
        if unknown:
            raise ConfigError(f"{args.config}: no {args.cmd} flag named "
                              + ", ".join(map(repr, unknown)))
        actions = _flag_actions(args.cmd)
        config = {k: _config_value(actions[k], v, f"{args.config}: {k!r}")
                  for k, v in config.items()}
    args.given = set(config) | {k for k, v in vars(args).items()
                                if v is not None and v is not False}
    for source in (config, DEFAULTS[args.cmd]):
        for k, v in source.items():
            # identity tests: 0 == False, yet an explicit 0 is set
            if getattr(args, k) is None or getattr(args, k) is False:
                setattr(args, k, v)


def _flag_actions(cmd):
    """{dest: argparse action} of the flags of subcommand ``cmd``."""
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in subs.choices[cmd]._actions}


def _config_value(action, value, where):
    """A ``--config`` value as the command line would store it through the
    flag's ``action``: a boolean for a switch; otherwise one item, or a
    list of them where the flag repeats or takes ``nargs`` values, each
    spelled as on the command line and passed through the flag's ``type``
    and ``choices``.  Anything else is a config error at ``where``."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false")
        return value
    listed = isinstance(action, argparse._AppendAction) \
        or action.nargs not in (None, "?")
    items = value if listed else [value]
    if listed and not (isinstance(value, list) and value):
        raise ConfigError(f"{where} must be a non-empty list")
    if isinstance(action.nargs, int) and len(items) != action.nargs:
        raise ConfigError(f"{where} must be a list of {action.nargs} values")
    out = []
    for item in items:
        if not isinstance(item, (str, int, float)) or isinstance(item, bool):
            raise ConfigError(f"{where}: {item!r} is not a flag value")
        try:
            v = action.type(str(item)) if action.type else str(item)
        except ValueError:
            raise ConfigError(f"{where}: {item!r} is not a valid "
                              f"{action.type.__name__}")
        if action.choices is not None and v not in action.choices:
            raise ConfigError(f"{where}: {item!r} is not one of "
                              + ", ".join(action.choices))
        out.append(v)
    return out if listed else out[0]


def _echo_config(args):
    # paths are excluded so identical jobs yield identical report bytes
    skip = {"func", "config", "out", "given"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None:
            continue
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# Parser

def _add_data_flags(sp):
    sp.add_argument("--mu", help="classical data: holomorphic mu(z)")
    sp.add_argument("--nu", help="classical data: meromorphic nu(z)")
    sp.add_argument("--a", help="normalized data: meromorphic a(z)")
    sp.add_argument("--Q", help="normalized data: holomorphic Q(z)")
    sp.add_argument("--basepoint", help="basepoint z0 (default 0)")


def _add_grid_flags(sp):
    sp.add_argument("--grid", type=int, nargs="+",
                    help="grid size NX [NY] (default 41)")
    sp.add_argument("--xrange", type=float, nargs=2)
    sp.add_argument("--yrange", type=float, nargs=2)
    sp.add_argument("--trunc", type=int, help="series truncation cap")
    sp.add_argument("--tol", type=float, help="series tail tolerance")
    sp.add_argument("--substeps", type=int)
    sp.add_argument("--lambda0", help="evaluation point on the unit circle")


def _add_out_flags(sp):
    sp.add_argument("--out", help="output directory (report.json, meshes)")
    sp.add_argument("--format", choices=["obj", "ply", "both"],
                    help="mesh file format (default obj)")
    sp.add_argument("--prefix", help="mesh file name prefix (default mesh)")


@functools.cache
def build_parser():
    """The command-line parser, built once per process and shared: each
    ``parse_args`` fills a fresh namespace, and :func:`apply_config` fills
    the flags it leaves unset there."""
    ap = argparse.ArgumentParser(
        prog="loopcmc",
        description="constant mean curvature and minimal surfaces from "
                    "Weierstrass-type data via loop group factorization")
    ap.add_argument("--config", help="JSON file of flag values (keyed by "
                    "flag name) that the command line overrides")
    sub = ap.add_subparsers(dest="cmd", required=True)

    mp = sub.add_parser("mesh", help="generate surface meshes")
    _add_data_flags(mp)
    mp.add_argument("--h", action="append",
                    help="mean curvature (repeat or comma-separate)")
    _add_grid_flags(mp)
    _add_out_flags(mp)
    mp.add_argument("--symmetry", type=int, help="verify rotational order n")
    mp.add_argument("--reflective", action="store_true")
    mp.set_defaults(func=cmd_mesh)

    cp = sub.add_parser("convert", help="convert between data forms")
    _add_data_flags(cp)
    cp.add_argument("--h", action="append")
    cp.add_argument("--round-trip", action="store_true", dest="round_trip")
    cp.add_argument("--out")
    cp.set_defaults(func=cmd_convert)

    kp = sub.add_parser("check", help="data-level symmetry and order checks")
    _add_data_flags(kp)
    kp.add_argument("--symmetry", type=int)
    kp.add_argument("--reflective", action="store_true")
    kp.add_argument("--orders", help="semicolon-separated points")
    kp.add_argument("--sample-radius", type=float,
                    help="radius of the sample ring (default 0.7)")
    kp.add_argument("--tol", type=float,
                    help="residual bound of a pass (default 1e-10)")
    kp.add_argument("--out")
    kp.set_defaults(func=cmd_check)

    dp = sub.add_parser("dress", help="dressing action")
    _add_data_flags(dp)
    dp.add_argument("--rho", help="gauge the data by (a, Q) -> (rho^2 a, Q)")
    dp.add_argument("--atilde", help="target data for an h-independent element")
    dp.add_argument("--h", action="append")
    dp.add_argument("--K", type=int, help="recursion depth (default 6)")
    _add_grid_flags(dp)
    dp.add_argument("--out")
    dp.set_defaults(func=cmd_dress)

    gp = sub.add_parser("gallery", help="pinned example families: "
                        + ", ".join(entry_names()))
    gp.add_argument("name")
    gp.add_argument("--k", type=int, help="order for the Enneper-type entries")
    gp.add_argument("--h", action="append")
    gp.add_argument("--trunc", type=int)
    gp.add_argument("--tol", type=float)
    gp.add_argument("--substeps", type=int)
    gp.add_argument("--lambda0")
    _add_out_flags(gp)
    gp.set_defaults(func=cmd_gallery)
    # a word that starts with a minus sign and a digit is a value, not a
    # flag: "--h -1,1" reads as "--h=-1,1" (the stock parsers take "-1,1"
    # and "-1e-3" for flags, "expected one argument")
    for parser in (ap, *sub.choices.values()):
        parser._negative_number_matcher = re.compile(r"-\.?\d")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        apply_config(args)
        return args.func(args)
    except (FrameError, FactorError, ArithmeticError, LoopError,
            np.linalg.LinAlgError) as err:
        # LoopError and LinAlgError are ValueErrors, so they come first
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ConfigError, GridError, InvalidDataError, DressingError,
            ex.ExprSyntaxError, ValueError, KeyError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
