"""Regenerate the pinned golden meshes (run from the repository root).

The goldens are the gallery outputs at their default configurations; the
regression test rebuilds them into a scratch directory and compares bytes.
Before overwriting ``tests/golden/`` the script reads the old files, and
afterwards it prints each file's delta against them: the max vertex and
normal change of an OBJ mesh, the count and max of the changed numbers of a
``report.json``.
"""

import json
import pathlib
import shutil
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from loopcmc.cli import main  # noqa: E402

GOLDEN_JOBS = (
    ("catenoid", ["gallery", "catenoid"]),
    ("helicoid", ["gallery", "helicoid"]),
    ("smyth", ["gallery", "smyth"]),
    ("kusner", ["gallery", "kusner"]),
    ("enneper", ["gallery", "enneper"]),
)


def generate(base: pathlib.Path):
    for name, argv in GOLDEN_JOBS:
        out = base / name
        if out.exists():
            shutil.rmtree(out)
        rc = main(argv + ["--out", str(out)])
        if rc != 0:
            raise SystemExit(f"golden job {name} failed with exit code {rc}")
    return base


def read_files(base: pathlib.Path):
    """Every file under ``base`` as {relative posix path: bytes}."""
    return {p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def _obj_records(data):
    """The ``v`` and ``vn`` records of an OBJ file as two float arrays."""
    recs = {"v": [], "vn": []}
    for line in data.decode().splitlines():
        tag, _, rest = line.partition(" ")
        if tag in recs:
            recs[tag].append([float(x) for x in rest.split()])
    return (np.array(recs["v"]).reshape(-1, 3),
            np.array(recs["vn"]).reshape(-1, 3))


def _json_numbers(node, path=""):
    """{dotted key path: value} of every number in a parsed JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        return {path: float(node)}
    else:
        return {}
    out = {}
    for key, value in items:
        out.update(_json_numbers(value, f"{path}.{key}" if path else str(key)))
    return out


def _max_delta(a, b):
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def file_delta(name, old, new):
    """One line stating how the file ``name`` changed from ``old`` to
    ``new`` (bytes, or None when the file is absent)."""
    if old is None or new is None:
        return f"{name}: {'new file' if old is None else 'removed'}"
    if old == new:
        return f"{name}: unchanged"
    if name.endswith(".obj"):
        (ov, on), (nv, nn) = _obj_records(old), _obj_records(new)
        if ov.shape != nv.shape or on.shape != nn.shape:
            return (f"{name}: vertex count {len(ov)} -> {len(nv)}, "
                    f"normal count {len(on)} -> {len(nn)}")
        return (f"{name}: max vertex delta {_max_delta(ov, nv):.1e}, "
                f"max normal delta {_max_delta(on, nn):.1e}")
    if name.endswith(".json"):
        on, nn = (_json_numbers(json.loads(x)) for x in (old, new))
        moved = {k: abs(nn[k] - on[k]) for k in on.keys() & nn.keys()
                 if nn[k] != on[k]}
        line = f"{name}: {len(moved)} numbers changed"
        if moved:
            top = max(moved, key=moved.get)
            line += f", max delta {moved[top]:.1e} at {top}"
        if on.keys() != nn.keys():
            line += f", {len(on.keys() ^ nn.keys())} number keys added or removed"
        return line
    return f"{name}: changed"


def golden_deltas(old, new):
    """Per-file delta lines between two ``read_files`` maps."""
    return [file_delta(name, old.get(name), new.get(name))
            for name in sorted(old.keys() | new.keys())]


if __name__ == "__main__":
    target = pathlib.Path(__file__).parent / "golden"
    old = read_files(target) if target.exists() else {}
    generate(target)
    new = read_files(target)
    print(f"wrote {len(new)} golden files under {target}; "
          "deltas against the files they replace:")
    for line in golden_deltas(old, new):
        print(" ", line)
