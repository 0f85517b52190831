"""Regenerate the pinned golden meshes (run from the repository root).

The goldens are the gallery outputs at their default configurations; the
regression test rebuilds them into a scratch directory and compares bytes.
"""

import pathlib
import shutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from loopcmc.cli import main  # noqa: E402

GOLDEN_JOBS = (
    ("catenoid", ["gallery", "catenoid"]),
    ("helicoid", ["gallery", "helicoid"]),
    ("smyth", ["gallery", "smyth"]),
    ("kusner", ["gallery", "kusner"]),
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


if __name__ == "__main__":
    target = pathlib.Path(__file__).parent / "golden"
    generate(target)
    files = sorted(p.relative_to(target) for p in target.rglob("*") if p.is_file())
    print(f"wrote {len(files)} golden files under {target}:")
    for f in files:
        print(" ", f)
