"""Source hygiene: every name a module of the package imports is used there.

Names listed in the module's ``__all__`` (re-exports) and import lines
marked ``# noqa`` (kept on purpose, e.g. for a tracer that wraps the name)
are exempt.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "loopcmc"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """(line, name) of each imported name the module never references."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exempt = _exported(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in lines[i - 1]
               for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exempt:
                out.append((node.lineno, name))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport sys  # noqa\n"
                   "from math import pi, tau\n__all__ = ['tau']\n")
    assert unused_imports(src) == [(1, "os"), (3, "pi")]
