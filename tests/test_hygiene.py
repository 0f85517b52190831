"""Source hygiene: every name a module of the package or of its tests
imports is used there, every module the package imports is the standard
library, numpy or the package itself, every name a package module's
``__all__`` lists exists, and every name it defines at module level is
either exported or read somewhere in the package.  README's Reports
section names every mask cause of ``frames.MASK_CAUSES``.

Names listed in the module's ``__all__`` (re-exports) and import lines
marked ``# noqa`` (kept on purpose, e.g. for a tracer that wraps the name)
are exempt from the import check.
"""

import ast
import importlib
import pathlib
import sys

import pytest

from loopcmc import frames

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "loopcmc"


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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport sys  # noqa\n"
                   "from math import pi, tau\n__all__ = ['tau']\n")
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "loopcmc"}


def foreign_imports(path):
    """(line, module) of each import, function-level ones included, that
    resolves outside the standard library, numpy and the package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods = [node.module]
        else:
            continue
        out += [(node.lineno, m) for m in mods
                if m.split(".")[0] not in ALLOWED_IMPORTS]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_allowed(path):
    assert foreign_imports(path) == []


def test_check_flags_a_foreign_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os.path\nimport numpy as np\n"
                   "from . import frames\nfrom loopcmc.grid import walk\n"
                   "import scipy\n\n\ndef f():\n"
                   "    from scipy.interpolate import RectBivariateSpline\n"
                   "    import sympy, json\n")
    assert foreign_imports(src) == [(5, "scipy"), (9, "scipy.interpolate"),
                                    (10, "sympy")]


def _parse(path):
    return ast.parse(path.read_text())


def _defined(tree):
    """Names bound at module level by a def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id


def _referenced(trees):
    """Every name the modules read, as a bare name, an attribute or an
    imported name."""
    out = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name)
    return out


def unreferenced_names(path, package):
    """Module-level names of ``path`` that no module of ``package`` (a list
    of paths) reads and that the module's ``__all__`` does not export."""
    tree = _parse(path)
    refs = _referenced(_parse(p) for p in package)
    exempt = _exported(tree)
    return [name for name in _defined(tree)
            if name not in refs and name not in exempt
            and not (name.startswith("__") and name.endswith("__"))]


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_resolve(path):
    name = "loopcmc" if path.stem == "__init__" else f"loopcmc.{path.stem}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_names(path):
    assert unreferenced_names(path, MODULES) == []


def test_check_flags_an_unreferenced_name(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("__all__ = ['f']\nLIMIT = 3\nTAIL = 4\n\n\n"
                 "def f():\n    return g()\n\n\ndef g():\n    return 0\n\n\n"
                 "def _dead():\n    return LIMIT\n\n\nclass Unused:\n"
                 "    pass\n")
    b.write_text("from a import TAIL\n")
    assert unreferenced_names(a, [a, b]) == ["_dead", "Unused"]


def test_readme_reports_name_every_mask_cause():
    # a cause cannot be added or renamed without its documentation
    text = (TESTS.parent / "README.md").read_text()
    reports = text[text.index("### Reports"):text.index("### Expression")]
    assert [c for c in frames.MASK_CAUSES if f"`{c}`" not in reports] == []
