"""Every top-level import of a gqw module is used in that module, and so is
every module-level ``_private`` function, class or constant.

A stdlib stand-in for pyflakes' unused-import check: deleting a function
must not leave the names it alone used imported, nor the private helpers it
alone called.  ``__init__.py`` is skipped by the import check, because
re-exporting is its purpose.

No module imports a gqw module inside a function body: none of them has an
import cycle to break, so every import is at the top, where the first check
sees it.

It also keeps the evaluation context the one owner of its two decisions:
no module but ``sample.py`` builds a ``random.Random`` or writes an
``"hbar"`` key.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "gqw")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def nested_gqw_imports(source: str):
    """Lines inside a function body that import a gqw module, by a relative
    import or by name."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else ["gqw"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "gqw" for name in names):
                found.add(node.lineno)
    return sorted(found)


def unused_private_names(source: str):
    """Module-level ``_name`` definitions that no other line of the module
    reads; a function or class read only inside its own body is unused."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, DEFS):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node
    unused = []
    for name, node in defined.items():
        readers = [n for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and n.id == name
                   and isinstance(n.ctx, ast.Load)
                   and not (isinstance(node, DEFS)
                            and node.lineno <= n.lineno <= node.end_lineno)]
        if not readers:
            unused.append((node.lineno, name))
    return sorted(unused)


def test_the_check_sees_an_unused_private_name():
    src = ("_A = 1\n_B: int = 2\n_C, D = 3, 4\nclass _K: pass\n"
           "def _f(): return _f()\ndef _g(): return _B\n__all__ = []\n"
           "def h(): return _g(), _K\n")
    assert unused_private_names(src) == [(1, "_A"), (3, "_C"), (5, "_f")]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from a import b as c\nx: c = 1\n") == []


def test_the_check_sees_a_nested_gqw_import():
    src = ("import os\nfrom .expr import add\ndef f():\n    from .forms import wedge\n"
           "    def g():\n        import gqw.expr\n        import json\n"
           "    from gqw import cli\n    from os import path\n")
    assert nested_gqw_imports(src) == [4, 6, 8]


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_no_gqw_import_inside_a_function(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert nested_gqw_imports(fh.read()) == [], module


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == [], module


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_no_unused_private_names(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_private_names(fh.read()) == [], module


def context_leaks(source: str):
    """Lines that build an rng or write an ``"hbar"`` key: both belong to the
    evaluation context (``DomainSampler.rng`` and ``DomainSampler.env``).
    An ``"hbar"`` key is written by a subscript store, a dict-literal key or
    an ``hbar=`` keyword to ``dict(...)``."""
    def is_hbar(node):
        return isinstance(node, ast.Constant) and node.value == "hbar"

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Attribute) and fn.attr == "Random"
                    and isinstance(fn.value, ast.Name) and fn.value.id == "random"):
                found.append((node.lineno, "random.Random"))
            if (isinstance(fn, ast.Name) and fn.id == "dict"
                    and any(k.arg == "hbar" for k in node.keywords)):
                found.append((node.lineno, "hbar"))
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and is_hbar(node.slice)):
            found.append((node.lineno, "hbar"))
        elif isinstance(node, ast.Dict) and any(is_hbar(k) for k in node.keys):
            found.append((node.lineno, "hbar"))
    return sorted(found)


def test_the_check_sees_a_context_leak():
    src = ("import random\nr = random.Random('7:x')\npt = {}\npt['hbar'] = 1.0\n"
           "e = {'hbar': 2.0}\nf = dict(pt, hbar=3.0)\ng = pt['hbar']\n")
    assert context_leaks(src) == [(2, "random.Random"), (4, "hbar"), (5, "hbar"),
                                  (6, "hbar")]


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(SRC)
                                          if f.endswith(".py") and f != "sample.py"))
def test_only_the_sampler_names_streams_and_binds_hbar(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert context_leaks(fh.read()) == [], module
