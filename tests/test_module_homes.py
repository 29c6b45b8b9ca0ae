"""Each name has one home: no module of the package imports another's
`_`-prefixed name, and the package root binds no name (every caller
imports from the module that defines what it uses). The check reads each
module's syntax tree, imports inside functions included."""

import ast
from pathlib import Path

import pytest

import smart_tcp

PACKAGE = Path(smart_tcp.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source):
    """Each `from <package module> import _name` in source, as
    "module._name"; a relative import is from a package module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "smart_tcp":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def bound_names(source):
    """Each name that source binds at any depth: imports, assignments,
    functions and classes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.append(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
    return found


def test_the_checks_find_what_they_look_for():
    source = (
        "from .agent_runtime import _assemble, oracle_step\n"
        "from smart_tcp.evaluation import _pct\n"
        "from collections import _chain\n"
        "def f():\n"
        "    from . import _x\n"
    )
    assert private_imports(source) == ["agent_runtime._assemble", "smart_tcp.evaluation._pct", "._x"]
    source = '"""Doc."""\nfrom .alu import alu_execute\nimport os.path\n__version__ = "0"\nclass C: pass\n'
    assert sorted(bound_names(source)) == ["C", "__version__", "alu_execute", "os"]
    assert bound_names('"""Doc."""\n') == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_package_root_binds_no_name():
    assert bound_names((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == []
