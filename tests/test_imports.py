"""The package's import graph stays acyclic without tricks: every import of
one package module by another sits at module level, where a cycle fails at
import time instead of hiding inside a function.  The lowest modules import
only the package modules their row of ``ALLOWED_IMPORTS`` names."""

import ast
import pathlib

import partition_forge

SRC = pathlib.Path(partition_forge.__file__).parent


def _local_package_imports(tree):
    """(line, text) of each import of the package made inside a function."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else ["."]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n == "." or n.split(".")[0] == "partition_forge" for n in names):
                found.append((node.lineno, ast.unparse(node)))
    return sorted(set(found))  # a nested function is walked twice


def test_no_function_local_package_imports():
    found = {path.name: _local_package_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 10
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_local_imports():
    tree = ast.parse("import os\n"
                     "def f():\n    from .core import Primary\n    import json\n"
                     "class C:\n    def g(self):\n        import partition_forge.deg1\n")
    assert _local_package_imports(tree) == [(3, "from .core import Primary"),
                                            (7, "import partition_forge.deg1")]


# the modules below the engine: the oracle (families) stays independent of
# the series engine it checks, and core and classic stand alone
ALLOWED_IMPORTS = {"core": set(), "classic": set(), "families": {"core"}, "series": {"core"}}


def _package_modules(tree):
    """Names of the package modules a module imports, anywhere in it; the
    bare package, which imports every module, counts as "partition_forge"."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                path = node.module or ""
            elif (node.module or "").split(".")[0] == "partition_forge":
                path = node.module[len("partition_forge."):]
            else:
                continue
            # "from . import classic" names modules, "from .core import X" one
            found |= {path.split(".")[0]} if path else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "partition_forge":
                    found.add(rest.split(".")[0] or top)
    return found


def test_lower_modules_import_only_what_they_may():
    broken = {}
    for name, allowed in ALLOWED_IMPORTS.items():
        tree = ast.parse((SRC / (name + ".py")).read_text(encoding="utf-8"))
        extra = _package_modules(tree) - allowed
        if extra:
            broken[name] = sorted(extra)
    assert broken == {}


def test_the_check_sees_every_import_form():
    tree = ast.parse("import os\nfrom . import classic, core\nfrom .series import gf\n"
                     "def f():\n    import partition_forge.deg1\n"
                     "from partition_forge.families import Budget\n"
                     "from partition_forge import cli\nimport partition_forge\n")
    assert _package_modules(tree) == {"classic", "core", "series", "deg1", "families", "cli",
                                      "partition_forge"}
