"""The package's import graph stays acyclic without tricks: every import of
one package module by another sits at module level, where a cycle fails at
import time instead of hiding inside a function."""

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
