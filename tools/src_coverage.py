"""Statement coverage of the partition_forge modules under the test suite.

Runs pytest in this process with a line tracer (``sys.settrace`` and
``threading.settrace``), then prints every statement of
``src/partition_forge`` that no test ran, as ``file:line  source``, and the
totals.  A statement is any AST statement but a definition, an import or a
docstring; it ran when a line of its own (its lines less those of the
statements nested in it) ran.  Only the standard library is used, and no
bytecode is written.  Run from the repository root, with pytest's arguments:

    python tools/src_coverage.py tests
    python tools/src_coverage.py tests/test_core.py -k parse

Tracing slows the suite about five times over, so a test with a time
budget can fail under it (acceptance criterion 4 took 547 s of its 120 s
on a 2-core host, and the whole of ``tests`` 18 minutes); the report does
not depend on it.  Deselecting that test
(``--deselect tests/test_acceptance.py::test_c4_degree_one_bijection``)
leaves the same statements unrun and takes about 7 minutes.
The exit code is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "partition_forge"
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def statements(text):
    """``(first line, own lines)`` of every counted statement of one module."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIP) or _is_docstring(node):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            # the statements nested in a block, an except handler or a match case
            nested = child.body if isinstance(child, (ast.excepthandler, ast.match_case)) else (
                [child] if isinstance(child, ast.stmt) else [])
            for inner in nested:
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        out.append((node.lineno, own))
    return out


def main(argv):
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC.parent))
    # read before the run, so that the lines traced are the lines counted
    texts = {str(path): path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    ran = {name: set() for name in texts}

    def tracer(lines):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    locals_ = {name: tracer(lines) for name, lines in ran.items()}

    def global_(frame, event, arg):
        return locals_.get(frame.f_code.co_filename)

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = 0
    for name, text in sorted(texts.items()):
        source = text.splitlines()
        for line, own in sorted(statements(text), key=lambda s: s[0]):
            total += 1
            if not own & ran[name]:
                unrun += 1
                print("%s:%d  %s" % (Path(name).relative_to(ROOT), line, source[line - 1].strip()))
    print("%d of %d statements unrun" % (unrun, total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
