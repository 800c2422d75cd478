"""Line counts of the partition_forge modules: the total lines of each file,
and its code lines, which leave out blank lines, comments and docstrings.

Run from the repository root:

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "partition_forge"


def _docstring_lines(tree):
    """Line numbers covered by the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text):
    """(total lines, code lines) of one module's source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main():
    width = max(len(path.name) for path in SRC.glob("*.py"))
    totals = [0, 0]
    print("%-*s %7s %7s" % (width, "module", "lines", "code"))
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print("%-*s %7d %7d" % (width, path.name, lines, code))
    print("%-*s %7d %7d" % (width, "total", *totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
