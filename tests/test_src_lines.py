"""The line counter of tools/src_lines.py, on a fixed snippet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    total = (x +
             1)
    return os.sep * total
'''


def test_count_leaves_out_blanks_comments_and_docstrings():
    # 13 lines: 2 of the module docstring, 4 blank, 1 comment, 1 function
    # docstring; the statement over two lines counts both
    assert src_lines.count(SNIPPET) == (13, 5)
    assert src_lines.count("") == (0, 0)
