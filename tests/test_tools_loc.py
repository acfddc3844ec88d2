"""``tools/loc.py`` counts the lines that carry code."""

import importlib.util
import pathlib

_spec = importlib.util.spec_from_file_location(
    "loc", pathlib.Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)


def test_comments_docstrings_and_blank_lines_do_not_count():
    source = ('"""module doc."""\n\n# comment\nx = 1  # trailing\n'
              'def f():\n    """doc\n    more."""\n    s = """not a doc"""\n'
              '    return (x +\n            len(s))\n')
    assert loc.code_lines(source) == 5  # x=, def, s=, return (, len(s))
