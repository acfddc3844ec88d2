#!/usr/bin/env python3
"""Count code lines: ``python tools/loc.py PATH [PATH ...]``.

A line counts if it carries at least one token that is not a comment, not
part of a docstring and not layout (newline/indent/dedent) — so deleting
comments or docstrings, or reflowing blank lines, moves nothing.  Docstrings
are found on the AST (first statement of a module, class or function that is
a bare string constant); everything else comes from ``tokenize``.

Prints one total per path argument and, with more than one, a grand total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that carry code."""
    doc = _docstring_lines(ast.parse(source))
    counted: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            counted.update(range(tok.start[0], tok.end[0] + 1))
    return len(counted - doc)


def count_path(path: Path) -> int:
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    totals = [(arg, count_path(Path(arg))) for arg in argv]
    for arg, total in totals:
        print(f"{total:7d}  {arg}")
    if len(totals) > 1:
        print(f"{sum(t for _, t in totals):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
