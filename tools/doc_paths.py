#!/usr/bin/env python3
"""Check that every repository path a document cites exists:
``python tools/doc_paths.py [DOC ...]`` (run from the repository root).

A cited path is a token that starts with ``src/``, ``tests/``, ``tools/``,
``benchmarks/`` or ``examples/``.  Braces expand
(``src/repro/{engine,switch}``), a glob (``benchmarks/results/*.txt``) must
match something, and a pytest node id (``tests/x.py::test_y``) is checked by
its file.  With no arguments it checks README.md, DESIGN.md and
.claude/skills/verify/SKILL.md.

Prints each missing path with the document and line citing it, and exits 1
if there is one.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")

_CITED = re.compile(
    r"(?<![\w/.-])(?:src|tests|tools|benchmarks|examples)/[\w./{},*-]*")
_BRACE = re.compile(r"\{([^{}]*)\}")


def expand(path: str) -> list[str]:
    """``a/{b,c}/d`` -> ``["a/b/d", "a/c/d"]``, innermost braces first."""
    match = _BRACE.search(path)
    if match is None:
        return [path]
    head, tail = path[:match.start()], path[match.end():]
    return [out for part in match.group(1).split(",")
            for out in expand(head + part + tail)]


def missing(doc: Path, root: Path) -> list[str]:
    """``doc:line: path`` for every cited path absent under ``root``."""
    found = []
    for number, line in enumerate(doc.read_text().splitlines(), start=1):
        for cited in _CITED.findall(line):
            cited = cited.rstrip(".,")
            for path in expand(cited):
                if not (any(root.glob(path)) if "*" in path
                        else (root / path).exists()):
                    found.append(f"{doc}:{number}: {path}")
    return found


def main(argv: list[str]) -> int:
    root = Path.cwd()
    problems = [problem for doc in (argv or DOCS)
                for problem in missing(Path(doc), root)]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
