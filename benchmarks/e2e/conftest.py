"""``pytest benchmarks/e2e`` needs the program importable; tier-1's
``testpaths`` (``tests/``) never collects this directory."""

import pathlib
import sys

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
