"""Shared report formatting for the benchmark suite.

Every table/figure bench regenerates its rows, prints them, and writes them
to ``benchmarks/results/<name>.txt`` so the regenerated evaluation artefacts
survive the pytest output capture.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def format_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """A plain fixed-width table."""
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt_row(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [title, "=" * len(title), fmt_row(headers),
             fmt_row(["-" * w for w in widths])]
    lines += [fmt_row(row) for row in rows]
    return "\n".join(lines)


def emit(name: str, text: str) -> None:
    """Print the report and persist it under benchmarks/results/."""
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
