"""Fixed-width table rendering and result-file output for the benches."""

from __future__ import annotations

import os
from typing import Iterable, Sequence

__all__ = ["render_table", "write_report", "results_dir", "fmt"]


def results_dir() -> str:
    """Directory for generated experiment reports (created on demand)."""
    base = os.environ.get("REPRO_RESULTS_DIR",
                          os.path.join(os.getcwd(), "results"))
    os.makedirs(base, exist_ok=True)
    return base


def fmt(value) -> str:
    """Human-friendly cell formatting."""
    if value is None:
        return "DNR"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence], title: str = "") -> str:
    """Render an aligned ASCII table (paper-style rows)."""
    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    for row in str_rows:
        out.append(line(row))
    return "\n".join(out)


def write_report(name: str, text: str) -> str:
    """Write a generated table to ``results/<name>.txt`` and return the
    path; also echoes to stdout so ``pytest -s`` shows it inline."""
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[report written to {path}]")
    return path
