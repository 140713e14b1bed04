"""Plain-text rendering of experiment result rows.

Every runner in :mod:`repro.experiments.runner` returns a list of flat
dictionaries ("rows"); the helpers here render them as aligned text tables
so benchmarks and the CLI can print results that line up with the paper's
tables and figure series.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned text table.

    Parameters
    ----------
    rows:
        The result rows; missing keys render as empty cells.
    columns:
        Optional explicit column order; defaults to the union of keys in
        first-appearance order.
    title:
        Optional heading line.
    """
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    table: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        table.append([_format_value(row.get(c, "")) for c in columns])
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(table[0]))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for line in table[1:]:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as CSV text (used by the CLI ``--csv`` flag)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(str(c) for c in columns)]
    for row in rows:
        lines.append(",".join(_format_value(row.get(c, "")) for c in columns))
    return "\n".join(lines)


def series_by(rows: Sequence[Mapping[str, object]], key: str) -> Dict[object, List[Mapping[str, object]]]:
    """Group rows by the value of ``key`` (used to print figure series)."""
    grouped: Dict[object, List[Mapping[str, object]]] = {}
    for row in rows:
        grouped.setdefault(row.get(key), []).append(row)
    return grouped
