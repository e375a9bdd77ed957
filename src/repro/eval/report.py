"""Plain-text table / series formatting for experiment output.

Every experiment module produces rows (lists of dicts); this module
renders them the way the paper presents its tables so bench output can
be compared to the paper side by side.  It also owns the
machine-readable side: :func:`merge_record` is the one implementation
of the ``BENCH_*.json`` merge-under-key format used by the CLI
experiments and the benchmark harness alike.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Sequence
from pathlib import Path


def merge_record(path: Path, key: str, payload: object) -> None:
    """Merge ``payload`` under ``key`` into the JSON record at ``path``.

    Records written by other keys are left in place; a missing or
    malformed file is replaced wholesale.

    The write is atomic: the merged document goes to a temporary file
    in the same directory and is ``os.replace``d into place, so a run
    interrupted mid-write can never leave a truncated ``BENCH_*.json``
    behind — readers see either the old complete record or the new
    complete record.
    """
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            data = {}
    except (OSError, ValueError):
        data = {}
    data[key] = payload
    rendered = json.dumps(data, indent=2, sort_keys=True) + "\n"
    fd, tmp_path = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(rendered)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def format_table(rows: Sequence[dict], columns: Sequence[str], title: str = "") -> str:
    """Monospace table with a header row, sized to the widest cell."""
    headers = list(columns)
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_series(points: Sequence[tuple[object, object]], title: str = "") -> str:
    """A two-column (x, y) series, for figure-shaped results."""
    lines = [title] if title else []
    for x, y in points:
        lines.append(f"  {_fmt(x):>12s}  {_fmt(y)}")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return f"{value:.2f}"
    return str(value)
