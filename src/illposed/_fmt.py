"""Text writers shared by the CSV and JSON renderers, and DiagnosticError."""

from __future__ import annotations

import json
from typing import Iterable


class DiagnosticError(RuntimeError):
    """A diagnostic could not produce an answer (as opposed to bad usage)."""


def cells(values: Iterable[float | None], round_to: int | None = None) -> list[str]:
    """One CSV column of doubles, with the format picked once for the column.

    The default uses 17 significant digits, which round-trips every
    double exactly.  `round_to` switches to fixed decimals for matching
    hand-rounded tables.  A missing value (None) is an empty cell.
    """
    spec = "%.17g" if round_to is None else f"%.{round_to}f"
    return ["" if v is None else spec % v for v in values]


def csv_text(comments: Iterable[str], header: str, *columns: Iterable[str]) -> str:
    """`# ` comment lines, the header, then one row per position across the
    ready-made string columns, with a final newline.  Columns of unequal
    length raise ValueError."""
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(map(",".join, zip(*columns, strict=True)))
    return "\n".join(lines) + "\n"


def json_text(payload: dict) -> str:
    """Indented strict JSON with a final newline; DiagnosticError when a
    value is NaN or infinite, which standard JSON cannot hold."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as err:
        raise DiagnosticError(f"the result holds a non-finite number ({err})") from None
