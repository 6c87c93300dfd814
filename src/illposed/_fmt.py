"""Text writers shared by the CSV and JSON renderers, and DiagnosticError."""

from __future__ import annotations

import json


class DiagnosticError(RuntimeError):
    """A diagnostic could not produce an answer (as opposed to bad usage)."""


def format_float(value: float, round_to: int | None = None) -> str:
    """Render a double for tabular output.

    The default uses 17 significant digits, which round-trips every
    double exactly.  `round_to` switches to fixed decimals for matching
    hand-rounded tables.
    """
    if round_to is not None:
        return f"{value:.{round_to}f}"
    return f"{value:.17g}"


def json_text(payload: dict) -> str:
    """Indented strict JSON with a final newline; DiagnosticError when a
    value is NaN or infinite, which standard JSON cannot hold."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as err:
        raise DiagnosticError(f"the result holds a non-finite number ({err})") from None
