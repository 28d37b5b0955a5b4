"""Markdown rendering for experiment results (EXPERIMENTS.md and the
tables the ``benchmarks/bench_*.py`` files print)."""

from __future__ import annotations

__all__ = ["format_markdown_table", "format_value"]


def format_value(value) -> str:
    """Human-compact rendering: 3 significant digits for floats."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def format_markdown_table(rows: list[dict], columns: list[str] | None = None,
                          ) -> str:
    """Render a list of dict rows as a GitHub-flavoured markdown table.

    ``columns`` defaults to the keys of the first row, in order.
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = []
    for row in rows:
        body.append("| " + " | ".join(
            format_value(row.get(column, "")) for column in columns) + " |")
    return "\n".join([header, rule] + body)
