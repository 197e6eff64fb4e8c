"""Render the prep-option table of README "Prep service" from the schema.

The rows are :class:`repro.core.recipe.PrepRecipe`'s ``knob(...)``
declarations — field (the service payload key), CLI flag, default and
help text — so the table cannot list fewer options than exist
(``tests/test_knob_schema.py`` asserts README contains this output).

Usage::

    PYTHONPATH=src python tools/knob_table.py
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.recipe import PrepRecipe, flag_of


def render() -> str:
    """The option table as GitHub-flavoured markdown."""
    lines = ["| field | CLI flag | default | meaning |", "|---|---|---|---|"]
    for f in fields(PrepRecipe):
        lines.append(
            f"| `{f.name}` | `{flag_of(f)}` | `{f.default!r}` "
            f"| {f.metadata['help']} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
