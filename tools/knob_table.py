"""Render the prep-option tables of README "Prep service" from the schema.

The option rows are :class:`repro.core.recipe.PrepRecipe`'s
``knob(...)`` declarations — field (the service payload key), CLI flag,
default and help text — and the rule rows below them are
:data:`repro.core.recipe.RULES`, the knob combinations that cannot run,
so neither table can list fewer than exist
(``tests/test_knob_schema.py`` asserts README contains this output).

Usage::

    PYTHONPATH=src python tools/knob_table.py
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.recipe import RULES, PrepRecipe, flag_of


def _setting(name: str, value) -> str:
    if value is None or name == "corrector":  # an object: set or unset
        return f"`{name}` {'set' if value else 'unset'}"
    return f"`{name}={value!r}`"


def render() -> str:
    """The option table, then the rule table, as GitHub-flavoured
    markdown."""
    lines = ["| field | CLI flag | default | meaning |", "|---|---|---|---|"]
    for f in fields(PrepRecipe):
        lines.append(
            f"| `{f.name}` | `{flag_of(f)}` | `{f.default!r}` "
            f"| {f.metadata['help']} |"
        )
    lines += ["", "| refused together | reason |", "|---|---|"]
    for refused, reason in RULES:
        settings = ", ".join(_setting(*item) for item in refused.items())
        lines.append(f"| {settings} | {reason} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
