"""Count code lines: physical lines that carry code, not prose.

A line counts when it holds at least one token that is not a comment,
and it is not part of a docstring (the string expression opening a
module, class or function body).  Blank lines, comment-only lines and
docstrings are therefore free; everything else — including a long call
wrapped over several lines — is counted as written.  This is the number
the simplicity entries in CHANGES.md quote.

Usage::

    python tools/code_lines.py src/repro            # every .py below
    python tools/code_lines.py a.py b.py --total    # a total row too
"""

from __future__ import annotations

import argparse
import ast
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Optional

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Code lines of one Python source file."""
    with tokenize.open(path) as handle:
        source = handle.read()
    lines = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for token in tokenize.generate_tokens(readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def python_files(targets: Iterable[str]) -> List[Path]:
    """The ``.py`` files named by ``targets`` (directories recurse)."""
    files: List[Path] = []
    for target in targets:
        path = Path(target)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="files or directories")
    parser.add_argument(
        "--total", action="store_true", help="print a total row"
    )
    args = parser.parse_args(argv)
    counts = [(code_lines(path), path) for path in python_files(args.targets)]
    for count, path in counts:
        print(f"{count:6d}  {path}")
    if args.total:
        print(f"{sum(count for count, _ in counts):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
