"""Count code lines: ``python tools/count_code_lines.py PATH...``.

A path that is a directory stands for every ``*.py`` file under it,
recursively, in sorted order; each file's count is printed, then the
total.

A physical line counts when it holds at least one token that is not a
comment or a blank-line/indentation marker and is not part of a
docstring (an expression statement that is a lone string constant).
This is the measure CHANGES.md and ROADMAP.md quote for "code lines".
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    docstring_lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            docstring_lines.update(range(node.lineno, (node.end_lineno or node.lineno) + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def python_files(paths: list[str]) -> list[Path]:
    """``paths`` with each directory replaced by its ``*.py`` files."""
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(paths: list[str]) -> int:
    total = 0
    for path in python_files(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
