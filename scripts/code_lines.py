#!/usr/bin/env python3
"""Count the code lines of Python modules: the lines that hold a token
other than a comment, a docstring or the line structure itself, so
blank lines, comment lines and docstring lines do not count.

Usage:
    python scripts/code_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them recursively.
Prints one ``<lines> <path>`` line per module, in path order, then
``<lines> total``.  A docstring is a string literal standing alone as
the first statement of a module, class or function.
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in docs)
    return len(lines)


def modules(paths) -> list:
    out = []
    for path in map(pathlib.Path, paths):
        out.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return out


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    total = 0
    for path in modules(argv):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
