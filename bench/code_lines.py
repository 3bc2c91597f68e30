"""Count the code lines of a Python package: lines that hold a token other
than a comment, and are not part of a docstring.

    python bench/code_lines.py [package dir]      # default: src/stringflow

Prints the total, then one line per file with --files.  A docstring is the
string-literal first statement of a module, class or function (ast); every
physical line it spans is left out, as are blank and comment-only lines
(tokenize).  A line that continues an expression counts.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list) -> int:
    show_files = "--files" in argv
    args = [a for a in argv if a != "--files"]
    root = Path(args[0] if args else "src/stringflow")
    counts = {p: code_lines(p) for p in sorted(root.rglob("*.py"))}
    print(sum(counts.values()))
    if show_files:
        for p, n in counts.items():
            print(f"{n:6d}  {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
