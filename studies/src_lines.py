"""Lines per module of the medwave package, total and code.

    python3 studies/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's ``src/medwave``. For every module
it prints the line count ``wc -l`` gives and the code lines: the lines
that hold a token other than a comment, excluding blank lines and
docstrings. A docstring is the string literal that opens a module, class
or function body (found with ``ast``); every other string literal counts
as code on each line it spans. Tokens come from ``tokenize``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(lines as ``wc -l`` counts them, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return text.count("\n"), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("package", nargs="?", default=str(ROOT / "src" / "medwave"))
    args = parser.parse_args(argv)
    rows = [(p.name, *count(p)) for p in sorted(Path(args.package).glob("*.py"))]
    print(f"{'module':<14} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<14} {lines:>6} {code:>6}")
    print(f"{'total':<14} {sum(r[1] for r in rows):>6} "
          f"{sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
