"""Code lines of the library, per module and in total.

A code line holds a token other than a comment, NL, NEWLINE, INDENT, DEDENT
or ENDMARKER, and lies in no module, class or function docstring.
``python tests/code_lines.py [DIR]``, run from the repository root, prints
one ``module lines`` row per module of DIR (default ``src/legch``) and a
``total`` row.  Pytest does not collect it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of one source file."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/legch")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print("%s %d" % (path.stem, count))
    print("total %d" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
