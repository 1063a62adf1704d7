"""Count the code lines of the package source, per file and in total.

A code line is a physical line that holds part of a token other than a
comment, and that is not part of a docstring. So these do not count:

  - blank lines, and lines inside brackets that hold only a comment;
  - comment-only lines;
  - docstrings: the lines from the first to the last of a string literal
    that is the first statement of a module, class or function body.

Every line that any other token touches counts, so each line of a
multi-line expression counts, and so does each line of a triple-quoted
string that is not a docstring.

    python scripts/count_code_lines.py            # this checkout's src/
    python scripts/count_code_lines.py OTHER/src  # another checkout's src/
"""

import ast
import io
import pathlib
import sys
import tokenize

SRC = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                   pathlib.Path(__file__).resolve().parents[1] / "src")

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in `tree`."""
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


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
