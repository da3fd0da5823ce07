"""Count the size of the spinnet package in a source tree.

    python3 tools/size.py SRC

SRC is a directory that holds the ``spinnet`` package, for example the
``src/`` of a checkout.  Prints one line per module and a total line with

* ``lines``: physical lines, as ``wc -l`` counts them;
* ``code``: lines that hold code, leaving out blank lines, comment-only
  lines and docstrings (the first string statement of a module, class or
  function);

then the number of names in ``spinnet.__all__``, read from
``__init__.py`` without importing the package.  Uses the standard library
only.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def exported_names(init_text: str) -> int:
    """len(__all__) of a package __init__ that assigns it a literal list."""
    for node in ast.parse(init_text).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return len(ast.literal_eval(node.value))
    raise SystemExit("no __all__ assignment in __init__.py")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="directory that holds the spinnet package")
    args = ap.parse_args(argv)
    pkg = Path(args.src) / "spinnet"
    modules = sorted(pkg.glob("*.py"))
    if not modules:
        print(f"no spinnet modules under {args.src}", file=sys.stderr)
        return 1
    total_lines = total_code = 0
    print(f"{'module':<18}{'lines':>7}{'code':>7}")
    for path in modules:
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:<18}{lines:>7}{code:>7}")
    print(f"{'total':<18}{total_lines:>7}{total_code:>7}")
    print(f"spinnet.__all__: {exported_names((pkg / '__init__.py').read_text())} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
