"""Count the code lines of the Python files under src/.

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function); blank
lines count for nothing.  The count is taken in the work tree, or at a
git revision when one is given:

    python tools/src_lines.py            # the work tree
    python tools/src_lines.py HEAD~1     # a revision, read through git

It prints the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
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


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def _git(*args: str) -> str:
    return subprocess.run(("git", "-C", str(_ROOT)) + args, check=True,
                          capture_output=True, text=True).stdout


def sources(rev: str | None) -> dict:
    """The text of each .py file under src/, by its path, at `rev` or in
    the work tree."""
    if rev is None:
        return {str(p.relative_to(_ROOT)): p.read_text(encoding="utf-8")
                for p in sorted((_ROOT / "src").rglob("*.py"))}
    names = _git("ls-tree", "-r", "--name-only", rev, "--", "src").split()
    return {name: _git("show", f"{rev}:{name}")
            for name in names if name.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="a git revision; default: "
                        "the work tree")
    args = parser.parse_args(argv)
    total = sum(map(code_lines, sources(args.rev).values()))
    print(f"src/ code lines at {args.rev or 'the work tree'}: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
