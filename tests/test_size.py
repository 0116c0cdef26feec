"""A ceiling on the size of ``src/rede``: the package may not grow past the seed's code lines."""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rede"
# code lines of the initial commit's src/rede/*.py, counted by code_lines below
SEED_CODE_LINES = 1961
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines that hold a token other than a comment, outside module, class and function docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_count_only_code():
    source = '''"""Module
docstring."""
import os  # a comment

# a comment line
def f(x):
    """One line."""

    return """not a
docstring"""
'''
    assert code_lines(source) == 4  # import, def, and the two lines of the returned string


def test_package_is_no_larger_than_the_seed():
    lines = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(lines.values())
    assert total <= SEED_CODE_LINES, (f"src/rede holds {total} code lines, above the seed's {SEED_CODE_LINES}: "
                                      + ", ".join(f"{name} {n}" for name, n in lines.items()))
