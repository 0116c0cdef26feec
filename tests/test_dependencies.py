"""The package imports nothing but the standard library and its declared dependencies.

``pyproject.toml`` declares ``numpy`` and ``requests``; anything else a module of
``src/rede`` imports (``scipy``, say, which a test environment may well have) would
fail on an installation that follows the declaration.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rede"
DECLARED = {"numpy", "requests"}


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in source that are not in the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import is the package's own
            names.add(node.module.partition(".")[0])
    return names - sys.stdlib_module_names


def test_third_party_imports_are_found():
    source = '''import os.path, scipy.sparse
from numpy import ndarray
from . import corpus
from .dense import load_bundle
def f():
    from sklearn.metrics import ndcg_score
'''
    assert third_party_imports(source) == {"scipy", "numpy", "sklearn"}


def test_package_imports_only_declared_dependencies():
    found = {path.name: third_party_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    undeclared = {name: sorted(mods - DECLARED) for name, mods in found.items() if mods - DECLARED}
    assert not undeclared, f"undeclared imports: {undeclared}"
