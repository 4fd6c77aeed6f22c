"""Test modules share corpora through ``corpora.py``, never through one
another: an import of one test module from another would let a broken
module take unrelated suites down at collection."""

import ast
from pathlib import Path


def test_test_modules_import_no_test_module():
    imported = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imported += [(path.name, n) for n in names if n.split(".")[0].startswith("test_")]
    assert imported == []
