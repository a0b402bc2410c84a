"""Rules every module under ``src/helly`` keeps."""

import ast
import pathlib

import helly

PACKAGE = pathlib.Path(helly.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert, so none may guard exactness or an invariant
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
