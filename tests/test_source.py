"""Rules that hold for every module of the library."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "charperm"


def test_no_assert_statements_in_the_library():
    # invariants raise typed CharpermErrors: an assert vanishes under python -O
    paths = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert paths and found == []
