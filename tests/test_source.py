"""Rules that hold for every module of the library."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "charperm"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_library():
    # invariants raise typed CharpermErrors: an assert vanishes under python -O,
    # and a raised AssertionError is no CharpermError
    paths = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and node.exc and _raises_assertion_error(node)]
    assert paths and found == []


def _writes_stdout(node) -> bool:
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "print"
    return (isinstance(node, ast.Attribute) and node.attr == "stdout"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_only_the_cli_writes_to_stdout():
    # stdout is the deterministic report, which cli.py alone writes; the
    # library returns timings and results and prints nothing
    paths = sorted(path for path in SRC.glob("*.py") if path.name != "cli.py")
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _writes_stdout(node)]
    assert paths and found == []
