"""The demos import only names the package still has.

No test runs the demos (each takes seconds to minutes), so this parses them
instead: a public name deleted from the package fails here, not in a reader's shell.
"""
import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = [node for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "injurycast"]
    assert imports, f"{path.name} imports nothing from injurycast"
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{path.name}:{node.lineno} imports missing {missing}"
