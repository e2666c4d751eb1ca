"""The data layer imports nothing from the layers built on it, and the tree
nothing from the package but its errors.

data_model and features describe seasons and feature tables; the tree, the
learners, resampling, the pipeline and the walk-forward use them. An import the
other way lets a table learn how a tree reads it, so this parses the two modules
and fails on such an import. The tree owns routing and refits on arrays alone, so
a tree.py that reaches for a table, a metric or a learner fails too.

Every CSV the package reads goes through one reader, data_model.read_csv, so
a second call of csv.reader, or of csv.DictReader, fails as well.

No module hands a product to BLAS, whose sums round by the number of threads it
runs, so an `@` operator or a call of matmul or tensordot fails too.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "injurycast"
UPPER_LAYERS = {"tree", "learners", "resampling", "pipeline", "simulate"}


def package_modules_imported(path):
    """Names of the injurycast modules that a source file imports from."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            parts = [a.name.split(".") for a in node.names]
            found |= {p[1] for p in parts if p[0] == "injurycast" and len(p) > 1}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "injurycast":
                    continue
                parts = parts[1:]
            # `from . import tree` and `from injurycast import tree` name the module
            found |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
    return found


@pytest.mark.parametrize("name", ["data_model", "features"])
def test_data_layer_imports_no_upper_layer(name):
    path = SRC / f"{name}.py"
    assert path.exists()
    upward = package_modules_imported(path) & UPPER_LAYERS
    assert not upward, f"{name}.py imports from {sorted(upward)}"


def test_tree_imports_only_errors():
    path = SRC / "tree.py"
    assert path.exists()
    extra = package_modules_imported(path) - {"errors"}
    assert not extra, f"tree.py imports from {sorted(extra)}"


def test_the_check_sees_each_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import injurycast.tree\nfrom .learners import rfecv\n"
                    "from . import pipeline\nfrom injurycast import simulate\n"
                    "from injurycast.resampling import adasyn\nimport numpy\n")
    assert package_modules_imported(path) == UPPER_LAYERS


def csv_reader_calls(path):
    """Names of the functions in a source file that call csv.reader or
    csv.DictReader, or that import either from csv ("<module>" at top level)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr in ("reader", "DictReader")
                and isinstance(node.value, ast.Name) and node.value.id == "csv"
                or isinstance(node, ast.ImportFrom) and node.module == "csv"
                and {a.name for a in node.names} & {"reader", "DictReader", "*"}):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_csv_is_read_only_in_read_csv():
    calls = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in csv_reader_calls(path)}
    assert calls == {"data_model.read_csv"}


def test_the_csv_check_sees_each_reader_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import csv\nfrom csv import reader\n"
                    "def a(fh):\n    return csv.reader(fh)\n"
                    "def b(fh):\n    return list(csv.DictReader(fh))\n"
                    "def c(fh):\n    csv.writer(fh).writerow([1])\n")
    assert csv_reader_calls(path) == {"<module>", "a", "b"}


def blas_products(path):
    """Line numbers of the `@` operators and the matmul or tensordot calls in a
    source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("matmul", "tensordot"):
                found.add(node.lineno)
    return found


def test_no_module_calls_blas():
    calls = {f"{path.stem}.py:{line}" for path in sorted(SRC.glob("*.py"))
             for line in blas_products(path)}
    assert not calls, f"products handed to BLAS at {sorted(calls)}"


def test_the_blas_check_sees_each_product_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nfrom numpy import matmul\n"
                    "a = np.ones((2, 2)) @ np.ones(2)\nb = np.ones((2, 2))\nb @= b\n"
                    "c = np.matmul(b, b)\nd = matmul(b, b)\ne = np.tensordot(b, b, 1)\n"
                    "f = np.einsum('ij,j->i', b, np.ones(2))\ng = b * b\n")
    assert blas_products(path) == {3, 5, 6, 7, 8}
