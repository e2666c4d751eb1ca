"""The benchmark reaches into the package by name; a rename or deletion that breaks
it must fail here rather than in a benchmark run. The bench files are only read."""
import ast
import importlib
import inspect
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def parse(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def resolve(node):
    """`module` or `module.Attr` as written in tracing.install, as an object."""
    if isinstance(node, ast.Attribute):
        return getattr(resolve(node.value), node.attr)
    return importlib.import_module("injurycast." + node.id)


def patch_calls():
    """(method, target expression, attribute name, call node) per patch_* call."""
    for node in ast.walk(parse("tracing.py")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("patch_function", "patch_method")):
            owner, attr = node.args[:2]
            yield node.func.attr, owner, attr.value, node


PATCHES = list(patch_calls())


def test_tracer_patches_something():
    assert len(PATCHES) >= 20


@pytest.mark.parametrize("method, owner, attr, call", PATCHES,
                         ids=[f"{ast.unparse(owner)}.{attr}" for _, owner, attr, _ in PATCHES])
def test_patch_target_exists(method, owner, attr, call):
    if method == "patch_method":
        assert attr in vars(resolve(owner))  # Tracer.patch_method reads cls.__dict__
    else:
        assert callable(getattr(resolve(owner), attr))


def argument_names(call):
    """Names the attrs/alloc_size lambdas of one patch call read as a["name"]."""
    names = set()
    for kw in call.keywords:
        if not isinstance(kw.value, ast.Lambda):
            continue
        bound = kw.value.args.args[0].arg
        for node in ast.walk(kw.value.body):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == bound and isinstance(node.slice, ast.Constant)):
                names.add(node.slice.value)
    return names


def test_lambdas_read_existing_parameters():
    read = set()
    for method, owner, attr, call in PATCHES:
        params = inspect.signature(getattr(resolve(owner), attr)).parameters
        for name in argument_names(call):
            assert name in params, f"{attr} has no parameter {name!r}"
            read.add((f"{ast.unparse(owner)}.{attr}", name))
    assert read >= {("tree.fit_tree", "table_or_X"), ("learners.tune", "grid"),
                    ("resampling.adasyn", "table")}


def test_module_attributes_exist():
    """Every `module.name` that tracing.install reads, e.g. learners.default_grid."""
    install = next(node for node in parse("tracing.py").body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {elt.id for node in install.body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Tuple)
               for elt in target.elts}
    assert {"tree", "learners", "resampling"} <= modules
    for node in ast.walk(install):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            assert hasattr(resolve(node.value), node.attr), f"{node.value.id}.{node.attr}"


def test_worker_imports_exist():
    imports = [node for node in ast.walk(parse("worker.py"))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "injurycast"]
    assert any(node.module == "injurycast" for node in imports)
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
