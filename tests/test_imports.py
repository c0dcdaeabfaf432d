"""Every name a `cpe` module imports is used in that module, and every
public function and method of a `cpe` module is used by some `cpe` module.

`__init__.py` is exempt from the first check: its imports are the
package's re-exports."""

import ast
import importlib
import inspect
import pathlib

import pytest

import cpe

SRC = pathlib.Path(cpe.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_only_unused_names():
    source = "import math\nimport os.path\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == [(1, "math"), (3, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# public callables that no `cpe` module calls by name, each with its caller
NOT_CALLED_BY_NAME = {
    "cli._ArgumentParser.error",  # argparse calls it on a usage error
    "tensor.matmul",  # bench/test_bench_helpers.py builds the tracer test's graph from it
    "tensor.sum_",  # and from this one
}


def public_callables():
    """(dotted name, bare name) of every public function of a `cpe` module
    and every public method of a class defined there."""
    out = []
    for path in MODULES:
        module = importlib.import_module(f"cpe.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out.append((f"{path.stem}.{name}", name))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class/static methods
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        out.append((f"{path.stem}.{name}.{attr}", attr))
    return out


def referenced_names():
    """Names and attributes read in the `cpe` modules, `__init__.py`'s
    re-exports not counted, nor attributes of numpy (`np.matmul`)."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id == "np"):
                names.add(node.attr)
    return names


def test_every_public_function_is_referenced():
    called = referenced_names()
    unreferenced = {dotted for dotted, name in public_callables() if name not in called}
    assert sorted(unreferenced - NOT_CALLED_BY_NAME) == []
    assert NOT_CALLED_BY_NAME <= {dotted for dotted, _ in public_callables()}
