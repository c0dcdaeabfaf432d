"""Every name a `cpe` module imports is used in that module, every function
and method of a `cpe` module is used by some `cpe` module, and every
parameter of a public one with a default is passed by some call.

`__init__.py` is exempt from the first check: its imports are the
package's re-exports."""

import ast
import importlib
import inspect
import math
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


def module_callables(private=False):
    """(dotted name, bare name) of every public function of a `cpe` module
    and every public method of a class defined there; with `private`, of
    the private ones (one leading underscore) instead."""
    def wanted(name):  # a dunder is neither
        return name.startswith("_") == private and not name.startswith("__")

    out = []
    for path in MODULES:
        module = importlib.import_module(f"cpe.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and wanted(name):
                out.append((f"{path.stem}.{name}", name))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class/static methods
                    if inspect.isfunction(member) and wanted(attr):
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
    unreferenced = {dotted for dotted, name in module_callables() if name not in called}
    assert sorted(unreferenced - NOT_CALLED_BY_NAME) == []
    assert NOT_CALLED_BY_NAME <= {dotted for dotted, _ in module_callables()}


def test_every_private_function_is_referenced():
    # a helper whose last caller goes must go too; the tests' references
    # (oracle_ops reads the tape helpers) do not keep one alive
    called = referenced_names()
    private = module_callables(private=True)
    assert private
    assert sorted(d for d, name in private if name not in called) == []


CONTAINER = {"load_checkpoint", "save_checkpoint"}


def container_references(source):
    """Lines that name `load_checkpoint` or `save_checkpoint`: a call, an
    import or any other reference."""
    tree = ast.parse(source)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if CONTAINER & {alias.name for alias in node.names}:
                lines.add(node.lineno)
        elif (isinstance(node, ast.Name) and node.id in CONTAINER
              or isinstance(node, ast.Attribute) and node.attr in CONTAINER):
            lines.add(node.lineno)
    return sorted(lines)


def test_container_detector():
    source = ("from .checkpoint import load_head, save_checkpoint\n"
              "import cpe.checkpoint as c\nc.load_checkpoint(p)\nload_head(p, 3)\n")
    assert container_references(source) == [1, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "checkpoint.py"],
                         ids=lambda p: p.name)
def test_only_checkpoint_reads_and_writes_the_container(path):
    # what an artifact holds is decided in checkpoint.py alone; the other
    # modules go through its typed writers and readers
    assert container_references(path.read_text()) == []


BENCH = SRC.parents[1] / "bench"

# parameters with a default ("knobs") that no call in `src/cpe` or `bench/`
# passes, each with the test or criterion that does
KNOBS_PASSED_ONLY_BY_TESTS = {
    "classifier.train_classifier(params)",  # test_classifier resumes training epoch by epoch
    "corpus.encode_documents(num_labels)",  # test_corpus rejects a label id past the count
    "encoder.encoder_forward(capture)",  # criterion 2 reads the band probabilities
    "metrics.homogeneity_completeness(noise_as_singletons)",  # criterion 9 scores noise both ways
    "tensor.attention(probs)",  # test_tensor checks the probabilities against oracles
    "tensor.cls_attention(probs)",  # the same, and test_training sees them freed per step
    "tensor.constant(dtype)",  # criterion 3 checks the loss in float64
    "tensor.sum_(axis)",  # the test oracles reduce along one axis
}


def passed_arguments():
    """Bare callee name -> (most positional arguments, keyword names) over
    every call in the `cpe` modules and `bench/`, calls of numpy functions
    (`np.load`) not counted. A call that unpacks `*args` passes every
    position, and one that unpacks `**kwargs` every name."""
    calls = {}
    for path in [*MODULES, *sorted(BENCH.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                name = f.id
            elif isinstance(f, ast.Attribute) and not (
                    isinstance(f.value, ast.Name) and f.value.id == "np"):
                name = f.attr
            else:
                continue
            npos = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                    else len(node.args))
            names = {k.arg for k in node.keywords}
            most, seen = calls.get(name, (0, set()))
            calls[name] = (max(most, npos), seen | names)
    return calls


def knobs():
    """(dotted name, bare name, parameter, position) of every parameter with
    a default of a public `cpe` callable; a method's position does not count
    its `self`, nor a class method's `cls` (looked up on the class, it is
    bound). Keyword-only parameters have no position."""
    out = []
    for dotted, name in module_callables():
        obj = importlib.import_module(f"cpe.{dotted.split('.')[0]}")
        for part in dotted.split(".")[1:]:
            obj = getattr(obj, part)
        params = list(inspect.signature(obj).parameters.values())
        if params and params[0].name == "self":
            params = params[1:]
        for i, p in enumerate(params):
            if p.default is not p.empty:
                position = i if p.kind is p.POSITIONAL_OR_KEYWORD else None
                out.append((dotted, name, p.name, position))
    return out


def unpassed_knobs():
    calls = passed_arguments()
    unpassed = set()
    for dotted, name, param, position in knobs():
        most, names = calls.get(name, (0, set()))
        if param not in names and None not in names and (position is None or most <= position):
            unpassed.add(f"{dotted}({param})")
    return unpassed


def test_every_knob_is_passed():
    assert sorted(unpassed_knobs() - KNOBS_PASSED_ONLY_BY_TESTS) == []
    assert KNOBS_PASSED_ONLY_BY_TESTS <= {f"{d}({p})" for d, _, p, _ in knobs()}
