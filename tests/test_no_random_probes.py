"""The engine draws no random numbers: only the verification suites sample.

An AST scan of `src/polarcalc`, so that a random probe cannot come back
into the engine unnoticed.  The same scan finds imports that nothing uses.
"""

import ast
from pathlib import Path

import polarcalc

SRC = Path(polarcalc.__file__).parent
SAMPLER = "suites.py"
# accepted and ignored, kept for callers that still pass an rng
IGNORED_RNG = {"make_triple", "verify_homotopy_identity"}


def engine_modules():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != SAMPLER)
    assert paths
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def parameters(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None:
                    yield getattr(node, "name", "<lambda>"), arg.arg


def test_no_engine_module_imports_random():
    for name, tree in engine_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "random" for m in modules), name


def test_no_engine_function_takes_strict():
    for name, tree in engine_modules():
        for func, param in parameters(tree):
            assert param != "strict", "%s: %s" % (name, func)


def test_only_the_compatibility_parameters_are_named_rng():
    found = {
        func
        for _, tree in engine_modules()
        for func, param in parameters(tree)
        if param == "rng"
    }
    assert found == IGNORED_RNG


def exported(tree):
    """The names listed in a module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_module_imports_an_unused_name():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported - used - exported(tree)
        assert not unused, "%s: %s" % (path.name, sorted(unused))
