"""The engine draws no random numbers: only the verification suites sample.

An AST scan of `src/polarcalc`, so that a random probe cannot come back
into the engine unnoticed.  The same scan finds dead code: imports that
nothing uses, definitions that nothing references, and locals that are
bound but never read.
"""

import ast
from pathlib import Path

import polarcalc

SRC = Path(polarcalc.__file__).parent
SAMPLER = "suites.py"
# accepted and ignored, kept for callers that still pass an rng
IGNORED_RNG = {"make_triple", "verify_homotopy_identity"}
# nothing in the package calls these, but perfbench/tracer.py's LAYERS wraps
# them by name, so they stay until the benchmark drops them
TRACER_PINNED = {"poly_divides", "to_sympy", "from_sympy"}


def all_modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def engine_modules():
    return [(name, tree) for name, tree in all_modules() if name != SAMPLER]


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
    for name, tree in all_modules():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported - used - exported(tree)
        assert not unused, "%s: %s" % (name, sorted(unused))


def module_assigned(tree):
    """The names a module binds by a top-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def test_every_definition_is_referenced():
    """A def, class or module-level constant whose name nothing in the
    package reads is dead.

    Dunder names are read by Python itself, and a def under a decorator
    call (a registered suite) is reached through the registry.
    """
    modules = all_modules()
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for _, tree in modules
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unreferenced = set()
    for _, tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            registered = any(isinstance(d, ast.Call) for d in node.decorator_list)
            if not (dunder or registered or node.name in read):
                unreferenced.add(node.name)
        unreferenced.update(
            name for name in module_assigned(tree)
            if not (name.startswith("__") and name.endswith("__")) and name not in read
        )
    assert unreferenced == TRACER_PINNED, sorted(unreferenced ^ TRACER_PINNED)


def test_no_function_binds_a_local_it_never_reads():
    """Underscore names (`_`, `_line`) are the deliberate exception."""
    for name, tree in all_modules():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, loaded = set(), set()
            for node in ast.walk(func):
                if isinstance(node, ast.Name):
                    (stored if isinstance(node.ctx, ast.Store) else loaded).add(node.id)
            dead = {v for v in stored - loaded if not v.startswith("_")}
            assert not dead, "%s: %s binds %s" % (name, func.name, sorted(dead))
