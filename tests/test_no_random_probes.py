"""The engine draws no random numbers: only the verification suites sample.

An AST scan of `src/polarcalc`, so that a random probe cannot come back
into the engine unnoticed.
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
