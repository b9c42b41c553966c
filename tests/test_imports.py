"""Every module-level import of the package is used by the module, and
importing the package loads no more of numpy than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "biteuler"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code, in quoted annotations and in
    ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    texts = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            texts += [a.annotation for a in (*args.posonlyargs, *args.args,
                                             *args.kwonlyargs,
                                             args.vararg, args.kwarg)
                      if a is not None]
            texts.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            texts.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            texts += getattr(node.value, "elts", [])
    for node in texts:
        for sub in ast.walk(node) if node is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                quoted = ast.parse(sub.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    return used


# names a module binds only for perfbench/tracing.py, which reads, swaps and
# restores them by name: the module's own code no longer calls them
TRACER_BINDINGS = {"diagnostics": ["generate_block"],
                   "experiments": ["generate_block"]}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    assert imported
    kept = TRACER_BINDINGS.get(path.stem, [])
    assert sorted(set(imported) - _used_names(tree)) == kept
    tracer = (PACKAGE.parents[1] / "perfbench" / "tracing.py").read_text()
    for name in kept:
        assert f'({path.stem}, "{name}",' in tracer


def test_import_and_catalog_leave_numpy_random_unloaded():
    # numpy.random loads on the first draw: loading it at import would
    # lengthen the start-up of every command, even one that draws nothing
    code = ("import sys, biteuler; biteuler.catalog(); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
