"""Every module-level import of the package is used by the module, the
public surface exports only what the modules bind, importing the package
loads no more of numpy than it needs, and the
layers perfbench's tracer times are reached through the bindings it
patches, no module but brownian builds a random generator, no module
but core reads an integer by ``operator.index``, and every public function,
method, dataclass and defaulted parameter or field has a consumer outside
the tests, no public parameter or field receives the same literal at every
site there, every public property has a reader there, and every public
enum member a site outside its module that names it."""

import ast
import dataclasses
import importlib
import math
import os
import re
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


def _tracer_patches(module: str, name: str) -> bool:
    """Whether perfbench/tracing.py swaps ``module``'s binding ``name``."""
    tracer = (PACKAGE.parents[1] / "perfbench" / "tracing.py").read_text()
    return f'({module}, "{name}",' in tracer


# names a module binds only for perfbench/tracing.py, which reads, swaps and
# restores them by name: the module's own code no longer calls them
TRACER_BINDINGS = {"diagnostics": ["generate_block"],
                   "experiments": ["generate_block", "run_paths"]}


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
    for name in kept:
        assert _tracer_patches(path.stem, name)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_exported_name_is_bound(path):
    module = importlib.import_module(f"biteuler.{path.stem}")
    exported = getattr(module, "__all__", ())  # cli has no library surface
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_imports_only_exported_names():
    # a name deleted from a module's __all__ but still imported here would
    # stay public through the package
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"biteuler.{node.module}").__all__
            assert [a.name for a in node.names if a.name not in exported] == []


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


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_traced_layers_are_reached_through_patched_bindings(path):
    # perfbench/tracing.py times the scheme driver and the thread pool by
    # swapping module bindings, so a call through any other binding would
    # go untimed and only a benchmark run would notice
    tree = ast.parse(path.read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    calls = {n.func.id for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    if path.stem != "schemes":
        assert "run_paths" not in attrs
        assert "run_paths" not in calls or _tracer_patches(path.stem, "run_paths")
    assert "ThreadPoolExecutor" not in attrs
    assert ("ThreadPoolExecutor" not in names
            or _tracer_patches(path.stem, "ThreadPoolExecutor"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_brownian_builds_a_generator(path):
    # every draw is keyed by brownian's one key rule and seed range; a
    # generator built elsewhere would key its own way
    tree = ast.parse(path.read_text())
    called = {getattr(n.func, "attr", getattr(n.func, "id", None))
              for n in ast.walk(tree) if isinstance(n, ast.Call)}
    builders = called & {"Philox", "Generator", "default_rng"}
    assert not builders or path.stem == "brownian", sorted(builders)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_core_calls_operator_index(path):
    # every count setting is checked by core._check_count, one rule with
    # one message; an integer check written elsewhere would drift from it
    tree = ast.parse(path.read_text())
    reads = [n for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "index"
             and getattr(n.value, "id", None) == "operator"
             or isinstance(n, ast.ImportFrom) and n.module == "operator"]
    assert not reads or path.stem == "core"


# the fields of every report dataclass that perfbench/workloads.py dumps
# into its pinned output digests: adding, deleting or renaming one changes
# a digest, so only a benchmark change that re-pins them may do it
DIGESTED_FIELDS = {
    "core.ErrorTable": ["T", "model", "r", "rows", "scheme"],
    "core.ErrorRow": ["M", "N", "overflow_fraction", "per_gridpoint_errors",
                      "seed", "std_error", "sup_error"],
    "experiments.MomentSweepReport": ["M", "consts_c", "consts_p", "model",
                                      "n0", "ratio", "ratio_tolerance",
                                      "rows", "seed"],
    "experiments.MomentRow": ["N", "bound", "eu_estimate", "eu_stderr",
                              "exp_estimate", "exp_saturated_fraction",
                              "exp_stderr"],
    "diagnostics.N0Report": ["N0", "log10_N0", "threshold_fit_all_N"],
    "diagnostics.StoppingReport": ["C1", "M", "N", "bound", "estimate",
                                   "stderr"],
    "experiments.DivergenceReport": ["M", "model", "rows", "seed", "x0"],
    "experiments.DivergenceRow": ["N", "explode_fraction", "overflow_fraction",
                                  "scheme", "second_moment_capped"],
}


@pytest.mark.parametrize("qual", DIGESTED_FIELDS)
def test_fields_in_the_benchmark_digests_are_pinned(qual):
    stem, name = qual.split(".")
    cls = getattr(importlib.import_module(f"biteuler.{stem}"), name)
    assert sorted(f.name for f in dataclasses.fields(cls)) == \
        DIGESTED_FIELDS[qual], (
            f"perfbench's pinned digests dump every field of {qual}: a "
            f"benchmark change that re-pins them (ROADMAP item 0) must come "
            f"first")


# ---------------------------------------------------------------------------
# every public parameter, field and property has a consumer

ROOT = PACKAGE.parents[1]

# defaulted parameters and fields that no call site passes yet, each with
# the consumer it is kept for: perfbench's pinned digests of the stopping
# sweep, which dump every report field
UNPASSED_KEPT = {
    "diagnostics.StoppingReport.bound": "perfbench digests (ROADMAP item 0)",
    "diagnostics.StoppingReport.C1": "perfbench digests (ROADMAP item 0)",
}


def _site_trees(outside: str = "") -> list:
    """The code that consumes the package: its own modules but the one
    named ``outside``, the demos, perfbench, the README's python blocks
    and the acceptance tests."""
    paths = [*sorted(p for p in PACKAGE.glob("*.py") if p.stem != outside),
             *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    texts = [p.read_text() for p in paths]
    texts += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    return [ast.parse(t) for t in texts]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _is_property(fn: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) == "property" for d in fn.decorator_list)


def _public_classes() -> list:
    """(module stem, class node) of every public class."""
    return [(path.stem, node) for path in MODULES
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]


def _parameters(fn: ast.FunctionDef) -> tuple[list, dict]:
    """The positional parameters of ``fn``, without ``self`` or ``cls``,
    and {defaulted parameter: its default's node}."""
    a = fn.args
    positional = [p.arg for p in (*a.posonlyargs, *a.args)]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    defaults = dict(zip(positional[len(positional) - len(a.defaults):],
                        a.defaults))
    defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None)
    return positional, defaults


def _public_callables() -> dict:
    """{qualified name: (called name, positional parameters, {defaulted
    parameter: default node})} of every public module-level function,
    every public method, ``__init__`` included, of a public class, and
    every public dataclass, whose parameters are its fields; a call names
    a method, or a class for its ``__init__``."""
    out = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out[f"{path.stem}.{node.name}"] = (node.name, *_parameters(node))
    for stem, cls in _public_classes():
        for fn in cls.body:
            if (isinstance(fn, ast.FunctionDef) and not _is_property(fn)
                    and (fn.name == "__init__" or not fn.name.startswith("_"))):
                called = cls.name if fn.name == "__init__" else fn.name
                out[f"{stem}.{cls.name}.{fn.name}"] = (called, *_parameters(fn))
        if _is_dataclass(cls):
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
            out[f"{stem}.{cls.name}"] = (
                cls.name, [s.target.id for s in fields],
                {s.target.id: s.value for s in fields if s.value is not None})
    return out


def _calls(trees: list) -> dict:
    """{called name: [call node]} of every call in ``trees``."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _argument(call: ast.Call, positional: list, param: str):
    """The node that ``call`` passes for ``param``, or None; a starred
    argument passes every positional parameter from its place on, and a
    ``**`` argument every keyword, as a value no scan can read."""
    index = positional.index(param) if param in positional else math.inf
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == index:
            return arg
    given = {k.arg: k.value for k in call.keywords}
    return given.get(param, given.get(None))


def test_every_public_parameter_has_a_consumer():
    # a function, a dataclass or a defaulted parameter or field that only
    # tests reach is surface to keep and to document that no user run
    # exercises
    calls = _calls(_site_trees())
    uncalled, unpassed = [], []
    for qual, (called, positional, defaults) in _public_callables().items():
        sites = calls.get(called, [])
        if not sites:
            uncalled.append(qual)
        for param in defaults:
            if all(_argument(site, positional, param) is None for site in sites):
                unpassed.append(f"{qual}.{param}")
    assert uncalled == []
    assert sorted(set(unpassed) - set(UNPASSED_KEPT)) == []
    assert sorted(set(UNPASSED_KEPT) - set(unpassed)) == []  # no stale entry


# public parameters and fields that every consumer site passes the same
# literal, each with the reason it stays a setting
LITERAL_KEPT = {
    **{f"core.{name}": ("the public model interface in which the paper's "
                        "assumptions are stated")
       for name in ("SdeModel.m", "LyapunovSpec.p", "LyapunovSpec.q0",
                    "LyapunovSpec.q1")},
    "brownian.load_increments.file": "a file path",
}


def _literal(node) -> str | None:
    """The repr of a literal argument's value, or None for any other node
    and for no node: a literal is what ``ast.literal_eval`` reads (a
    constant, a negated one, a container of them) or ``math.inf``, negated
    or not."""
    if node is None:
        return None
    text = ast.unparse(node)
    if text in ("math.inf", "-math.inf"):
        return repr(float(text.replace("math.", "")))
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):
        return None


def test_no_public_parameter_receives_the_same_literal_at_every_site():
    # a parameter that every consumer passes one literal is a setting that
    # only one value ever uses: it belongs in the code as a constant.  A
    # site that leaves a defaulted parameter out passes its default; one
    # that no site passes is the consumer lint's (UNPASSED_KEPT)
    calls = _calls(_site_trees())
    one_literal = []
    for qual, (called, positional, defaults) in _public_callables().items():
        for param in positional:
            passed = [_argument(site, positional, param)
                      for site in calls.get(called, [])]
            values = {_literal(node or defaults.get(param)) for node in passed}
            if any(passed) and len(values) == 1 and None not in values:
                one_literal.append(f"{qual}.{param}")
    assert sorted(set(one_literal) - set(LITERAL_KEPT)) == []
    assert sorted(set(LITERAL_KEPT) - set(one_literal)) == []  # no stale entry


def test_every_public_property_is_read():
    # a property that only tests read is a computed result that no user
    # run looks at
    read = {n.attr for tree in _site_trees() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{stem}.{cls.name}.{fn.name}" for stem, cls in _public_classes()
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and _is_property(fn) and fn.name not in read]
    assert unread == []


def test_every_public_enum_member_is_named_outside_its_module():
    # a member that only its own module and the tests name is a choice that
    # no user run makes, and a branch for it that no input reaches
    unnamed = []
    for stem, cls in _public_classes():
        if not any(ast.unparse(b) in ("enum.Enum", "Enum") for b in cls.bases):
            continue
        named = {n.attr for tree in _site_trees(outside=stem)
                 for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                 and getattr(n.value, "id", None) == cls.name}
        unnamed += [f"{stem}.{cls.name}.{t.id}" for a in cls.body
                    if isinstance(a, ast.Assign) for t in a.targets
                    if not t.id.startswith("_") and t.id not in named]
    assert unnamed == []
