"""Every name in a krybound module's ``__all__`` resolves, and something
outside the tests uses it, as it does every module-level private
function and constant and every defaulted parameter of a public
function; every function the benchmark tracer wraps exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import krybound

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(krybound.__path__))
# read back what the trace writers write; the writers' documented partners
UNUSED_OK = {("traceio", "read_csv"), ("traceio", "read_json")}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"krybound.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def _references(tree):
    """Names a module uses: loads, attributes, imports and string
    constants (the benchmark tracer names functions by string), leaving
    out the entries of ``__all__`` itself."""
    skip = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets)
            for node in ast.walk(stmt.value)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _trees_outside_tests():
    for sub in ("src", "demos", "perfbench"):
        for path in (ROOT / sub).rglob("*.py"):
            if not path.name.startswith("test_"):
                yield ast.parse(path.read_text())


def _used_outside_tests():
    used = set()
    for tree in _trees_outside_tests():
        used |= _references(tree)
    return used


def test_every_public_name_has_a_caller():
    used = _used_outside_tests()
    unused = [(name, n) for name in MODULES
              for n in getattr(importlib.import_module(f"krybound.{name}"),
                               "__all__", ())
              if n not in used and (name, n) not in UNUSED_OK]
    assert not unused


def _private_names(tree):
    """Module-level functions and constants whose names start with one
    underscore."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_private_name_has_a_caller():
    # no helper that only its own unit test calls
    used = _used_outside_tests()
    src = ROOT / "src" / "krybound"
    unused = [(name, n) for name in MODULES
              for n in _private_names(ast.parse(
                  (src / f"{name}.py").read_text()))
              if n.startswith("_") and not n.startswith("__")
              and n not in used]
    assert not unused


def _defaulted_parameters(tree):
    """(function, parameter, position) for each parameter with a default
    of a module-level public function; position is None for a
    keyword-only one."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and \
                not stmt.name.startswith("_"):
            args = stmt.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                yield stmt.name, positional[i].arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield stmt.name, arg.arg, None


def _calls(node, inside=()):
    """(callee name, positional count, keyword names) of each call under
    node, leaving out a function's calls to itself; a *args call counts
    as passing every position and a **kwargs call every keyword."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside + (node.name,)
    if isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else \
            f.attr if isinstance(f, ast.Attribute) else None
        if name is not None and name not in inside:
            star = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (name, float("inf") if star else len(node.args),
                   keywords)
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, inside)


def test_every_defaulted_parameter_is_passed():
    # no option that no caller outside the tests ever sets
    most = {}    # callee -> most positional arguments in one call
    named = {}   # callee -> keywords passed; None stands for **kwargs
    for tree in _trees_outside_tests():
        for name, count, keywords in _calls(tree):
            most[name] = max(most.get(name, 0), count)
            named.setdefault(name, set()).update(keywords)
    src = ROOT / "src" / "krybound"
    unused = [(name, fn, arg) for name in MODULES
              for fn, arg, i in _defaulted_parameters(ast.parse(
                  (src / f"{name}.py").read_text()))
              if not (i is not None and most.get(fn, 0) > i
                      or named.get(fn, set()) & {arg, None})]
    assert not unused


def test_every_traced_span_resolves():
    # the benchmark's tracer wraps these by name; one that is gone makes
    # every traced repetition raise
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(m, f) for m, f in tracer.SPANS
               if not callable(getattr(importlib.import_module(
                   f"krybound.{m}"), f, None))]
    assert tracer.SPANS and not missing
    # and these outside SPANS: the DD and CDD products by vars(cls), and
    # dd._sqrt_dd and dd._matmul; installing every wrapper looks each up
    with tracer.installed(tracer.Tracer()):
        pass


# the complex double-double class and its helpers; dd.parts, which
# splits a complex array into real DD parts, is the way out of them
COMPLEX_DD = {"CDD", "ascdd", "complex_like", "_coerce_c", "to_complex"}


@pytest.mark.parametrize("name", [m for m in MODULES
                                  if m not in ("dd", "linalg")])
def test_complex_dd_stays_in_dd_and_linalg(name):
    # the eigensolver's complex back-substitution and its values are
    # the last complex DD; the bounds, the generators and the CLI work
    # on real parts
    tree = ast.parse((ROOT / "src" / "krybound" / f"{name}.py").read_text())
    assert not _references(tree) & COMPLEX_DD
