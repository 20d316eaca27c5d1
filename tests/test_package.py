"""Every name in a krybound module's ``__all__`` resolves, and something
outside the tests uses it, as it does every module-level private
function and constant; every function the benchmark tracer wraps
exists."""

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


def _used_outside_tests():
    used = set()
    for sub in ("src", "demos", "perfbench"):
        for path in (ROOT / sub).rglob("*.py"):
            if not path.name.startswith("test_"):
                used |= _references(ast.parse(path.read_text()))
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
