"""Guards on the library's source: every public name, every public member
of a public class and every private module-level helper has a caller, every
cross-reference in a docstring names something that exists, no invariant
rests on an ``assert``, and only ``config`` stores fields past the frozen
base."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flagpipes"
CALLERS = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "perfbench").rglob("*.py")))

# Public names kept without a caller, each for a stated reason.
KEPT = {
    ("__init__", "__version__"): "package metadata",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
ROLE = re.compile(r":(?:func|meth|class):`~?([\w.]+)`")


def _module(stem: str):
    """The package module of a file stem under ``src/flagpipes``."""
    return importlib.import_module(
        "flagpipes" if stem == "__init__" else f"flagpipes.{stem}")


def _bindings(tree):
    """Local names bound by imports from the package: names to (module,
    name) pairs, and module aliases to module names."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:
                if base != "flagpipes" and not base.startswith("flagpipes."):
                    continue
                base = base[len("flagpipes"):].lstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if base:
                    names[local] = (base, alias.name)
                else:
                    modules[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("flagpipes.") and alias.asname:
                    modules[alias.asname] = alias.name.split(".", 1)[1]
    return names, modules


def _defined(stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _references(path: Path) -> set[tuple[str, str]]:
    """Every (module, name) of the package that the code of one file uses,
    leaving out a name's uses inside its own definition."""
    tree = ast.parse(path.read_text())
    here = path.stem if path.parent == PACKAGE else None
    names, modules = _bindings(tree)
    refs = set()
    for stmt in tree.body:
        own = {(here, name) for name in _defined(stmt)}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = names.get(node.id, (here, node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                ref = (modules[node.value.id], node.attr)
            else:
                continue
            if ref not in own:
                refs.add(ref)
    return refs


def test_every_public_name_has_a_caller():
    used = set().union(*map(_references, CALLERS))
    public = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in _module(path.stem).__all__}
    assert set(KEPT) <= public
    assert sorted(public - used - set(KEPT)) == []


def _private_definitions():
    """Module-level private functions and classes of the package, as
    (module, name) pairs."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, (*FUNCTIONS, ast.ClassDef))
                    and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                yield path.stem, stmt.name


def test_every_private_helper_has_a_caller():
    """A private helper is used by the library, its scripts or the
    benchmark, not only by the tests and not only by itself."""
    used = set().union(*map(_references, CALLERS))
    private = list(_private_definitions())
    assert len(private) >= 50
    assert [p for p in private if p not in used] == []


def test_the_caller_scan_does_not_count_a_bare_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from flagpipes.config import _guard, current_limits\n"
                    "current_limits()\n")
    assert _references(path) == {("config", "current_limits")}


def _members():
    """Public methods and properties of the classes in each module's
    ``__all__``, as (module, class, member) triples."""
    for path in sorted(PACKAGE.glob("*.py")):
        public = set(_module(path.stem).__all__)
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in public:
                for node in stmt.body:
                    if (isinstance(node, FUNCTIONS)
                            and not node.name.startswith("_")):
                        yield path.stem, stmt.name, node.name


def _attribute_uses(path: Path) -> set:
    """Every attribute name one file reads, each paired with the (module,
    class, method) whose body holds the read, or None outside methods."""
    here = path.stem if path.parent == PACKAGE else None
    uses = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(child, FUNCTIONS):
                walk(child, (here, node.name, child.name))
                continue
            if isinstance(child, ast.Attribute):
                uses.add((child.attr, owner))
            walk(child, owner)

    walk(ast.parse(path.read_text()), None)
    return uses


def test_every_public_member_has_a_caller():
    uses = set().union(*map(_attribute_uses, CALLERS))
    uncalled = [member for member in _members()
                if not any(name == member[2] and owner != member
                           for name, owner in uses)]
    assert uncalled == []


def test_the_member_scan_leaves_out_a_members_own_body(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("class C:\n"
                    "    def walk(self):\n"
                    "        return self.walk()\n"
                    "\n"
                    "C().run\n")
    assert _attribute_uses(path) == {("walk", (None, "C", "walk")),
                                     ("run", None)}


def test_no_module_asserts():
    """Invariants are raised explicitly, so they hold under ``python -O``."""
    asserts = [(path.name, node.lineno)
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def _object_hooks(path: Path) -> list[tuple[str, int]]:
    """Each use of ``object.__setattr__`` or ``object.__new__`` in a file,
    as (attribute, line) pairs."""
    return [(node.attr, node.lineno)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "object"
            and node.attr in ("__setattr__", "__new__")]


def test_only_config_stores_fields_past_the_frozen_base():
    """Value classes store their fields with one ``self._store`` and build
    unchecked values with ``_Frozen._trusted``, so ``config``, which
    compiles that store and that builder, is the one module to use
    ``object.__setattr__`` or ``object.__new__``."""
    assert {attr for attr, _ in _object_hooks(PACKAGE / "config.py")} == {
        "__new__", "__setattr__"}
    elsewhere = {path.name: hooks for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "config.py"
                 and (hooks := _object_hooks(path))}
    assert elsewhere == {}


def test_the_caller_scan_sees_module_attributes_and_imports():
    refs = _references(ROOT / "perfbench" / "workloads.py")
    assert ("pipedream", "trace_pipes") in refs
    assert ("perm", "inversions") not in refs  # a local function of that name
    assert ("positroid", "is_lpm") in _references(
        ROOT / "scripts" / "survey_covers.py")


def _cross_references():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                for target in ROLE.findall(ast.get_docstring(node) or ""):
                    yield path.stem, target


def _resolves(module: str, target: str) -> bool:
    if target.startswith("flagpipes."):
        parts = target.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            rest = parts[cut:]
            break
    else:
        obj, rest = _module(module), target.split(".")
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_docstring_cross_references_resolve():
    refs = list(_cross_references())
    assert len(refs) >= 40
    assert [r for r in refs if not _resolves(*r)] == []


@pytest.mark.parametrize("module,target,ok", [
    ("decperm", "DecoratedPermutation.to_string", True),
    ("positroid", "flagpipes.decperm.dle_of", True),
    ("pipedream", "is_fpp", False),
    ("positroid", "flagpipes.decperm.no_such_name", False),
])
def test_cross_reference_resolution(module, target, ok):
    assert _resolves(module, target) is ok
