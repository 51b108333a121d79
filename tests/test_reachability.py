"""Every top-level function and class of the package is reached by the
program: the package itself, scripts/ or perfbench/; every field of its
dataclasses is read there; every defaulted parameter of its functions
is passed by some call there; and every name a package module imports is
used in that module.

A field counts as read when its name is loaded as an attribute or appears
as a string constant anywhere in the program; a parameter counts as passed
when a call by the function's name passes it.  Names are not tied to their
owner, so each check is masked by a same-named thing elsewhere:
- an unread field by an attribute of another object: an unread `base`
  field would pass behind `DeductionState.base`, and `BipartiteTruncation.kind`
  behind `args.kind`;
- an unread field by a string constant: `MatroidPolytope.matroid` passed
  behind the CLI family name "matroid";
- an unpassed parameter by a call to another function or method of the
  same name.
A function passed as a value and called under another name is not
followed."""

import ast
import os
from collections import Counter

import defocone

PKG = os.path.dirname(os.path.abspath(defocone.__file__))
ROOT = os.path.dirname(os.path.dirname(PKG))
PROGRAM = (os.path.dirname(PKG), os.path.join(ROOT, "scripts"), os.path.join(ROOT, "perfbench"))

# Defaulted parameters that only the tests pass: the CLI entry point reads
# sys.argv unless it is given a list.
ALLOWED_DEFAULTS = {"main.argv"}


def _sources():
    for top in PROGRAM:
        for dirpath, _, files in os.walk(top):
            for f in sorted(files):
                if f.endswith(".py"):
                    path = os.path.join(dirpath, f)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def _references(node):
    """Names, attribute names and string constants under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def unreached(sources) -> list[str]:
    """module.name of each top-level function or class of the package that
    nothing in the sources refers to outside its own definition."""
    everywhere = Counter(r for _, tree in sources for r in _references(tree))
    out = []
    for path, tree in sources:
        if os.path.dirname(path) != PKG:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            inside = sum(1 for r in _references(node) if r == node.name)
            if everywhere[node.name] == inside:
                out.append(f"{os.path.basename(path)[:-3]}.{node.name}")
    return sorted(out)


def _is_dataclass(node) -> bool:
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if getattr(f, "id", getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(sources) -> list[str]:
    """Class.field of each package dataclass field that nothing in the
    sources loads as an attribute or names in a string constant."""
    read = set()
    for _, tree in sources:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    out = []
    for path, tree in sources:
        if os.path.dirname(path) != PKG:
            continue
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id not in read:
                        out.append(f"{node.name}.{stmt.target.id}")
    return sorted(out)


def _functions(tree):
    """(name it is called by, node, bound) of each function and method of a
    module; `bound` for a method, whose first parameter no call spells out.
    A constructor is called by its class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef):
                    yield node.name if f.name == "__init__" else f.name, f, True


def _passes(call, name: str, index: int | None) -> bool:
    """Does the call pass the parameter `name`, at positional `index` (None
    for keyword-only), by keyword, by position or through `*` or `**`?"""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if index is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == index:
            return True
    return False


def unpassed_defaults(sources) -> list[str]:
    """function.parameter of each defaulted parameter of a package function
    that no call in the sources passes."""
    calls: dict = {}
    for _, tree in sources:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                calls.setdefault(name, []).append(n)
    out = []
    for path, tree in sources:
        if os.path.dirname(path) != PKG:
            continue
        for fname, node, bound in _functions(tree):
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
            params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for pname, index in params:
                name = f"{fname}.{pname}"
                if name in ALLOWED_DEFAULTS:
                    continue
                if not any(_passes(c, pname, index) for c in calls.get(fname, ())):
                    out.append(name)
    return sorted(out)


def _exported(tree) -> set:
    """The names listed in a module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def unused_imports(sources) -> list[str]:
    """module.name of each name that a package module imports at top level
    and never loads; `__future__` imports and names in `__all__` are exempt."""
    out = []
    for path, tree in sources:
        if os.path.dirname(path) != PKG:
            continue
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        loaded |= _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loaded:
                        out.append(f"{os.path.basename(path)[:-3]}.{name}")
    return sorted(out)


def test_every_definition_is_reached():
    assert unreached(list(_sources())) == []


def test_every_dataclass_field_is_read():
    assert unread_fields(list(_sources())) == []


def test_every_defaulted_parameter_is_passed():
    assert unpassed_defaults(list(_sources())) == []


def test_every_import_is_used():
    assert unused_imports(list(_sources())) == []
