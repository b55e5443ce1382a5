"""Every function, class, method and module-level constant in
``src/vpfuse`` has a caller or reader in the program or in the benchmark
(``perfbench/``), not only in tests.

A definition counts as used when its name is referenced outside its own
body: a module-level function, class or constant as a name, an attribute of
one of the package's modules (``tasks.batch_stream``) or a string constant;
a method as an attribute or a string constant (the benchmark's tracer patches
methods by name).  A method reference is attributed to one class when its
receiver names that class (``tape.backward`` and ``Tape.backward`` call
``Tape``'s method, not ``Tensor``'s), when the receiver is a local name that
only a call of one package class binds (``m = FusionModel(...)``) or a
parameter annotated with one (``model: FusionModel``), or when the string
sits in a tuple next to the class (``(tensor.Tape, "backward", ...)``); an
attribute of ``<expr>.data`` is a numpy array's and counts for no class; any
other reference counts for every class that defines the name.  A function's own
arguments and assignment targets are local variables, and any assignment
target is a store, not a use; names listed in ``__all__`` and import
statements are exports.

Likewise every parameter with a default is passed by some call in the
program or the benchmark, by keyword, by position or through ``*``/``**``,
with an expression other than the default itself; a default that no caller
overrides is a knob only its default reaches.  And some such call leaves the
parameter out (or may, through ``*``/``**``): a default that every caller
passes explicitly serves only tests.

And every name the package's ``__init__`` imports is imported from the
package by the program or the benchmark (``from vpfuse import X``,
``from . import X`` or ``vpfuse.X``): a re-export that no caller goes through
is a second import path for a name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vpfuse"
MODULES = {"vpfuse"} | {p.stem for p in PACKAGE.glob("*.py")}
NUMPY = "<ndarray>"  # receiver of ``<expr>.data.<name>``


def _parse(paths, prefix: str = "") -> dict[str, ast.Module]:
    return {prefix + p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(paths)}


PACKAGE_TREES = _parse(PACKAGE.glob("*.py"))
USER_TREES = PACKAGE_TREES | _parse((ROOT / "perfbench").glob("*.py"), "perfbench/")

# Functions whose defaults no call in the program overrides, each kept for
# the reason given.
ALLOWED_DEFAULTS = {
    "main": "the console script calls main() to read sys.argv; tests pass argv",
}


def _last_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _functions(package: dict[str, ast.Module]):
    """(file, owning class or None, node) of every module-level function and
    method, dunders included."""
    for file, tree in package.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield file, None, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield file, node.name, item


def _constants(tree: ast.Module):
    """(name, statement) of every module-level assignment target but dunders."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    yield name.id, node


def _definitions(package: dict[str, ast.Module]) -> list[tuple[str, str | None, str, int, int]]:
    """(name, owning class or None, file, first line, last line)."""
    found = [(node.name, None, file, node.lineno, node.end_lineno)
             for file, tree in package.items() for node in tree.body
             if isinstance(node, ast.ClassDef)]
    found += [(name, None, file, node.lineno, node.end_lineno)
              for file, tree in package.items() for name, node in _constants(tree)]
    for file, owner, node in _functions(package):
        if owner is None or not (node.name.startswith("__") and node.name.endswith("__")):
            found.append((node.name, owner, file, node.lineno, node.end_lineno))
    return found


def _class_names(package: dict[str, ast.Module]) -> set[str]:
    return {node.name for tree in package.values() for node in tree.body
            if isinstance(node, ast.ClassDef)}


def _typed_names(fn: ast.FunctionDef, classes: set[str]) -> dict[str, str]:
    """Local name -> class for each name of ``fn`` whose every binding is a
    parameter annotated with that class or a call of it."""
    calls = {id(target): _last_name(node.value.func) for node in ast.walk(fn)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
             for target in node.targets if isinstance(target, ast.Name)}
    bindings: dict[str, set] = {}
    for arg in ast.walk(fn.args):
        if isinstance(arg, ast.arg):
            bindings.setdefault(arg.arg, set()).add(_last_name(arg.annotation)
                                                    if arg.annotation else None)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bindings.setdefault(node.id, set()).add(calls.get(id(node)))
    return {name: cls for name, found in bindings.items() if len(found) == 1
            for cls in found if cls in classes}


class _References(ast.NodeVisitor):
    """Collects (name, receiver or None, kind, file, line) for one file;
    ``package_classes`` are the classes a local name's binding can name."""

    def __init__(self, file: str, out: list, package_classes: set[str]):
        self.file = file
        self.out = out
        self.package_classes = package_classes
        self.classes: list[str] = []
        self.tuples: list[ast.Tuple] = []
        self.local_names: list[set[str]] = []
        self.typed_names: list[dict[str, str]] = []

    def add(self, name, receiver, kind, node):
        self.out.append((name, receiver, kind, self.file, node.lineno))

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        # A name the function binds (an argument or an assignment target) is
        # a local variable there, not a use of a module-level definition.
        bound = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        bound |= {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        self.local_names.append(bound)
        self.typed_names.append(_typed_names(node, self.package_classes))
        self.generic_visit(node)
        self.local_names.pop()
        self.typed_names.pop()

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return  # exports are not uses
        self.generic_visit(node)

    def visit_Tuple(self, node):
        self.tuples.append(node)
        self.generic_visit(node)
        self.tuples.pop()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store):
            return
        if not any(node.id in bound for bound in self.local_names):
            self.add(node.id, None, "name", node)

    def visit_Attribute(self, node):
        receiver = _last_name(node.value)
        if receiver == "self" and self.classes:
            receiver = self.classes[-1]
        elif isinstance(node.value, ast.Name):
            # The innermost function binding the name decides its class.
            for bound, typed in zip(reversed(self.local_names), reversed(self.typed_names)):
                if receiver in bound:
                    receiver = typed.get(receiver, receiver)
                    break
        if receiver == "data" and isinstance(node.value, ast.Attribute):
            receiver = NUMPY
        self.add(node.attr, receiver, "attr", node)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            owners = [_last_name(e) for e in self.tuples[-1].elts] if self.tuples else []
            self.add(node.value, owners, "str", node)


def _references(users: dict[str, ast.Module], package_classes: set[str]) -> list:
    out: list = []
    for file, tree in users.items():
        _References(file, out, package_classes).visit(tree)
    return out


def _owners(receiver, classes_defining: set[str]) -> set[str]:
    """Classes a method reference may call, out of those defining the name."""
    if receiver == NUMPY:
        return set()
    names = receiver if isinstance(receiver, list) else [receiver]
    named = {c for c in classes_defining for r in names
             if r is not None and r.lower() == c.lower()}
    return named or classes_defining


def unused_definitions(package: dict[str, ast.Module],
                       users: dict[str, ast.Module]) -> list[tuple[str, str | None, str]]:
    """(file, owning class or None, name) of every definition without a use."""
    defs = _definitions(package)
    refs = _references(users, _class_names(package))
    classes_by_method: dict[str, set[str]] = {}
    for name, owner, *_ in defs:
        if owner is not None:
            classes_by_method.setdefault(name, set()).add(owner)
    unused = []
    for name, owner, file, first, last in defs:
        def outside(ref_file, line):
            return ref_file != file or not first <= line <= last
        if owner is None:
            used = any(r[0] == name and outside(r[3], r[4])
                       and (r[2] != "attr" or r[1] in MODULES) for r in refs)
        else:
            used = any(r[0] == name and r[2] in ("attr", "str") and outside(r[3], r[4])
                       and owner in _owners(r[1], classes_by_method[name])
                       for r in refs)
        if not used:
            unused.append((file, owner, name))
    return unused


def _defaults(package: dict[str, ast.Module], users: dict[str, ast.Module]):
    """(file, owning class or None, function, parameter, passed) of every
    parameter with a default, where ``passed`` lists, per call of the
    function, the expressions that call gives the parameter; ``None`` stands
    for a ``*``/``**`` spread, which may give it anything.  A call matches by
    the callee's last name (the class's name for ``__init__``)."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in users.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_last_name(node.func), []).append(node)
    for file, owner, fn in _functions(package):
        args = fn.args
        positional = args.posonlyargs + args.args
        with_default = [(positional.index(a), a.arg, d) for a, d in
                        zip(positional[len(positional) - len(args.defaults):], args.defaults)]
        with_default += [(None, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
        bound = 1 if owner is not None else 0  # ``self`` is not in the call
        sites = calls.get(owner if fn.name == "__init__" else fn.name, [])

        def given(call, index, param):
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                return None
            values = [k.value for k in call.keywords if k.arg == param]
            if index is not None and bound + len(call.args) > index:
                values.append(call.args[index - bound])
            return values

        for index, param, default in with_default:
            yield file, owner, fn.name, param, default, [given(c, index, param) for c in sites]


def unpassed_defaults(package: dict[str, ast.Module],
                      users: dict[str, ast.Module]) -> list[tuple[str, str | None, str, str]]:
    """(file, owning class or None, function, parameter) of every parameter
    with a default that no call overrides.  A call that spreads ``*`` or
    ``**`` passes every parameter; passing the default's own expression
    (``f(1, k=1)`` for ``k=1``) overrides nothing."""
    return [(file, owner, fn, param)
            for file, owner, fn, param, default, passed in _defaults(package, users)
            if not any(values is None or any(ast.dump(v) != ast.dump(default) for v in values)
                       for values in passed)]


def unrelied_defaults(package: dict[str, ast.Module],
                      users: dict[str, ast.Module]) -> list[tuple[str, str | None, str, str]]:
    """(file, owning class or None, function, parameter) of every parameter
    with a default that every call passes: no call leaves it out, so only
    tests can reach the default.  A call that spreads ``*`` or ``**`` may
    leave out any parameter."""
    return [(file, owner, fn, param)
            for file, owner, fn, param, _, passed in _defaults(package, users)
            if all(values for values in passed)]


def unused_reexports(init: ast.Module, users: dict[str, ast.Module]) -> list[str]:
    """Names ``init`` imports that no module in ``users`` imports from the
    package."""
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    imported = set()
    for tree in users.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "vpfuse" or (node.level == 1 and node.module is None)):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and _last_name(node.value) == "vpfuse":
                imported.add(node.attr)
    return sorted(exported - imported)


def test_every_definition_has_a_non_test_caller():
    unused = [f"{file}: {owner + '.' if owner else ''}{name}"
              for file, owner, name in unused_definitions(PACKAGE_TREES, USER_TREES)]
    assert unused == []


def test_every_default_is_overridden_by_a_non_test_caller():
    unpassed = [f"{file}: {owner + '.' if owner else ''}{fn}({param}=)"
                for file, owner, fn, param in unpassed_defaults(PACKAGE_TREES, USER_TREES)
                if fn not in ALLOWED_DEFAULTS]
    assert unpassed == []


def test_every_default_is_relied_on_by_a_non_test_caller():
    unrelied = [f"{file}: {owner + '.' if owner else ''}{fn}({param}=)"
                for file, owner, fn, param in unrelied_defaults(PACKAGE_TREES, USER_TREES)]
    assert unrelied == []


def test_every_reexport_is_imported_from_the_package():
    assert unused_reexports(PACKAGE_TREES["__init__.py"], USER_TREES) == []


def test_allowlist_names_exist():
    assert set(ALLOWED_DEFAULTS) <= {fn for _, _, fn, _ in
                                     unpassed_defaults(PACKAGE_TREES, USER_TREES)}


def _snippet(source: str) -> dict[str, ast.Module]:
    return {"snippet.py": ast.parse(source)}


def test_numpy_attribute_is_no_method_use():
    # ``x.data`` is a Tensor's ndarray, so ``x.data.size`` is numpy's
    # attribute and leaves a Tensor method of that name unused.
    tree = _snippet("class Tensor:\n"
                    "    def size(self):\n"
                    "        return 0\n"
                    "\n"
                    "def count(x):\n"
                    "    return x.data.size\n")
    assert ("snippet.py", "Tensor", "size") in unused_definitions(tree, tree)
    tree = _snippet("class Tensor:\n"
                    "    def size(self):\n"
                    "        return 0\n"
                    "\n"
                    "def count(x):\n"
                    "    return x.size\n")
    assert ("snippet.py", "Tensor", "size") not in unused_definitions(tree, tree)


def test_receiver_bound_to_a_class_reaches_only_its_method():
    # ``m = Model()`` and ``m: Model`` name the class a call on ``m`` reaches,
    # so another class's method of the same name stays unused; a receiver
    # bound otherwise still reaches every class defining the name.
    source = ("class Model:\n"
              "    def reset(self):\n"
              "        return 0\n"
              "\n"
              "class Tensor:\n"
              "    def reset(self):\n"
              "        return 1\n"
              "\n")
    for use in ("def f():\n    m = Model()\n    return m.reset()\n",
                "def f(m: Model):\n    return m.reset()\n"):
        unused = unused_definitions(_snippet(source + use), _snippet(source + use))
        assert ("snippet.py", "Tensor", "reset") in unused
        assert ("snippet.py", "Model", "reset") not in unused
    for use in ("def f(m):\n    return m.reset()\n",
                "def f(load):\n    m = load()\n    return m.reset()\n",
                "def f(m: Model):\n    m = Tensor()\n    return m.reset()\n"):
        unused = unused_definitions(_snippet(source + use), _snippet(source + use))
        assert ("snippet.py", "Tensor", "reset") not in unused
        assert ("snippet.py", "Model", "reset") not in unused


def test_unread_module_constant_is_unused():
    # A table no code reads fails the guard; assigning it again is no read.
    tree = _snippet("_TABLE = (1, 2)\n"
                    "_LIMIT: int = 3\n"
                    "__all__ = ['f']\n"
                    "\n"
                    "def f():\n"
                    "    return _LIMIT\n")
    users = tree | {"other.py": ast.parse("_TABLE = (3,)\n")}
    unused = unused_definitions(tree, users)
    assert ("snippet.py", None, "_TABLE") in unused
    assert ("snippet.py", None, "_LIMIT") not in unused
    assert ("snippet.py", None, "__all__") not in unused


_DEFAULTS_SOURCE = ("def f(a, k=1):\n"
                    "    return a + k\n"
                    "\n"
                    "class Adam:\n"
                    "    def __init__(self, lr, beta=0.9):\n"
                    "        self.lr = lr\n"
                    "\n"
                    "    def step(self, a, k=1):\n"
                    "        return a + k\n"
                    "\n")


@pytest.mark.parametrize("call, target, passed", [
    ("f(1)", (None, "f"), False),
    ("f(1, 2)", (None, "f"), True),
    ("f(1, k=2)", (None, "f"), True),
    ("f(*args)", (None, "f"), True),
    ("f(1, **kwargs)", (None, "f"), True),
    ("g(1, 2)", (None, "f"), False),
    ("Adam(0.1)", ("Adam", "__init__"), False),
    ("Adam(0.1, 0.5)", ("Adam", "__init__"), True),
    ("opt.step(1)", ("Adam", "step"), False),
    ("opt.step(1, 2)", ("Adam", "step"), True),
    ("f(1, 1)", (None, "f"), False),
    ("f(1, k=1)", (None, "f"), False),
])
def test_default_passed_by_keyword_position_or_spread(call, target, passed):
    tree = _snippet(_DEFAULTS_SOURCE + f"{call}\n")
    unpassed = {(owner, fn) for _, owner, fn, _ in unpassed_defaults(tree, tree)}
    assert (target not in unpassed) is passed


@pytest.mark.parametrize("call, target, relied", [
    ("f(1)", (None, "f"), True),
    ("f(1, 2)", (None, "f"), False),
    ("f(1, k=2)", (None, "f"), False),
    ("f(*args)", (None, "f"), True),
    ("f(1, **kwargs)", (None, "f"), True),
    ("g(1)", (None, "f"), False),
    ("Adam(0.1)", ("Adam", "__init__"), True),
    ("Adam(0.1, 0.9)", ("Adam", "__init__"), False),
    ("opt.step(1)", ("Adam", "step"), True),
    ("opt.step(1, k=2)", ("Adam", "step"), False),
    # Passing the default's own expression still leaves the default unused.
    ("f(1, k=1)", (None, "f"), False),
    ("f(1, 1)", (None, "f"), False),
    ("f(1, 2)\nf(3)", (None, "f"), True),
])
def test_default_relied_on_by_a_call_that_leaves_it_out(call, target, relied):
    tree = _snippet(_DEFAULTS_SOURCE + f"{call}\n")
    unrelied = {(owner, fn) for _, owner, fn, _ in unrelied_defaults(tree, tree)}
    assert (target not in unrelied) is relied


@pytest.mark.parametrize("use, flagged", [
    ("x = 1\n", ["Model", "load"]),
    ("from vpfuse import Model\n", ["load"]),
    ("from . import Model, load\n", []),
    ("import vpfuse\nvpfuse.load()\n", ["Model"]),
    ("from vpfuse.model import Model\n", ["Model", "load"]),
])
def test_reexport_counts_only_imports_from_the_package(use, flagged):
    init = ast.parse("from .model import Model\nfrom .io import load\n")
    assert unused_reexports(init, _snippet(use)) == flagged
