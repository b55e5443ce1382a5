"""Every function, class and method in ``src/vpfuse`` has a caller in the
program or in the benchmark (``perfbench/``), not only in tests.

A definition counts as used when its name is referenced outside its own
body: a module-level function or class as a name, an attribute of one of
the package's modules (``tasks.batch_stream``) or a string constant; a
method as an attribute or a string constant (the benchmark's tracer patches
methods by name).  A method reference is attributed to one class when its
receiver names that class (``tape.backward`` and ``Tape.backward`` call
``Tape``'s method, not ``Tensor``'s) or when the string sits in a tuple next
to the class (``(tensor.Tape, "backward", ...)``); otherwise it counts for
every class that defines the name.  A function's own arguments and
assignment targets are local variables, not uses, and names listed in
``__all__`` and import statements are exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vpfuse"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
MODULES = {"vpfuse"} | {p.stem for p in PACKAGE.glob("*.py")}

# Kept without a caller in the program, each for the reason given.
ALLOWED = {
    "matmul": "composed reference the bitwise fused linear and attention tests run",
    "transpose": "composed reference the bitwise fused attention tests run",
    "tsum": "reduction the gradient tests build scalar losses with",
    "grad_check": "the finite-difference gradient checker, a public testing tool",
    "backward": "the only call that reports a freed tape for a recorded tensor",
}


def _last_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _definitions() -> list[tuple[str, str | None, str, int, int]]:
    """(name, owning class or None, file, first line, last line)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((node.name, None, path.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        found.append((item.name, node.name, path.name,
                                      item.lineno, item.end_lineno))
    return found


class _References(ast.NodeVisitor):
    """Collects (name, receiver or None, kind, file, line) for one file."""

    def __init__(self, file: str, out: list):
        self.file = file
        self.out = out
        self.classes: list[str] = []
        self.tuples: list[ast.Tuple] = []
        self.local_names: list[set[str]] = []

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
        self.generic_visit(node)
        self.local_names.pop()

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return  # exports are not uses
        self.generic_visit(node)

    def visit_Tuple(self, node):
        self.tuples.append(node)
        self.generic_visit(node)
        self.tuples.pop()

    def visit_Name(self, node):
        if not any(node.id in bound for bound in self.local_names):
            self.add(node.id, None, "name", node)

    def visit_Attribute(self, node):
        receiver = _last_name(node.value)
        if receiver == "self" and self.classes:
            receiver = self.classes[-1]
        self.add(node.attr, receiver, "attr", node)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            owners = [_last_name(e) for e in self.tuples[-1].elts] if self.tuples else []
            self.add(node.value, owners, "str", node)


def _references() -> list:
    out: list = []
    for path in USERS:
        _References(path.name if path.parent == PACKAGE else f"perfbench/{path.name}",
                    out).visit(ast.parse(path.read_text(encoding="utf-8")))
    return out


def _owners(receiver, classes_defining: set[str]) -> set[str]:
    """Classes a method reference may call, out of those defining the name."""
    names = receiver if isinstance(receiver, list) else [receiver]
    named = {c for c in classes_defining for r in names
             if r is not None and r.lower() == c.lower()}
    return named or classes_defining


def unused_definitions() -> list[tuple[str, str | None, str]]:
    """(file, owning class or None, name) of every definition without a use."""
    defs = _definitions()
    refs = _references()
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


def test_every_definition_has_a_non_test_caller():
    unused = [f"{file}: {owner + '.' if owner else ''}{name}"
              for file, owner, name in unused_definitions()
              if owner is not None or name not in ALLOWED]
    assert unused == []


def test_allowlist_names_exist():
    assert set(ALLOWED) <= {name for name, owner, *_ in _definitions() if owner is None}
