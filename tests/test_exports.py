"""Every public name of the package has a caller in the shipped code.

The shipped code is ``src/stepbcd`` and the benchmark harness in
``perfbench``; the tests are not part of it.  A name in a module's
``__all__`` that only its own definition mentions is a helper nothing
runs: the references the tests check against live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def shipped_sources():
    """The package modules (re-exports in ``__init__`` are not callers) and the harness modules."""
    package = sorted(p for p in (ROOT / "src" / "stepbcd").glob("*.py") if p.name != "__init__.py")
    harness = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    return package, harness


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def defined_names(node):
    """Names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def referenced_names(stmt):
    """Names a statement reads, as plain names or as attributes."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def uncalled_exports(package, harness):
    """``module.name`` for each exported name that no statement outside its own definition reads."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in package + harness}
    exports = {p: exported_names(trees[p]) for p in package}
    # Each reference is kept with the module and the names of the top-level
    # statement it sits in, so a definition's mention of itself is told apart.
    refs = [(p, defined_names(stmt), referenced_names(stmt)) for p, tree in trees.items() for stmt in tree.body]
    missing = []
    for p, names in exports.items():
        for name in sorted(names):
            if not any(name in read and not (q == p and name in owners) for q, owners, read in refs):
                missing.append(f"{p.stem}.{name}")
    return missing


def test_every_export_has_a_caller_outside_its_definition():
    package, harness = shipped_sources()
    assert package and harness
    assert uncalled_exports(package, harness) == []


def test_guard_flags_an_export_only_its_own_definition_reads(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '__all__ = ["used", "unused", "recursive"]\n'
        "def used():\n    return 1\n"
        "def unused():\n    return used()\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
    )
    assert uncalled_exports([mod], []) == ["mod.recursive", "mod.unused"]
