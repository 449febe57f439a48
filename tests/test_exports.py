"""Every public name of the package has a caller in the shipped code and
one import path, its module, and every argument the benchmark's tracer
reads is a parameter of its function.

The shipped code is ``src/stepbcd`` and the benchmark harness in
``perfbench``; the tests are not part of it.  A name in a module's
``__all__`` that only its own definition mentions is a helper nothing
runs: the references the tests check against live in ``tests/oracles.py``.
The package root binds no name from a submodule, so no name has a second
import path.

``perfbench/tracer.py`` counts each traced call's work from its arguments,
read by name at the call.  A renamed parameter would break traced runs
alone, so the names are checked here against the functions' signatures.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def shipped_sources():
    """The package modules but ``__init__``, which defines only the version, and the harness modules."""
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


def submodule_bindings(tree):
    """Names a package ``__init__`` binds by importing from the package itself."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "stepbcd"):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.asname or alias.name for alias in node.names if alias.name.split(".")[0] == "stepbcd"]
    return names


def test_package_root_binds_no_submodule_name():
    tree = ast.parse((ROOT / "src" / "stepbcd" / "__init__.py").read_text())
    assert submodule_bindings(tree) == []


def test_guard_flags_a_root_re_export():
    tree = ast.parse(
        "import numpy as np\n"
        "from .core import make_rng\n"
        "from . import prox as p\n"
        "from stepbcd.trainer import train\n"
        "import stepbcd.metrics\n"
        '__version__ = "0.1.0"\n'
    )
    assert submodule_bindings(tree) == ["make_rng", "p", "train", "stepbcd.metrics"]


def traced_argument_reads(tree):
    """``{"module.function": keys}``: the argument keys ``Tracer._count`` reads in
    each branch of its if/elif chain on the traced function's name."""
    count = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_count")
    # The local bound to ``span.args``, the arguments keyed by parameter name.
    args = next(t.id for n in count.body if isinstance(n, ast.Assign)
                and isinstance(n.value, ast.Attribute) and n.value.attr == "args" for t in n.targets)
    reads = {}
    branch = next(n for n in count.body if isinstance(n, ast.If))
    while branch is not None:
        test = branch.test
        assert isinstance(test, ast.Compare) and len(test.comparators) == 1, ast.unparse(test)
        names = ast.literal_eval(test.comparators[0])
        names = (names,) if isinstance(names, str) else names
        keys = {n.slice.value for stmt in branch.body for n in ast.walk(stmt)
                if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name) and n.value.id == args}
        for name in names:
            reads.setdefault(name, set()).update(keys)
        branch = branch.orelse[0] if len(branch.orelse) == 1 and isinstance(branch.orelse[0], ast.If) else None
    return reads


def unknown_arguments(reads):
    """``module.function(key)`` for each key read that is not a parameter of that function."""
    unknown = []
    for name, keys in sorted(reads.items()):
        module, function = name.split(".")
        params = inspect.signature(getattr(importlib.import_module(f"stepbcd.{module}"), function)).parameters
        unknown += [f"{name}({key})" for key in sorted(keys - set(params))]
    return unknown


def test_every_traced_argument_is_a_parameter():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    reads = traced_argument_reads(tree)
    assert reads["solvers.solve_v"] >= {"w_next", "u_next"} and "w0" in reads["solvers.pgm"]
    assert unknown_arguments(reads) == []


def test_guard_flags_an_argument_its_function_lacks():
    tree = ast.parse(
        "class Tracer:\n"
        "    def _count(self, span, ret):\n"
        "        a = span.args\n"
        "        name = span.name\n"
        '        if name in ("solvers.grad_psi", "solvers.pgm"):\n'
        '            n = a["v"].shape\n'
        '        elif name == "solvers.solve_v":\n'
        '            m = a["w"].shape\n'
    )
    reads = traced_argument_reads(tree)
    assert reads == {"solvers.grad_psi": {"v"}, "solvers.pgm": {"v"}, "solvers.solve_v": {"w"}}
    assert unknown_arguments(reads) == ["solvers.solve_v(w)"]
