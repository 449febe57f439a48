"""Every test that README names by node id exists, so its claims ledger
cannot rot.

A node id is ``tests/<file>.py::<function>`` or
``tests/<file>.py::<Class>::<method>``; a parameter suffix such as
``[seed]`` is not part of it.  The files are read with ``ast``: nothing is
imported or run.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NODE_ID = re.compile(r"tests/[\w/]+\.py(?:::\w+)+")


def named_ids(text):
    """The node ids ``text`` names, each once, in order of first mention."""
    return list(dict.fromkeys(NODE_ID.findall(text)))


def missing_ids(ids, root):
    """The ids whose file, class or function does not exist under ``root``."""
    missing = []
    for node_id in ids:
        path, *names = node_id.split("::")
        file = root / path
        scope = ast.parse(file.read_text(), filename=str(file)).body if file.is_file() else None
        for name in names:
            node = next((n for n in scope or () if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                         and n.name == name), None)
            if node is None:
                missing.append(node_id)
                break
            scope = node.body if isinstance(node, ast.ClassDef) else None
    return missing


def test_every_test_readme_names_exists():
    text = (ROOT / "README.md").read_text()
    ledger = text[text.index("## Claims of the paper and what checks them"):]
    assert len(named_ids(ledger)) >= 10
    assert missing_ids(named_ids(text), ROOT) == []


def test_guard_flags_a_missing_id(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "def test_f():\n    pass\n"
        "class TestC:\n    def test_m(self):\n        pass\n"
    )
    text = ("`tests/test_a.py::test_f` `tests/test_a.py::TestC::test_m[3]` `tests/test_a.py::TestC` "
            "`tests/test_a.py::test_gone` `tests/test_a.py::TestC::test_gone` `tests/test_a.py::test_f::test_m` "
            "`tests/test_b.py::test_f` `tests/test_a.py::test_f`")
    ids = named_ids(text)
    assert ids == ["tests/test_a.py::test_f", "tests/test_a.py::TestC::test_m", "tests/test_a.py::TestC",
                   "tests/test_a.py::test_gone", "tests/test_a.py::TestC::test_gone",
                   "tests/test_a.py::test_f::test_m", "tests/test_b.py::test_f"]
    assert missing_ids(ids, tmp_path) == ["tests/test_a.py::test_gone", "tests/test_a.py::TestC::test_gone",
                                          "tests/test_a.py::test_f::test_m", "tests/test_b.py::test_f"]
