"""The test settings in ``pyproject.toml``: warnings are errors, yet a
failing property test fails alone and the run goes on."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # On failure hypothesis imports its patch writer, whose libcst import
    # warns; an error there once ended the run in INTERNALERROR.
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent(PROBE))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
