"""The test-suite configuration: a failing property test fails on its own."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
    from hypothesis import given, settings, strategies as st


    @settings(database=None)
    @given(st.integers())
    def test_fails(x):
        assert x < 5


    def test_after():
        pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    """When a property test fails, hypothesis's pytest plugin imports code
    that raises a DeprecationWarning; under this project's warning filters
    it must not become an internal error (exit 3) that skips every later
    test."""
    (tmp_path / "test_inner.py").write_text(textwrap.dedent(FAILING_PROPERTY))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
