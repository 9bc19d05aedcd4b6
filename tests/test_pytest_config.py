"""The suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_failing_property_is_reported_not_fatal(tmp_path):
    """Under the suite's warning filters a failing Hypothesis property is
    one failed test with its falsifying example: exit code 1, and the
    tests after it still run. A warning raised as an error in Hypothesis's
    report hook would end the run with INTERNALERROR (exit code 3)."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
    assert "Falsifying example" in out.stdout
