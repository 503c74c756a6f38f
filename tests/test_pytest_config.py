"""The suite's own pytest configuration reports a failing property test as a
failure, with a FAILED line and exit code 1."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PLANTED = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_planted(x):
    assert x < 5
"""


def test_a_failing_property_test_fails_without_an_internal_error(tmp_path):
    # under filterwarnings = error, hypothesis's report of a failure imports
    # libcst, whose DeprecationWarning once made pytest exit 3 with no FAILED line
    planted = tmp_path / "test_planted.py"
    planted.write_text(PLANTED)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "-p", "no:cacheprovider", str(planted)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "FAILED" in out and "assert 5 < 5" in out
    assert "INTERNALERROR" not in out
