"""The repository's pytest settings report a failing property test like any other."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    assert True
'''


def test_failing_hypothesis_test_is_reported_and_later_tests_run(tmp_path):
    # Reporting a failing example imports libcst, which warns through
    # mypy_extensions; "error::DeprecationWarning" alone turned that warning
    # into an INTERNALERROR that lost the example and every later test.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
