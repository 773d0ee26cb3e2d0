"""The repository's pytest settings: warnings they turn into errors must
not hide a failing property test's falsifying example."""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass


def test_warns():
    warnings.warn("an old API", DeprecationWarning)
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_example.py").write_text(textwrap.dedent(TESTS))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    # any other DeprecationWarning still fails its test
    assert "DeprecationWarning: an old API" in out
    assert "2 failed, 1 passed" in out
