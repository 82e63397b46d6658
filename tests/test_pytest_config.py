"""The repo's pytest configuration, run on probe files in a subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_rest_running(tmp_path):
    """Hypothesis's failure report imports libcst, which warns on import. With
    every warning an error, that aborted the session with ``INTERNALERROR``
    before the next test ran."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
