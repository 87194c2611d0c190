"""The repository's pytest settings report every test, a failing property included, and
fail a run in which a test marked xfail passes."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


def test_before():
    pass


@settings(database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_after():
    pass
'''


XPASS_PROBE = '''
import pytest


@pytest.mark.xfail(reason="expected to fail")
def test_an_unexpected_pass():
    pass
'''


def _run_probe(tmp_path: Path, probe: str) -> subprocess.CompletedProcess:
    """pytest under the repository's settings on ``probe`` written to a test file."""
    (tmp_path / "test_probe.py").write_text(probe)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # Hypothesis reports a failure through a hook that imports modules raising
    # DeprecationWarning; under filterwarnings = "error" alone that ended the
    # session with INTERNALERROR and the tests after it never ran.
    run = _run_probe(tmp_path, PROBE)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 2 passed" in run.stdout
    assert run.returncode == 1


def test_a_plain_xfail_that_passes_fails_the_run(tmp_path):
    # xfail_strict = true: an xfail without strict= that passes is a failure, not an XPASS
    run = _run_probe(tmp_path, XPASS_PROBE)
    assert "1 failed" in run.stdout and "[XPASS(strict)]" in run.stdout
    assert run.returncode == 1
