"""The suite's pytest settings: a failing property test fails alone.

`filterwarnings = ["error"]` makes every warning an error. Reporting a
failing `@given` example makes hypothesis import its patch writer, which
warns about `mypy_extensions.TypedDict`; as an error, that warning ended the
whole session in INTERNALERROR and the tests after it never ran.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    (tmp_path / "test_one_failing_property.py").write_text(TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_one_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
