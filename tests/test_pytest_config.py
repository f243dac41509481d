import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MIXED_RESULTS = textwrap.dedent("""
    from hypothesis import given
    from hypothesis import strategies as st


    @given(st.integers())
    def test_given_fails(x):
        assert False


    def test_plain_fails():
        assert False


    def test_passes():
        pass
""")


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # `filterwarnings = error` also applies inside hypothesis' report hook, where a
    # deprecation warning would end the session with INTERNALERROR
    (tmp_path / "test_mixed.py").write_text(MIXED_RESULTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_mixed.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "2 failed, 1 passed" in result.stdout.splitlines()[-1]
