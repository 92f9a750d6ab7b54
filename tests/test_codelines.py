import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _codelines(path) -> str:
    """The output of tools/codelines.py on `path`, run from the repo root."""
    script = ROOT / "tools" / "codelines.py"
    argv = [sys.executable, str(script), str(path)]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout


def test_codelines_counts_the_errors_module():
    # the count that CHANGES.md quotes
    assert _codelines("src/loomfold/errors.py") == "13 src/loomfold/errors.py\n"


def test_codelines_skips_comments_and_docstrings_only(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '''"""Module docstring,
over two lines."""

# a comment
x = 1  # code with a comment


def f():
    """Docstring."""
    return """a string
that is no docstring"""
'''
    )
    # x = 1, def f(): and the two lines of the return statement
    assert _codelines(source) == f"4 {source}\n"
