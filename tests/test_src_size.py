"""scripts/src_size.py: lines, code lines and public names of the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import ofdma_sra

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "src_size.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function docstring."""
        return "# a string, not a comment"
'''


def load_script():
    spec = importlib.util.spec_from_file_location("src_size", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_drop_blanks_comments_and_docstrings():
    # import, class, def and return
    assert load_script().code_lines(SAMPLE) == 4


def test_reports_this_checkout():
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split(": ") for line in proc.stdout.splitlines())
    assert list(got) == ["lines", "code_lines", "all"]
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src").rglob("*.py"))
    assert int(got["lines"]) == lines
    assert 0 < int(got["code_lines"]) < lines
    assert int(got["all"]) == len(ofdma_sra.__all__)
