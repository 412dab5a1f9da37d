"""scripts/src_size.py: lines, code lines, public names and knobs of the
package."""

import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import ofdma_sra
from ofdma_sra import ChannelConfig, ScenarioConfig, UtilityConfig
from ofdma_sra.cli import build_parser

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
    assert list(got) == ["lines", "code_lines", "all", "knobs"]
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src").rglob("*.py"))
    assert int(got["lines"]) == lines
    assert 0 < int(got["code_lines"]) < lines
    assert int(got["all"]) == len(ofdma_sra.__all__)
    # channel and utility are counted by their fields; the run options
    # are every parsed name but the subcommand and the config path
    fields = (len(dataclasses.fields(ScenarioConfig)) - 2
              + len(dataclasses.fields(ChannelConfig))
              + len(dataclasses.fields(UtilityConfig)))
    options = len(vars(build_parser().parse_args(["run", "scenario.json"]))) - 2
    assert int(got["knobs"]) == fields + options
