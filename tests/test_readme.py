"""README.md's code blocks hold for the package as it is."""

import json
import re
from pathlib import Path

from ofdma_sra import ScenarioConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    assert blocks("python")
    for code in blocks("python"):
        exec(compile(code, str(README), "exec"), {})


def test_readme_scenario_example_parses():
    # a key the README documents but the config no longer has fails here
    assert blocks("jsonc")
    for text in blocks("jsonc"):
        raw = json.loads(re.sub(r"//.*$", "", text, flags=re.MULTILINE))
        ScenarioConfig.from_dict(raw)
