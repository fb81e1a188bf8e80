"""The README's ``python`` blocks run against the current API, and its
config block loads."""

import json
import pathlib
import re

from invarcert.config import parse_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_config_block_loads():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    config = parse_config(json.loads(blocks[0]))
    assert (config.family.n, config.family.m, config.scenarios.K) == (2, 1, 200)
