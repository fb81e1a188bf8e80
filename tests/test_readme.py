"""The README's ``python`` blocks run against the current API, its config
block loads, and its CLI block lists every option of every command."""

import argparse
import json
import pathlib
import re

from invarcert.cli import build_parser
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


def test_readme_cli_block_lists_every_option():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    (block,) = [b for b in blocks if "invarcert certify" in b]
    usage = {}
    for line in block.replace("\\\n", " ").splitlines():
        usage[line.split()[1]] = line
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(usage) == set(commands.choices)
    for command, parser in commands.choices.items():
        options = {o for a in parser._actions for o in a.option_strings if o[:2] == "--"}
        for option in sorted(options - {"--help"}):
            assert re.search(rf"(?<![\w-]){option}(?![\w-])", usage[command]), (
                f"the README's usage of '{command}' lacks {option}"
            )
