"""README's command line examples print what README says they print.

Every `$ epigame ...` line in a `text` block of README.md runs through
`epigame.cli.main`, in a temporary directory that holds a copy of `data/`.
The lines after it, up to the next `$` line or the end of the block, are
its expected stdout. The commands of one block run in order in one
directory, so a later command can read a file an earlier one wrote.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from epigame.cli import main

ROOT = Path(__file__).resolve().parents[1]
TEXT_BLOCK = re.compile(r"^```text\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _examples():
    """One list of (argv, expected stdout lines) per text block with commands."""
    blocks = []
    for body in TEXT_BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8")):
        commands = []
        for line in body.splitlines():
            if line.startswith("$ "):
                words = shlex.split(line[2:])
                commands.append((words[1:], []) if words[0] == "epigame" else None)
            elif commands and commands[-1] is not None:
                commands[-1][1].append(line)
        if commands:
            blocks.append(commands)
    return blocks


EXAMPLES = _examples()


def test_readme_has_examples_for_every_subcommand():
    assert all(cmd is not None for block in EXAMPLES for cmd in block)
    first_words = {argv[0] for block in EXAMPLES for argv, _ in block}
    assert first_words == {"solve", "announce", "eval", "check", "derive"}


@pytest.mark.parametrize("block", EXAMPLES, ids=[f"{k}-{b[0][0][0]}" for k, b in enumerate(EXAMPLES)])
def test_readme_example_prints_what_readme_shows(block, tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    for argv, expected in block:
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, out.splitlines()) == (0, expected), " ".join(argv)
