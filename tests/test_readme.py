"""The README's command-line examples run as documented."""

import re
import shlex
from pathlib import Path

from halfcomm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_examples():
    """(argv, expected first stdout line or None) for every ``halfcomm``
    line of the first code block under "## Command line"; the expectation is
    a ``# ->`` comment at the end of the line or on the next line."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = []
    for line in block.splitlines():
        arrow = re.search(r"#\s*->\s*(.*)$", line)
        if line.startswith("halfcomm "):
            examples.append([shlex.split(line, comments=True)[1:], arrow and arrow.group(1).strip()])
        elif arrow and examples and examples[-1][1] is None:
            examples[-1][1] = arrow.group(1).strip()
    return examples


def test_readme_command_line_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = command_line_examples()
    assert len(examples) == 13
    assert sum(expected is not None for _argv, expected in examples) == 3
    for argv, expected in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if expected is not None:
            assert out.splitlines()[0] == expected, argv
