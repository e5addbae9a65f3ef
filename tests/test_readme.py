"""Every ``fusionkit`` line in README's command-line block parses with the
CLI's own parser, and all but ``sweep`` run with exit code 0, so a stale
flag in the docs fails the suite.  ``sweep`` is run by test_cli at
``--max-order 8``."""

import re
import shlex
from pathlib import Path

import pytest

from fusionkit.cli import _parser, run

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("fusionkit ")]


def test_the_command_block_is_found():
    assert len(_command_lines()) >= 14


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_runs(capsys, line):
    argv = shlex.split(line)[1:]
    args = _parser().parse_args(argv)
    if args.command != "sweep":
        code = run(argv)
        assert code == 0, capsys.readouterr().err
        assert capsys.readouterr().out.startswith('{"command":')
