"""``cdcop --help`` and each subcommand's ``--help`` match the committed text.

The text is rendered 80 columns wide; argparse's wrapping and layout change
between Python versions, so ``tests/golden/help/python.txt`` records the
version it was made with. Rewrite it with

    PYTHONPATH=src python tests/test_help.py
"""

import contextlib
import io
import os
import platform
from pathlib import Path

import pytest

from cdcop.cli import main

HELP = Path(__file__).resolve().parent / "golden" / "help"
COMMANDS = ["cdcop", "gen", "solve", "oracle", "experiment"]


def render(command: str) -> str:
    """The ``--help`` output of ``command`` at the current ``COLUMNS``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main([*([] if command == "cdcop" else [command]), "--help"])
    return out.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_help_matches_golden(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    recorded = (HELP / "python.txt").read_text().strip()
    assert render(command) == (HELP / f"{command}.txt").read_text(), (
        f"the help text was recorded under Python {recorded}, this is "
        f"{platform.python_version()}: if only argparse's layout differs, rewrite it with "
        "tests/test_help.py")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    HELP.mkdir(parents=True, exist_ok=True)
    (HELP / "python.txt").write_text(platform.python_version() + "\n")
    for name in COMMANDS:
        (HELP / f"{name}.txt").write_text(render(name))
