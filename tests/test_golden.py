"""Byte-identity guard for the CLI.

Every ``noncross ...`` example in the README (the quick-start block and the
"Run it" column of the guarantee table) runs through ``cli.run`` and
``cli.render``; its output must equal the golden file recorded for it under
``tests/golden/``.  A refactor that changes any printed byte fails here.

Regenerate the golden files only for an intended output change::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import re
import shlex
import sys
from pathlib import Path

import pytest

from noncross import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_examples() -> list[tuple[str, ...]]:
    """Argument vectors of the README's CLI examples, in order of appearance."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quick start (CLI)", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.strip().startswith("noncross ")]
    lines += [cmd.replace("\\|", "|") for cmd in re.findall(r"`(noncross [^`]+)`", text)]
    out: list[tuple[str, ...]] = []
    for line in lines:
        argv = tuple(shlex.split(line, comments=True)[1:])
        if argv not in out:
            out.append(argv)
    return out


def golden_path(argv: tuple[str, ...]) -> Path:
    return GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-") + ".txt")


def rendered(argv: tuple[str, ...]) -> str:
    result = cli.run(list(argv))
    assert result.exit_code == 0, result.payload
    return cli.render(result.payload, result.fmt) + "\n"


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 12


@pytest.mark.parametrize("argv", EXAMPLES, ids=lambda a: " ".join(a))
def test_readme_example_matches_golden(argv):
    assert rendered(argv) == golden_path(argv).read_text()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.mkdir(exist_ok=True)
    for argv in EXAMPLES:
        golden_path(argv).write_text(rendered(argv))
        print(golden_path(argv).name)
